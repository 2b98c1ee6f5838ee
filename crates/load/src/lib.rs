//! Live-TCP load harness for the FUSE reproduction.
//!
//! Everything below drives *real* `fuse-node` processes over real sockets
//! — the deployment the paper ran (§7: ten virtual nodes per machine) —
//! where the rest of the workspace drives the same `NodeStack` state
//! machines inside the simulator. The pieces:
//!
//! * [`proxy`] — a userspace fault proxy in front of every node, judging
//!   each frame of each directed link by the simulator's `FaultPlane`
//!   (sever, blackhole, partition, decoded-class drops, pair loss) plus
//!   ambient delay and loss: the DESIGN.md §7 chaos vocabulary, live.
//! * [`cluster`] — an N-process fleet behind N proxies, with the nodes'
//!   stdout `NOTIFIED … t_ns=` protocol parsed into timestamps.
//! * [`scenario`] — the deterministic group/victim/fault plan shared by
//!   the live run and the sim reference.
//! * [`live`] — the one plan loop, run on the live [`Cluster`] and on the
//!   simulated fleet alike: both implement `fuse_harness::chaos::Fleet`,
//!   and every fault goes through the chaos op applier the sim runner uses.
//! * [`replay`] — chaos repro tokens (`chaos-v1;…`) replayed against live
//!   processes through that same applier, cross-checked against the
//!   simulated outcome.
//! * [`report`] — kill→last-member-notified p50/p99/p999 per fault class
//!   and the within-budget verdict `fuse-load` exits by.

pub mod cluster;
pub mod live;
pub mod proxy;
pub mod replay;
pub mod report;
pub mod scenario;

pub use cluster::{parse_notified, Cluster, ClusterError, Notified};
pub use proxy::{Ambient, Faults, NodeProxy};
pub use report::{ClassReport, LoadReport, Samples};
pub use scenario::{plan, FaultClass, GroupPlan, RoundPlan, ScenarioParams};
