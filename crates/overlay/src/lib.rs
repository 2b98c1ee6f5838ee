//! SkipNet-style scalable overlay network.
//!
//! The paper implements FUSE on top of SkipNet (§6) and needs exactly two
//! features from it: "messages routed through the overlay result in a client
//! upcall on every intermediate overlay hop, and the overlay routing table is
//! visible to the client" (§6.1). This crate rebuilds the parts of SkipNet
//! that FUSE exercises:
//!
//! * a lexicographically ordered **name ring** with a leaf set of the 16
//!   nearest ring neighbors (8 per side),
//! * a base-8 **numeric-prefix routing table** giving O(log n) routes,
//! * **join**, failure repair and opportunistic table maintenance,
//! * **liveness pinging** of every routing-table neighbor (60 s period, 20 s
//!   timeout, as configured in §7.1) with a pluggable piggyback digest on
//!   every ping and ack — the hook FUSE uses to share liveness traffic
//!   across all groups (§6.3),
//! * per-hop **upcalls** for routed client payloads, and routing-table
//!   visibility through [`OverlayNode::neighbors`]/[`OverlayNode::next_hop`].
//!
//! The overlay is sans-io: every entry point takes an [`OverlayCx`] and all
//! side effects leave through it: sends and wake-up requests into an
//! [`OverlaySink`] the embedding stack (`fuse_core::FuseStack`) implements
//! over its output queue, and [`OverlayUpcall`]s for the client layer. The
//! sink also answers the one read the overlay makes of its client: the
//! digest a ping or ack carries, asked for as it is built. This
//! crate has no dependency on any driver — neither the simulation kernel
//! nor sockets.

pub mod config;
pub mod id;
pub mod io;
pub mod messages;
pub mod node;
pub mod oracle;

pub use config::OverlayConfig;
pub use id::{NodeInfo, NodeName, NumericId};
pub use io::{OverlayCx, OverlaySink, OverlayUpcall};
pub use messages::OverlayMsg;
pub use node::OverlayNode;
pub use oracle::build_oracle_tables;
