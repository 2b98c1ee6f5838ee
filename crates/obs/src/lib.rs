//! The deterministic observability plane.
//!
//! Every measurement surface in the workspace — protocol counters in
//! `fuse_core`, byte accounting in `fuse_net`, chaos run reports in
//! `fuse_harness`, live-load quantiles in `fuse_load` — reads from this
//! crate instead of keeping its own ad-hoc counter struct. Three pieces:
//!
//! * [`event`] — the typed observation grammar ([`Event`]) and the sink
//!   trait ([`ObsSink`]) instrumented code emits through. Events carry no
//!   strings beyond `&'static str` class labels, so recording is
//!   allocation-light and deterministic.
//! * [`recorder`] — [`Recorder`], the standard sink: folds events into
//!   [`Aggregates`] (named counters, per-class byte accounting, a
//!   notification log, per-class latency reservoirs). Aggregates merge
//!   commutatively and canonically, so summing per-node recorders yields
//!   bit-identical results for any partition of the recorders.
//! * [`reservoir`] — [`Reservoir`], the one shared quantile
//!   implementation (p50/p99/p999 by linear interpolation), plus [`Cdf`]
//!   for the experiment figures and [`ClassCounter`] for the per-class
//!   accounting in [`Aggregates`].
//!
//! The crate is dependency-free and sans-io: it never reads a clock —
//! every event that needs a timestamp carries one, stamped by the caller
//! from its driver's notion of `now`.
//!
//! [`json`] hosts the workspace's minimal JSON reader/writer (the chaos
//! binary's `--slo` section and `benchmark/` use it).

pub mod event;
pub mod json;
pub mod recorder;
pub mod reservoir;

pub use event::{Event, ObsSink, ReasonKind};
pub use recorder::{Aggregates, NotifyRecord, PhaseMark, Recorder};
pub use reservoir::{Cdf, ClassCounter, Reservoir};
