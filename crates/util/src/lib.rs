//! Deterministic building blocks shared by every crate in the FUSE
//! reproduction.
//!
//! The whole system is driven by a single seeded random number generator, so
//! any source of nondeterminism (in particular the randomized hasher used by
//! [`std::collections::HashMap`]) would break trace-level reproducibility.
//! This crate provides:
//!
//! * [`det`] — hash maps and sets with a fixed (FNV-1a) hasher,
//! * [`backoff`] — the capped exponential backoff used by FUSE group repair,
//! * [`idgen`] — deterministic unique-identifier generation,
//! * [`time`] — transport-neutral instants and durations,
//! * [`timer`] — driver-neutral timer keys and the one-wake-up rule,
//! * [`payload`] — the message size/class contract shared by every driver.
//!
//! The [`time`], [`timer`] and [`payload`] modules plus [`PeerAddr`] form
//! the *transport-neutral vocabulary* of the sans-io protocol stack: the
//! protocol crates (`fuse_overlay`, `fuse_core`) speak only these types,
//! and each driver (the deterministic sim kernel, the `fuse-node` TCP
//! runtime) maps them onto its own clock, sockets and scheduler.

pub mod backoff;
pub mod det;
pub mod idgen;
pub mod payload;
pub mod time;
pub mod timer;

/// Transport-neutral peer address: a dense process index assigned by the
/// deployment (the sim kernel's process id, or the `--id` of a `fuse-node`).
/// Drivers own the mapping from `PeerAddr` to real endpoints.
pub type PeerAddr = u32;

pub use backoff::Backoff;
pub use det::{DetHashMap, DetHashSet};
pub use payload::Payload;
pub use time::{Duration, Time};
pub use timer::{TimerKey, Wake};
