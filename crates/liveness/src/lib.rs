//! Shared node-level failure-detector plane.
//!
//! FUSE's original liveness tracking is per *group*: every (group, link)
//! pair arms its own expiry timer, so a node participating in a million
//! groups pays a million timers — and in the live implementation would pay
//! a million ping streams — even though the set of distinct *peers* it
//! talks to is tiny (overlay neighbors plus a few asymmetric links).
//! Liveness, however, is a property of the node pair, not the group: the
//! paper's per-group guarantee only requires that when a peer is declared
//! failed, exactly the groups registered on that peer burn.
//!
//! This crate supplies the amortized plane:
//!
//! - [`Detector`] probes each registered peer once per period, SWIM-style:
//!   a direct probe, then `k` indirect probe relays through other peers on
//!   a miss, then a *suspicion* window in which a late ack refutes, and
//!   finally a `Dead` verdict when the window closes unanswered.
//! - [`SubscriptionRegistry`] maps each peer to the set of consumers
//!   (FUSE groups) subscribed to its verdict, so one `Dead` verdict fans
//!   out to exactly the registered groups — no over-burn, no under-burn.
//!
//! The detector is sans-io: every entry point takes a [`LivenessCx`]
//! (time, randomness, timer table, relay pool) and probe transmission,
//! timers and verdict delivery all leave as plain [`LivenessEffect`] data,
//! so it runs identically under the deterministic simulation kernel and
//! the `fuse-node` socket driver. `fuse_core` embeds it behind the `shared_plane` config
//! switch; the original per-group deadline path remains the default and the
//! two are held equivalent by the chaos explorer's differential checks.

pub mod config;
pub mod detector;
pub mod registry;

pub use config::LivenessConfig;
pub use detector::{Detector, LivenessCx, LivenessEffect, LivenessTimer, Verdict};
pub use registry::SubscriptionRegistry;
