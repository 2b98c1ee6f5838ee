//! Deterministic discrete-event simulation kernel.
//!
//! The paper evaluates FUSE with "a scalable discrete event simulator and a
//! live implementation with up to 400 virtual nodes", sharing one code base
//! "except for the base messaging layer" (§7). This crate is that shared
//! substrate: protocol code is written once against the [`Process`] trait and
//! runs unchanged under any [`Medium`] (the messaging layer), from a perfect
//! test network to the ModelNet-like wide-area emulation in `fuse-net`.
//!
//! Determinism contract: for a fixed seed and fixed call sequence, every run
//! produces the identical event trace. All randomness flows from one seeded
//! RNG; the event queue breaks time ties by insertion sequence; protocol
//! crates use `fuse-util`'s deterministic collections.

pub mod baseline;
pub mod kernel;
pub mod medium;
pub mod process;
pub mod time;
pub mod trace;
pub mod wheel;

pub use baseline::BaselineSim;
pub use kernel::Sim;
pub use medium::{Medium, PerfectMedium, ProcBitSet, Verdict};
pub use process::{Payload, ProcId, Process};
pub use time::{SimDuration, SimTime};
pub use trace::{NullTrace, TraceSink};
