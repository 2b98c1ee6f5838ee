//! Deterministic chaos exploration (§3.5's failure model, systematically).
//!
//! The paper claims the notification guarantee survives "any pattern of
//! packet loss … simultaneous network partitions and even an adversary
//! dropping packets based on their content". This module earns that claim
//! the only way a claim like that can be earned: by generating structured
//! multi-phase fault **scripts** (crash, restart, disconnect, partitions,
//! directed blackholes, loss ramps, group churn, and the content-based
//! adversary), running each in a fresh deterministic world, checking the
//! paper's invariants as first-class [`Invariant`] checkers, and — on
//! failure — **shrinking** the script to a minimal repro whose replay
//! token re-executes bit-identically.
//!
//! * [`script`] — the serializable script model and generator,
//! * [`runner`] — one script → one world → one [`RunReport`],
//! * [`fleet`] — the substrate interface ([`Fleet`]) and the one op
//!   applier ([`apply`]) every executor shares,
//! * [`invariant`] — one-way agreement, exactly-once, bounded detection,
//!   no orphaned state,
//! * [`mod@shrink`] — greedy minimization of failing scripts,
//! * [`token`] — replay tokens (`chaos replay <token>`),
//! * [`mod@explore`] — the generate/run/shrink loop behind the `chaos`
//!   binary.

pub mod explore;
pub mod fleet;
pub mod invariant;
pub mod runner;
pub mod script;
pub mod shrink;
pub mod token;

pub use explore::{explore, ExploreParams, FailureCase};
pub use fleet::{apply, Fleet, SimFleet};
pub use invariant::{standard_invariants, Invariant, RunContext, Violation};
pub use runner::{
    desugar, group_members, run_script, run_script_world, ChaosConfig, RtOp, RunReport,
};
pub use script::{ChaosOp, ChaosScript, MsgClass, Phase};
pub use shrink::shrink;
pub use token::{format_token, parse_token};
