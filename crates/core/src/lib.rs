//! FUSE: lightweight guaranteed distributed failure notification.
//!
//! This crate is the paper's primary contribution: the **FUSE group**
//! abstraction with *distributed one-way agreement* semantics. An
//! application creates a group over an immutable set of nodes
//! ([`FuseApi::create_group`]); thereafter, whenever the group is declared
//! failed — explicitly by any member ([`FuseApi::signal_failure`]) or
//! implicitly by FUSE's liveness checking — **every live member hears
//! exactly one failure notification within a bounded time**, under node
//! crashes and arbitrary network failures. "Failure notifications never
//! fail."
//!
//! The implementation follows the paper's §6:
//!
//! * **Creation** is blocking: the root contacts every member directly in
//!   parallel; members install state, reply, and route `InstallChecking`
//!   messages to the root through the overlay, arming per-hop delegate
//!   timers.
//! * **Steady state** costs nothing beyond overlay maintenance: every
//!   overlay ping piggybacks a 20-byte SHA-1 hash of the FUSE IDs jointly
//!   monitored on that link; a matching hash refreshes all their timers, a
//!   mismatch triggers reconciliation (with a short grace period for
//!   creation races).
//! * **Failures** burn like a fuse: any broken or expired link produces
//!   `SoftNotification`s through the liveness tree and repair attempts
//!   (root-driven, direct, sequence-numbered, exponentially backed off);
//!   unrepairable groups produce `HardNotification`s that invoke the
//!   application handler exactly once per node.
//!
//! The [`stack`] module composes overlay ↔ FUSE ↔ application into a single
//! **sans-io** state machine, [`FuseStack`]: drivers feed it
//! `(now, `[`Input`]`)` and drain [`Output`]s — there is no transport or
//! clock in this crate. The simulation kernel and the real-socket
//! `fuse-node` binary are both thin drivers over this one surface (see the
//! `fuse_simdriver` crate and the `fuse-node` package).

pub mod layer;
pub mod messages;
mod registry;
pub mod stack;
pub mod types;

pub use layer::FuseLayer;
pub use messages::{FuseMsg, InstallChecking};
pub use registry::SubscriptionRegistry;
pub use stack::{
    AppCall, FuseApi, FuseApp, FuseStack, Input, Output, StackMsg, NS_APP, NS_FUSE, NS_LIVENESS,
    NS_OVERLAY, WARM_SLOTS,
};
pub use types::{
    ConfigError, CreateError, CreateTicket, FuseConfig, FuseConfigBuilder, FuseEvent, FuseId,
    FuseTimer, GroupHandle, Notification, NotifyReason, Role,
};
