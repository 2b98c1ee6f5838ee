//! Deterministic simulation driver for the sans-io FUSE stack.
//!
//! [`NodeStack`] adapts [`fuse_core::FuseStack`] — a pure state machine
//! with an input/output-queue interface — to the simulation kernel's
//! [`fuse_sim::Process`] trait: kernel events become [`fuse_core::Input`]s,
//! queued [`fuse_core::Output`]s become kernel sends and timers (cancels
//! are dropped: the stack discards a cancelled key when it fires), and
//! [`fuse_core::AppCall`]s dispatch to the embedded [`fuse_core::FuseApp`].
//! The drain preserves the stack's emission order, which is what keeps
//! simulated traces bit-identical to the pre-sans-io stack.
//!
//! The [`topologies`] module hosts the paper's §5.1 alternative
//! liveness-checking topologies — sim-kernel processes in their own right,
//! compared against the overlay-sharing stack by the ablation experiment.

pub mod stack;
pub mod topologies;

pub use stack::NodeStack;
