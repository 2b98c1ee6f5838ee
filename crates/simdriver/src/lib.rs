//! Deterministic simulation driver for the sans-io FUSE stack.
//!
//! [`NodeStack`] adapts [`fuse_core::FuseStack`] — a pure state machine
//! with an input/output-queue interface — to the simulation kernel's
//! [`fuse_sim::Process`] trait: kernel events become [`fuse_core::Input`]s,
//! queued [`fuse_core::Output`]s become kernel sends and timers (cancels
//! are dropped: the stack discards a cancelled key when it fires), and
//! [`fuse_core::AppCall`]s dispatch to the embedded [`fuse_core::FuseApp`].
//! The drain preserves the stack's emission order, which is what keeps
//! simulated traces bit-identical to the pre-sans-io stack. The adapter is
//! the whole crate: the §5.1 alternative notifiers live beside their only
//! caller, `fuse_harness::experiments::ablation`.

pub mod stack;

pub use stack::NodeStack;
