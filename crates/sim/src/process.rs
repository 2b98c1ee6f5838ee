//! The process abstraction: protocol code as event handlers.

use rand::rngs::StdRng;

use crate::time::{SimDuration, SimTime};

/// Index of a simulated process (a "virtual node" in the paper's terms).
/// This is the transport-neutral [`fuse_util::PeerAddr`]: sans-io protocol
/// code addresses peers by the same dense index under every driver.
pub type ProcId = fuse_util::PeerAddr;

pub use fuse_util::Payload;

/// A simulated process: boots, receives messages, and handles timers.
///
/// Handlers interact with the world exclusively through [`Ctx`]; this is what
/// makes runs replayable and lets the same protocol code run over any
/// [`crate::Medium`].
pub trait Process: Sized {
    /// Message payload type exchanged between processes of this kind.
    type Msg: Payload;
    /// Timer tag type (what a timer means to the protocol).
    type Timer: Clone;

    /// Called once when the process is added or restarted.
    fn on_boot(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Timer>);

    /// Called when a message is delivered.
    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg, Self::Timer>,
        from: ProcId,
        msg: Self::Msg,
    );

    /// Called when a timer this incarnation armed fires.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Timer>, tag: Self::Timer);

    /// Called when the transport discovers a broken connection to `peer`
    /// (e.g. TCP gave up retransmitting). Default: ignored.
    fn on_link_broken(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Timer>, peer: ProcId) {
        let _ = (ctx, peer);
    }
}

/// Handler-side view of the world.
///
/// Sends and timers are queued and handed to the kernel when the handler
/// returns, timers first, each kind in order.
pub struct Ctx<'a, M, T> {
    /// Current simulated time.
    pub now: SimTime,
    /// The process this handler runs on.
    pub self_id: ProcId,
    pub(crate) rng: &'a mut StdRng,
    pub(crate) sends: &'a mut Vec<(ProcId, M)>,
    pub(crate) new_timers: &'a mut Vec<(SimTime, T)>,
}

impl<'a, M, T> Ctx<'a, M, T> {
    /// Queues a message to `to`.
    pub fn send(&mut self, to: ProcId, msg: M) {
        self.sends.push((to, msg));
    }

    /// Arms a timer firing `after` from now, carrying `tag`. There is no
    /// cancel: a process that no longer wants a timer ignores its tag when
    /// it fires. A crash voids every timer the process armed.
    pub fn set_timer(&mut self, after: SimDuration, tag: T) {
        self.new_timers.push((self.now + after, tag));
    }

    /// Deterministic randomness for jitter and sampling.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }
}
