//! Observation hooks for metrics.
//!
//! Experiments count messages by class and bytes on the wire (Figure 10 and
//! the §7.5 steady-state table). A [`TraceSink`] sees every send decision and
//! every delivery without protocol code knowing it is being watched.

use crate::medium::Verdict;
use crate::process::ProcId;
use crate::time::SimTime;

/// Observer of kernel-level message events.
pub trait TraceSink<M> {
    /// A message was submitted to the medium with the given verdict.
    fn on_send(
        &mut self,
        now: SimTime,
        from: ProcId,
        to: ProcId,
        msg: &M,
        size: usize,
        verdict: &Verdict,
    ) {
        let _ = (now, from, to, msg, size, verdict);
    }

    /// A message reached its destination process.
    fn on_deliver(&mut self, now: SimTime, from: ProcId, to: ProcId, msg: &M) {
        let _ = (now, from, to, msg);
    }

    /// A process was crashed or restarted by script.
    fn on_lifecycle(&mut self, now: SimTime, id: ProcId, up: bool) {
        let _ = (now, id, up);
    }
}

/// Sink that ignores everything.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullTrace;

impl<M> TraceSink<M> for NullTrace {}
