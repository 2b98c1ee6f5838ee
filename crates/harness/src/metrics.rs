//! Kernel-level message accounting.
//!
//! [`MsgTrace`] observes every send through the [`fuse_sim::TraceSink`]
//! hook, tallying total messages and bytes, and separately the FUSE
//! layer's messages (Figure 10 reports their rate as group repair traffic).
//! Experiments snapshot the totals at phase boundaries (Figure 10 reports
//! messages/second per phase; the §7.5 steady-state table compares bytes
//! with and without groups). Bytes per message class live in the network's
//! recorder (`offered_by_class`, `delivered_by_class`).

use fuse_sim::{Payload, ProcId, SimTime, TraceSink, Verdict};

/// Snapshot of the counters at one instant.
#[derive(Debug, Clone)]
pub struct TraceSnapshot {
    /// When the snapshot was taken.
    pub at: SimTime,
    /// Total messages sent so far.
    pub msgs: u64,
    /// Total bytes sent so far.
    pub bytes: u64,
}

/// Delta between two snapshots, as rates.
#[derive(Debug, Clone)]
pub struct PhaseRates {
    /// Phase length in seconds.
    pub seconds: f64,
    /// Messages per second.
    pub msgs_per_sec: f64,
    /// Bytes per second.
    pub bytes_per_sec: f64,
}

/// Running totals: messages, bytes, and FUSE-layer messages.
#[derive(Debug, Clone, Default)]
pub struct MsgTrace {
    total_msgs: u64,
    total_bytes: u64,
    fuse_msgs: u64,
}

impl MsgTrace {
    /// Fresh counters.
    pub fn new() -> Self {
        MsgTrace::default()
    }

    /// Takes a snapshot of the running totals.
    pub fn snapshot(&self, at: SimTime) -> TraceSnapshot {
        TraceSnapshot {
            at,
            msgs: self.total_msgs,
            bytes: self.total_bytes,
        }
    }

    /// Rates between two snapshots.
    pub fn rates(start: &TraceSnapshot, end: &TraceSnapshot) -> PhaseRates {
        let seconds = end.at.since(start.at).as_secs_f64().max(1e-9);
        PhaseRates {
            seconds,
            msgs_per_sec: (end.msgs - start.msgs) as f64 / seconds,
            bytes_per_sec: (end.bytes - start.bytes) as f64 / seconds,
        }
    }

    /// Total messages observed.
    pub fn total_msgs(&self) -> u64 {
        self.total_msgs
    }

    /// Total bytes observed.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Messages of the FUSE layer (class `fuse.*`) observed.
    pub fn fuse_msgs(&self) -> u64 {
        self.fuse_msgs
    }
}

impl<M: Payload> TraceSink<M> for MsgTrace {
    fn on_send(
        &mut self,
        _now: SimTime,
        _from: ProcId,
        _to: ProcId,
        msg: &M,
        size: usize,
        _verdict: &Verdict,
    ) {
        self.total_msgs += 1;
        self.total_bytes += size as u64;
        self.fuse_msgs += u64::from(msg.class().starts_with("fuse."));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuse_sim::SimDuration;

    #[derive(Clone)]
    struct P(usize, &'static str);
    impl Payload for P {
        fn size_bytes(&self) -> usize {
            self.0
        }
        fn class(&self) -> &'static str {
            self.1
        }
    }

    #[test]
    fn counts_and_rates() {
        let mut t = MsgTrace::new();
        let s0 = t.snapshot(SimTime::ZERO);
        let v = Verdict::Drop;
        for _ in 0..100 {
            TraceSink::<P>::on_send(&mut t, SimTime::ZERO, 0, 1, &P(10, "ping"), 10, &v);
        }
        TraceSink::<P>::on_send(&mut t, SimTime::ZERO, 0, 1, &P(50, "fuse.repair"), 50, &v);
        let s1 = t.snapshot(SimTime::ZERO + SimDuration::from_secs(10));
        let r = MsgTrace::rates(&s0, &s1);
        assert_eq!(
            (t.total_msgs(), t.total_bytes(), t.fuse_msgs()),
            (101, 1050, 1)
        );
        assert_eq!((s0.msgs, s0.bytes), (0, 0));
        assert_eq!(
            (s1.msgs, s1.bytes, s1.at.since(s0.at)),
            (101, 1050, SimDuration::from_secs(10))
        );
        assert_eq!(r.seconds, 10.0);
        assert!((r.msgs_per_sec - 10.1).abs() < 1e-9);
        assert!((r.bytes_per_sec - 105.0).abs() < 1e-9);
    }
}
