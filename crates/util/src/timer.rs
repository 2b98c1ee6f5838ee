//! Driver-neutral timer identities for sans-io state machines.
//!
//! A sans-io stack cannot own a clock or an event queue, so "arm a timer"
//! becomes an *arm* effect carrying a [`TimerKey`] and a relative
//! deadline. The driver schedules it however it likes (kernel timing
//! wheel, a heap polled by an event loop, ...) and later feeds the bare
//! key back in.
//!
//! Each layer of the stack keeps its deadlines in the state they guard and
//! arms one key for all of them: its [`Wake`]. A firing is a hint: the
//! layer acts on whichever of its deadlines has come (`due <= now`), then
//! arms for the earliest one left. Nothing is cancelled, and a wake-up
//! that fires early, late or twice finds nothing due, or acts late.

use crate::time::{Duration, Time};

/// What one armed timer is for.
///
/// `ns` says which layer armed it (overlay, FUSE, application); `kind` and
/// `arg` are the layer's own tag, encoded by the stack that owns the
/// namespaces: a layer's wake-up carries neither, an application timer its
/// tag in `arg`. Keys are plain data — `Ord` so drivers can keep them in
/// heaps, `Hash` for maps — and two arms of one purpose carry equal keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerKey {
    /// Which layer's timer this is.
    pub ns: u8,
    /// Which of the layer's timers.
    pub kind: u8,
    /// An application timer's tag; 0 for a layer's wake-up.
    pub arg: u64,
}

/// One layer's wake-up rule: the earliest wake-up armed and not yet fired.
///
/// A layer notes each deadline it stores; a wake-up is armed only for one
/// that comes before the wake-up already pending, which comes first and
/// re-arms for what is left. A firing at `now` forgets every wake-up at or
/// before `now`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Wake {
    pending: Option<Time>,
}

impl Wake {
    /// Notes the deadline `at`: the delay to arm a wake-up for, measured
    /// from `now`, when it comes before the one pending; `None` when the
    /// pending wake-up comes first.
    pub fn note(&mut self, now: Time, at: Time) -> Option<Duration> {
        if self.pending.is_some_and(|p| p <= at) {
            return None;
        }
        self.pending = Some(at);
        Some(at.since(now))
    }

    /// A wake-up fired at `now`.
    pub fn fired(&mut self, now: Time) {
        self.pending = self.pending.filter(|&p| p > now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_key_stays_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<TimerKey>(), 16);
    }

    /// Only a deadline ahead of the pending wake-up arms one; a firing
    /// forgets what it passed and nothing later.
    #[test]
    fn a_wake_arms_only_ahead_of_the_pending_one() {
        let t = |s: u64| Time::ZERO + Duration::from_secs(s);
        let mut w = Wake::default();
        assert_eq!(w.note(t(0), t(10)), Some(Duration::from_secs(10)));
        assert_eq!(w.note(t(1), t(10)), None, "one at the same instant");
        assert_eq!(w.note(t(1), t(20)), None, "a later one");
        assert_eq!(w.note(t(2), t(5)), Some(Duration::from_secs(3)));
        w.fired(t(4));
        assert_eq!(w.note(t(4), t(6)), None, "an early firing forgets nothing");
        w.fired(t(5));
        assert_eq!(w.note(t(5), t(10)), Some(Duration::from_secs(5)));
        w.fired(t(12));
        assert_eq!(w.note(t(12), t(12)), Some(Duration::ZERO), "a late firing");
    }
}
