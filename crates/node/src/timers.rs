//! The stack's timers on the node's monotonic clock.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use fuse_util::TimerKey;

/// Armed timers in `(deadline, arm order)`. Every arm fires once, as under
/// the simulation kernel: nothing is cancelled or replaced, and the stack
/// finds a key whose deadline moved stale when it comes.
#[derive(Default)]
pub struct Timers {
    heap: BinaryHeap<Reverse<(u64, u64, TimerKey)>>,
    armed: u64,
}

impl Timers {
    /// Arms `key` to fire at `at` (nanoseconds).
    pub fn arm(&mut self, key: TimerKey, at: u64) {
        self.armed += 1;
        self.heap.push(Reverse((at, self.armed, key)));
    }

    /// The earliest deadline armed.
    pub fn next_deadline(&self) -> Option<u64> {
        self.heap.peek().map(|e| e.0 .0)
    }

    /// Removes and returns the earliest key due at `now`, ties in arm
    /// order.
    pub fn pop_due(&mut self, now: u64) -> Option<TimerKey> {
        if self.next_deadline()? > now {
            return None;
        }
        self.heap.pop().map(|e| e.0 .2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(arg: u64) -> TimerKey {
        TimerKey {
            ns: 3,
            kind: 0,
            arg,
        }
    }

    #[test]
    fn keys_fire_in_deadline_order_ties_in_arm_order() {
        let mut t = Timers::default();
        for (arg, at) in [(5, 30), (2, 10), (9, 20), (1, 20), (4, 10)] {
            t.arm(key(arg), at);
        }
        assert_eq!(t.pop_due(9), None);
        let fired: Vec<u64> = std::iter::from_fn(|| t.pop_due(30))
            .map(|k| k.arg)
            .collect();
        assert_eq!(fired, [2, 4, 9, 1, 5]);
        assert_eq!(t.next_deadline(), None);
    }

    /// Two arms of one application tag are two timers, as in the sim:
    /// each fires once, at its own deadline.
    #[test]
    fn every_arm_of_one_key_fires() {
        let mut t = Timers::default();
        t.arm(key(42), 50);
        t.arm(key(42), 10);
        assert_eq!(t.pop_due(10), Some(key(42)));
        assert_eq!(t.pop_due(40), None);
        assert_eq!(t.next_deadline(), Some(50));
        assert_eq!(t.pop_due(50), Some(key(42)));
        assert_eq!(t.pop_due(u64::MAX), None);
    }
}
