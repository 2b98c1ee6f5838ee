//! The stack's timers on the node's monotonic clock.

use std::collections::{BTreeSet, HashMap};

use fuse_util::TimerKey;

/// Armed timers in `(deadline, key)` order. Cancelling removes the entry at
/// once, so the store holds exactly the timers that can still fire; a lazy
/// heap would keep every cancelled key until its deadline, 60–120 s away.
#[derive(Default)]
pub struct Timers {
    order: BTreeSet<(u64, TimerKey)>,
    deadline: HashMap<TimerKey, u64>,
}

impl Timers {
    /// Arms `key` to fire at `at` (nanoseconds), replacing an earlier arm.
    pub fn arm(&mut self, key: TimerKey, at: u64) {
        if let Some(old) = self.deadline.insert(key, at) {
            self.order.remove(&(old, key));
        }
        self.order.insert((at, key));
    }

    /// Disarms `key`; a key that is not armed is ignored.
    pub fn cancel(&mut self, key: TimerKey) {
        if let Some(at) = self.deadline.remove(&key) {
            self.order.remove(&(at, key));
        }
    }

    /// The earliest deadline armed.
    pub fn next_deadline(&self) -> Option<u64> {
        self.order.first().map(|&(at, _)| at)
    }

    /// Removes and returns the earliest key due at `now`, ties by key.
    pub fn pop_due(&mut self, now: u64) -> Option<TimerKey> {
        let &(at, key) = self.order.first()?;
        if at > now {
            return None;
        }
        self.order.pop_first();
        self.deadline.remove(&key);
        Some(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(slot: u32) -> TimerKey {
        TimerKey {
            ns: 1,
            slot,
            gen: 0,
        }
    }

    #[test]
    fn cancelling_every_key_empties_the_store() {
        let mut t = Timers::default();
        for i in 0..100_000 {
            t.arm(key(i), 60_000_000_000 + u64::from(i % 977));
        }
        for i in 0..100_000 {
            t.cancel(key(i));
        }
        assert!(t.order.is_empty() && t.deadline.is_empty());
        assert_eq!(t.next_deadline(), None);
    }

    #[test]
    fn keys_fire_in_deadline_order_ties_by_key() {
        let mut t = Timers::default();
        for (slot, at) in [(5, 30), (2, 10), (9, 20), (1, 20), (4, 10)] {
            t.arm(key(slot), at);
        }
        assert_eq!(t.pop_due(9), None);
        let fired: Vec<u32> = std::iter::from_fn(|| t.pop_due(30))
            .map(|k| k.slot)
            .collect();
        assert_eq!(fired, [2, 4, 1, 9, 5]);
    }

    #[test]
    fn a_cancelled_or_rearmed_key_never_fires_at_its_old_deadline() {
        let mut t = Timers::default();
        t.arm(key(1), 10);
        t.arm(key(2), 10);
        t.arm(key(3), 10);
        t.cancel(key(2));
        t.arm(key(3), 50);
        let fired: Vec<u32> = std::iter::from_fn(|| t.pop_due(40))
            .map(|k| k.slot)
            .collect();
        assert_eq!(fired, [1]);
        assert_eq!(t.next_deadline(), Some(50));
    }
}
