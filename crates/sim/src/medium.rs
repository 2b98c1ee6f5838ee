//! The messaging layer: what happens to a message once sent.
//!
//! Implementations decide latency, loss and connection breakage. The kernel
//! consults the medium once per send; everything else (event ordering,
//! delivery, crash filtering) is kernel business.

use rand::rngs::StdRng;

use crate::process::ProcId;
use crate::time::{SimDuration, SimTime};

/// Fate of one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Delivered at the given instant.
    Deliver {
        /// Delivery instant (>= send time).
        at: SimTime,
    },
    /// Not delivered; the sender's transport notices a broken connection at
    /// `sender_notice` (TCP retransmission budget exhausted).
    Break {
        /// When the sender learns of the break.
        sender_notice: SimTime,
    },
    /// Silently lost (no transport-level signal to the sender).
    Drop,
}

/// The base messaging layer (the only part the paper swaps between its
/// simulator and its ModelNet cluster).
pub trait Medium {
    /// Decides the fate of one `size`-byte message from `from` to `to`.
    ///
    /// `class` is the payload's [`Payload::class`] label — the decoded
    /// message type. Media that model the paper's §3.5 content-based
    /// adversary ("an adversary dropping packets based on their content")
    /// may drop on it; plain media ignore it.
    ///
    /// [`Payload::class`]: crate::Payload::class
    fn unicast(
        &mut self,
        now: SimTime,
        rng: &mut StdRng,
        from: ProcId,
        to: ProcId,
        size: usize,
        class: &'static str,
    ) -> Verdict;

    /// Informs the medium a process came up (join/restart).
    fn node_up(&mut self, id: ProcId) {
        let _ = id;
    }

    /// Informs the medium a process went down (crash).
    fn node_down(&mut self, id: ProcId) {
        let _ = id;
    }
}

/// Dense `ProcId`-indexed bitset: branchless, cache-resident membership for
/// the per-send liveness check (process ids are small consecutive integers,
/// so one cache line covers 512 of them).
#[derive(Debug, Clone, Default)]
pub struct ProcBitSet {
    words: Vec<u64>,
}

impl ProcBitSet {
    /// Marks `id` present.
    pub fn insert(&mut self, id: ProcId) {
        let w = id as usize / 64;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1u64 << (id as usize % 64);
    }

    /// Marks `id` absent.
    pub fn remove(&mut self, id: ProcId) {
        if let Some(w) = self.words.get_mut(id as usize / 64) {
            *w &= !(1u64 << (id as usize % 64));
        }
    }

    /// Whether `id` is present.
    pub fn contains(&self, id: ProcId) -> bool {
        self.words
            .get(id as usize / 64)
            .is_some_and(|w| w >> (id as usize % 64) & 1 == 1)
    }
}

/// Loss-free medium with constant one-way latency; for unit tests.
#[derive(Debug, Clone)]
pub struct PerfectMedium {
    /// One-way latency applied to every message.
    pub latency: SimDuration,
    down: ProcBitSet,
    /// How long after sending to a dead peer the sender notices the break.
    pub dead_peer_notice: SimDuration,
}

impl PerfectMedium {
    /// Creates a perfect medium with the given one-way latency.
    pub fn new(latency: SimDuration) -> Self {
        PerfectMedium {
            latency,
            down: ProcBitSet::default(),
            dead_peer_notice: SimDuration::from_secs(20),
        }
    }
}

impl Medium for PerfectMedium {
    fn unicast(
        &mut self,
        now: SimTime,
        _rng: &mut StdRng,
        _from: ProcId,
        to: ProcId,
        _size: usize,
        _class: &'static str,
    ) -> Verdict {
        if self.down.contains(to) {
            Verdict::Break {
                sender_notice: now + self.dead_peer_notice,
            }
        } else {
            Verdict::Deliver {
                at: now + self.latency,
            }
        }
    }

    fn node_up(&mut self, id: ProcId) {
        self.down.remove(id);
    }

    fn node_down(&mut self, id: ProcId) {
        self.down.insert(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitset_insert_remove_contains() {
        let mut s = ProcBitSet::default();
        assert!(!s.contains(0));
        for id in [0u32, 1, 63, 64, 65, 1000] {
            s.insert(id);
            assert!(s.contains(id), "{id} after insert");
        }
        assert!(!s.contains(2));
        assert!(!s.contains(999));
        s.remove(64);
        assert!(!s.contains(64));
        assert!(s.contains(63) && s.contains(65), "neighbors untouched");
        // Removing beyond the allocated words is a no-op, not a panic.
        s.remove(1_000_000);
        // Re-insert after remove.
        s.insert(64);
        assert!(s.contains(64));
    }

    #[test]
    fn perfect_medium_breaks_sends_to_down_nodes() {
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(1);
        let mut m = PerfectMedium::new(SimDuration::from_millis(10));
        let now = SimTime::ZERO;
        assert!(matches!(
            m.unicast(now, &mut rng, 0, 1, 8, "msg"),
            Verdict::Deliver { .. }
        ));
        m.node_down(1);
        assert_eq!(
            m.unicast(now, &mut rng, 0, 1, 8, "msg"),
            Verdict::Break {
                sender_notice: now + m.dead_peer_notice
            }
        );
        m.node_up(1);
        assert!(matches!(
            m.unicast(now, &mut rng, 0, 1, 8, "msg"),
            Verdict::Deliver { .. }
        ));
    }
}
