//! Hierarchical timing wheel: the kernel's one event queue.
//!
//! The dominant event classes in every FUSE experiment are the periodic
//! liveness-ping timer (thousands of nodes re-arm one timer per ping
//! period) and the ping deliveries it causes. A binary heap charges
//! O(log n) sift per insert and per expiry; this wheel makes both
//! amortized O(1). There is no removal: an entry nobody wants any more is
//! discarded by the kernel or the process when it surfaces.
//!
//! # Structure
//!
//! Time is bucketed into *ticks* of 2^`TICK_SHIFT` ns (≈1 ms). Eleven
//! levels of 64 slots each cover the entire 64-bit tick space (66 bits of
//! span), so there is no overflow path to reason about. An entry's level is
//! the highest 6-bit digit in which its tick differs from the wheel cursor —
//! the layout used by kernel timer wheels and tokio's driver. Each level
//! keeps a 64-bit occupancy bitmap, so finding the next non-empty slot is a
//! shift plus `trailing_zeros` rather than a scan.
//!
//! # Storage
//!
//! Every slotted entry lives in one arena `Vec`; a slot is only the `u32`
//! head of an intrusive singly linked list through that arena, and freed
//! nodes recycle through a free list threaded the same way. Cascading a
//! slot relinks node indices into finer slots and copies no entry. So the
//! wheel's storage is bounded by the peak number of entries pending at
//! once, not by the sum of every slot's own peak, and steady-state
//! operation allocates nothing.
//!
//! # Exactness
//!
//! Slots are coarser than timestamps, so expiring a slot *cascades* its
//! entries down to finer levels; entries whose tick has been reached move
//! into a small `due` heap ordered by the exact `(time, seq)` pair, which
//! is the kernel's determinism contract: earliest first, FIFO among equal
//! timestamps. The order of a slot's list is therefore irrelevant.
//! `prepare` maintains the invariant that makes this sound: whenever
//! [`peek`] returns an entry, no entry anywhere in the wheel precedes it.
//!
//! [`peek`]: EventQueue::peek

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// log2 of the tick length in nanoseconds (2^20 ns ≈ 1.05 ms).
const TICK_SHIFT: u32 = 20;
/// log2 of slots per level.
const LEVEL_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Levels; 11 × 6 bits ≥ 64, so every u64 tick distance has a level.
const LEVELS: usize = 11;
/// End of an arena list (an empty slot, or an exhausted free list).
const NIL: u32 = u32::MAX;

fn tick_of(at: SimTime) -> u64 {
    at.nanos() >> TICK_SHIFT
}

/// One wheel entry: an exact deadline, the global kernel sequence number
/// (FIFO tie-break), and an opaque token the kernel resolves on expiry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WheelEntry<T> {
    /// Exact deadline.
    pub at: SimTime,
    /// Global kernel sequence number.
    pub seq: u64,
    /// Kernel token (what the event means).
    pub token: T,
}

/// What the kernel needs of its event queue: entries come out earliest
/// `(at, seq)` first, so FIFO among equal deadlines. [`TimingWheel`] is
/// the one production queue; a test may plug in a reference through
/// [`Scheduler`].
pub trait EventQueue<T> {
    /// Inserts an entry.
    fn insert(&mut self, entry: WheelEntry<T>);
    /// Earliest entry's `(at, seq)`, or `None` if empty.
    fn peek(&mut self) -> Option<(SimTime, u64)>;
    /// Removes and returns the earliest entry.
    fn pop(&mut self) -> Option<WheelEntry<T>>;
    /// Number of entries.
    fn len(&self) -> usize;
    /// Whether the queue holds no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Names the queue a [`crate::Sim`] keeps its events in. The queue is
/// chosen per entry type, so the kernel's private event token never
/// appears in a public type.
pub trait Scheduler {
    /// The queue holding entries with tokens of type `T`.
    type Queue<T>: EventQueue<T> + Default;
}

/// The default scheduler: one [`TimingWheel`].
pub enum Wheel {}

impl Scheduler for Wheel {
    type Queue<T> = TimingWheel<T>;
}

/// Min-heap adapter: earliest `(at, seq)` first.
struct DueEntry<T>(WheelEntry<T>);

impl<T> PartialEq for DueEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.0.at, self.0.seq) == (other.0.at, other.0.seq)
    }
}

impl<T> Eq for DueEntry<T> {}

impl<T> PartialOrd for DueEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for DueEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed for BinaryHeap's max-at-top.
        (other.0.at, other.0.seq).cmp(&(self.0.at, self.0.seq))
    }
}

/// One arena node: a slotted entry, or (when `entry` is `None`) a member
/// of the free list.
struct Node<T> {
    entry: Option<WheelEntry<T>>,
    /// Next node in the same slot's list, or in the free list.
    next: u32,
}

struct Level {
    occupied: u64,
    /// Arena index of each slot's first node, or `NIL`.
    heads: [u32; SLOTS],
}

impl Level {
    fn new() -> Self {
        Level {
            occupied: 0,
            heads: [NIL; SLOTS],
        }
    }

    /// Next occupied slot and its deadline (slot-start tick), relative to
    /// `cursor`. Slots at indices below the cursor's belong to the next
    /// rotation of this level.
    fn next_expiration(&self, level: usize, cursor: u64) -> Option<(usize, u64)> {
        if self.occupied == 0 {
            return None;
        }
        let shift = LEVEL_BITS * level as u32;
        let slot_range = 1u64 << shift;
        // At the top level the range would be 2^66; wrapping to 0 makes the
        // mask below all-ones, which is exactly right (one rotation covers
        // everything, so there is no "next rotation").
        let level_range = slot_range.wrapping_shl(LEVEL_BITS);
        let cur_slot = ((cursor >> shift) & (SLOTS as u64 - 1)) as usize;
        let base = cursor & !level_range.wrapping_sub(1);
        let ahead = self.occupied >> cur_slot;
        if ahead != 0 {
            let idx = cur_slot + ahead.trailing_zeros() as usize;
            Some((idx, base + idx as u64 * slot_range))
        } else {
            // A slot behind the cursor's index belongs to the next rotation
            // of this level (unreachable at the top level, where the
            // invariant `tick > cursor` keeps every occupied slot ahead).
            debug_assert!(level_range != 0, "top level cannot wrap");
            let idx = self.occupied.trailing_zeros() as usize;
            Some((
                idx,
                base.wrapping_add(level_range) + idx as u64 * slot_range,
            ))
        }
    }
}

/// Hierarchical timing wheel; see the module docs.
pub struct TimingWheel<T> {
    levels: [Level; LEVELS],
    /// Every slotted entry; slots and the free list are lists through it.
    arena: Vec<Node<T>>,
    /// First free arena node, or `NIL`.
    free: u32,
    /// Current position in ticks. Invariant: every entry stored in a level
    /// slot has `tick > cursor`; entries at or before the cursor live in
    /// `due`.
    cursor: u64,
    due: BinaryHeap<DueEntry<T>>,
    len: usize,
    /// Cached result of [`Self::next_expiring_slot`], kept current by
    /// inserts (monotone min) and invalidated by cascades, so the common
    /// peek/pop path does not rescan all levels.
    next_slot: Option<(usize, usize, u64)>,
    scan_needed: bool,
}

impl<T> Default for TimingWheel<T> {
    fn default() -> Self {
        TimingWheel::new()
    }
}

impl<T> EventQueue<T> for TimingWheel<T> {
    /// Inserts an entry. O(1).
    fn insert(&mut self, entry: WheelEntry<T>) {
        self.len += 1;
        let tick = tick_of(entry.at);
        if tick <= self.cursor {
            // Already inside the window the cursor has passed (e.g. a
            // zero-delay timer armed from a handler): goes straight to the
            // exact-order heap.
            self.due.push(DueEntry(entry));
            return;
        }
        let node = if self.free == NIL {
            assert!(self.arena.len() < NIL as usize, "wheel arena full");
            let node = self.arena.len() as u32;
            self.arena.push(Node {
                entry: Some(entry),
                next: NIL,
            });
            node
        } else {
            let node = self.free;
            let n = &mut self.arena[node as usize];
            self.free = n.next;
            n.entry = Some(entry);
            node
        };
        self.link(node, tick);
    }

    /// Earliest entry's `(at, seq)`, or `None` if empty. Amortized O(1):
    /// cascade work done here is charged to the entries it relocates, each
    /// of which only ever moves to a lower level.
    fn peek(&mut self) -> Option<(SimTime, u64)> {
        self.prepare();
        self.due.peek().map(|e| (e.0.at, e.0.seq))
    }

    /// Removes and returns the earliest entry.
    fn pop(&mut self) -> Option<WheelEntry<T>> {
        self.prepare();
        let e = self.due.pop()?;
        self.len -= 1;
        Some(e.0)
    }

    fn len(&self) -> usize {
        self.len
    }
}

impl<T> TimingWheel<T> {
    /// Empty wheel positioned at time zero.
    pub fn new() -> Self {
        TimingWheel {
            levels: std::array::from_fn(|_| Level::new()),
            arena: Vec::new(),
            free: NIL,
            cursor: 0,
            due: BinaryHeap::new(),
            len: 0,
            next_slot: None,
            scan_needed: false,
        }
    }

    /// Pushes arena node `node`, due at `tick > cursor`, onto the head of
    /// its slot's list.
    fn link(&mut self, node: u32, tick: u64) {
        let level = level_for(self.cursor, tick);
        let shift = LEVEL_BITS * level as u32;
        let idx = ((tick >> shift) & (SLOTS as u64 - 1)) as usize;
        let l = &mut self.levels[level];
        self.arena[node as usize].next = l.heads[idx];
        l.heads[idx] = node;
        l.occupied |= 1 << idx;
        if !self.scan_needed {
            // A freshly placed slot is never behind the cursor's index at
            // its level, so its deadline is simply the slot-start tick;
            // fold it into the cached minimum.
            let deadline = tick & !((1u64 << shift) - 1);
            if self.next_slot.is_none_or(|(_, _, d)| deadline < d) {
                self.next_slot = Some((level, idx, deadline));
            }
        }
    }

    /// Restores the invariant that `due` holds every entry that could
    /// precede any slot entry: expires slots (cascading) until the next
    /// slot deadline lies strictly beyond the exact tick at the head of
    /// `due`.
    fn prepare(&mut self) {
        if self.len == 0 {
            return;
        }
        loop {
            if self.scan_needed {
                self.next_slot = self.next_expiring_slot();
                self.scan_needed = false;
            }
            let Some((level, idx, deadline)) = self.next_slot else {
                return;
            };
            if let Some(due_head) = self.due.peek() {
                if deadline > tick_of(due_head.0.at) {
                    // Every slot entry is at a strictly later tick than the
                    // due head; the head is globally earliest.
                    return;
                }
            }
            self.cursor = self.cursor.max(deadline);
            // Invalidate before cascading: the emptied slot may have been
            // the cached minimum, and re-links during the cascade must not
            // fold into a stale cache.
            self.scan_needed = true;
            self.cascade(level, idx);
        }
    }

    /// Minimum slot-start deadline over all levels.
    fn next_expiring_slot(&self) -> Option<(usize, usize, u64)> {
        let mut best: Option<(usize, usize, u64)> = None;
        for (level, l) in self.levels.iter().enumerate() {
            if let Some((idx, deadline)) = l.next_expiration(level, self.cursor) {
                if best.is_none_or(|(_, _, d)| deadline < d) {
                    best = Some((level, idx, deadline));
                }
            }
        }
        best
    }

    /// Empties one slot relative to the (already advanced) cursor: entries
    /// at reached ticks leave the arena for `due`, freeing their nodes; the
    /// rest are relinked into finer levels.
    fn cascade(&mut self, level: usize, idx: usize) {
        let l = &mut self.levels[level];
        l.occupied &= !(1 << idx);
        let mut node = std::mem::replace(&mut l.heads[idx], NIL);
        while node != NIL {
            let n = &mut self.arena[node as usize];
            let next = n.next;
            let tick = tick_of(n.entry.as_ref().expect("slotted node holds an entry").at);
            if tick <= self.cursor {
                let entry = n.entry.take().expect("slotted node holds an entry");
                n.next = self.free;
                self.free = node;
                self.due.push(DueEntry(entry));
            } else {
                debug_assert!(
                    level_for(self.cursor, tick) < level,
                    "cascade must strictly lower an entry's level"
                );
                self.link(node, tick);
            }
            node = next;
        }
    }
}

/// Level containing `tick` as seen from `cursor`: index of the highest
/// 6-bit digit in which they differ. Requires `tick > cursor`; the result
/// is always `< LEVELS` because 11 levels cover 66 bits.
fn level_for(cursor: u64, tick: u64) -> usize {
    debug_assert!(tick > cursor);
    let highest_bit = 63 - (cursor ^ tick).leading_zeros();
    (highest_bit / LEVEL_BITS) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn entry(at_nanos: u64, seq: u64) -> WheelEntry<u64> {
        WheelEntry {
            at: SimTime(at_nanos),
            seq,
            token: seq,
        }
    }

    fn drain(w: &mut TimingWheel<u64>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some(e) = w.pop() {
            out.push((e.at.nanos(), e.seq));
        }
        out
    }

    #[test]
    fn orders_across_levels() {
        let mut w = TimingWheel::new();
        // Nanosecond deadlines spanning level 0 through far horizons.
        let nanos = [
            1u64,
            1 << 21,
            (1 << 26) + 5,
            (1 << 32) + 7,
            (1 << 38) + 11,
            3,
            1 << 30,
            (1 << 62) + 13,
        ];
        for (i, &n) in nanos.iter().enumerate() {
            w.insert(entry(n, i as u64));
        }
        let mut expect: Vec<(u64, u64)> = nanos
            .iter()
            .enumerate()
            .map(|(i, &n)| (n, i as u64))
            .collect();
        expect.sort_unstable();
        assert_eq!(drain(&mut w), expect);
    }

    #[test]
    fn fifo_among_equal_deadlines() {
        let mut w = TimingWheel::new();
        for seq in 0..100u64 {
            w.insert(entry(5_000_000, seq));
        }
        let popped = drain(&mut w);
        assert_eq!(
            popped,
            (0..100).map(|s| (5_000_000, s)).collect::<Vec<_>>(),
            "equal timestamps must come out in insertion-sequence order"
        );
    }

    #[test]
    fn same_tick_different_nanos_order_exactly() {
        // Deadlines inside one ~1 ms tick must still order by exact time,
        // and insertion order must not matter.
        let mut w = TimingWheel::new();
        w.insert(entry(500, 0));
        w.insert(entry(100, 1));
        w.insert(entry(300, 2));
        assert_eq!(drain(&mut w), vec![(100, 1), (300, 2), (500, 0)]);
    }

    #[test]
    fn late_insert_at_passed_tick_goes_due() {
        let mut w = TimingWheel::new();
        w.insert(entry(10_000_000, 0));
        assert_eq!(w.pop().map(|e| e.seq), Some(0));
        // Cursor has advanced past tick 0; a new entry behind it must still
        // surface (and before later ones).
        w.insert(entry(1_000, 1));
        w.insert(entry(20_000_000, 2));
        assert_eq!(drain(&mut w), vec![(1_000, 1), (20_000_000, 2)]);
    }

    #[test]
    fn far_horizon_does_not_shadow_near_entries() {
        // A year-scale deadline parked at a high level must not delay or
        // reorder near-term entries inserted afterwards.
        let mut w = TimingWheel::new();
        let year = SimDuration::from_secs(365 * 24 * 3600).nanos();
        w.insert(entry(year, 0));
        w.insert(entry(42, 1));
        w.insert(entry(year + 5, 2));
        w.insert(entry(1_000_000, 3));
        assert_eq!(
            drain(&mut w),
            vec![(42, 1), (1_000_000, 3), (year, 0), (year + 5, 2)]
        );
    }

    #[test]
    fn interleaved_insert_pop_preserves_order() {
        let mut w = TimingWheel::new();
        let ms = SimDuration::from_millis(1).nanos();
        w.insert(entry(7 * ms, 0));
        w.insert(entry(3 * ms, 1));
        assert_eq!(w.pop().map(|e| e.at.nanos()), Some(3 * ms));
        w.insert(entry(5 * ms, 2));
        w.insert(entry(4 * ms, 3));
        assert_eq!(drain(&mut w), vec![(4 * ms, 3), (5 * ms, 2), (7 * ms, 0)]);
        assert!(w.is_empty());
    }

    #[test]
    fn equal_deadline_slots_across_levels_merge_exactly() {
        // Regression shape: entries at the same boundary tick reachable
        // through different levels' slots. All entries at the boundary tick
        // must surface before any later ones, in seq order.
        let mut w = TimingWheel::new();
        let tick64 = 64u64 << TICK_SHIFT; // level-1 boundary
        w.insert(entry(tick64 + 100, 0)); // level 1 as seen from cursor 0
        w.insert(entry(5, 1)); // forces the cursor through level 0 first
        w.insert(entry(tick64 + 50, 2));
        assert_eq!(w.pop().map(|e| e.seq), Some(1));
        w.insert(entry(tick64 + 70, 3));
        assert_eq!(
            drain(&mut w),
            vec![(tick64 + 50, 2), (tick64 + 70, 3), (tick64 + 100, 0)]
        );
    }

    #[test]
    fn randomized_against_sorted_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        let mut w = TimingWheel::new();
        let mut reference: Vec<(u64, u64)> = Vec::new();
        let mut seq = 0u64;
        let mut popped = Vec::new();
        let mut floor = 0u64; // pops are monotone; inserts must not precede
        for _ in 0..5_000 {
            if rng.gen_bool(0.6) || w.is_empty() {
                // Mixed horizons: same tick, nearby ticks, far future.
                let at = floor
                    + match rng.gen_range(0u32..5) {
                        0 => rng.gen_range(0..1_000),
                        1 => rng.gen_range(0..10_000_000),
                        2 => rng.gen_range(0..10_000_000_000),
                        3 => rng.gen_range(0..2_000_000_000_000),
                        _ => rng.gen_range(0..(1u64 << 48)),
                    };
                w.insert(entry(at, seq));
                reference.push((at, seq));
                seq += 1;
            } else {
                let e = w.pop().expect("non-empty");
                floor = e.at.nanos();
                popped.push((e.at.nanos(), e.seq));
            }
        }
        popped.extend(drain(&mut w));
        reference.sort_unstable();
        assert_eq!(popped, reference);
    }

    #[test]
    fn storage_follows_peak_pending_not_slot_history() {
        // Bursts of distinct ticks spread over many slots, each drained
        // before the next and each landing a quarter rotation of level 1
        // further on. Storage kept per slot would end up holding room for
        // every burst at once; the arena holds room for one.
        let mut w = TimingWheel::new();
        let tick = 1u64 << TICK_SHIFT;
        let (mut seq, mut now, mut peak) = (0u64, 0u64, 0usize);
        for _ in 0..16 {
            for i in 1..=1_000u64 {
                w.insert(entry(now + i * tick + i % 7, seq));
                seq += 1;
            }
            peak = peak.max(w.len());
            while let Some(e) = w.pop() {
                assert!(e.at.nanos() >= now, "popped out of order");
                now = e.at.nanos();
            }
        }
        let stored = w.arena.capacity() + w.due.capacity();
        assert!(
            stored <= 2 * peak,
            "wheel stores room for {stored} entries after a peak of {peak} pending"
        );
    }
}
