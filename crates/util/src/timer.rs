//! Driver-neutral timer identities for sans-io state machines.
//!
//! A sans-io stack cannot own a clock or an event queue, so "arm a timer"
//! becomes: allocate a [`TimerKey`] in a [`KeyedTimers`] table, remember the
//! tag it should fire with, and emit an *arm* effect carrying the key and
//! the relative deadline. The driver schedules it however it likes (kernel
//! timing wheel, `BinaryHeap` + `recv_timeout`, ...) and later feeds the
//! bare key back in. [`KeyedTimers::fire`] then resolves it to the tag —
//! or to `None` if the timer was cancelled or superseded in the meantime,
//! which makes stale deliveries from sloppy drivers (lazy-cancel heaps)
//! harmless by construction.
//!
//! Keys carry a small *namespace* so one stack can multiplex several
//! independent tables (overlay, fuse, liveness, application) over a single
//! driver timer channel and dispatch a firing key without guessing.

/// Identity of one armed (or once-armed) timer.
///
/// The `ns`/`slot`/`gen` triple is unique per [`KeyedTimers`] lifetime:
/// slots are reused, generations never match across reuse. Keys are plain
/// data — `Ord` so drivers can keep them in heaps, `Hash` for maps back to
/// driver-side handles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerKey {
    /// Which table (layer) the key belongs to.
    pub ns: u8,
    /// Slot index inside the table.
    pub slot: u32,
    /// Generation guard against slot reuse.
    pub gen: u64,
}

#[derive(Clone)]
struct Slot<T> {
    gen: u64,
    tag: Option<T>,
}

/// Timer storage for one namespace of one stack: O(1) arm/cancel/fire with
/// generation-checked staleness, mirroring the sim kernel's lazy-removal
/// timer table.
#[derive(Clone)]
pub struct KeyedTimers<T> {
    ns: u8,
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    live: usize,
}

impl<T> KeyedTimers<T> {
    /// Creates an empty table whose keys carry namespace `ns`.
    pub fn new(ns: u8) -> Self {
        KeyedTimers {
            ns,
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Number of currently armed timers.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Arms a timer carrying `tag`, returning its key.
    pub fn arm(&mut self, tag: T) -> TimerKey {
        self.live += 1;
        if let Some(slot) = self.free.pop() {
            let s = &mut self.slots[slot as usize];
            s.gen += 1;
            s.tag = Some(tag);
            TimerKey {
                ns: self.ns,
                slot,
                gen: s.gen,
            }
        } else {
            let slot = self.slots.len() as u32;
            self.slots.push(Slot {
                gen: 1,
                tag: Some(tag),
            });
            TimerKey {
                ns: self.ns,
                slot,
                gen: 1,
            }
        }
    }

    /// Cancels `k` if still armed; returns whether it was live.
    pub fn cancel(&mut self, k: TimerKey) -> bool {
        if k.ns != self.ns {
            return false;
        }
        if let Some(s) = self.slots.get_mut(k.slot as usize) {
            if s.gen == k.gen && s.tag.is_some() {
                s.tag = None;
                self.free.push(k.slot);
                self.live -= 1;
                return true;
            }
        }
        false
    }

    /// Reads the tag of a still-armed timer without consuming it. Stale
    /// keys (cancelled, fired, superseded, wrong namespace) yield `None`.
    pub fn get(&self, k: TimerKey) -> Option<&T> {
        if k.ns != self.ns {
            return None;
        }
        let s = self.slots.get(k.slot as usize)?;
        if s.gen == k.gen {
            s.tag.as_ref()
        } else {
            None
        }
    }

    /// Consumes the timer if `k` is still current, returning its tag.
    /// Stale keys (cancelled, already fired, wrong namespace) yield `None`.
    pub fn fire(&mut self, k: TimerKey) -> Option<T> {
        if k.ns != self.ns {
            return None;
        }
        let s = self.slots.get_mut(k.slot as usize)?;
        if s.gen != k.gen {
            return None;
        }
        let tag = s.tag.take();
        if tag.is_some() {
            self.free.push(k.slot);
            self.live -= 1;
        }
        tag
    }

    /// Drops every armed timer (stack teardown).
    pub fn clear(&mut self) {
        for (i, s) in self.slots.iter_mut().enumerate() {
            if s.tag.take().is_some() {
                self.free.push(i as u32);
            }
            // Bump the generation so stale keys can never match.
            s.gen += 1;
        }
        self.live = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arm_fire_consumes() {
        let mut t: KeyedTimers<&str> = KeyedTimers::new(3);
        let k = t.arm("a");
        assert_eq!(k.ns, 3);
        assert_eq!(t.live(), 1);
        assert_eq!(t.fire(k), Some("a"));
        assert_eq!(t.live(), 0);
        assert_eq!(t.fire(k), None, "second fire is stale");
    }

    #[test]
    fn cancel_prevents_fire() {
        let mut t: KeyedTimers<u32> = KeyedTimers::new(0);
        let k = t.arm(7);
        assert!(t.cancel(k));
        assert!(!t.cancel(k), "double cancel reports dead");
        assert_eq!(t.fire(k), None);
        assert_eq!(t.live(), 0);
    }

    #[test]
    fn slot_reuse_does_not_resurrect_old_keys() {
        let mut t: KeyedTimers<u32> = KeyedTimers::new(0);
        let k1 = t.arm(1);
        t.cancel(k1);
        let k2 = t.arm(2);
        assert_eq!(k1.slot, k2.slot, "slot should be reused");
        assert_eq!(t.fire(k1), None, "old generation must not fire");
        assert_eq!(t.fire(k2), Some(2));
    }

    #[test]
    fn wrong_namespace_is_inert() {
        let mut a: KeyedTimers<u32> = KeyedTimers::new(0);
        let mut b: KeyedTimers<u32> = KeyedTimers::new(1);
        let ka = a.arm(1);
        assert_eq!(b.fire(ka), None);
        assert!(!b.cancel(ka));
        assert_eq!(a.fire(ka), Some(1));
    }

    #[test]
    fn clear_drops_everything_and_invalidates() {
        let mut t: KeyedTimers<u32> = KeyedTimers::new(0);
        let ks: Vec<_> = (0..10).map(|i| t.arm(i)).collect();
        t.clear();
        assert_eq!(t.live(), 0);
        for k in ks {
            assert_eq!(t.fire(k), None);
        }
        // Free list must not hand out a slot twice after clear + cancel mix.
        let k2 = t.arm(11);
        let k3 = t.arm(12);
        assert_ne!(k2.slot, k3.slot);
    }
}
