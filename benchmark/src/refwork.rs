//! A fixed piece of work that is none of the repository's code, timed
//! beside every slice so that a rate can be stated at the speed the host
//! had at that moment.
//!
//! The benchmark runs on small shared hosts whose speed drifts by tens of
//! percent over minutes as neighbours come and go — on the builder's host a
//! quiet-state slice took between 0.28 s and 0.93 s within one hour — far
//! more than any bound a regression gate could use, and nothing a median
//! over the slices of one run removes, because the whole run sits inside
//! the slow minutes. What survives is the ratio between the program's speed
//! and the speed of this reference, taken within the same second: a rate is
//! stated as work per reference unit, with no figure from any host in it.
//!
//! What the reference does decides how much of a drift cancels. The builder
//! timed a dozen candidates between 60-simulated-second stretches of the
//! quiet-state world for an hour of the host's own weather. All of them
//! slowed when the simulator did (correlation 0.91 to 0.97 over 10 s
//! windows), by very different amounts: a multiply chain in registers by a
//! quarter of what the simulator lost (in logarithms), a dependent walk
//! through 16 to 128 MiB by 0.35 to 0.5, a million-entry ordered map by 0.55,
//! ordered maps of 1 k to 16 k entries by 0.75, a hash map under SipHash by
//! 0.85, small allocations churned by 1.15. What the neighbours take is
//! not memory bandwidth but the core: branchy code over a cache-resident
//! structure, which is what the simulator's handlers are, loses most. The
//! route computations of `group_churn` lose about two thirds of what the
//! quiet state loses. An ordered map of 16 k entries sits between the two,
//! so it is the reference: against it a drift leaves a quarter of itself or
//! less in either workload's rate, where the walk this crate first used
//! left more than half in the quiet state's.

use std::collections::BTreeMap;
use std::time::Instant;

/// Entries in the map: about half a megabyte, resident in the second-level
/// cache.
const ENTRIES: usize = 1 << 14;
/// Look-up, removal and insertion triples in one unit.
const STEPS: usize = 22_000;
/// Seconds a unit is counted as where the contract fixes a metric's unit to
/// seconds (`setup_s`): a set-up that took as long as 400 units reads as
/// 3 s. A scale and nothing else; no comparison between two runs depends on
/// its value. It is what a unit took on the builder's host undisturbed, so
/// that `setup_s` reads close to a wall clock there.
pub const NOMINAL_UNIT_S: f64 = 0.0075;

/// The reference: an ordered map whose entries are looked up by range,
/// removed and put back under a neighbouring key.
pub struct Reference {
    map: BTreeMap<u64, u64>,
    state: u64,
}

impl Reference {
    /// Builds the map.
    pub fn new() -> Self {
        let mut r = Reference {
            map: BTreeMap::new(),
            state: 0x9e37_79b9_7f4a_7c15,
        };
        while r.map.len() < ENTRIES {
            let x = r.next();
            r.map.insert(x >> 20, x);
        }
        r
    }

    fn next(&mut self) -> u64 {
        // xorshift64*: the sequence, and so the work, is the same in every
        // run.
        self.state ^= self.state >> 12;
        self.state ^= self.state << 25;
        self.state ^= self.state >> 27;
        self.state.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Seconds a unit takes on the host now: the median of `units`
    /// consecutive units. One unit is too short to trust alone — a single
    /// preemption doubles it.
    pub fn unit_s(&mut self, units: usize) -> f64 {
        // The map frees and allocates a node now and then; none of that is
        // the traced program's.
        let counting = crate::alloc::pause();
        let unit_s: Vec<f64> = (0..units).map(|_| self.unit()).collect();
        crate::alloc::resume(counting);
        crate::stats::median(&unit_s)
    }

    /// Runs one unit and returns the seconds it took.
    fn unit(&mut self) -> f64 {
        let t = Instant::now();
        let mut acc = 0u64;
        for _ in 0..STEPS {
            // Each step's key depends on what the last step found, so the
            // steps cannot overlap.
            let from = (self.next() ^ acc) >> 20;
            let found = self.map.range(from..).next().map(|(&k, &v)| (k, v));
            if let Some((key, value)) = found {
                acc = acc.wrapping_add(value);
                self.map.remove(&key);
                // A key one bit away: the entry stays where it was in the
                // order, the map keeps its size, and its nodes are rewritten.
                self.map.insert(key ^ 1, acc);
            }
        }
        std::hint::black_box(acc);
        t.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_keeps_its_size_and_does_the_same_work_every_time() {
        let (mut a, mut b) = (Reference::new(), Reference::new());
        for _ in 0..3 {
            a.unit();
            b.unit();
        }
        assert_eq!(a.map.len(), ENTRIES);
        assert_eq!(a.state, b.state);
        assert_eq!(a.map, b.map);
    }
}
