//! Deterministic hashing collections.
//!
//! `std`'s default `RandomState` seeds its hasher from OS randomness, which
//! makes map iteration order differ between runs. The simulation must be
//! bit-for-bit reproducible for a fixed seed, so all protocol state uses
//! these FNV-1a keyed collections instead. Iteration order is still
//! arbitrary — protocol code that *iterates* and cares about order must sort
//! — but it is the *same* arbitrary order on every run.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// FNV-1a 64-bit hasher with fixed offset basis — deterministic across runs.
#[derive(Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }
}

/// `HashMap` with a deterministic hasher.
pub type DetHashMap<K, V> = HashMap<K, V, BuildHasherDefault<Fnv1a>>;

/// `HashSet` with a deterministic hasher.
pub type DetHashSet<K> = HashSet<K, BuildHasherDefault<Fnv1a>>;

#[cfg(test)]
mod tests {
    use super::*;

    fn fnv1a(bytes: &[u8]) -> u64 {
        let mut h = Fnv1a::default();
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Reference values for FNV-1a 64-bit from the FNV specification.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn map_iteration_is_stable_across_instances() {
        let mut a: DetHashMap<u64, u64> = DetHashMap::default();
        let mut b: DetHashMap<u64, u64> = DetHashMap::default();
        for i in 0..1000 {
            a.insert(i * 7919, i);
            b.insert(i * 7919, i);
        }
        let ka: Vec<_> = a.keys().copied().collect();
        let kb: Vec<_> = b.keys().copied().collect();
        assert_eq!(ka, kb);
    }

    #[test]
    fn set_contains_what_was_inserted() {
        let mut s: DetHashSet<&str> = DetHashSet::default();
        s.insert("x");
        s.insert("y");
        assert!(s.contains("x"));
        assert!(s.contains("y"));
        assert!(!s.contains("z"));
    }
}
