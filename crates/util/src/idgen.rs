//! Deterministic unique-identifier generation.
//!
//! FUSE IDs must be "globally unique" (paper §6.2). In a real deployment they
//! combine the creator's address with local entropy; in the simulator we
//! derive them from the creating node's index, its boot instant and a
//! per-life counter, mixed through a 64-bit finalizer so IDs are scattered
//! rather than sequential. A node restarted later draws from another
//! sequence than its earlier life did.

/// Per-node monotonic counter producing scattered-but-deterministic IDs.
#[derive(Debug, Clone, Default)]
pub struct IdGen {
    node_tag: u64,
    counter: u64,
}

impl IdGen {
    /// Creates a generator namespaced by `node_tag` (e.g. node index).
    pub fn new(node_tag: u64) -> Self {
        IdGen {
            node_tag,
            counter: 0,
        }
    }

    /// Creates the generator of node `node_tag` booted at `boot_ns`: the
    /// boot instant goes through a bijection that keeps 0 at 0, so a node
    /// booted at 0 draws [`IdGen::new`]'s sequence and one booted at any
    /// other instant another.
    pub fn booted(node_tag: u64, boot_ns: u64) -> Self {
        IdGen::new(node_tag ^ mix64(boot_ns) ^ mix64(0))
    }

    /// Returns the next unique 64-bit identifier.
    pub fn next_id(&mut self) -> u64 {
        self.counter += 1;
        mix64(self.node_tag.rotate_left(32) ^ self.counter)
    }
}

/// SplitMix64 finalizer: a bijection on `u64`, so distinct inputs can never
/// collide.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ids_are_unique_within_a_node() {
        let mut g = IdGen::new(7);
        let ids: HashSet<u64> = (0..10_000).map(|_| g.next_id()).collect();
        assert_eq!(ids.len(), 10_000);
    }

    #[test]
    fn ids_are_unique_across_nodes() {
        let mut seen = HashSet::new();
        for node in 0..64 {
            let mut g = IdGen::new(node);
            for _ in 0..256 {
                assert!(seen.insert(g.next_id()), "collision across nodes");
            }
        }
    }

    #[test]
    fn a_later_boot_draws_another_sequence() {
        let first: Vec<u64> = {
            let mut g = IdGen::booted(3, 0);
            (0..256).map(|_| g.next_id()).collect()
        };
        let mut same = IdGen::new(3);
        assert!(first.iter().all(|&id| id == same.next_id()), "boot at 0");
        let seen: HashSet<u64> = first.into_iter().collect();
        for boot_ns in [1, 2, 1_000, 5_000_000_000] {
            let mut g = IdGen::booted(3, boot_ns);
            assert!((0..256).all(|_| !seen.contains(&g.next_id())), "{boot_ns}");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let mut a = IdGen::new(42);
        let mut b = IdGen::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_id(), b.next_id());
        }
    }

    #[test]
    fn mix64_is_not_identity_like() {
        // Consecutive inputs should map far apart.
        let d = mix64(1) ^ mix64(2);
        assert!(d.count_ones() > 8);
    }
}
