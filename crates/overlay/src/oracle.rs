//! Oracle table construction for large-scale experiments.
//!
//! The paper's simulator builds 16,000-node overlays; simulating 16,000
//! message-by-message joins would dominate run time without adding fidelity
//! to the experiments that use such overlays (Figures 7–8 and the SV-tree
//! census measure steady-state behaviour, not joins). The oracle computes,
//! from global membership, exactly the tables a converged join protocol
//! produces: leaf sets of ring neighbors and per-level numeric-prefix
//! routing entries. Protocol-driven joins remain the default for smaller
//! experiments (and are what the churn experiment of Figure 10 measures);
//! a test asserts that oracle tables and protocol-built tables route
//! messages equally well.

use fuse_util::DetHashMap;

use crate::config::{OverlayConfig, LEAF_SIDE, MAX_LEVELS};
use crate::id::{NodeInfo, NumericId};

/// Per-node tables: `(leaves_cw, leaves_ccw, rtable)`.
pub type OracleTables = (Vec<NodeInfo>, Vec<NodeInfo>, Vec<[Option<NodeInfo>; 2]>);

/// Builds converged tables for every node in `members`.
///
/// Names must be unique. Complexity O(levels · n log n). The table shape
/// is fixed (`LEAF_SIDE`, `MAX_LEVELS`), so `_cfg` is no longer read;
/// the parameter stays for the callers that pass it.
pub fn build_oracle_tables(members: &[NodeInfo], _cfg: &OverlayConfig) -> Vec<OracleTables> {
    let n = members.len();
    assert!(n >= 1);
    // Global ring order.
    let mut ring: Vec<usize> = (0..n).collect();
    ring.sort_by(|&a, &b| members[a].name.cmp(&members[b].name));
    for w in ring.windows(2) {
        assert_ne!(
            members[w[0]].name, members[w[1]].name,
            "duplicate overlay names"
        );
    }
    // Position of each member in ring order.
    let mut pos = vec![0usize; n];
    for (p, &m) in ring.iter().enumerate() {
        pos[m] = p;
    }
    let numerics: Vec<NumericId> = members.iter().map(|m| m.numeric()).collect();

    // Prefix buckets per level: ring positions of members sharing the first
    // `level` digits, in ring order.
    let mut out: Vec<OracleTables> = Vec::with_capacity(n);
    let mut level_buckets: Vec<DetHashMap<Vec<u8>, Vec<usize>>> = Vec::with_capacity(MAX_LEVELS);
    for level in 0..MAX_LEVELS {
        let mut buckets: DetHashMap<Vec<u8>, Vec<usize>> = DetHashMap::default();
        for &m in &ring {
            let key: Vec<u8> = (0..level).map(|d| numerics[m].digit(d)).collect();
            buckets.entry(key).or_default().push(pos[m]);
        }
        level_buckets.push(buckets);
    }

    for m in 0..n {
        let p = pos[m];
        // Leaf sets: nearest ring neighbors each side.
        let mut cw = Vec::with_capacity(LEAF_SIDE);
        let mut ccw = Vec::with_capacity(LEAF_SIDE);
        for k in 1..=LEAF_SIDE.min(n.saturating_sub(1)) {
            cw.push(members[ring[(p + k) % n]]);
            ccw.push(members[ring[(p + n - k) % n]]);
        }
        // Routing table: nearest same-prefix node per side per level.
        let mut rtable: Vec<[Option<NodeInfo>; 2]> = vec![[None, None]; MAX_LEVELS];
        for (level, buckets) in level_buckets.iter().enumerate() {
            let key: Vec<u8> = (0..level).map(|d| numerics[m].digit(d)).collect();
            let bucket = &buckets[&key];
            if bucket.len() < 2 {
                continue;
            }
            // `bucket` holds ring positions sorted ascending; find self.
            let i = bucket.binary_search(&p).expect("self in own bucket");
            let cw_pos = bucket[(i + 1) % bucket.len()];
            let ccw_pos = bucket[(i + bucket.len() - 1) % bucket.len()];
            rtable[level][1] = Some(members[ring[cw_pos]]);
            rtable[level][0] = Some(members[ring[ccw_pos]]);
        }
        out.push((cw, ccw, rtable));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::{NodeInfo, NodeName};
    use crate::node::OverlayNode;

    fn members(n: usize) -> Vec<NodeInfo> {
        (0..n)
            .map(|i| NodeInfo::new(i as u32, NodeName::numbered(i)))
            .collect()
    }

    #[test]
    fn leaf_sets_are_ring_neighbors() {
        let m = members(32);
        let cfg = OverlayConfig::default();
        let tables = build_oracle_tables(&m, &cfg);
        let (cw, ccw, _) = &tables[0];
        assert_eq!(cw[0].proc, 1);
        assert_eq!(cw[7].proc, 8);
        assert_eq!(ccw[0].proc, 31, "wraps around the ring");
        assert_eq!(ccw[7].proc, 24);
    }

    #[test]
    fn rtable_entries_share_prefixes() {
        let m = members(256);
        let cfg = OverlayConfig::default();
        let tables = build_oracle_tables(&m, &cfg);
        for (i, (_, _, rt)) in tables.iter().enumerate() {
            let mine = m[i].numeric();
            for (level, slots) in rt.iter().enumerate() {
                for e in slots.iter().flatten() {
                    assert!(
                        e.numeric().common_prefix(&mine) >= level,
                        "level {level} entry must share {level} digits"
                    );
                    assert_ne!(e.proc, m[i].proc);
                }
            }
        }
    }

    #[test]
    fn small_rings_have_complete_leaf_sets() {
        let m = members(5);
        let cfg = OverlayConfig::default();
        let tables = build_oracle_tables(&m, &cfg);
        for (cw, ccw, _) in &tables {
            assert_eq!(cw.len(), 4, "everyone else, once");
            assert_eq!(ccw.len(), 4);
        }
    }

    #[test]
    fn singleton_ring_is_empty() {
        let m = members(1);
        let cfg = OverlayConfig::default();
        let tables = build_oracle_tables(&m, &cfg);
        assert!(tables[0].0.is_empty());
        assert!(tables[0].2.iter().all(|s| s[0].is_none() && s[1].is_none()));
    }

    #[test]
    fn oracle_routes_reach_exact_targets_in_logarithmic_hops() {
        // Static routing check without a kernel: walk next_hop() node to
        // node and count hops.
        let m = members(512);
        let cfg = OverlayConfig::default();
        let tables = build_oracle_tables(&m, &cfg);
        let nodes: Vec<OverlayNode> = m
            .iter()
            .zip(tables)
            .map(|(info, (cw, ccw, rt))| {
                let mut n = OverlayNode::new(*info, None, cfg.clone());
                n.preload_tables(cw, ccw, rt);
                n
            })
            .collect();
        let mut total_hops = 0usize;
        let mut max_hops = 0usize;
        let mut routes = 0usize;
        for s in (0..512).step_by(37) {
            for t in (0..512).step_by(29) {
                if s == t {
                    continue;
                }
                let target = m[t].name;
                let mut cur = s;
                let mut hops = 0;
                while cur != t {
                    let next = nodes[cur]
                        .next_hop(&target)
                        .unwrap_or_else(|| panic!("stuck at {cur} toward {t}"));
                    cur = next as usize;
                    hops += 1;
                    assert!(hops <= 64, "routing loop {s}->{t}");
                }
                total_hops += hops;
                max_hops = max_hops.max(hops);
                routes += 1;
            }
        }
        let avg = total_hops as f64 / routes as f64;
        // Two pointers per level at base 8: expected ~(b/2)·log_b(n) hops,
        // i.e. ~12 worst-case for n=512, much less on average thanks to the
        // 16-entry leaf set.
        assert!(avg <= 8.0, "avg hops {avg} too high");
        assert!(max_hops <= 20, "max hops {max_hops} too high");
    }

    #[test]
    #[should_panic(expected = "duplicate overlay names")]
    fn duplicate_names_rejected() {
        let mut m = members(4);
        m[3].name = m[0].name;
        build_oracle_tables(&m, &OverlayConfig::default());
    }
}
