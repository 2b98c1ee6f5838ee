//! Property tests for the overlay's ring geometry and routing: the
//! invariants greedy routing's termination proof rests on.

use fuse_overlay::id::{closer_clockwise, further_clockwise, NodeName};
use fuse_overlay::{build_oracle_tables, NodeInfo, OverlayConfig, OverlayNode};
use proptest::prelude::*;

fn name_strategy() -> impl Strategy<Value = NodeName> {
    "[a-z]{1,6}".prop_map(|s| NodeName::new(&s).unwrap())
}

proptest! {
    /// Exactly one of "x inside (a→b]" / "x inside (b→a]" holds for
    /// distinct points — the arcs partition the ring.
    #[test]
    fn arcs_partition_the_ring(a in name_strategy(), b in name_strategy(), x in name_strategy()) {
        prop_assume!(a != b && x != a && x != b);
        let in_ab = a.arc_contains(&b, &x);
        let in_ba = b.arc_contains(&a, &x);
        prop_assert!(in_ab ^ in_ba, "x must be in exactly one arc");
    }

    /// The arc endpoints behave as (open, closed].
    #[test]
    fn arc_endpoint_conventions(a in name_strategy(), b in name_strategy()) {
        prop_assume!(a != b);
        prop_assert!(!a.arc_contains(&b, &a), "start excluded");
        prop_assert!(a.arc_contains(&b, &b), "end included");
    }

    /// `further_clockwise` is a strict total order on the arc from any
    /// viewpoint: antisymmetric and (with closer_clockwise) consistent.
    #[test]
    fn clockwise_orders_are_antisymmetric(from in name_strategy(), a in name_strategy(), b in name_strategy()) {
        prop_assume!(a != b && a != from && b != from);
        prop_assert!(further_clockwise(&from, &a, &b) ^ further_clockwise(&from, &b, &a));
        prop_assert_eq!(
            closer_clockwise(&from, &a, &b),
            further_clockwise(&from, &b, &a)
        );
    }

    /// Greedy routing over oracle tables always terminates at the exact
    /// target, within the TTL used by the protocol.
    #[test]
    fn greedy_routing_terminates_at_target(n in 4usize..128, src in any::<prop::sample::Index>(), dst in any::<prop::sample::Index>()) {
        let infos: Vec<NodeInfo> = (0..n)
            .map(|i| NodeInfo::new(i as u32, NodeName::numbered(i)))
            .collect();
        let cfg = OverlayConfig::default();
        let tables = build_oracle_tables(&infos, &cfg);
        let nodes: Vec<OverlayNode> = infos
            .iter()
            .zip(tables)
            .map(|(info, (cw, ccw, rt))| {
                let mut node = OverlayNode::new(*info, None, cfg.clone());
                node.preload_tables(cw, ccw, rt);
                node
            })
            .collect();
        let s = src.index(n);
        let t = dst.index(n);
        prop_assume!(s != t);
        let target = infos[t].name;
        let mut cur = s;
        let mut hops = 0;
        while cur != t {
            let next = nodes[cur].next_hop(&target);
            prop_assert!(next.is_some(), "stuck at {} toward {}", cur, t);
            cur = next.unwrap() as usize;
            hops += 1;
            prop_assert!(hops <= 64, "routing loop {} -> {}", s, t);
        }
    }

    /// Every oracle leaf set lists nearest-first (strictly monotone in ring
    /// distance) and the two sides never contain the node itself.
    #[test]
    fn oracle_leaf_sets_are_sorted_by_ring_distance(n in 2usize..64, who in any::<prop::sample::Index>()) {
        let infos: Vec<NodeInfo> = (0..n)
            .map(|i| NodeInfo::new(i as u32, NodeName::numbered(i)))
            .collect();
        let cfg = OverlayConfig::default();
        let tables = build_oracle_tables(&infos, &cfg);
        let w = who.index(n);
        let me = &infos[w].name;
        let (cw, ccw, _) = &tables[w];
        for win in cw.windows(2) {
            prop_assert!(closer_clockwise(me, &win[0].name, &win[1].name));
        }
        for leaf in cw.iter().chain(ccw.iter()) {
            prop_assert!(leaf.proc != w as u32);
        }
    }
}
