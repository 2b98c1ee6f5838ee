//! The preserved eager all-destinations route table.
//!
//! This is the pre-PR-4 routing structure: one full `(latency, hops)` row
//! per attachment router, built up front — O(sources × routers) memory,
//! which is exactly what ruled it out at Mercator scale (§7.1's ~100k
//! routers). The production path is the demand-driven
//! [`RouteOracle`](crate::RouteOracle); this table survives as the
//! reference the oracle is held bit-identical to (equivalence tests in
//! `tests/route_oracle.rs`).

use fuse_util::DetHashMap;

use crate::routes::{dijkstra, RouteInfo};
use crate::topology::{RouterId, Topology, SAME_ROUTER_LATENCY};

/// All-destination shortest-path tables from each attachment router.
pub struct RouteTable {
    /// Per source router: `(latency_ns, hops)` for every destination router.
    tables: DetHashMap<RouterId, Vec<(u64, u32)>>,
}

impl RouteTable {
    /// Builds tables for every distinct router in `sources`.
    pub fn build(topo: &Topology, sources: &[RouterId]) -> Self {
        let mut tables = DetHashMap::default();
        for &s in sources {
            tables.entry(s).or_insert_with(|| dijkstra(topo, s));
        }
        RouteTable { tables }
    }

    /// Route summary from `src` to `dst`; `src` must be a built source.
    ///
    /// # Panics
    ///
    /// Panics if `src` was not in the source set or `dst` is unreachable
    /// (the generator produces connected graphs).
    pub fn route(&self, src: RouterId, dst: RouterId) -> RouteInfo {
        if src == dst {
            // Same attachment router: a LAN hop, not a wide-area route.
            return RouteInfo {
                latency: SAME_ROUTER_LATENCY,
                hops: 0,
            };
        }
        let t = self
            .tables
            .get(&src)
            .expect("route requested from an unbuilt source");
        let (lat, hops) = t[dst as usize];
        assert_ne!(lat, u64::MAX, "destination unreachable");
        RouteInfo {
            latency: fuse_sim::SimDuration(lat),
            hops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyConfig;
    use fuse_sim::SimDuration;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_topo() -> (Topology, Vec<RouterId>) {
        let cfg = TopologyConfig {
            n_as: 8,
            core_per_as: 4,
            chains_per_as: 1,
            chain_len: (2, 4),
            ..TopologyConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(11);
        let topo = Topology::generate(&cfg, &mut rng);
        let n = topo.n_routers() as RouterId;
        (topo, (0..n).collect())
    }

    #[test]
    fn routes_are_symmetric_in_latency() {
        // Undirected links with symmetric weights: shortest-path distances
        // must match in both directions.
        let (topo, all) = small_topo();
        let table = RouteTable::build(&topo, &all);
        for a in [0u32, 5, 13, 21] {
            for b in [3u32, 9, 30] {
                if a == b {
                    continue;
                }
                let f = table.route(a, b);
                let r = table.route(b, a);
                assert_eq!(f.latency, r.latency);
                assert_eq!(f.hops, r.hops);
            }
        }
    }

    #[test]
    fn triangle_inequality_holds() {
        let (topo, all) = small_topo();
        let table = RouteTable::build(&topo, &all);
        let ab = table.route(0, 10).latency.nanos();
        let bc = table.route(10, 20).latency.nanos();
        let ac = table.route(0, 20).latency.nanos();
        assert!(ac <= ab + bc);
    }

    #[test]
    fn same_router_is_lan_latency() {
        let (topo, all) = small_topo();
        let table = RouteTable::build(&topo, &all);
        let r = table.route(7, 7);
        assert_eq!(r.hops, 0);
        assert_eq!(r.latency, SAME_ROUTER_LATENCY);
        assert!(r.latency < SimDuration::from_millis(1));
    }

    #[test]
    fn loss_composition_matches_formula() {
        let info = RouteInfo {
            latency: SimDuration::from_millis(100),
            hops: 15,
        };
        // Paper Figure 11: 0.4% per-link loss over median-15-hop routes
        // yields ~5.8% route loss; 0.8% -> ~11.4%; 1.6% -> ~21.5%.
        assert!((info.loss_rate(0.004) - 0.058).abs() < 0.004);
        assert!((info.loss_rate(0.008) - 0.114).abs() < 0.006);
        assert!((info.loss_rate(0.016) - 0.215).abs() < 0.008);
    }

    #[test]
    fn zero_loss_delivers_always() {
        let info = RouteInfo {
            latency: SimDuration::from_millis(10),
            hops: 40,
        };
        assert_eq!(info.delivery_prob(0.0), 1.0);
    }
}
