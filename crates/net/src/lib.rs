//! Wide-area network substrate for the FUSE reproduction.
//!
//! The paper's evaluation runs over a Mercator-derived router topology
//! (102,639 routers; 97% OC3 links at 10–40 ms, 3% T3 links at 300–500 ms;
//! median RTT ≈ 130 ms with a heavy tail; routes of 2–43 hops, median 15)
//! emulated by ModelNet, with all messages carried over TCP (§7.1, §7.6).
//! That measured topology is unavailable, so [`topology`] generates a
//! synthetic hierarchical AS/router graph *tuned to those published
//! distributions* — every property FUSE can observe (latency, hop count,
//! loss composition, tail) is matched; see DESIGN.md §5.
//!
//! The crate provides:
//!
//! * [`topology`] — AS/router graph generation with OC3/T3 link classes,
//!   including the [`TopologyConfig::mercator_scale`] preset that reaches
//!   the paper's ~100k routers,
//! * [`routes`] — lexicographic `(hops, latency)` shortest paths behind the
//!   demand-driven [`RouteOracle`] (a lazy breadth-first sweep per anchor
//!   over the topology's 2-core, kept in one bit-packed anchor × anchor
//!   table filled by row and column, with the trees hanging from the core
//!   added as fixed offsets),
//! * [`tcp`] — an analytic TCP model (connection cache, retransmission
//!   backoff, connection breakage under loss),
//! * [`fault`] — scriptable failures: crashes, disconnects, intransitive
//!   blackholes, partitions,
//! * [`network`] — the [`fuse_sim::Medium`] implementation combining them,
//!   with `Simulator` and `Cluster` (ModelNet-like) emulation profiles.
//!
//! # Example: generate a topology, build an oracle, query a route
//!
//! ```
//! use fuse_net::{RouteOracle, Topology, TopologyConfig};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let topo = Topology::generate(&TopologyConfig::default(), &mut rng);
//!
//! // The oracle owns the topology. Core routes between the endpoints'
//! // anchors appear on first use and stay: route memory is at most
//! // 32 × 32 × 8 bytes plus a few words per endpoint, whatever the router
//! // count.
//! let endpoints = topo.attachable[..32].to_vec();
//! let mut oracle = RouteOracle::new(topo, &endpoints);
//! let at = |r| oracle.endpoint_index(r).expect("an endpoint");
//! let (a, b, c) = (at(endpoints[0]), at(endpoints[31]), at(endpoints[1]));
//! let route = oracle.route_by_index(a, b);
//! assert!(route.hops >= 1);
//! assert!(route.delivery_prob(0.0) == 1.0);
//!
//! // Links are undirected: the reverse query hits the same anchor row.
//! assert_eq!(route, oracle.route_by_index(b, a));
//! assert_eq!((oracle.stats().hits, oracle.stats().misses), (1, 1));
//!
//! // Two neighbours on one access chain hang from one anchor: their route
//! // is the chain link between them, and it costs no sweep.
//! assert_eq!(oracle.route_by_index(a, c).hops, 1);
//! assert_eq!((oracle.stats().hits, oracle.stats().misses), (2, 1));
//! ```
//!
//! For full-stack use, [`Network::generate`] wires a topology, random
//! attachment points and an oracle over them into a [`fuse_sim::Medium`]; the
//! harness crate's experiments run the paper's figures on top of it.

#![deny(missing_docs)]

pub mod fault;
pub mod network;
pub mod routes;
pub mod tcp;
pub mod topology;

pub use fault::FaultPlane;
pub use network::{EmulationProfile, NetConfig, Network};
pub use routes::{OracleStats, RouteInfo, RouteOracle};
pub use topology::{LinkClass, RouterId, Topology, TopologyConfig, SAME_ROUTER_LATENCY};

#[cfg(test)]
mod tests {
    use fuse_sim::SimDuration;

    /// The paper's fixed network parameters (§7.1–7.2), pinned in one place.
    #[test]
    fn defaults_match_paper_constants() {
        assert_eq!(crate::topology::OC3_LATENCY_MS, (10, 40));
        assert_eq!(crate::topology::T3_LATENCY_MS, (300, 500));
        assert_eq!(crate::topology::LAN_LATENCY_US, (300, 1000));
        let (serialization, virtualization) = (2.8, 1.1);
        assert_eq!(
            crate::network::CLUSTER_OVERHEAD,
            SimDuration::from_millis_f64(serialization)
                + SimDuration::from_millis_f64(virtualization)
        );
        assert_eq!(
            crate::network::CLUSTER_OVERHEAD,
            SimDuration::from_millis(3) + SimDuration::from_micros(900)
        );
        assert_eq!(crate::network::MAX_JITTER, SimDuration::from_micros(500));
        assert_eq!(
            crate::tcp::give_up_after(SimDuration::from_millis(100)),
            SimDuration::from_secs(63),
            "TCP gives up after 1+2+4+8+16+32 s"
        );
    }
}
