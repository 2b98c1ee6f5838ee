//! The complete messaging layer: topology + routes + TCP + faults.
//!
//! [`Network`] implements [`fuse_sim::Medium`]. Two emulation profiles
//! correspond to the paper's two evaluation vehicles (§7.1–7.2):
//!
//! * [`EmulationProfile::Simulator`] — pure propagation latency, no
//!   per-message overhead, connections always warm. The paper's discrete
//!   event simulator "used the same latency values, but did not model
//!   bandwidth constraints".
//! * [`EmulationProfile::Cluster`] — adds the measured ModelNet-cluster
//!   costs the paper reports (`CLUSTER_OVERHEAD`): 2.8 ms per message send
//!   (XML serialization) plus 1.1 ms virtual-node multiplexing overhead,
//!   and a TCP connection-establishment round trip on first contact
//!   (connections are cached thereafter, which is why the paper's "2nd
//!   Cluster RPC" tracks the simulator curve in Figure 6).

use rand::rngs::StdRng;
use rand::Rng;

use fuse_obs::{Aggregates, Event, ObsSink, Recorder};
use fuse_sim::{Medium, ProcBitSet, ProcId, SimDuration, SimTime, Verdict};

use crate::fault::FaultPlane;
use crate::routes::{OracleStats, RouteInfo, RouteOracle};
use crate::tcp::{self, TcpOutcome};
use crate::topology::{RouterId, Topology};

/// Per-message cost on the paper's ModelNet cluster (§7.2's
/// micro-benchmark): 2.8 ms of XML serialization plus 1.1 ms of
/// virtual-node multiplexing.
pub(crate) const CLUSTER_OVERHEAD: SimDuration = SimDuration::from_micros(3_900);

/// Most uniform jitter added to each delivery, for tie spreading.
pub(crate) const MAX_JITTER: SimDuration = SimDuration::from_micros(500);

/// Which evaluation vehicle to emulate.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum EmulationProfile {
    /// The paper's discrete-event simulator: latency only.
    #[default]
    Simulator,
    /// The paper's 40-machine ModelNet cluster with 10 virtual nodes per
    /// machine: `CLUSTER_OVERHEAD` per message and a connection set-up
    /// round trip on first contact.
    Cluster,
}

impl EmulationProfile {
    fn per_message_overhead(&self) -> SimDuration {
        match *self {
            EmulationProfile::Simulator => SimDuration::ZERO,
            EmulationProfile::Cluster => CLUSTER_OVERHEAD,
        }
    }

    fn models_connection_setup(&self) -> bool {
        *self == EmulationProfile::Cluster
    }
}

/// Network configuration.
#[derive(Debug, Clone, Default)]
pub struct NetConfig {
    /// Emulation profile (simulator vs cluster).
    pub profile: EmulationProfile,
}

impl NetConfig {
    /// Simulator profile.
    pub fn simulator() -> Self {
        NetConfig::default()
    }

    /// Cluster profile.
    pub fn cluster() -> Self {
        NetConfig {
            profile: EmulationProfile::Cluster,
        }
    }
}

/// The wide-area messaging layer (a [`Medium`] implementation).
pub struct Network {
    routes: RouteOracle,
    /// Each process's attachment router as its position in the oracle's
    /// endpoint set, resolved once so a send looks nothing up.
    endpoint: Vec<u32>,
    profile: EmulationProfile,
    /// Uniform per-link Bernoulli loss rate (Figures 11–12); 0 until
    /// [`Network::set_per_link_loss`] changes it.
    per_link_loss: f64,
    fault: FaultPlane,
    /// Process liveness as told by the kernel (checked on every send:
    /// a dense bitset keeps the lookup branchless and cache-resident).
    down: ProcBitSet,
    /// Warm TCP connections: bit `a × n + b` of an `n × n` matrix over
    /// the `n` processes, set for both orders of a pair (20 KB at 400).
    conns: Vec<u64>,
    /// The observation recorder: break counts, content drops and byte
    /// accounting (offered and delivered, total and per message class) all
    /// live in its aggregates; the counter accessors below are views.
    obs: Recorder,
    /// Round-trip delivery probability (data + ACK) of a route by its hop
    /// count at the current loss rate, extended on demand and emptied by
    /// [`Network::set_per_link_loss`].
    p_success_by_hops: Vec<f64>,
}

impl Network {
    /// Builds a network over `topo` with process `i` attached to
    /// `attach[i]`. The network's [`RouteOracle`] takes the topology, with
    /// the distinct attachment routers as its endpoints, and construction
    /// runs no shortest-path computation: an anchor's row is computed on
    /// the first send that needs it and kept, so route memory is `B × B × 8`
    /// bytes for the `B` distinct anchors of the attachment routers, plus
    /// 20 bytes per attachment router and 4 per anchor (0.40 MB for 400
    /// routers on 221 anchors).
    ///
    /// # Panics
    ///
    /// Panics if an attachment is not a router of `topo`.
    pub fn new(topo: Topology, attach: Vec<RouterId>, cfg: NetConfig) -> Self {
        for (proc, &router) in attach.iter().enumerate() {
            assert!(
                (router as usize) < topo.n_routers(),
                "process {proc} is attached to router {router}, but the topology has {} routers",
                topo.n_routers()
            );
        }
        let routes = RouteOracle::new(topo, &attach);
        let endpoint = attach
            .iter()
            .map(|&r| {
                routes
                    .endpoint_index(r)
                    .expect("every attachment is an endpoint")
            })
            .collect();
        let n = attach.len();
        Network {
            routes,
            endpoint,
            profile: cfg.profile,
            per_link_loss: 0.0,
            fault: FaultPlane::new(),
            down: ProcBitSet::default(),
            conns: vec![0; (n * n).div_ceil(64)],
            obs: Recorder::new(),
            p_success_by_hops: Vec::new(),
        }
    }

    /// Convenience: generate a topology and attach `n_procs` random routers.
    pub fn generate(
        topo_cfg: &crate::topology::TopologyConfig,
        n_procs: usize,
        cfg: NetConfig,
        rng: &mut StdRng,
    ) -> Self {
        let topo = Topology::generate(topo_cfg, rng);
        let attach = topo.sample_attachments(n_procs, rng);
        Network::new(topo, attach, cfg)
    }

    /// The fault plane, for scripted failure injection.
    pub fn fault_mut(&mut self) -> &mut FaultPlane {
        &mut self.fault
    }

    /// Read-only fault plane.
    pub fn fault(&self) -> &FaultPlane {
        &self.fault
    }

    /// Route summary between two processes (computed on demand and kept in
    /// the oracle's anchor table).
    pub fn route_info(&mut self, a: ProcId, b: ProcId) -> RouteInfo {
        let (a, b) = (self.endpoint[a as usize], self.endpoint[b as usize]);
        self.routes.route_by_index(a, b)
    }

    /// Hit/miss counters and occupancy of the route oracle.
    pub fn route_oracle_stats(&self) -> OracleStats {
        self.routes.stats()
    }

    /// Changes the uniform per-link loss rate mid-run (Figure 12 enables
    /// loss after group creation).
    pub fn set_per_link_loss(&mut self, p: f64) {
        assert!((0.0..1.0).contains(&p), "loss rate must be in [0,1)");
        self.per_link_loss = p;
        self.p_success_by_hops.clear();
    }

    /// Per-attempt success of a send over `route`: data over the forward
    /// route and the ACK over the reverse route (identical hop count).
    fn p_success(&mut self, route: RouteInfo) -> f64 {
        let table = &mut self.p_success_by_hops;
        for hops in table.len() as u32..=route.hops {
            let one_way = RouteInfo { hops, ..route }.delivery_prob(self.per_link_loss);
            table.push(one_way * one_way);
        }
        table[route.hops as usize]
    }

    /// Current per-link loss rate.
    pub fn per_link_loss(&self) -> f64 {
        self.per_link_loss
    }

    /// Count of connection-break events so far.
    pub fn break_count(&self) -> u64 {
        self.obs.aggregates().breaks
    }

    /// Count of messages silently eaten by the §3.5 content adversary.
    pub fn content_drop_count(&self) -> u64 {
        self.obs.aggregates().content_drops
    }

    /// Total wire bytes offered to the network (every `unicast`, whatever
    /// its verdict). Sizes come from the codec's exact single-pass hints,
    /// so this is real encoded-bytes load, not an estimate.
    pub fn bytes_offered(&self) -> u64 {
        self.obs.aggregates().bytes_offered
    }

    /// Total wire bytes of messages the network accepted for delivery
    /// (the verdict was `Deliver`). Counted at send time: like a real
    /// in-flight packet, a message to a receiver that crashes before the
    /// arrival instant is still network load, even though the kernel drops
    /// it on arrival.
    pub fn bytes_delivered(&self) -> u64 {
        self.obs.aggregates().bytes_delivered
    }

    /// The full observation aggregates: totals above plus per-class byte
    /// and drop breakdowns, ready to merge into a run-level recorder.
    pub fn obs(&self) -> &Aggregates {
        self.obs.aggregates()
    }

    /// Whether a warm TCP connection exists between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if either process is not attached to the network.
    pub fn connection_warm(&self, a: ProcId, b: ProcId) -> bool {
        let n = self.endpoint.len();
        assert!(
            (a as usize) < n && (b as usize) < n,
            "process not attached to the network"
        );
        let (w, bit) = self.conn_bit(a, b);
        self.conns[w] & bit != 0
    }

    /// Word and mask of the `(a, b)` bit of the connection matrix.
    fn conn_bit(&self, a: ProcId, b: ProcId) -> (usize, u64) {
        let i = a as usize * self.endpoint.len() + b as usize;
        (i / 64, 1 << (i % 64))
    }

    /// Marks the pair connected both ways; whether it was not before.
    fn open_conn(&mut self, a: ProcId, b: ProcId) -> bool {
        let (w, bit) = self.conn_bit(a, b);
        let first_contact = self.conns[w] & bit == 0;
        self.conns[w] |= bit;
        let (w, bit) = self.conn_bit(b, a);
        self.conns[w] |= bit;
        first_contact
    }

    fn drop_conn(&mut self, a: ProcId, b: ProcId) {
        for (x, y) in [(a, b), (b, a)] {
            let (w, bit) = self.conn_bit(x, y);
            self.conns[w] &= !bit;
        }
    }

    fn drop_all_conns_of(&mut self, n: ProcId) {
        for peer in 0..self.endpoint.len() as ProcId {
            self.drop_conn(n, peer);
        }
    }
}

impl Medium for Network {
    fn unicast(
        &mut self,
        now: SimTime,
        rng: &mut StdRng,
        from: ProcId,
        to: ProcId,
        size: usize,
        class: &'static str,
    ) -> Verdict {
        assert!(
            (from as usize) < self.endpoint.len() && (to as usize) < self.endpoint.len(),
            "process not attached to the network"
        );
        self.obs.record(Event::BytesOffered {
            class,
            bytes: size as u64,
        });
        let route = self.route_info(from, to);
        let rtt = route.latency.saturating_mul(2);

        // Administrative blocks and dead peers: TCP retransmits into the
        // void, then the sender sees a broken connection.
        if self.fault.blocked(from, to) || self.down.contains(to) {
            self.obs.record(Event::ConnectionBroken);
            self.drop_conn(from, to);
            return Verdict::Break {
                sender_notice: now + tcp::give_up_after(rtt),
            };
        }

        // The §3.5 content-based adversary: a matching message vanishes
        // *silently* — no retransmission, no broken-connection notice — so
        // only FUSE's own liveness machinery can notice. (An adversary that
        // dropped every TCP segment would eventually break the connection;
        // one that drops the message exactly once per attempt and lets
        // keepalives through is strictly harder to detect, and that is the
        // case modeled here.)
        if self.fault.content_blocked(from, to, class) {
            self.obs.record(Event::ContentDropped { class });
            return Verdict::Drop;
        }

        // Injected per-pair loss (chaos loss ramps) composes with the
        // route's own loss: data crosses `from -> to`, the ACK crosses
        // `to -> from`, each surviving its direction's injected rate.
        let mut p_success = self.p_success(route);
        if self.fault.has_link_loss() {
            p_success *=
                (1.0 - self.fault.link_loss(from, to)) * (1.0 - self.fault.link_loss(to, from));
        }

        match tcp::attempt(rng, rtt, p_success) {
            TcpOutcome::Delivered { extra_delay } => {
                let mut latency = route.latency + extra_delay;
                latency = latency + self.profile.per_message_overhead();
                let first_contact = self.open_conn(from, to);
                if first_contact && self.profile.models_connection_setup() {
                    // SYN + SYN-ACK before the data segment.
                    latency = latency + rtt;
                }
                latency = latency + SimDuration(rng.gen_range(0..=MAX_JITTER.nanos()));
                self.obs.record(Event::BytesDelivered {
                    class,
                    bytes: size as u64,
                });
                Verdict::Deliver { at: now + latency }
            }
            TcpOutcome::Broken { give_up_after } => {
                self.obs.record(Event::ConnectionBroken);
                self.drop_conn(from, to);
                Verdict::Break {
                    sender_notice: now + give_up_after,
                }
            }
        }
    }

    fn node_up(&mut self, id: ProcId) {
        self.down.remove(id);
    }

    fn node_down(&mut self, id: ProcId) {
        self.down.insert(id);
        self.drop_all_conns_of(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyConfig;
    use rand::SeedableRng;
    use std::mem::size_of;

    fn small_net(cfg: NetConfig) -> (Network, StdRng) {
        let mut rng = StdRng::seed_from_u64(123);
        let topo_cfg = TopologyConfig {
            n_as: 16,
            core_per_as: 4,
            chains_per_as: 2,
            chain_len: (2, 4),
            ..TopologyConfig::default()
        };
        let net = Network::generate(&topo_cfg, 20, cfg, &mut rng);
        (net, rng)
    }

    #[test]
    fn simulator_delivery_latency_is_propagation_plus_jitter() {
        let (mut net, mut rng) = small_net(NetConfig::simulator());
        let info = net.route_info(0, 1);
        match net.unicast(SimTime::ZERO, &mut rng, 0, 1, 100, "msg") {
            Verdict::Deliver { at } => {
                assert!(at.nanos() >= info.latency.nanos());
                assert!(at.nanos() <= info.latency.nanos() + 500_000);
            }
            other => panic!("unexpected verdict {other:?}"),
        }
    }

    #[test]
    fn cluster_first_message_pays_connection_setup() {
        let (mut net, mut rng) = small_net(NetConfig::cluster());
        let info = net.route_info(0, 1);
        let rtt = info.latency.saturating_mul(2);
        let overhead = CLUSTER_OVERHEAD;
        let first = match net.unicast(SimTime::ZERO, &mut rng, 0, 1, 100, "msg") {
            Verdict::Deliver { at } => at,
            other => panic!("{other:?}"),
        };
        assert!(
            first.nanos() >= (info.latency + rtt + overhead).nanos(),
            "first message must include SYN round trip"
        );
        assert!(net.connection_warm(0, 1));
        let second = match net.unicast(SimTime::ZERO, &mut rng, 0, 1, 100, "msg") {
            Verdict::Deliver { at } => at,
            other => panic!("{other:?}"),
        };
        assert!(
            second.nanos() < first.nanos(),
            "cached connection must be faster"
        );
        assert!(second.nanos() >= (info.latency + overhead).nanos());
    }

    #[test]
    fn warm_connections_are_symmetric_and_handshake_once() {
        let (mut net, mut rng) = small_net(NetConfig::cluster());
        let n = 20;
        let deliver_at = |net: &mut Network, rng: &mut StdRng, a, b| match net.unicast(
            SimTime::ZERO,
            rng,
            a,
            b,
            64,
            "msg",
        ) {
            Verdict::Deliver { at } => at,
            other => panic!("{other:?}"),
        };
        let setup = net.route_info(3, 7).latency.saturating_mul(2);
        let first = deliver_at(&mut net, &mut rng, 3, 7);
        assert!(net.connection_warm(3, 7) && net.connection_warm(7, 3));
        // The reply rides the connection the first send opened: no SYN.
        let reply = deliver_at(&mut net, &mut rng, 7, 3);
        let most = CLUSTER_OVERHEAD + net.route_info(7, 3).latency + MAX_JITTER;
        assert!(first.nanos() >= setup.nanos() && reply.nanos() <= most.nanos());
        // Pairs of 3, 5 and 7 with everyone.
        for a in [3, 5, 7] {
            for b in 0..n {
                if b != a {
                    deliver_at(&mut net, &mut rng, a, b);
                }
            }
        }
        net.node_down(5);
        for a in 0..n {
            for b in 0..n {
                let touches_5 = a == 5 || b == 5;
                let opened = a != b && [3, 5, 7].iter().any(|&x| x == a || x == b);
                assert_eq!(net.connection_warm(a, b), opened && !touches_5, "{a} {b}");
            }
        }
    }

    #[test]
    fn blocked_pair_breaks_connection() {
        let (mut net, mut rng) = small_net(NetConfig::simulator());
        net.fault_mut().add_blackhole(2, 3);
        match net.unicast(SimTime::ZERO, &mut rng, 2, 3, 64, "msg") {
            Verdict::Break { sender_notice } => {
                // Default TCP gives up after 63 s for rtt << min_rto.
                assert_eq!(sender_notice, SimTime::ZERO + SimDuration::from_secs(63));
            }
            other => panic!("{other:?}"),
        }
        // Reverse direction unaffected.
        assert!(matches!(
            net.unicast(SimTime::ZERO, &mut rng, 3, 2, 64, "msg"),
            Verdict::Deliver { .. }
        ));
        assert_eq!(net.break_count(), 1);
    }

    #[test]
    fn dead_peer_breaks_and_conn_cache_resets() {
        let (mut net, mut rng) = small_net(NetConfig::cluster());
        assert!(matches!(
            net.unicast(SimTime::ZERO, &mut rng, 4, 5, 64, "msg"),
            Verdict::Deliver { .. }
        ));
        assert!(net.connection_warm(4, 5));
        net.node_down(5);
        assert!(!net.connection_warm(4, 5), "crash drops cached connections");
        assert!(matches!(
            net.unicast(SimTime::ZERO, &mut rng, 4, 5, 64, "msg"),
            Verdict::Break { .. }
        ));
        net.node_up(5);
        assert!(matches!(
            net.unicast(SimTime::ZERO, &mut rng, 4, 5, 64, "msg"),
            Verdict::Deliver { .. }
        ));
    }

    #[test]
    fn heavy_loss_inflates_latency_and_sometimes_breaks() {
        let (mut net, mut rng) = small_net(NetConfig::simulator());
        net.set_per_link_loss(0.05);
        let mut delayed = 0;
        let mut broken = 0;
        for _ in 0..2000 {
            match net.unicast(SimTime::ZERO, &mut rng, 0, 1, 64, "msg") {
                Verdict::Deliver { at } => {
                    if at.nanos() > SimDuration::from_secs(1).nanos() {
                        delayed += 1;
                    }
                }
                Verdict::Break { .. } => broken += 1,
                Verdict::Drop => {}
            }
        }
        assert!(delayed > 0, "retransmission delays must appear");
        assert!(broken > 0, "connections must break under heavy loss");
    }

    #[test]
    fn byte_accounting_tracks_offered_and_delivered() {
        let (mut net, mut rng) = small_net(NetConfig::simulator());
        assert_eq!(net.bytes_offered(), 0);
        for _ in 0..10 {
            assert!(matches!(
                net.unicast(SimTime::ZERO, &mut rng, 0, 1, 33, "msg"),
                Verdict::Deliver { .. }
            ));
        }
        assert_eq!(net.bytes_offered(), 330);
        assert_eq!(net.bytes_delivered(), 330);
        // A blackholed pair counts as offered but never delivered.
        net.fault_mut().add_blackhole(0, 1);
        let _ = net.unicast(SimTime::ZERO, &mut rng, 0, 1, 7, "msg");
        assert_eq!(net.bytes_offered(), 337);
        assert_eq!(net.bytes_delivered(), 330);
    }

    #[test]
    fn zero_loss_never_breaks() {
        let (mut net, mut rng) = small_net(NetConfig::simulator());
        for _ in 0..500 {
            assert!(matches!(
                net.unicast(SimTime::ZERO, &mut rng, 6, 7, 64, "msg"),
                Verdict::Deliver { .. }
            ));
        }
        assert_eq!(net.break_count(), 0);
    }

    #[test]
    fn delivery_probability_tracks_loss_rate_changes() {
        // The per-hop-count table must be emptied when the loss rate moves:
        // prime it at zero loss, crank loss to near-certain failure, then
        // drop back to zero — each regime must show its own behavior.
        let (mut net, mut rng) = small_net(NetConfig::simulator());
        for _ in 0..50 {
            assert!(matches!(
                net.unicast(SimTime::ZERO, &mut rng, 0, 1, 64, "msg"),
                Verdict::Deliver { .. }
            ));
        }
        net.set_per_link_loss(0.9);
        let broken = (0..50)
            .filter(|_| {
                matches!(
                    net.unicast(SimTime::ZERO, &mut rng, 0, 1, 64, "msg"),
                    Verdict::Break { .. }
                )
            })
            .count();
        assert!(broken > 0, "stale table: extreme loss produced no breaks");
        net.set_per_link_loss(0.0);
        for _ in 0..50 {
            assert!(matches!(
                net.unicast(SimTime::ZERO, &mut rng, 0, 1, 64, "msg"),
                Verdict::Deliver { .. }
            ));
        }
    }

    #[test]
    fn routes_are_built_on_demand_not_up_front() {
        let (mut net, mut rng) = small_net(NetConfig::simulator());
        let s = net.route_oracle_stats();
        assert_eq!(
            (s.misses, s.resident_rows),
            (0, 0),
            "construction must not compute a row"
        );
        let info = net.route_info(0, 1);
        let s = net.route_oracle_stats();
        assert_eq!((s.misses, s.resident_rows), (1, 1));
        // Repeat sends on the pair, and the first send the other way, are
        // answered from that one row.
        for (from, to) in [(0, 1), (0, 1), (1, 0)] {
            assert!(matches!(
                net.unicast(SimTime::ZERO, &mut rng, from, to, 64, "msg"),
                Verdict::Deliver { .. }
            ));
            assert_eq!(net.route_oracle_stats().misses, 1, "{from} -> {to}");
        }
        assert_eq!(info, net.route_info(1, 0));
    }

    #[test]
    fn routing_every_pair_of_400_processes_keeps_at_most_a_row_per_attachment() {
        // A paper-scale world on the default topology: its 400 attachment
        // routers hang from 221 anchors. Routing every pair sweeps each
        // anchor once but the last to be a source, whose row the others'
        // columns have filled by then; every row stays.
        let mut rng = StdRng::seed_from_u64(7);
        let cfg = TopologyConfig::default();
        let mut net = Network::generate(&cfg, 400, NetConfig::simulator(), &mut rng);
        for a in 0..400 {
            for b in 0..400 {
                net.route_info(a, b);
            }
        }
        let a = 1 + *net.endpoint.iter().max().expect("400 processes") as usize;
        assert_eq!(a, 400, "distinct attachments");
        let s = net.route_oracle_stats();
        assert_eq!((s.misses, s.resident_rows, s.anchors), (220, 220, 221));
        assert_eq!(s.hits, 400 * 399 - 220);
        // One word per pair of anchors; per attachment an anchor position
        // and an offset, and its router id; per anchor its core index.
        let b = s.anchors;
        let per_end = size_of::<(u32, u64)>() + size_of::<u32>();
        assert_eq!(
            s.resident_bytes,
            b * b * size_of::<u64>() + a * per_end + b * size_of::<u32>()
        );
    }

    #[test]
    #[should_panic(expected = "process 2 is attached to router 4000000")]
    fn attachment_outside_the_topology_fails_at_construction() {
        let mut rng = StdRng::seed_from_u64(123);
        let topo = Topology::generate(&TopologyConfig::default(), &mut rng);
        Network::new(topo, vec![0, 1, 4_000_000], NetConfig::simulator());
    }

    /// Heal-path regressions: every fault-plane *clear* operation must
    /// actually restore end-to-end delivery, not just mutate the rule set
    /// (the injection paths above assert the block; these assert the heal).
    #[test]
    fn reconnect_restores_end_to_end_delivery() {
        let (mut net, mut rng) = small_net(NetConfig::simulator());
        net.fault_mut().disconnect(4);
        assert!(matches!(
            net.unicast(SimTime::ZERO, &mut rng, 4, 5, 64, "msg"),
            Verdict::Break { .. }
        ));
        net.fault_mut().reconnect(4);
        for _ in 0..20 {
            assert!(
                matches!(
                    net.unicast(SimTime::ZERO, &mut rng, 4, 5, 64, "msg"),
                    Verdict::Deliver { .. }
                ),
                "delivery must resume after reconnect"
            );
            assert!(matches!(
                net.unicast(SimTime::ZERO, &mut rng, 5, 4, 64, "msg"),
                Verdict::Deliver { .. }
            ));
        }
    }

    #[test]
    fn clear_blackhole_restores_end_to_end_delivery() {
        let (mut net, mut rng) = small_net(NetConfig::simulator());
        net.fault_mut().add_blackhole(2, 3);
        assert!(matches!(
            net.unicast(SimTime::ZERO, &mut rng, 2, 3, 64, "msg"),
            Verdict::Break { .. }
        ));
        net.fault_mut().clear_blackhole(2, 3);
        for _ in 0..20 {
            assert!(
                matches!(
                    net.unicast(SimTime::ZERO, &mut rng, 2, 3, 64, "msg"),
                    Verdict::Deliver { .. }
                ),
                "delivery must resume after clear_blackhole"
            );
        }
    }

    #[test]
    fn heal_partitions_restores_cross_cell_delivery() {
        let (mut net, mut rng) = small_net(NetConfig::simulator());
        net.fault_mut().set_partition(1, 1);
        net.fault_mut().set_partition(2, 2);
        assert!(matches!(
            net.unicast(SimTime::ZERO, &mut rng, 1, 2, 64, "msg"),
            Verdict::Break { .. }
        ));
        assert!(matches!(
            net.unicast(SimTime::ZERO, &mut rng, 1, 0, 64, "msg"),
            Verdict::Break { .. }
        ));
        net.fault_mut().heal_partitions();
        for (a, b) in [(1, 2), (2, 1), (1, 0), (0, 2)] {
            assert!(
                matches!(
                    net.unicast(SimTime::ZERO, &mut rng, a, b, 64, "msg"),
                    Verdict::Deliver { .. }
                ),
                "{a}->{b} must deliver after heal_partitions"
            );
        }
    }

    #[test]
    fn partitioned_node_returned_to_default_cell_reaches_unpartitioned_nodes() {
        let (mut net, mut rng) = small_net(NetConfig::simulator());
        net.fault_mut().set_partition(6, 3);
        assert!(matches!(
            net.unicast(SimTime::ZERO, &mut rng, 6, 7, 64, "msg"),
            Verdict::Break { .. }
        ));
        // Back into the default cell — NOT via heal_partitions — must reach
        // nodes that were never partitioned, in both directions.
        net.fault_mut().set_partition(6, 0);
        assert!(matches!(
            net.unicast(SimTime::ZERO, &mut rng, 6, 7, 64, "msg"),
            Verdict::Deliver { .. }
        ));
        assert!(matches!(
            net.unicast(SimTime::ZERO, &mut rng, 7, 6, 64, "msg"),
            Verdict::Deliver { .. }
        ));
    }

    #[test]
    fn content_adversary_eats_matching_class_silently() {
        let (mut net, mut rng) = small_net(NetConfig::simulator());
        net.fault_mut().drop_class("overlay.ping");
        for _ in 0..10 {
            assert!(
                matches!(
                    net.unicast(SimTime::ZERO, &mut rng, 0, 1, 64, "overlay.ping"),
                    Verdict::Drop
                ),
                "matching class must vanish silently (no Break)"
            );
            assert!(matches!(
                net.unicast(SimTime::ZERO, &mut rng, 0, 1, 64, "fuse.hard"),
                Verdict::Deliver { .. }
            ));
        }
        assert_eq!(net.content_drop_count(), 10);
        assert_eq!(net.break_count(), 0, "content drops are not breaks");
        // The adversary walking away restores delivery.
        net.fault_mut().clear_class_drops();
        assert!(matches!(
            net.unicast(SimTime::ZERO, &mut rng, 0, 1, 64, "overlay.ping"),
            Verdict::Deliver { .. }
        ));
    }

    #[test]
    fn injected_pair_loss_behaves_like_link_loss() {
        let (mut net, mut rng) = small_net(NetConfig::simulator());
        // Near-certain loss on one directed pair: sends there must suffer
        // (retransmission delays or breaks); an untouched pair must not.
        net.fault_mut().set_link_loss(0, 1, 0.95);
        let mut impaired = 0;
        for _ in 0..200 {
            match net.unicast(SimTime::ZERO, &mut rng, 0, 1, 64, "msg") {
                Verdict::Deliver { at } => {
                    if at.nanos() > SimDuration::from_secs(1).nanos() {
                        impaired += 1;
                    }
                }
                Verdict::Break { .. } => impaired += 1,
                Verdict::Drop => {}
            }
        }
        assert!(impaired > 0, "95% injected loss must impair the pair");
        for _ in 0..50 {
            assert!(matches!(
                net.unicast(SimTime::ZERO, &mut rng, 6, 7, 64, "msg"),
                Verdict::Deliver { .. }
            ));
        }
        // Clearing the injected loss restores clean delivery.
        net.fault_mut().clear_link_loss();
        let breaks_before = net.break_count();
        for _ in 0..50 {
            assert!(matches!(
                net.unicast(SimTime::ZERO, &mut rng, 0, 1, 64, "msg"),
                Verdict::Deliver { .. }
            ));
        }
        assert_eq!(net.break_count(), breaks_before);
    }

    #[test]
    fn disconnect_isolates_node_both_ways() {
        let (mut net, mut rng) = small_net(NetConfig::simulator());
        net.fault_mut().disconnect(8);
        assert!(matches!(
            net.unicast(SimTime::ZERO, &mut rng, 8, 9, 64, "msg"),
            Verdict::Break { .. }
        ));
        assert!(matches!(
            net.unicast(SimTime::ZERO, &mut rng, 9, 8, 64, "msg"),
            Verdict::Break { .. }
        ));
        net.fault_mut().reconnect(8);
        assert!(matches!(
            net.unicast(SimTime::ZERO, &mut rng, 9, 8, 64, "msg"),
            Verdict::Deliver { .. }
        ));
    }
}
