//! The overlay node: ring membership, routing, liveness and repair.
//!
//! [`OverlayNode`] is split along its seams, one module per field group,
//! each group a struct whose fields only its own module can name:
//!
//! * `tables` — the leaf sets and routing table (§6.1), the only writer of
//!   both and of the neighbour-diff scratch;
//! * `views` — the passive view: live candidates and departed neighbours;
//! * `liveness` — pings, acks and the one ack-deadline timer (§6.3); each
//!   ping and ack reads FUSE's digest from the sink as it is built;
//! * `route` — greedy routing, per-hop upcalls and delivery (§6.1);
//! * `maintain` — join, announce, probes and the repair after a death.
//!
//! This module holds the node, its accessors and the dispatch of messages
//! and timers, and the one place a batch of candidates meets all three
//! groups: `integrate_all`.

mod liveness;
mod maintain;
mod route;
mod tables;
mod views;

use rand::Rng;

use fuse_util::{Duration, PeerAddr};
use fuse_wire::Digest;

use crate::config::{OverlayConfig, MAINTENANCE_PERIOD};
use crate::id::{NodeInfo, NodeName};
use crate::io::{OverlayCx, OverlayTimer, OverlayUpcall};
use crate::messages::{OverlayMsg, RoutedClass};

use liveness::Liveness;
use tables::Tables;
use views::PassiveView;

/// Counters exposed for tests and experiments.
#[derive(Debug, Clone, Default)]
pub struct OverlayStats {
    /// Liveness pings sent.
    pub pings_sent: u64,
    /// Acks received for our pings.
    pub acks_received: u64,
    /// Neighbors declared dead (ping timeout or transport break).
    pub neighbors_died: u64,
    /// Neighbors dropped by table maintenance (still alive).
    pub neighbors_evicted: u64,
    /// Routed messages forwarded through this node.
    pub forwarded: u64,
    /// Routed messages that stalled here (routing hole).
    pub route_stalls: u64,
    /// Maintenance probes sent.
    pub probes_sent: u64,
}

/// Outcome of asking the overlay to route a client payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteStart {
    /// Handed to the given next hop.
    Sent {
        /// First hop of the route (an overlay neighbor).
        next: PeerAddr,
    },
    /// The local node is the routing target; nothing was sent.
    SelfIsTarget,
    /// No next hop exists (not yet joined, or routing hole).
    NoRoute,
}

/// A SkipNet-style overlay node.
///
/// All entry points take an [`OverlayCx`]; the node never touches a
/// driver (simulation kernel or socket runtime) directly.
#[derive(Clone)]
pub struct OverlayNode {
    bootstrap: Option<PeerAddr>,
    ready: bool,
    join_attempts: u32,
    tables: Tables,
    view: PassiveView,
    live: Liveness,
    /// Exposed counters.
    pub stats: OverlayStats,
}

impl OverlayNode {
    /// Creates a node that will join through `bootstrap` on boot (or start
    /// a new ring when `None`).
    pub fn new(me: NodeInfo, bootstrap: Option<PeerAddr>, cfg: OverlayConfig) -> Self {
        OverlayNode {
            bootstrap,
            ready: false,
            join_attempts: 0,
            tables: Tables::new(me),
            view: PassiveView::default(),
            live: Liveness::new(cfg),
            stats: OverlayStats::default(),
        }
    }

    /// This node's identity.
    pub fn info(&self) -> &NodeInfo {
        self.tables.me()
    }

    /// This node's ring name.
    pub fn name(&self) -> &NodeName {
        &self.info().name
    }

    /// Whether the node has joined the ring.
    pub fn is_ready(&self) -> bool {
        self.ready
    }

    /// Pre-populates tables from global knowledge (oracle bootstrap for
    /// large-scale experiments); call before `boot`.
    pub fn preload_tables(
        &mut self,
        leaves_cw: Vec<NodeInfo>,
        leaves_ccw: Vec<NodeInfo>,
        rtable: Vec<[Option<NodeInfo>; 2]>,
    ) {
        assert!(!self.ready, "preload must precede boot");
        self.tables.preload((leaves_cw, leaves_ccw, rtable));
        self.ready = true;
    }

    /// Boots the node: joins through the bootstrap or, when preloaded or
    /// alone, starts steady-state operation immediately.
    pub fn boot(&mut self, io: &mut OverlayCx<'_>) {
        if self.ready || self.bootstrap.is_none() {
            self.ready = true;
            for p in self.neighbors() {
                self.live.start(io, p);
            }
        } else {
            self.send_join(io);
        }
        let jitter = Duration(io.rng().gen_range(0..=MAINTENANCE_PERIOD.nanos()));
        io.set_timer(MAINTENANCE_PERIOD + jitter, OverlayTimer::Maintenance);
    }

    /// All distinct monitored neighbors (leaf set union routing table),
    /// sorted.
    pub fn neighbors(&self) -> Vec<PeerAddr> {
        let mut set = Vec::new();
        self.tables.neighbors_into(&mut set);
        set
    }

    /// Leaf set (clockwise then counterclockwise, nearest first).
    pub fn leaf_set(&self) -> (&[NodeInfo], &[NodeInfo]) {
        self.tables.leaf_set()
    }

    /// Next hop the node would use to route toward `target`.
    pub fn next_hop(&self, target: &NodeName) -> Option<PeerAddr> {
        self.tables.best_next_hop(target).map(|n| n.proc)
    }

    /// Integrates a batch of candidates into the passive view and the
    /// tables, then starts monitoring each neighbour the batch added (one
    /// RNG draw and its ping timer; the client hears of a link only when it
    /// goes) and stops each it evicted (`LinkDown { died: false }`), both
    /// in ascending order.
    fn integrate_all(&mut self, io: &mut OverlayCx<'_>, cands: &[NodeInfo]) {
        for (peer, added) in self.tables.integrate_all(cands, |c| self.view.seen(c)) {
            if added {
                self.live.start(io, peer);
            } else {
                self.live.stop(peer);
                self.stats.neighbors_evicted += 1;
                io.upcall(OverlayUpcall::LinkDown { peer, died: false });
            }
        }
    }

    // ---- Event handlers (called by the node stack) -------------------------

    /// Handles an incoming overlay message.
    pub fn on_message(&mut self, io: &mut OverlayCx<'_>, from: PeerAddr, msg: OverlayMsg) {
        match msg {
            OverlayMsg::Ping { nonce, hash } => {
                io.upcall(OverlayUpcall::PingHash {
                    peer: from,
                    hash: hash.unwrap_or_else(Digest::of_empty),
                });
                let mine = io.link_digest(from);
                io.send(from, OverlayMsg::PingAck { nonce, hash: mine });
            }
            OverlayMsg::PingAck { nonce, hash } => self.on_ping_ack(io, from, nonce, hash),
            OverlayMsg::Routed {
                src,
                target,
                ttl,
                class,
                payload,
                path,
            } => {
                self.forward_routed(io, from, src, target, ttl, class, payload, path);
            }
            OverlayMsg::JoinReply { candidates } => self.on_join_reply(io, candidates),
            OverlayMsg::Announce { info, want_reply } => self.on_announce(io, info, want_reply),
            OverlayMsg::AnnounceAck { candidates } => {
                self.view.heard_from(from);
                self.integrate_all(io, &candidates);
            }
            OverlayMsg::ProbeReply { path } => self.integrate_all(io, &path),
            OverlayMsg::RoutedError {
                target,
                at,
                class,
                payload,
            } => {
                if RoutedClass::from_u8(class) == Some(RoutedClass::Client) {
                    io.upcall(OverlayUpcall::RouteStuck {
                        src: at,
                        target,
                        payload,
                    });
                }
            }
        }
    }

    /// Handles an overlay timer. Each tag is a hint: a stale one (its
    /// deadline moved, its subject gone) does nothing.
    pub fn on_timer(&mut self, io: &mut OverlayCx<'_>, tag: OverlayTimer) {
        match tag {
            OverlayTimer::PingDue(peer) => {
                if self.ping_due(peer, io.now()) {
                    self.ping(io, peer);
                }
            }
            OverlayTimer::AckTimeout => self.sweep_ack_deadlines(io),
            OverlayTimer::JoinRetry => {
                if !self.ready && self.join_attempts < 8 {
                    self.send_join(io);
                }
            }
            OverlayTimer::Maintenance => self.maintain(io),
        }
    }

    /// Handles a transport-level broken connection.
    pub fn on_link_broken(&mut self, io: &mut OverlayCx<'_>, peer: PeerAddr) {
        if self.is_neighbor(peer) {
            self.neighbor_dead(io, peer);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::OverlaySink;
    use crate::messages::RoutedClass;
    use bytes::Bytes;
    use fuse_util::Time;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Scratch driver state that records effects without a kernel: each
    /// call runs under a fresh [`OverlayCx`] whose sink records sends and
    /// armed timers into `sent`/`timers`, answers every digest read with
    /// `digest` and records the peer read in `reads`.
    pub(super) struct TestIo {
        pub(super) now: Time,
        rng: StdRng,
        pub(super) sent: Vec<(PeerAddr, OverlayMsg)>,
        pub(super) upcalls: Vec<OverlayUpcall>,
        pub(super) timers: Vec<(Duration, OverlayTimer)>,
        digest: Option<Digest>,
        reads: Vec<PeerAddr>,
    }

    /// The test sink over a [`TestIo`]'s records.
    struct Recorded<'a> {
        sent: &'a mut Vec<(PeerAddr, OverlayMsg)>,
        timers: &'a mut Vec<(Duration, OverlayTimer)>,
        digest: Option<Digest>,
        reads: &'a mut Vec<PeerAddr>,
    }

    impl OverlaySink for Recorded<'_> {
        fn send(&mut self, to: PeerAddr, msg: OverlayMsg) {
            self.sent.push((to, msg));
        }

        fn set_timer(&mut self, tag: OverlayTimer, after: Duration) {
            self.timers.push((after, tag));
        }

        fn link_digest(&mut self, peer: PeerAddr) -> Option<Digest> {
            self.reads.push(peer);
            self.digest
        }
    }

    impl TestIo {
        fn new() -> Self {
            TestIo {
                now: Time::ZERO,
                rng: StdRng::seed_from_u64(5),
                sent: Vec::new(),
                upcalls: Vec::new(),
                timers: Vec::new(),
                digest: None,
                reads: Vec::new(),
            }
        }

        /// Runs one node entry point under a context.
        fn with<R>(&mut self, f: impl FnOnce(&mut OverlayCx<'_>) -> R) -> R {
            let mut rec = Recorded {
                sent: &mut self.sent,
                timers: &mut self.timers,
                digest: self.digest,
                reads: &mut self.reads,
            };
            let mut cx = OverlayCx::new(self.now, &mut self.rng, &mut rec, &mut self.upcalls);
            f(&mut cx)
        }

        fn boot(&mut self, n: &mut OverlayNode) {
            self.with(|cx| n.boot(cx));
        }

        pub(super) fn integrate_all(&mut self, n: &mut OverlayNode, cands: &[NodeInfo]) {
            self.with(|cx| n.integrate_all(cx, cands));
        }

        pub(super) fn on_message(&mut self, n: &mut OverlayNode, from: PeerAddr, msg: OverlayMsg) {
            self.with(|cx| n.on_message(cx, from, msg));
        }

        pub(super) fn on_timer(&mut self, n: &mut OverlayNode, tag: OverlayTimer) {
            self.with(|cx| n.on_timer(cx, tag));
        }

        /// Moves the clock a ping period on, when every neighbour admitted
        /// before is due, and fires `peer`'s ping timer.
        fn fire_ping(&mut self, n: &mut OverlayNode, peer: PeerAddr) {
            self.now += OverlayConfig::default().ping_period;
            self.on_timer(n, OverlayTimer::PingDue(peer));
        }

        pub(super) fn on_link_broken(&mut self, n: &mut OverlayNode, peer: PeerAddr) {
            self.with(|cx| n.on_link_broken(cx, peer));
        }

        fn route_client(
            &mut self,
            n: &mut OverlayNode,
            target: &NodeName,
            payload: Bytes,
        ) -> RouteStart {
            self.with(|cx| n.route_client(cx, target, payload))
        }
    }

    pub(super) fn info(i: usize) -> NodeInfo {
        NodeInfo::new(i as PeerAddr, NodeName::numbered(i))
    }

    pub(super) fn node_with(me: usize, others: &[usize]) -> (OverlayNode, TestIo) {
        let mut n = OverlayNode::new(info(me), None, OverlayConfig::default());
        let mut io = TestIo::new();
        io.boot(&mut n);
        let cands: Vec<NodeInfo> = others.iter().map(|&i| info(i)).collect();
        io.integrate_all(&mut n, &cands);
        (n, io)
    }

    #[test]
    fn leaf_set_keeps_nearest_per_side() {
        let (n, _io) = node_with(50, &[10, 20, 30, 40, 45, 49, 51, 55, 60, 70, 80, 90]);
        let (cw, ccw) = n.leaf_set();
        // Clockwise from node-000050: 51, 55, 60, 70, 80, 90, then wrap 10...
        assert_eq!(cw[0].proc, 51);
        assert_eq!(cw[1].proc, 55);
        // Counterclockwise: 49, 45, 40...
        assert_eq!(ccw[0].proc, 49);
        assert_eq!(ccw[1].proc, 45);
        assert!(cw.len() <= 8 && ccw.len() <= 8);
    }

    #[test]
    fn leaf_set_evicts_farthest_when_full() {
        let others: Vec<usize> = (51..75).collect();
        let (n, _io) = node_with(50, &others);
        let (cw, _) = n.leaf_set();
        assert_eq!(cw.len(), 8);
        assert_eq!(cw[0].proc, 51);
        assert_eq!(cw[7].proc, 58);
    }

    #[test]
    fn next_hop_makes_clockwise_progress_without_overshoot() {
        let (n, _io) = node_with(10, &[20, 30, 40, 60, 80]);
        // Route to 65: furthest candidate ≤ 65 is 60.
        let hop = n.next_hop(&NodeName::numbered(65)).unwrap();
        assert_eq!(hop, 60);
        // Route to 25: furthest ≤ 25 is 20.
        assert_eq!(n.next_hop(&NodeName::numbered(25)).unwrap(), 20);
        // Route to own name: we are the target.
        let me_name = *n.name();
        assert_eq!(n.next_hop(&me_name), None);
    }

    #[test]
    fn exact_target_is_chosen_when_present() {
        let (n, _io) = node_with(10, &[20, 30, 40]);
        assert_eq!(n.next_hop(&NodeName::numbered(30)).unwrap(), 30);
    }

    /// A ping and an ack each read the link's digest from the sink once,
    /// as they are built, and carry what it answers: a digest, or none.
    #[test]
    fn ping_and_ack_carry_the_sinks_digest() {
        let (mut n, mut io) = node_with(10, &[20]);
        let h = fuse_wire::sha1(b"groups-on-link");
        for answer in [Some(h), None] {
            io.digest = answer;
            io.reads.clear();
            io.sent.clear();
            io.fire_ping(&mut n, 20);
            let ping = OverlayMsg::Ping {
                nonce: 9,
                hash: h.into(),
            };
            io.on_message(&mut n, 20, ping);
            let carried: Vec<_> = io
                .sent
                .iter()
                .map(|(to, m)| match m {
                    OverlayMsg::Ping { hash, .. } => ("ping", *to, *hash),
                    OverlayMsg::PingAck { nonce: 9, hash } => ("ack", *to, *hash),
                    other => panic!("unexpected {other:?}"),
                })
                .collect();
            assert_eq!(carried, [("ping", 20, answer), ("ack", 20, answer)]);
            assert_eq!(io.reads, [20, 20], "one read for each");
        }
    }

    #[test]
    fn ping_ack_roundtrip_upcalls_hash_on_both_sides() {
        let (mut a, mut io_a) = node_with(10, &[20]);
        let (mut b, mut io_b) = node_with(20, &[10]);
        io_a.fire_ping(&mut a, 20);
        let (_, ping) = io_a.sent.pop().expect("ping");
        io_b.on_message(&mut b, 10, ping);
        assert!(matches!(
            io_b.upcalls.last(),
            Some(OverlayUpcall::PingHash { peer: 10, .. })
        ));
        let (_, ack) = io_b.sent.pop().expect("ack");
        io_a.on_message(&mut a, 20, ack);
        assert!(matches!(
            io_a.upcalls.last(),
            Some(OverlayUpcall::PingHash { peer: 20, .. })
        ));
        assert_eq!(a.stats.acks_received, 1);
    }

    #[test]
    fn ack_timeout_kills_neighbor_and_upcalls_linkdown() {
        let (mut n, mut io) = node_with(10, &[20, 30]);
        io.fire_ping(&mut n, 20);
        io.now += OverlayConfig::default().ping_timeout;
        io.on_timer(&mut n, OverlayTimer::AckTimeout);
        assert!(!n.is_neighbor(20));
        assert!(io.upcalls.iter().any(|u| matches!(
            u,
            OverlayUpcall::LinkDown {
                peer: 20,
                died: true
            }
        )));
        assert_eq!(n.stats.neighbors_died, 1);
        // 30 survives.
        assert!(n.is_neighbor(30));
    }

    #[test]
    fn stale_ack_timeout_is_ignored_after_ack() {
        let (mut a, mut io_a) = node_with(10, &[20]);
        let (mut b, mut io_b) = node_with(20, &[10]);
        io_a.fire_ping(&mut a, 20);
        let (_, ping) = io_a.sent.pop().unwrap();
        let nonce = match &ping {
            OverlayMsg::Ping { nonce, .. } => *nonce,
            _ => unreachable!(),
        };
        io_b.on_message(&mut b, 10, ping);
        let (_, ack) = io_b.sent.pop().unwrap();
        // An ack with another nonce ends nothing.
        let stale = OverlayMsg::PingAck {
            nonce: nonce + 1,
            hash: None,
        };
        io_a.on_message(&mut a, 20, stale);
        assert_eq!(a.stats.acks_received, 0);
        io_a.on_message(&mut a, 20, ack);
        assert_eq!(a.stats.acks_received, 1);
        io_a.now += OverlayConfig::default().ping_timeout;
        io_a.timers.clear();
        io_a.on_timer(&mut a, OverlayTimer::AckTimeout);
        assert!(a.is_neighbor(20), "timeout after ack must be a no-op");
        assert!(io_a.timers.is_empty(), "no wait is left to re-arm for");
    }

    #[test]
    fn transport_break_kills_neighbor() {
        let (mut n, mut io) = node_with(10, &[20]);
        io.on_link_broken(&mut n, 20);
        assert!(!n.is_neighbor(20));
        assert!(!n.neighbors().contains(&20));
    }

    #[test]
    fn route_client_from_source() {
        let (mut n, mut io) = node_with(10, &[20, 30]);
        let r = io.route_client(&mut n, &NodeName::numbered(30), Bytes::from_static(b"x"));
        assert_eq!(r, RouteStart::Sent { next: 30 });
        assert!(matches!(
            io.sent.last(),
            Some((30, OverlayMsg::Routed { .. }))
        ));
        let r2 = io.route_client(&mut n, &NodeName::numbered(10), Bytes::from_static(b"x"));
        assert_eq!(r2, RouteStart::SelfIsTarget);
    }

    #[test]
    fn forwarding_emits_per_hop_upcall() {
        let (mut n, mut io) = node_with(20, &[30, 40]);
        let src = info(10);
        io.on_message(
            &mut n,
            10,
            OverlayMsg::Routed {
                src,
                target: NodeName::numbered(40),
                ttl: 8,
                class: RoutedClass::Client as u8,
                payload: Bytes::from_static(b"ic"),
                path: vec![],
            },
        );
        let fwd = io
            .upcalls
            .iter()
            .find_map(|u| match u {
                OverlayUpcall::Forwarded { prev, next, .. } => Some((*prev, *next)),
                _ => None,
            })
            .expect("per-hop upcall");
        assert_eq!(fwd, (10, 40));
    }

    #[test]
    fn delivery_at_exact_target_upcalls() {
        let (mut n, mut io) = node_with(40, &[10]);
        io.on_message(
            &mut n,
            10,
            OverlayMsg::Routed {
                src: info(10),
                target: NodeName::numbered(40),
                ttl: 8,
                class: RoutedClass::Client as u8,
                payload: Bytes::from_static(b"ic"),
                path: vec![],
            },
        );
        assert!(matches!(
            io.upcalls.last(),
            Some(OverlayUpcall::Delivered { .. })
        ));
    }

    #[test]
    fn owner_reports_unreachable_client_target() {
        // Node 20 knows 10 and 30; target 25 is absent — 20 is the owner of
        // that arc and must return a RoutedError to the source.
        let (mut n, mut io) = node_with(20, &[10, 30]);
        io.on_message(
            &mut n,
            10,
            OverlayMsg::Routed {
                src: info(10),
                target: NodeName::numbered(21),
                ttl: 8,
                class: RoutedClass::Client as u8,
                payload: Bytes::from_static(b"ic"),
                path: vec![],
            },
        );
        assert!(matches!(
            io.sent.last(),
            Some((10, OverlayMsg::RoutedError { .. }))
        ));
    }

    #[test]
    fn join_reply_marks_ready_and_announces() {
        let mut n = OverlayNode::new(info(5), Some(0), OverlayConfig::default());
        let mut io = TestIo::new();
        io.boot(&mut n);
        assert!(!n.is_ready());
        assert!(matches!(
            io.sent.last(),
            Some((0, OverlayMsg::Routed { .. }))
        ));
        io.on_message(
            &mut n,
            0,
            OverlayMsg::JoinReply {
                candidates: vec![info(0), info(10), info(90)],
            },
        );
        assert!(n.is_ready());
        let announced: Vec<PeerAddr> = io
            .sent
            .iter()
            .filter_map(|(to, m)| match m {
                OverlayMsg::Announce { .. } => Some(*to),
                _ => None,
            })
            .collect();
        assert!(announced.contains(&0));
        assert!(announced.contains(&10));
        assert!(announced.contains(&90));
    }

    /// Pins a known defect without fixing it: every `probe-…` target sorts
    /// after every `node-…` name, so in a world of numbered nodes each
    /// maintenance probe, from any node toward any random point, ends at
    /// the highest-named node. Probes do not sample the ring uniformly.
    #[test]
    fn every_maintenance_probe_ends_at_the_highest_named_node() {
        let n = 400;
        let infos: Vec<NodeInfo> = (0..n).map(info).collect();
        let cfg = OverlayConfig::default();
        let tables = crate::oracle::build_oracle_tables(&infos, &cfg);
        let mut nodes: Vec<OverlayNode> = infos
            .iter()
            .zip(tables)
            .map(|(me, (cw, ccw, rt))| {
                let mut node = OverlayNode::new(*me, None, cfg.clone());
                node.preload_tables(cw, ccw, rt);
                node
            })
            .collect();
        let mut io = TestIo::new();
        let mut owners = Vec::new();
        for start in (0..n).step_by(n / 20) {
            io.sent.clear();
            io.on_timer(&mut nodes[start], OverlayTimer::Maintenance);
            let mut at = start as PeerAddr;
            while let Some((to, msg)) = io.sent.pop() {
                match msg {
                    OverlayMsg::Routed { .. } => {
                        io.on_message(&mut nodes[to as usize], at, msg);
                        at = to;
                    }
                    OverlayMsg::ProbeReply { path } => owners.push(path.last().map(|i| i.proc)),
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        assert_eq!(owners, vec![Some(n as PeerAddr - 1); 20]);
    }

    #[test]
    fn probe_records_path_and_reply_integrates() {
        let (mut n, mut io) = node_with(20, &[40]);
        // A probe for a point owned by 40's arc passes through.
        io.on_message(
            &mut n,
            10,
            OverlayMsg::Routed {
                src: info(10),
                target: NodeName::numbered(45),
                ttl: 8,
                class: RoutedClass::Probe as u8,
                payload: Bytes::new(),
                path: vec![info(10)],
            },
        );
        match io.sent.last() {
            Some((40, OverlayMsg::Routed { path, .. })) => {
                assert_eq!(path.len(), 2, "hop must append itself");
                assert_eq!(path[1].proc, 20);
            }
            other => panic!("expected forwarded probe, got {other:?}"),
        }
        // Probe replies integrate unknown nodes.
        let before = n.neighbors().len();
        io.on_message(
            &mut n,
            10,
            OverlayMsg::ProbeReply {
                path: vec![info(21), info(22)],
            },
        );
        assert!(n.neighbors().len() > before);
    }
}
