//! The overlay node: ring membership, routing, liveness and repair.

use std::collections::VecDeque;

use bytes::Bytes;
use rand::Rng;

use fuse_util::DetHashMap;
use fuse_util::{Duration, PeerAddr, Time, TimerKey};
use fuse_wire::{Decode, Digest, Encode};

use crate::config::{
    OverlayConfig, CANDIDATE_CACHE, DEPARTED_CAP, DEPARTED_TRIES, JOIN_TIMEOUT, LEAF_SIDE,
    MAINTENANCE_PERIOD, MAX_LEVELS, ROUTE_TTL,
};
use crate::id::{
    closer_clockwise, closer_counterclockwise, further_clockwise, NodeInfo, NodeName, NumericId,
};
use crate::io::{OverlayCx, OverlayTimer, OverlayUpcall};
use crate::messages::{OverlayMsg, RoutedClass};

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

/// One monitored neighbour: its periodic ping timer and the nonce of its
/// ping still awaiting an ack.
#[derive(Clone, Copy)]
struct Watched {
    ping: TimerKey,
    awaiting: Option<u64>,
}

/// A SkipNet-style overlay node.
///
/// All entry points take an [`OverlayCx`]; the node never touches a
/// driver (simulation kernel or socket runtime) directly.
#[derive(Clone)]
pub struct OverlayNode {
    cfg: OverlayConfig,
    me: NodeInfo,
    numeric: NumericId,
    bootstrap: Option<PeerAddr>,
    ready: bool,
    /// Clockwise leaf set, nearest first.
    leaves_cw: Vec<NodeInfo>,
    /// Counterclockwise leaf set, nearest first.
    leaves_ccw: Vec<NodeInfo>,
    /// Routing table: per level, `[ccw, cw]` nearest nodes sharing that many
    /// numeric-digit prefixes.
    rtable: Vec<[Option<NodeInfo>; 2]>,
    /// Passive candidate cache (recently seen live nodes).
    known: DetHashMap<PeerAddr, NodeInfo>,
    /// Neighbours declared dead, each with the announces sent to it and
    /// the maintenance ticks until the next: a peer that comes back (a
    /// healed partition) is re-admitted when it answers.
    departed: Vec<(NodeInfo, u32, u32)>,
    /// The monitored neighbours.
    watched: DetHashMap<PeerAddr, Watched>,
    /// Ack deadlines `(sent + ping_timeout, peer, nonce)`, oldest first.
    /// The timeout is constant, so send order is deadline order. A wait
    /// that ended (acked, replaced, neighbour dropped) stays until it
    /// reaches the front.
    ack_deadlines: VecDeque<(Time, PeerAddr, u64)>,
    /// Whether the one `AckTimeout` timer is armed; it is, at or before
    /// the earliest deadline of a wait that has not ended.
    ack_timer: bool,
    /// Piggyback digest per link, pushed down by the client (FUSE).
    link_hashes: DetHashMap<PeerAddr, Digest>,
    next_nonce: u64,
    join_timer: Option<TimerKey>,
    join_attempts: u32,
    /// Reused sorted neighbour sets from before and after a batch is
    /// integrated, so diffing them allocates nothing once warm.
    nbrs_before: Vec<PeerAddr>,
    nbrs_after: Vec<PeerAddr>,
    /// Exposed counters.
    pub stats: OverlayStats,
}

impl OverlayNode {
    /// Creates a node that will join through `bootstrap` on boot (or start
    /// a new ring when `None`).
    pub fn new(me: NodeInfo, bootstrap: Option<PeerAddr>, cfg: OverlayConfig) -> Self {
        let numeric = me.numeric();
        OverlayNode {
            cfg,
            me,
            numeric,
            bootstrap,
            ready: false,
            leaves_cw: Vec::new(),
            leaves_ccw: Vec::new(),
            rtable: vec![[None, None]; MAX_LEVELS],
            known: DetHashMap::default(),
            departed: Vec::new(),
            watched: DetHashMap::default(),
            ack_deadlines: VecDeque::new(),
            ack_timer: false,
            link_hashes: DetHashMap::default(),
            next_nonce: 0,
            join_timer: None,
            join_attempts: 0,
            nbrs_before: Vec::new(),
            nbrs_after: Vec::new(),
            stats: OverlayStats::default(),
        }
    }

    /// This node's identity.
    pub fn info(&self) -> &NodeInfo {
        &self.me
    }

    /// This node's ring name.
    pub fn name(&self) -> &NodeName {
        &self.me.name
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
        self.leaves_cw = leaves_cw;
        self.leaves_ccw = leaves_ccw;
        let levels = self.rtable.len();
        self.rtable = rtable;
        self.rtable
            .resize(levels.max(self.rtable.len()), [None, None]);
        self.ready = true;
    }

    /// Boots the node: joins through the bootstrap or, when preloaded or
    /// alone, starts steady-state operation immediately.
    pub fn boot(&mut self, io: &mut OverlayCx<'_>) {
        if self.ready || self.bootstrap.is_none() {
            self.ready = true;
            self.start_all_pings(io);
        } else {
            self.send_join(io);
        }
        let jitter = Duration(io.rng().gen_range(0..=MAINTENANCE_PERIOD.nanos()));
        io.set_timer(MAINTENANCE_PERIOD + jitter, OverlayTimer::Maintenance);
    }

    fn send_join(&mut self, io: &mut OverlayCx<'_>) {
        let Some(bs) = self.bootstrap else { return };
        self.join_attempts += 1;
        let payload = self.me.to_bytes();
        io.send(
            bs,
            OverlayMsg::Routed {
                src: self.me,
                target: self.me.name,
                ttl: ROUTE_TTL,
                class: RoutedClass::Join as u8,
                payload,
                path: Vec::new(),
            },
        );
        let h = io.set_timer(JOIN_TIMEOUT, OverlayTimer::JoinRetry);
        self.join_timer = Some(h);
    }

    // ---- Table structure -------------------------------------------------

    /// All distinct monitored neighbors (leaf set union routing table),
    /// sorted.
    pub fn neighbors(&self) -> Vec<PeerAddr> {
        let mut set = Vec::new();
        self.neighbors_into(&mut set);
        set
    }

    /// Replaces `out` with the sorted, distinct neighbour addresses.
    fn neighbors_into(&self, out: &mut Vec<PeerAddr>) {
        out.clear();
        out.extend(self.all_entries().map(|e| e.proc));
        out.sort_unstable();
        out.dedup();
    }

    /// Leaf set (clockwise then counterclockwise, nearest first).
    pub fn leaf_set(&self) -> (&[NodeInfo], &[NodeInfo]) {
        (&self.leaves_cw, &self.leaves_ccw)
    }

    /// Next hop the node would use to route toward `target`.
    pub fn next_hop(&self, target: &NodeName) -> Option<PeerAddr> {
        self.best_next_hop(target).map(|n| n.proc)
    }

    fn all_entries(&self) -> impl Iterator<Item = &NodeInfo> {
        self.leaves_cw
            .iter()
            .chain(self.leaves_ccw.iter())
            .chain(self.rtable.iter().flat_map(|lvl| lvl.iter().flatten()))
    }

    fn best_next_hop(&self, target: &NodeName) -> Option<&NodeInfo> {
        if *target == self.me.name {
            return None;
        }
        let mut best: Option<&NodeInfo> = None;
        for cand in self.all_entries() {
            if !self.me.name.arc_contains(target, &cand.name) {
                continue;
            }
            match best {
                None => best = Some(cand),
                Some(b) => {
                    if further_clockwise(&self.me.name, &cand.name, &b.name) {
                        best = Some(cand);
                    }
                }
            }
        }
        best
    }

    /// Integrates `cand` into leaf set, routing table and candidate cache.
    /// Returns `true` if any table changed.
    fn integrate(&mut self, cand: &NodeInfo) -> bool {
        if cand.proc == self.me.proc || cand.name == self.me.name {
            return false;
        }
        if self.known.len() < CANDIDATE_CACHE {
            self.known.insert(cand.proc, *cand);
        }
        let mut changed = self.leaf_insert(cand);
        let shared = self.numeric.common_prefix(&cand.numeric());
        let max_lvl = shared.min(self.rtable.len().saturating_sub(1));
        for lvl in 0..=max_lvl {
            changed |= self.rtable_consider(lvl, cand);
        }
        changed
    }

    fn leaf_insert(&mut self, cand: &NodeInfo) -> bool {
        let mut changed = false;
        // Clockwise side.
        if !self.leaves_cw.iter().any(|l| l.proc == cand.proc) {
            let pos = self
                .leaves_cw
                .iter()
                .position(|l| closer_clockwise(&self.me.name, &cand.name, &l.name));
            match pos {
                Some(i) => {
                    self.leaves_cw.insert(i, *cand);
                    changed = true;
                }
                None if self.leaves_cw.len() < LEAF_SIDE => {
                    self.leaves_cw.push(*cand);
                    changed = true;
                }
                None => {}
            }
            if self.leaves_cw.len() > LEAF_SIDE {
                self.leaves_cw.truncate(LEAF_SIDE);
            }
        }
        // Counterclockwise side.
        if !self.leaves_ccw.iter().any(|l| l.proc == cand.proc) {
            let pos = self
                .leaves_ccw
                .iter()
                .position(|l| closer_counterclockwise(&self.me.name, &cand.name, &l.name));
            match pos {
                Some(i) => {
                    self.leaves_ccw.insert(i, *cand);
                    changed = true;
                }
                None if self.leaves_ccw.len() < LEAF_SIDE => {
                    self.leaves_ccw.push(*cand);
                    changed = true;
                }
                None => {}
            }
            if self.leaves_ccw.len() > LEAF_SIDE {
                self.leaves_ccw.truncate(LEAF_SIDE);
            }
        }
        changed
    }

    fn rtable_consider(&mut self, level: usize, cand: &NodeInfo) -> bool {
        let mut changed = false;
        // Slot 0: counterclockwise; slot 1: clockwise.
        let slots = &mut self.rtable[level];
        let better_ccw = match &slots[0] {
            None => true,
            Some(cur) => {
                cur.proc != cand.proc
                    && closer_counterclockwise(&self.me.name, &cand.name, &cur.name)
            }
        };
        if better_ccw {
            slots[0] = Some(*cand);
            changed = true;
        }
        let better_cw = match &slots[1] {
            None => true,
            Some(cur) => {
                cur.proc != cand.proc && closer_clockwise(&self.me.name, &cand.name, &cur.name)
            }
        };
        if better_cw {
            slots[1] = Some(*cand);
            changed = true;
        }
        changed
    }

    /// Integrates a batch of candidates, then reconciles ping timers and
    /// emits LinkUp/LinkDown(eviction) upcalls for the neighbor-set diff.
    fn integrate_all(&mut self, io: &mut OverlayCx<'_>, cands: &[NodeInfo]) {
        let mut before = std::mem::take(&mut self.nbrs_before);
        let mut after = std::mem::take(&mut self.nbrs_after);
        self.neighbors_into(&mut before);
        for c in cands {
            self.integrate(c);
        }
        self.neighbors_into(&mut after);
        // Both sets are sorted, so additions and removals each come out in
        // ascending address order.
        for &p in &after {
            if before.binary_search(&p).is_err() {
                self.start_ping(io, p);
                io.upcall(OverlayUpcall::LinkUp { peer: p });
            }
        }
        for &p in &before {
            if after.binary_search(&p).is_err() {
                self.stop_ping(io, p);
                self.stats.neighbors_evicted += 1;
                io.upcall(OverlayUpcall::LinkDown {
                    peer: p,
                    died: false,
                });
            }
        }
        self.nbrs_before = before;
        self.nbrs_after = after;
    }

    // ---- Liveness --------------------------------------------------------

    fn start_all_pings(&mut self, io: &mut OverlayCx<'_>) {
        for p in self.neighbors() {
            self.start_ping(io, p);
        }
    }

    fn start_ping(&mut self, io: &mut OverlayCx<'_>, peer: PeerAddr) {
        if self.watched.contains_key(&peer) {
            return;
        }
        // Phase jitter spreads ping load over the period.
        let jitter = Duration(io.rng().gen_range(0..=self.cfg.ping_period.nanos()));
        let ping = io.set_timer(jitter, OverlayTimer::PingDue(peer));
        let w = Watched {
            ping,
            awaiting: None,
        };
        self.watched.insert(peer, w);
    }

    /// Stops monitoring `peer`. Its ack wait, if any, ends with the record
    /// and leaves the deadline queue lazily.
    fn stop_ping(&mut self, io: &mut OverlayCx<'_>, peer: PeerAddr) {
        if let Some(w) = self.watched.remove(&peer) {
            io.cancel_timer(w.ping);
        }
    }

    /// Sends `peer` its next ping and queues the ack deadline, which
    /// replaces any wait still outstanding on the peer.
    fn ping(&mut self, io: &mut OverlayCx<'_>, peer: PeerAddr) {
        self.next_nonce += 1;
        let nonce = self.next_nonce;
        let hash = self.link_hash(peer);
        io.send(peer, OverlayMsg::Ping { nonce, hash });
        self.stats.pings_sent += 1;
        let timeout = self.cfg.ping_timeout;
        self.ack_deadlines
            .push_back((io.now() + timeout, peer, nonce));
        if !self.ack_timer {
            self.ack_timer = true;
            io.set_timer(timeout, OverlayTimer::AckTimeout);
        }
        let ping = io.set_timer(self.cfg.ping_period, OverlayTimer::PingDue(peer));
        let w = Watched {
            ping,
            awaiting: Some(nonce),
        };
        self.watched.insert(peer, w);
    }

    fn awaits(&self, peer: PeerAddr, nonce: u64) -> bool {
        self.watched
            .get(&peer)
            .is_some_and(|w| w.awaiting == Some(nonce))
    }

    /// Pops the waits that ended from the front of the deadline queue.
    fn drop_ended_waits(&mut self) {
        while let Some(&(_, peer, nonce)) = self.ack_deadlines.front() {
            if self.awaits(peer, nonce) {
                break;
            }
            self.ack_deadlines.pop_front();
        }
    }

    /// The `AckTimeout` timer fired: every neighbour whose wait is still
    /// outstanding at its deadline dies, in send order, and the timer
    /// follows the next wait that has not ended.
    fn sweep_ack_deadlines(&mut self, io: &mut OverlayCx<'_>) {
        self.ack_timer = false;
        let now = io.now();
        loop {
            self.drop_ended_waits();
            let Some(&(at, peer, _)) = self.ack_deadlines.front() else {
                return;
            };
            if at > now {
                self.ack_timer = true;
                io.set_timer(at.since(now), OverlayTimer::AckTimeout);
                return;
            }
            self.ack_deadlines.pop_front();
            self.neighbor_dead(io, peer);
        }
    }

    /// The digest the client asked us to piggyback for `peer` (absent when
    /// no groups monitor the link).
    pub fn link_hash(&self, peer: PeerAddr) -> Option<Digest> {
        self.link_hashes.get(&peer).copied()
    }

    /// Client hook: sets the piggyback digest for one link (paper §6.1:
    /// FUSE piggybacks a 20-byte hash on overlay ping requests).
    pub fn set_link_hash(&mut self, peer: PeerAddr, hash: Option<Digest>) {
        match hash {
            Some(h) => {
                self.link_hashes.insert(peer, h);
            }
            None => {
                self.link_hashes.remove(&peer);
            }
        }
    }

    /// Number of links with a piggyback digest set.
    pub fn link_hash_count(&self) -> usize {
        self.link_hashes.len()
    }

    /// Whether `peer` is currently a monitored neighbor.
    pub fn is_neighbor(&self, peer: PeerAddr) -> bool {
        self.watched.contains_key(&peer)
    }

    fn neighbor_dead(&mut self, io: &mut OverlayCx<'_>, peer: PeerAddr) {
        if !self.is_neighbor(peer) && !self.known.contains_key(&peer) {
            return;
        }
        self.stats.neighbors_died += 1;
        self.stop_ping(io, peer);
        let info = self
            .all_entries()
            .chain(self.known.values())
            .find(|e| e.proc == peer);
        if let Some(info) = info.copied() {
            self.departed.retain(|d| d.0.proc != peer);
            if self.departed.len() == DEPARTED_CAP {
                self.departed.remove(0);
            }
            self.departed.push((info, 0, 1));
        }
        self.known.remove(&peer);
        self.leaves_cw.retain(|l| l.proc != peer);
        self.leaves_ccw.retain(|l| l.proc != peer);
        for lvl in self.rtable.iter_mut() {
            for slot in lvl.iter_mut() {
                if slot.as_ref().map(|e| e.proc) == Some(peer) {
                    *slot = None;
                }
            }
        }
        io.upcall(OverlayUpcall::LinkDown { peer, died: true });
        self.repair_after_death(io);
    }

    fn repair_after_death(&mut self, io: &mut OverlayCx<'_>) {
        // Pull candidates from the extreme survivors on each leaf side and
        // refill from the passive cache.
        let mut pull: Vec<PeerAddr> = Vec::new();
        if let Some(l) = self.leaves_cw.last() {
            pull.push(l.proc);
        }
        if let Some(l) = self.leaves_ccw.last() {
            pull.push(l.proc);
        }
        for p in pull {
            announce(io, self.me, p);
        }
        let cached: Vec<NodeInfo> = self.known.values().copied().collect();
        self.integrate_all(io, &cached);
    }

    // ---- Routing ---------------------------------------------------------

    /// Routes a client payload toward `target` (per-hop upcalls fire on
    /// intermediate nodes, `Delivered` at the target).
    pub fn route_client(
        &mut self,
        io: &mut OverlayCx<'_>,
        target: &NodeName,
        payload: Bytes,
    ) -> RouteStart {
        if *target == self.me.name {
            return RouteStart::SelfIsTarget;
        }
        match self.next_hop(target) {
            Some(next) => {
                io.send(
                    next,
                    OverlayMsg::Routed {
                        src: self.me,
                        target: *target,
                        ttl: ROUTE_TTL,
                        class: RoutedClass::Client as u8,
                        payload,
                        path: Vec::new(),
                    },
                );
                RouteStart::Sent { next }
            }
            None => RouteStart::NoRoute,
        }
    }

    fn forward_routed(
        &mut self,
        io: &mut OverlayCx<'_>,
        from: PeerAddr,
        src: NodeInfo,
        target: NodeName,
        ttl: u8,
        class: u8,
        payload: Bytes,
        mut path: Vec<NodeInfo>,
    ) {
        let rclass = RoutedClass::from_u8(class);
        // Delivery at the exact target name.
        if target == self.me.name {
            self.deliver_routed(io, from, src, payload, rclass, path);
            return;
        }
        if ttl == 0 {
            self.routed_failed(io, &src, &target, class, payload);
            return;
        }
        match self.next_hop(&target) {
            Some(next) => {
                self.stats.forwarded += 1;
                if rclass == Some(RoutedClass::Probe) {
                    path.push(self.me);
                }
                if rclass == Some(RoutedClass::Client) && src.proc != self.me.proc {
                    io.upcall(OverlayUpcall::Forwarded {
                        src,
                        target,
                        prev: from,
                        next,
                        payload: payload.clone(),
                    });
                }
                io.send(
                    next,
                    OverlayMsg::Routed {
                        src,
                        target,
                        ttl: ttl - 1,
                        class,
                        payload,
                        path,
                    },
                );
            }
            None => {
                // No node lies between us and the target: we are the owner
                // of the target's ring position.
                self.deliver_as_owner(io, src, target, class, payload, path);
            }
        }
    }

    fn deliver_routed(
        &mut self,
        io: &mut OverlayCx<'_>,
        from: PeerAddr,
        src: NodeInfo,
        payload: Bytes,
        rclass: Option<RoutedClass>,
        path: Vec<NodeInfo>,
    ) {
        match rclass {
            Some(RoutedClass::Client) => {
                io.upcall(OverlayUpcall::Delivered {
                    src,
                    prev: from,
                    payload,
                });
            }
            Some(RoutedClass::Join) => self.handle_join_request(io, payload),
            Some(RoutedClass::Probe) => {
                let mut path = path;
                path.push(self.me);
                io.send(src.proc, OverlayMsg::ProbeReply { path });
            }
            None => {}
        }
    }

    fn deliver_as_owner(
        &mut self,
        io: &mut OverlayCx<'_>,
        src: NodeInfo,
        target: NodeName,
        class: u8,
        payload: Bytes,
        path: Vec<NodeInfo>,
    ) {
        match RoutedClass::from_u8(class) {
            Some(RoutedClass::Join) => self.handle_join_request(io, payload),
            Some(RoutedClass::Probe) => {
                let mut path = path;
                path.push(self.me);
                io.send(src.proc, OverlayMsg::ProbeReply { path });
            }
            Some(RoutedClass::Client) | None => {
                // Client messages target an exact node; reaching the owner
                // instead means the target is gone (or tables are stale).
                self.routed_failed(io, &src, &target, class, payload);
            }
        }
    }

    fn routed_failed(
        &mut self,
        io: &mut OverlayCx<'_>,
        src: &NodeInfo,
        target: &NodeName,
        class: u8,
        payload: Bytes,
    ) {
        self.stats.route_stalls += 1;
        if src.proc == self.me.proc {
            io.upcall(OverlayUpcall::RouteStuck {
                src: *src,
                target: *target,
                payload,
            });
        } else {
            io.send(
                src.proc,
                OverlayMsg::RoutedError {
                    target: *target,
                    at: self.me,
                    class,
                    payload,
                },
            );
        }
    }

    fn handle_join_request(&mut self, io: &mut OverlayCx<'_>, payload: Bytes) {
        let Ok(joiner) = NodeInfo::from_bytes(&payload) else {
            return;
        };
        let mut candidates: Vec<NodeInfo> = vec![self.me];
        candidates.extend_from_slice(&self.leaves_cw);
        candidates.extend_from_slice(&self.leaves_ccw);
        for lvl in &self.rtable {
            for e in lvl.iter().flatten() {
                candidates.push(*e);
            }
        }
        candidates.dedup_by_key(|c| c.proc);
        let joiner_proc = joiner.proc;
        self.integrate_all(io, &[joiner]);
        io.send(joiner_proc, OverlayMsg::JoinReply { candidates });
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
                let mine = self.link_hash(from);
                io.send(from, OverlayMsg::PingAck { nonce, hash: mine });
            }
            OverlayMsg::PingAck { nonce, hash } => {
                if let Some(w) = self.watched.get_mut(&from) {
                    if w.awaiting == Some(nonce) {
                        w.awaiting = None;
                        self.drop_ended_waits();
                        self.stats.acks_received += 1;
                        io.upcall(OverlayUpcall::PingHash {
                            peer: from,
                            hash: hash.unwrap_or_else(Digest::of_empty),
                        });
                    }
                }
            }
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
            OverlayMsg::JoinReply { candidates } => {
                if let Some(h) = self.join_timer.take() {
                    io.cancel_timer(h);
                }
                let was_ready = self.ready;
                self.ready = true;
                self.integrate_all(io, &candidates);
                if !was_ready {
                    // Announce ourselves to every neighbor so both sides of
                    // each link monitor it.
                    for p in self.neighbors() {
                        announce(io, self.me, p);
                    }
                }
            }
            OverlayMsg::Announce { info, want_reply } => {
                self.departed.retain(|d| d.0.proc != info.proc);
                if want_reply {
                    let mut candidates: Vec<NodeInfo> = vec![self.me];
                    candidates.extend_from_slice(&self.leaves_cw);
                    candidates.extend_from_slice(&self.leaves_ccw);
                    candidates.dedup_by_key(|c| c.proc);
                    io.send(info.proc, OverlayMsg::AnnounceAck { candidates });
                }
                self.integrate_all(io, &[info]);
            }
            OverlayMsg::AnnounceAck { candidates } => {
                self.departed.retain(|d| d.0.proc != from);
                self.integrate_all(io, &candidates);
            }
            OverlayMsg::ProbeReply { path } => {
                self.integrate_all(io, &path);
            }
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

    /// Handles an overlay timer.
    pub fn on_timer(&mut self, io: &mut OverlayCx<'_>, tag: OverlayTimer) {
        match tag {
            OverlayTimer::PingDue(peer) => {
                if self.is_neighbor(peer) {
                    self.ping(io, peer);
                }
            }
            OverlayTimer::AckTimeout => self.sweep_ack_deadlines(io),
            OverlayTimer::JoinRetry => {
                if !self.ready && self.join_attempts < 8 {
                    self.send_join(io);
                }
            }
            OverlayTimer::Maintenance => {
                if self.ready {
                    self.send_probe(io);
                }
                self.announce_to_departed(io);
                io.set_timer(MAINTENANCE_PERIOD, OverlayTimer::Maintenance);
            }
        }
    }

    /// Handles a transport-level broken connection.
    pub fn on_link_broken(&mut self, io: &mut OverlayCx<'_>, peer: PeerAddr) {
        if self.is_neighbor(peer) {
            self.neighbor_dead(io, peer);
        }
    }

    /// Announces this node to every departed peer that is due, each gap
    /// twice the last, and forgets a peer after its last unanswered try.
    fn announce_to_departed(&mut self, io: &mut OverlayCx<'_>) {
        let me = self.me;
        self.departed.retain_mut(|(peer, sent, wait)| {
            *wait -= 1;
            if *wait > 0 {
                return true;
            }
            announce(io, me, peer.proc);
            *sent += 1;
            *wait = 1 << (*sent - 1);
            *sent < DEPARTED_TRIES
        });
    }

    fn send_probe(&mut self, io: &mut OverlayCx<'_>) {
        // Probe toward a random point named `probe-<hex>`; hop path infos
        // opportunistically refresh tables along the way and at the source.
        // Every such name sorts after every `node-…` name, so in a world
        // of numbered nodes each probe ends at the highest-named node, not
        // at a uniformly random ring position (pinned by a test below).
        let point: u64 = io.rng().gen();
        let target = NodeName::format(format_args!("probe-{point:016x}"))
            .expect("a probe target is 22 bytes");
        if let Some(next) = self.next_hop(&target) {
            self.stats.probes_sent += 1;
            // Reserved once for the source, the owner and two hops per
            // routing level: routes are O(log N) hops (at most 13 in the
            // 400-node steady-state world), so no hop regrows it.
            let mut path = Vec::with_capacity(2 * self.rtable.len() + 2);
            path.push(self.me);
            io.send(
                next,
                OverlayMsg::Routed {
                    src: self.me,
                    target,
                    ttl: ROUTE_TTL,
                    class: RoutedClass::Probe as u8,
                    payload: Bytes::new(),
                    path,
                },
            );
        }
    }
}

/// Announces `info` (this node) to `peer`, asking for its leaf sets back.
fn announce(io: &mut OverlayCx<'_>, info: NodeInfo, peer: PeerAddr) {
    let want_reply = true;
    io.send(peer, OverlayMsg::Announce { info, want_reply });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::OverlaySink;
    use fuse_util::{KeyedTimers, Time};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Scratch driver state that records effects without a kernel: each
    /// call runs under a fresh [`OverlayCx`] whose sink records sends and
    /// armed timers into `sent`/`timers`.
    struct TestIo {
        now: Time,
        rng: StdRng,
        keyed: KeyedTimers<OverlayTimer>,
        sent: Vec<(PeerAddr, OverlayMsg)>,
        upcalls: Vec<OverlayUpcall>,
        timers: Vec<(Duration, TimerKey)>,
    }

    /// The test sink: sends and armed timers are recorded, cancels dropped.
    struct Recorded<'a>(
        &'a mut Vec<(PeerAddr, OverlayMsg)>,
        &'a mut Vec<(Duration, TimerKey)>,
    );

    impl OverlaySink for Recorded<'_> {
        fn send(&mut self, to: PeerAddr, msg: OverlayMsg) {
            self.0.push((to, msg));
        }

        fn set_timer(&mut self, key: TimerKey, after: Duration) {
            self.1.push((after, key));
        }

        fn cancel_timer(&mut self, _key: TimerKey) {}
    }

    impl TestIo {
        fn new() -> Self {
            TestIo {
                now: Time::ZERO,
                rng: StdRng::seed_from_u64(5),
                keyed: KeyedTimers::new(0),
                sent: Vec::new(),
                upcalls: Vec::new(),
                timers: Vec::new(),
            }
        }

        /// Runs one node entry point under a context.
        fn with<R>(&mut self, f: impl FnOnce(&mut OverlayCx<'_>) -> R) -> R {
            let mut rec = Recorded(&mut self.sent, &mut self.timers);
            let mut cx = OverlayCx::new(
                self.now,
                &mut self.rng,
                &mut self.keyed,
                &mut rec,
                &mut self.upcalls,
            );
            f(&mut cx)
        }

        fn boot(&mut self, n: &mut OverlayNode) {
            self.with(|cx| n.boot(cx));
        }

        fn integrate_all(&mut self, n: &mut OverlayNode, cands: &[NodeInfo]) {
            self.with(|cx| n.integrate_all(cx, cands));
        }

        fn on_message(&mut self, n: &mut OverlayNode, from: PeerAddr, msg: OverlayMsg) {
            self.with(|cx| n.on_message(cx, from, msg));
        }

        fn on_timer(&mut self, n: &mut OverlayNode, tag: OverlayTimer) {
            self.with(|cx| n.on_timer(cx, tag));
        }

        fn on_link_broken(&mut self, n: &mut OverlayNode, peer: PeerAddr) {
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

    fn info(i: usize) -> NodeInfo {
        NodeInfo::new(i as PeerAddr, NodeName::numbered(i))
    }

    fn node_with(me: usize, others: &[usize]) -> (OverlayNode, TestIo) {
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

    #[test]
    fn ping_carries_pushed_link_hash() {
        let (mut n, mut io) = node_with(10, &[20]);
        let h = fuse_wire::sha1(b"groups-on-link");
        n.set_link_hash(20, Some(h));
        io.on_timer(&mut n, OverlayTimer::PingDue(20));
        let ping = io
            .sent
            .iter()
            .find_map(|(to, m)| match m {
                OverlayMsg::Ping { hash, .. } if *to == 20 => Some(*hash),
                _ => None,
            })
            .expect("ping sent");
        assert_eq!(ping, Some(h));
    }

    #[test]
    fn ping_ack_roundtrip_upcalls_hash_on_both_sides() {
        let (mut a, mut io_a) = node_with(10, &[20]);
        let (mut b, mut io_b) = node_with(20, &[10]);
        io_a.on_timer(&mut a, OverlayTimer::PingDue(20));
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
        io.on_timer(&mut n, OverlayTimer::PingDue(20));
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

    /// A neighbour declared dead is announced to on maintenance ticks 1,
    /// 2, 4, 8 and 16 after its death, then forgotten; its answer ends the
    /// retries at once.
    #[test]
    fn departed_neighbours_are_announced_to_with_doubling_gaps() {
        let (mut n, mut io) = node_with(10, &[20, 30]);
        io.on_link_broken(&mut n, 20);
        io.on_link_broken(&mut n, 30);
        let mut ticks: [Vec<usize>; 2] = Default::default();
        for tick in 1..=40 {
            if tick == 3 {
                let candidates = vec![info(30)];
                io.on_message(&mut n, 30, OverlayMsg::AnnounceAck { candidates });
            }
            io.sent.clear();
            io.on_timer(&mut n, OverlayTimer::Maintenance);
            for (to, msg) in &io.sent {
                if let OverlayMsg::Announce {
                    want_reply: true, ..
                } = msg
                {
                    ticks[usize::from(*to == 30)].push(tick);
                }
            }
        }
        assert_eq!(ticks[0], [1, 2, 4, 8, 16], "peer 20 never answers");
        assert_eq!(ticks[1], [1, 2], "peer 30 answers before tick 3");
        assert!(n.departed.is_empty());
    }

    #[test]
    fn stale_ack_timeout_is_ignored_after_ack() {
        let (mut a, mut io_a) = node_with(10, &[20]);
        let (mut b, mut io_b) = node_with(20, &[10]);
        io_a.on_timer(&mut a, OverlayTimer::PingDue(20));
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

    /// One timer serves every outstanding ping: A is pinged at t and acks,
    /// B is pinged at t+5 s and stays silent. The sweep at t+20 s finds
    /// A's wait ended and follows B's deadline, and B dies at exactly
    /// t+25 s.
    #[test]
    fn one_ack_timer_sweeps_every_ping_at_its_own_deadline() {
        let (mut n, mut io) = node_with(10, &[20, 30]);
        let timeout = OverlayConfig::default().ping_timeout;
        let sweeps = |io: &TestIo| -> Vec<Duration> {
            let armed = io.timers.iter();
            let sweep = armed.filter(|(_, k)| io.keyed.get(*k) == Some(&OverlayTimer::AckTimeout));
            sweep.map(|&(after, _)| after).collect()
        };
        let t = Time::ZERO + Duration::from_secs(100);
        io.now = t;
        io.timers.clear();
        io.on_timer(&mut n, OverlayTimer::PingDue(20));
        let nonce = match io.sent.last() {
            Some((20, OverlayMsg::Ping { nonce, .. })) => *nonce,
            other => panic!("expected a ping to 20, got {other:?}"),
        };
        let ack = OverlayMsg::PingAck { nonce, hash: None };
        io.on_message(&mut n, 20, ack);
        assert!(n.ack_deadlines.is_empty(), "A's ended wait leaves at once");
        io.now = t + Duration::from_secs(5);
        io.on_timer(&mut n, OverlayTimer::PingDue(30));
        assert_eq!(sweeps(&io), [timeout], "one timer is armed for both pings");

        io.timers.clear();
        io.now = t + timeout;
        io.on_timer(&mut n, OverlayTimer::AckTimeout);
        assert!(
            n.is_neighbor(20) && n.is_neighbor(30),
            "the sweep at t+20 s kills no one"
        );
        assert_eq!(
            sweeps(&io),
            [Duration::from_secs(5)],
            "it follows B's deadline"
        );
        assert_eq!(n.stats.neighbors_died, 0);

        io.now = t + Duration::from_secs(25);
        io.on_timer(&mut n, OverlayTimer::AckTimeout);
        assert!(!n.is_neighbor(30) && n.is_neighbor(20));
        let died = |u: &OverlayUpcall| {
            matches!(
                u,
                OverlayUpcall::LinkDown {
                    peer: 30,
                    died: true
                }
            )
        };
        assert_eq!(io.upcalls.iter().filter(|u| died(u)).count(), 1);
        assert_eq!(n.stats.neighbors_died, 1);
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

    #[test]
    fn eviction_emits_non_fatal_linkdown() {
        // Fill both leaf sides with far nodes, then insert strictly closer
        // nodes on both sides: the far nodes leave both leaf sets, and any
        // that hold no routing-table slot must produce
        // LinkDown { died: false }.
        let others: Vec<usize> = (600..640).collect();
        let (mut n, mut io) = node_with(500, &others);
        io.upcalls.clear();
        let close: Vec<NodeInfo> = (501..509).chain(492..500).map(info).collect();
        io.integrate_all(&mut n, &close);
        let evicted: Vec<PeerAddr> = io
            .upcalls
            .iter()
            .filter_map(|u| match u {
                OverlayUpcall::LinkDown { peer, died: false } => Some(*peer),
                _ => None,
            })
            .collect();
        assert!(!evicted.is_empty(), "someone must have been evicted");
        // Evicted nodes stay in the candidate cache (alive, just not
        // monitored) and are truly out of the monitored set.
        for p in evicted {
            assert!(n.known.contains_key(&p));
            assert!(!n.neighbors().contains(&p));
        }
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
