//! Per-group spanning trees without an overlay (§5.1's first alternative).
//!
//! Liveness checking runs directly between group participants over a star
//! rooted at the creator. There are no delegates, so delegate attacks are
//! impossible; the cost is that ping traffic can no longer be shared with
//! overlay maintenance — it is shared only between groups whose star edges
//! coincide (same root–member pair), so "the overhead of liveness checking
//! traffic may be additive in the number of FUSE groups" (§5.1).

use fuse_sim::process::Ctx;
use fuse_sim::{Payload, ProcId, Process, SimDuration, SimTime};
use fuse_util::idgen::IdGen;
use fuse_util::{DetHashMap, DetHashSet};

use fuse_core::FuseId;

/// Ping period per monitored node pair: the paper's 60 s.
const PING_PERIOD: SimDuration = SimDuration::from_secs(60);
/// Ack timeout: the paper's 20 s.
const PING_TIMEOUT: SimDuration = SimDuration::from_secs(20);

/// Messages of the direct-tree notifier.
#[derive(Debug, Clone)]
pub enum DirectMsg {
    /// Install group state (root → members).
    Create {
        /// The group.
        id: FuseId,
        /// The root.
        root: ProcId,
        /// The other members.
        members: Vec<ProcId>,
    },
    /// Pair-shared liveness ping: covers every group on this edge.
    Ping {
        /// Matches ack to timeout.
        nonce: u64,
    },
    /// Acknowledgment.
    Ack {
        /// Echoed nonce.
        nonce: u64,
    },
    /// Failure notification for one group.
    Notify {
        /// The group.
        id: FuseId,
    },
}

impl Payload for DirectMsg {
    fn size_bytes(&self) -> usize {
        match self {
            DirectMsg::Create { members, .. } => 9 + 5 + 1 + 4 * members.len(),
            DirectMsg::Ping { .. } | DirectMsg::Ack { .. } => 9,
            DirectMsg::Notify { .. } => 9,
        }
    }

    fn class(&self) -> &'static str {
        match self {
            DirectMsg::Create { .. } => "direct.create",
            DirectMsg::Ping { .. } => "direct.ping",
            DirectMsg::Ack { .. } => "direct.ack",
            DirectMsg::Notify { .. } => "direct.notify",
        }
    }
}

/// Timer tags.
#[derive(Debug, Clone)]
pub enum DirectTimer {
    /// Periodic ping of a monitored peer (edge-shared).
    PingDue {
        /// The peer.
        peer: ProcId,
    },
    /// Outstanding ack timeout.
    AckTimeout {
        /// The pinged peer.
        peer: ProcId,
        /// The outstanding nonce.
        nonce: u64,
    },
}

struct Group {
    root: ProcId,
    members: Vec<ProcId>,
    burnt: bool,
}

/// A node of the direct-spanning-tree FUSE variant.
pub struct DirectNode {
    me: ProcId,
    idgen: IdGen,
    groups: DetHashMap<FuseId, Group>,
    /// Edge-shared ping machinery: peers we monitor and why.
    edges: DetHashMap<ProcId, DetHashSet<FuseId>>,
    waiting: DetHashMap<ProcId, u64>,
    ping_armed: DetHashSet<ProcId>,
    next_nonce: u64,
    /// Failure notifications delivered to the application.
    pub notified: Vec<(SimTime, FuseId)>,
    /// Liveness pings sent (for the ablation's load accounting).
    pub pings_sent: u64,
}

impl DirectNode {
    /// Creates a node with id `me` (must equal its kernel process id).
    pub fn new(me: ProcId) -> Self {
        DirectNode {
            me,
            idgen: IdGen::new(u64::from(me) | (1 << 41)),
            groups: DetHashMap::default(),
            edges: DetHashMap::default(),
            waiting: DetHashMap::default(),
            ping_armed: DetHashSet::default(),
            next_nonce: 0,
            notified: Vec::new(),
            pings_sent: 0,
        }
    }

    /// Creates a group rooted here over `members`.
    pub fn create_group(
        &mut self,
        ctx: &mut Ctx<'_, DirectMsg, DirectTimer>,
        members: Vec<ProcId>,
    ) -> FuseId {
        let id = FuseId(self.idgen.next_id());
        let members: Vec<ProcId> = members.into_iter().filter(|&m| m != self.me).collect();
        for &m in &members {
            ctx.send(
                m,
                DirectMsg::Create {
                    id,
                    root: self.me,
                    members: members.clone(),
                },
            );
            self.watch_edge(ctx, id, m);
        }
        self.groups.insert(
            id,
            Group {
                root: self.me,
                members,
                burnt: false,
            },
        );
        id
    }

    /// Explicitly signals failure of `id`.
    pub fn signal_failure(&mut self, ctx: &mut Ctx<'_, DirectMsg, DirectTimer>, id: FuseId) {
        self.burn(ctx, id);
    }

    /// Whether this node still considers `id` healthy.
    pub fn is_live(&self, id: FuseId) -> bool {
        self.groups.get(&id).map(|g| !g.burnt).unwrap_or(false)
    }

    fn watch_edge(&mut self, ctx: &mut Ctx<'_, DirectMsg, DirectTimer>, id: FuseId, peer: ProcId) {
        self.edges.entry(peer).or_default().insert(id);
        if self.ping_armed.insert(peer) {
            let jitter = SimDuration(rand::Rng::gen_range(ctx.rng(), 0..=PING_PERIOD.nanos()));
            ctx.set_timer(jitter, DirectTimer::PingDue { peer });
        }
    }

    /// The monitored edge to `peer` failed: every group on it burns.
    fn edge_failed(&mut self, ctx: &mut Ctx<'_, DirectMsg, DirectTimer>, peer: ProcId) {
        let ids: Vec<FuseId> = self
            .edges
            .remove(&peer)
            .map(|s| {
                let mut v: Vec<FuseId> = s.into_iter().collect();
                v.sort_unstable();
                v
            })
            .unwrap_or_default();
        self.ping_armed.remove(&peer);
        self.waiting.remove(&peer);
        for id in ids {
            self.burn(ctx, id);
        }
    }

    /// Lights the fuse: notify locally, propagate along the star, drop.
    fn burn(&mut self, ctx: &mut Ctx<'_, DirectMsg, DirectTimer>, id: FuseId) {
        let Some(g) = self.groups.get_mut(&id) else {
            return;
        };
        if g.burnt {
            return;
        }
        g.burnt = true;
        self.notified.push((ctx.now, id));
        let root = g.root;
        let fanout: Vec<ProcId> = if root == self.me {
            // Root: tell every member.
            g.members.clone()
        } else {
            // Member: tell the root, which relays.
            vec![root]
        };
        for p in fanout {
            if p != self.me {
                ctx.send(p, DirectMsg::Notify { id });
            }
        }
        // Stop watching edges for this group.
        let peers: Vec<ProcId> = self.edges.keys().copied().collect();
        for peer in peers {
            if let Some(set) = self.edges.get_mut(&peer) {
                set.remove(&id);
                if set.is_empty() {
                    self.edges.remove(&peer);
                    self.ping_armed.remove(&peer);
                }
            }
        }
    }
}

impl Process for DirectNode {
    type Msg = DirectMsg;
    type Timer = DirectTimer;

    fn on_boot(&mut self, _ctx: &mut Ctx<'_, DirectMsg, DirectTimer>) {}

    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, DirectMsg, DirectTimer>,
        from: ProcId,
        msg: DirectMsg,
    ) {
        match msg {
            DirectMsg::Create { id, root, members } => {
                if self.groups.contains_key(&id) {
                    return;
                }
                self.groups.insert(
                    id,
                    Group {
                        root,
                        members,
                        burnt: false,
                    },
                );
                // Members monitor the root from their side too ("monitored
                // from both sides").
                self.watch_edge(ctx, id, root);
            }
            DirectMsg::Ping { nonce } => {
                ctx.send(from, DirectMsg::Ack { nonce });
            }
            DirectMsg::Ack { nonce } => {
                if self.waiting.get(&from) == Some(&nonce) {
                    self.waiting.remove(&from);
                }
            }
            DirectMsg::Notify { id } => {
                let relay = self
                    .groups
                    .get(&id)
                    .map(|g| g.root == self.me && !g.burnt)
                    .unwrap_or(false);
                if relay {
                    // Root relays to everyone except the originator.
                    let members: Vec<ProcId> = self
                        .groups
                        .get(&id)
                        .map(|g| g.members.clone())
                        .unwrap_or_default();
                    for m in members {
                        if m != from {
                            ctx.send(m, DirectMsg::Notify { id });
                        }
                    }
                }
                self.burn(ctx, id);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, DirectMsg, DirectTimer>, tag: DirectTimer) {
        match tag {
            DirectTimer::PingDue { peer } => {
                if !self.ping_armed.contains(&peer) {
                    return;
                }
                self.next_nonce += 1;
                let nonce = self.next_nonce;
                self.waiting.insert(peer, nonce);
                self.pings_sent += 1;
                ctx.send(peer, DirectMsg::Ping { nonce });
                ctx.set_timer(PING_TIMEOUT, DirectTimer::AckTimeout { peer, nonce });
                ctx.set_timer(PING_PERIOD, DirectTimer::PingDue { peer });
            }
            DirectTimer::AckTimeout { peer, nonce } => {
                if self.waiting.get(&peer) == Some(&nonce) {
                    self.edge_failed(ctx, peer);
                }
            }
        }
    }

    fn on_link_broken(&mut self, ctx: &mut Ctx<'_, DirectMsg, DirectTimer>, peer: ProcId) {
        self.edge_failed(ctx, peer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuse_sim::{PerfectMedium, Sim};

    fn world(n: usize, seed: u64) -> Sim<DirectNode, PerfectMedium> {
        let mut sim = Sim::new(seed, PerfectMedium::new(SimDuration::from_millis(30)));
        for i in 0..n {
            sim.add_process(DirectNode::new(i as ProcId));
        }
        sim
    }

    #[test]
    fn quiet_group_stays_alive() {
        let mut sim = world(5, 1);
        let id = sim
            .with_proc(0, |n, ctx| n.create_group(ctx, vec![1, 2, 3]))
            .unwrap();
        sim.run_for(SimDuration::from_secs(600));
        for p in 0..4u32 {
            assert!(sim.proc(p).unwrap().is_live(id), "node {p}");
        }
    }

    #[test]
    fn member_crash_notifies_everyone() {
        let mut sim = world(5, 2);
        let id = sim
            .with_proc(0, |n, ctx| n.create_group(ctx, vec![1, 2, 3]))
            .unwrap();
        sim.run_for(SimDuration::from_secs(5));
        sim.crash(2);
        sim.run_for(SimDuration::from_secs(200));
        for p in [0u32, 1, 3] {
            let hits = sim
                .proc(p)
                .unwrap()
                .notified
                .iter()
                .filter(|&&(_, g)| g == id)
                .count();
            assert_eq!(hits, 1, "node {p}");
        }
    }

    #[test]
    fn root_crash_notifies_members_independently() {
        let mut sim = world(5, 3);
        let _id = sim
            .with_proc(0, |n, ctx| n.create_group(ctx, vec![1, 2]))
            .unwrap();
        sim.run_for(SimDuration::from_secs(5));
        sim.crash(0);
        sim.run_for(SimDuration::from_secs(200));
        for p in [1u32, 2] {
            assert_eq!(sim.proc(p).unwrap().notified.len(), 1, "node {p}");
        }
    }

    #[test]
    fn member_signal_reaches_all_through_root() {
        let mut sim = world(5, 4);
        let id = sim
            .with_proc(0, |n, ctx| n.create_group(ctx, vec![1, 2, 3]))
            .unwrap();
        sim.run_for(SimDuration::from_secs(2));
        sim.with_proc(3, |n, ctx| n.signal_failure(ctx, id));
        sim.run_for(SimDuration::from_secs(10));
        for p in [0u32, 1, 2, 3] {
            assert_eq!(sim.proc(p).unwrap().notified.len(), 1, "node {p}");
        }
    }

    #[test]
    fn shared_edges_ping_once_for_many_groups() {
        // Two groups with the same root-member edges: edge pinging must not
        // double.
        let mut sim = world(3, 5);
        sim.with_proc(0, |n, ctx| n.create_group(ctx, vec![1, 2]));
        sim.with_proc(0, |n, ctx| n.create_group(ctx, vec![1, 2]));
        sim.run_for(SimDuration::from_secs(600));
        let pings_two_groups = sim.proc(0).unwrap().pings_sent;

        let mut sim1 = world(3, 5);
        sim1.with_proc(0, |n, ctx| n.create_group(ctx, vec![1, 2]));
        sim1.run_for(SimDuration::from_secs(600));
        let pings_one_group = sim1.proc(0).unwrap().pings_sent;

        assert_eq!(
            pings_two_groups, pings_one_group,
            "identical membership must share liveness traffic"
        );
    }
}
