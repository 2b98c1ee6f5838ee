//! Per-group all-to-all pinging (§3's reference implementation, §5.1's
//! second alternative).
//!
//! Every group member pings every other member once per period. A member
//! that misses an acknowledgment notifies its application and **stops
//! acknowledging pings for that group**, converting its individual
//! observation into a group notification: every other member's next ping
//! goes unanswered, so "failure notifications are propagated to every party
//! within twice the periodic pinging interval" (§3). Cost: n² messages per
//! group per period — the trade the §5.1 ablation quantifies.

use fuse_sim::process::Ctx;
use fuse_sim::{Payload, ProcId, Process, SimDuration, SimTime};
use fuse_util::idgen::IdGen;
use fuse_util::DetHashMap;

use fuse_core::FuseId;

/// Ping period per (group, peer): the paper's 60 s.
const PING_PERIOD: SimDuration = SimDuration::from_secs(60);
/// Ack timeout: the paper's 20 s.
const PING_TIMEOUT: SimDuration = SimDuration::from_secs(20);

/// Messages of the all-to-all notifier.
#[derive(Debug, Clone)]
pub enum A2aMsg {
    /// Install group state (creator → members).
    Create {
        /// The group.
        id: FuseId,
        /// All participants (including the creator).
        members: Vec<ProcId>,
    },
    /// Liveness ping for one group.
    Ping {
        /// The group.
        id: FuseId,
        /// Matches ack to timeout.
        nonce: u64,
    },
    /// Acknowledgment (only sent while the group is healthy locally).
    Ack {
        /// The group.
        id: FuseId,
        /// Echoed nonce.
        nonce: u64,
    },
}

impl Payload for A2aMsg {
    fn size_bytes(&self) -> usize {
        match self {
            A2aMsg::Create { members, .. } => 9 + 1 + 4 * members.len(),
            A2aMsg::Ping { .. } | A2aMsg::Ack { .. } => 17,
        }
    }

    fn class(&self) -> &'static str {
        match self {
            A2aMsg::Create { .. } => "a2a.create",
            A2aMsg::Ping { .. } => "a2a.ping",
            A2aMsg::Ack { .. } => "a2a.ack",
        }
    }
}

/// Timer tags.
#[derive(Debug, Clone)]
pub enum A2aTimer {
    /// Periodic ping of `peer` for `id`.
    PingDue {
        /// The group.
        id: FuseId,
        /// The peer to ping.
        peer: ProcId,
    },
    /// Outstanding ack timeout.
    AckTimeout {
        /// The group.
        id: FuseId,
        /// The pinged peer.
        peer: ProcId,
        /// The outstanding nonce.
        nonce: u64,
    },
}

struct Group {
    members: Vec<ProcId>,
    /// Outstanding nonce per peer.
    waiting: DetHashMap<ProcId, u64>,
    /// The fuse is lit: stop acking, application already notified.
    burnt: bool,
}

/// A node of the all-to-all FUSE variant.
pub struct AllToAllNode {
    me: ProcId,
    idgen: IdGen,
    groups: DetHashMap<FuseId, Group>,
    next_nonce: u64,
    /// Failure notifications delivered to the application.
    pub notified: Vec<(SimTime, FuseId)>,
    /// Groups created from this node.
    pub created: Vec<FuseId>,
}

impl AllToAllNode {
    /// Creates a node with id `me` (must equal its kernel process id).
    pub fn new(me: ProcId) -> Self {
        AllToAllNode {
            me,
            idgen: IdGen::new(u64::from(me) | (1 << 40)),
            groups: DetHashMap::default(),
            next_nonce: 0,
            notified: Vec::new(),
            created: Vec::new(),
        }
    }

    /// Creates a group over `members` (the caller is added if absent).
    pub fn create_group(
        &mut self,
        ctx: &mut Ctx<'_, A2aMsg, A2aTimer>,
        mut members: Vec<ProcId>,
    ) -> FuseId {
        if !members.contains(&self.me) {
            members.push(self.me);
        }
        members.sort_unstable();
        let id = FuseId(self.idgen.next_id());
        for &m in &members {
            if m != self.me {
                ctx.send(
                    m,
                    A2aMsg::Create {
                        id,
                        members: members.clone(),
                    },
                );
            }
        }
        self.install(ctx, id, members);
        self.created.push(id);
        id
    }

    /// Explicitly lights the fuse for `id`.
    pub fn signal_failure(&mut self, ctx: &mut Ctx<'_, A2aMsg, A2aTimer>, id: FuseId) {
        self.burn(ctx, id);
    }

    /// Whether this node still considers `id` healthy.
    pub fn is_live(&self, id: FuseId) -> bool {
        self.groups.get(&id).map(|g| !g.burnt).unwrap_or(false)
    }

    fn install(&mut self, ctx: &mut Ctx<'_, A2aMsg, A2aTimer>, id: FuseId, members: Vec<ProcId>) {
        if self.groups.contains_key(&id) {
            return;
        }
        let peers: Vec<ProcId> = members.iter().copied().filter(|&m| m != self.me).collect();
        self.groups.insert(
            id,
            Group {
                members,
                waiting: DetHashMap::default(),
                burnt: false,
            },
        );
        for peer in peers {
            // Phase jitter spreads the n² ping load across the period.
            let jitter = SimDuration(rand::Rng::gen_range(ctx.rng(), 0..=PING_PERIOD.nanos()));
            ctx.set_timer(jitter, A2aTimer::PingDue { id, peer });
        }
    }

    fn burn(&mut self, ctx: &mut Ctx<'_, A2aMsg, A2aTimer>, id: FuseId) {
        let Some(g) = self.groups.get_mut(&id) else {
            return;
        };
        if g.burnt {
            return;
        }
        g.burnt = true;
        g.waiting.clear();
        self.notified.push((ctx.now, id));
    }
}

impl Process for AllToAllNode {
    type Msg = A2aMsg;
    type Timer = A2aTimer;

    fn on_boot(&mut self, _ctx: &mut Ctx<'_, A2aMsg, A2aTimer>) {}

    fn on_message(&mut self, ctx: &mut Ctx<'_, A2aMsg, A2aTimer>, from: ProcId, msg: A2aMsg) {
        match msg {
            A2aMsg::Create { id, members } => self.install(ctx, id, members),
            A2aMsg::Ping { id, nonce } => {
                // The heart of §3: only healthy groups acknowledge.
                let healthy = self.groups.get(&id).map(|g| !g.burnt).unwrap_or(false);
                if healthy {
                    ctx.send(from, A2aMsg::Ack { id, nonce });
                }
            }
            A2aMsg::Ack { id, nonce } => {
                if let Some(g) = self.groups.get_mut(&id) {
                    if g.waiting.get(&from) == Some(&nonce) {
                        g.waiting.remove(&from);
                    }
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, A2aMsg, A2aTimer>, tag: A2aTimer) {
        match tag {
            A2aTimer::PingDue { id, peer } => {
                let Some(g) = self.groups.get_mut(&id) else {
                    return;
                };
                if g.burnt {
                    return;
                }
                self.next_nonce += 1;
                let nonce = self.next_nonce;
                g.waiting.insert(peer, nonce);
                ctx.send(peer, A2aMsg::Ping { id, nonce });
                ctx.set_timer(PING_TIMEOUT, A2aTimer::AckTimeout { id, peer, nonce });
                ctx.set_timer(PING_PERIOD, A2aTimer::PingDue { id, peer });
            }
            A2aTimer::AckTimeout { id, peer, nonce } => {
                let missed = self
                    .groups
                    .get(&id)
                    .map(|g| !g.burnt && g.waiting.get(&peer) == Some(&nonce))
                    .unwrap_or(false);
                if missed {
                    self.burn(ctx, id);
                }
            }
        }
    }

    fn on_link_broken(&mut self, ctx: &mut Ctx<'_, A2aMsg, A2aTimer>, peer: ProcId) {
        let ids: Vec<FuseId> = self
            .groups
            .iter()
            .filter(|(_, g)| !g.burnt && g.members.contains(&peer))
            .map(|(&id, _)| id)
            .collect();
        for id in ids {
            self.burn(ctx, id);
        }
    }
}

/// Messages per period for one group of size `n` (pings + acks, both
/// directions): the n² scaling of §5.1.
pub fn steady_state_messages_per_period(n: usize) -> usize {
    2 * n * (n - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuse_sim::{PerfectMedium, Sim};

    fn world(n: usize, seed: u64) -> Sim<AllToAllNode, PerfectMedium> {
        let mut sim = Sim::new(seed, PerfectMedium::new(SimDuration::from_millis(30)));
        for i in 0..n {
            sim.add_process(AllToAllNode::new(i as ProcId));
        }
        sim
    }

    #[test]
    fn quiet_group_stays_alive() {
        let mut sim = world(6, 1);
        let id = sim
            .with_proc(0, |n, ctx| n.create_group(ctx, vec![1, 2, 3]))
            .unwrap();
        sim.run_for(SimDuration::from_secs(600));
        for p in 0..4u32 {
            assert!(sim.proc(p).unwrap().is_live(id), "node {p}");
        }
    }

    #[test]
    fn crash_notifies_all_within_two_ping_intervals() {
        let mut sim = world(6, 2);
        let id = sim
            .with_proc(0, |n, ctx| n.create_group(ctx, vec![1, 2, 3]))
            .unwrap();
        sim.run_for(SimDuration::from_secs(5));
        let t0 = sim.now();
        sim.crash(2);
        sim.run_for(SimDuration::from_secs(200));
        for p in [0u32, 1, 3] {
            let n = sim.proc(p).unwrap();
            assert_eq!(n.notified.len(), 1, "node {p}");
            assert_eq!(n.notified[0].1, id);
            let dt = n.notified[0].0.since(t0);
            // §3's bound: one period to attempt a ping plus the ack timeout.
            assert!(
                dt <= SimDuration::from_secs(2 * 60 + 20),
                "node {p} took {dt}"
            );
        }
    }

    #[test]
    fn explicit_signal_propagates_by_stopped_acks() {
        let mut sim = world(5, 3);
        let id = sim
            .with_proc(0, |n, ctx| n.create_group(ctx, vec![1, 2]))
            .unwrap();
        sim.run_for(SimDuration::from_secs(5));
        sim.with_proc(1, |n, ctx| n.signal_failure(ctx, id));
        sim.run_for(SimDuration::from_secs(200));
        for p in [0u32, 2] {
            assert_eq!(sim.proc(p).unwrap().notified.len(), 1, "node {p}");
        }
        // The signaler was notified at signal time.
        assert_eq!(sim.proc(1).unwrap().notified.len(), 1);
    }

    #[test]
    fn notification_is_exactly_once_per_node() {
        let mut sim = world(5, 4);
        let id = sim
            .with_proc(0, |n, ctx| n.create_group(ctx, vec![1, 2, 3, 4]))
            .unwrap();
        sim.run_for(SimDuration::from_secs(5));
        sim.crash(1);
        sim.crash(2);
        sim.run_for(SimDuration::from_secs(400));
        for p in [0u32, 3, 4] {
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
    fn independent_groups_are_isolated() {
        let mut sim = world(6, 5);
        let a = sim
            .with_proc(0, |n, ctx| n.create_group(ctx, vec![1, 2]))
            .unwrap();
        let b = sim
            .with_proc(0, |n, ctx| n.create_group(ctx, vec![1, 2]))
            .unwrap();
        sim.run_for(SimDuration::from_secs(5));
        sim.with_proc(2, |n, ctx| n.signal_failure(ctx, a));
        sim.run_for(SimDuration::from_secs(300));
        for p in [0u32, 1, 2] {
            let n = sim.proc(p).unwrap();
            assert!(n.notified.iter().any(|&(_, g)| g == a), "node {p} heard a");
            assert!(n.is_live(b), "node {p} must keep group b");
        }
    }

    #[test]
    fn message_cost_scales_quadratically() {
        assert_eq!(steady_state_messages_per_period(2), 4);
        assert_eq!(steady_state_messages_per_period(4), 24);
        assert_eq!(steady_state_messages_per_period(8), 112);
    }
}
