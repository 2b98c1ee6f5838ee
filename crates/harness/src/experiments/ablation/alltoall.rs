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

use std::collections::hash_map::Entry;

use fuse_core::FuseId;
use fuse_sim::process::Ctx;
use fuse_sim::{Payload, ProcId, Process, SimTime};
use fuse_util::idgen::IdGen;
use fuse_util::DetHashMap;

use super::{Alternative, Fired, PingTimer, Pinger};

/// Timer tags: the ping machine keyed by `(group, peer)`.
type A2aTimer = PingTimer<(FuseId, ProcId)>;
/// A handler's context.
type Cx<'a> = Ctx<'a, A2aMsg, A2aTimer>;

/// Messages of the all-to-all notifier.
#[derive(Debug, Clone)]
pub enum A2aMsg {
    /// Install group state (creator → members); `members` includes the
    /// creator.
    Create { id: FuseId, members: Vec<ProcId> },
    /// Liveness ping for one group.
    Ping { id: FuseId, nonce: u64 },
    /// Acknowledgment (only sent while the group is healthy locally).
    Ack { id: FuseId, nonce: u64 },
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

struct Group {
    members: Vec<ProcId>,
    /// The fuse is lit: stop acking, application already notified.
    burnt: bool,
}

/// A node of the all-to-all FUSE variant.
pub struct AllToAllNode {
    me: ProcId,
    idgen: IdGen,
    groups: DetHashMap<FuseId, Group>,
    pinger: Pinger<(FuseId, ProcId)>,
    notified: Vec<(SimTime, FuseId)>,
}

impl AllToAllNode {
    fn install(&mut self, ctx: &mut Cx<'_>, id: FuseId, members: Vec<ProcId>) {
        if let Entry::Vacant(e) = self.groups.entry(id) {
            for &peer in members.iter().filter(|&&m| m != self.me) {
                self.pinger.watch(ctx, (id, peer));
            }
            e.insert(Group {
                members,
                burnt: false,
            });
        }
    }

    fn burn(&mut self, ctx: &mut Cx<'_>, id: FuseId) {
        let Some(g) = self.groups.get_mut(&id).filter(|g| !g.burnt) else {
            return;
        };
        g.burnt = true;
        for &peer in &g.members {
            self.pinger.unwatch((id, peer));
        }
        self.notified.push((ctx.now, id));
    }
}

impl Alternative for AllToAllNode {
    fn new(me: ProcId) -> Self {
        AllToAllNode {
            me,
            idgen: IdGen::new(u64::from(me) | (1 << 40)),
            groups: DetHashMap::default(),
            pinger: Pinger::new(),
            notified: Vec::new(),
        }
    }

    /// Creates a group over `members` (the caller is added if absent).
    fn create_group(&mut self, ctx: &mut Cx<'_>, mut members: Vec<ProcId>) -> FuseId {
        if !members.contains(&self.me) {
            members.push(self.me);
        }
        members.sort_unstable();
        let id = FuseId(self.idgen.next_id());
        for &m in members.iter().filter(|&&m| m != self.me) {
            let members = members.clone();
            ctx.send(m, A2aMsg::Create { id, members });
        }
        self.install(ctx, id, members);
        id
    }

    fn signal_failure(&mut self, ctx: &mut Cx<'_>, id: FuseId) {
        self.burn(ctx, id);
    }

    fn is_live(&self, id: FuseId) -> bool {
        self.groups.get(&id).is_some_and(|g| !g.burnt)
    }

    fn notified(&self) -> &[(SimTime, FuseId)] {
        &self.notified
    }
}

impl Process for AllToAllNode {
    type Msg = A2aMsg;
    type Timer = A2aTimer;

    fn on_boot(&mut self, _ctx: &mut Cx<'_>) {}

    fn on_message(&mut self, ctx: &mut Cx<'_>, from: ProcId, msg: A2aMsg) {
        match msg {
            A2aMsg::Create { id, members } => self.install(ctx, id, members),
            // The heart of §3: only healthy groups acknowledge.
            A2aMsg::Ping { id, nonce } if self.is_live(id) => {
                ctx.send(from, A2aMsg::Ack { id, nonce })
            }
            A2aMsg::Ping { .. } => {}
            A2aMsg::Ack { id, nonce } => self.pinger.ack((id, from), nonce),
        }
    }

    fn on_timer(&mut self, ctx: &mut Cx<'_>, tag: A2aTimer) {
        match self.pinger.fire(ctx, tag) {
            Some(Fired::Ping((id, peer), nonce)) => ctx.send(peer, A2aMsg::Ping { id, nonce }),
            Some(Fired::Missed((id, _))) => self.burn(ctx, id),
            None => {}
        }
    }

    fn on_link_broken(&mut self, ctx: &mut Cx<'_>, peer: ProcId) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::ablation::tests::*;
    use fuse_sim::SimDuration;

    #[test]
    fn quiet_group_stays_alive() {
        quiet_group_survives::<AllToAllNode>();
    }

    #[test]
    fn crash_notifies_all_within_two_ping_intervals() {
        for dt in crash_notifies_each_live_member_once::<AllToAllNode>() {
            // §3's bound: one period to attempt a ping plus the ack timeout.
            assert!(dt <= SimDuration::from_secs(2 * 60 + 20), "took {dt}");
        }
    }

    #[test]
    fn explicit_signal_propagates_by_stopped_acks() {
        signal_notifies_each_member_once::<AllToAllNode>();
    }

    #[test]
    fn notification_is_exactly_once_per_node() {
        let mut sim = world::<AllToAllNode>(5, 4);
        let id = sim.with_proc(0, |n, ctx| n.create_group(ctx, vec![1, 2, 3, 4]));
        sim.run_for(SimDuration::from_secs(5));
        sim.crash(1);
        sim.crash(2);
        sim.run_for(SimDuration::from_secs(400));
        assert_eq!(notices(&sim, id.unwrap(), &[0, 3, 4]), [1, 1, 1]);
    }

    #[test]
    fn independent_groups_are_isolated() {
        let mut sim = world::<AllToAllNode>(6, 5);
        let a = sim
            .with_proc(0, |n, ctx| n.create_group(ctx, vec![1, 2]))
            .unwrap();
        let b = sim
            .with_proc(0, |n, ctx| n.create_group(ctx, vec![1, 2]))
            .unwrap();
        sim.run_for(SimDuration::from_secs(5));
        sim.with_proc(2, |n, ctx| n.signal_failure(ctx, a));
        sim.run_for(SimDuration::from_secs(300));
        assert_eq!(notices(&sim, a, &[0, 1, 2]), [1, 1, 1]);
        for p in [0, 1, 2] {
            assert!(
                sim.proc(p).unwrap().is_live(b),
                "node {p} must keep group b"
            );
        }
    }

    #[test]
    fn message_cost_scales_quadratically() {
        // A quiet group of n sends n(n-1) pings and as many acks per period.
        for (n, per_period) in [(2, 4), (4, 24), (8, 112)] {
            let mut sim = world::<AllToAllNode>(n, 6);
            sim.with_proc(0, |node, ctx| {
                node.create_group(ctx, (1..n as ProcId).collect())
            });
            sim.run_for(SimDuration::from_secs(90));
            let before = sim.trace().0.total();
            sim.run_for(SimDuration::from_secs(600));
            let sent = sim.trace().0.total() - before;
            assert_eq!(sent, 10 * per_period, "group of {n}");
        }
    }
}
