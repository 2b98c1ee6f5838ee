//! Per-group spanning trees without an overlay (§5.1's first alternative).
//!
//! Liveness checking runs directly between group participants over a star
//! rooted at the creator. There are no delegates, so delegate attacks are
//! impossible; the cost is that ping traffic can no longer be shared with
//! overlay maintenance — it is shared only between groups whose star edges
//! coincide (same root–member pair), so "the overhead of liveness checking
//! traffic may be additive in the number of FUSE groups" (§5.1).

use std::collections::hash_map::Entry;

use fuse_core::FuseId;
use fuse_sim::process::Ctx;
use fuse_sim::{Payload, ProcId, Process, SimTime};
use fuse_util::idgen::IdGen;
use fuse_util::{DetHashMap, DetHashSet};

use super::{Alternative, Fired, PingTimer, Pinger};

/// A handler's context: the ping machine keyed by peer.
type Cx<'a> = Ctx<'a, DirectMsg, PingTimer<ProcId>>;

/// Messages of the direct-tree notifier.
#[derive(Debug, Clone)]
pub enum DirectMsg {
    /// Install group state (root → members).
    Create {
        id: FuseId,
        root: ProcId,
        members: Vec<ProcId>,
    },
    /// Pair-shared liveness ping: covers every group on this edge.
    Ping { nonce: u64 },
    /// Acknowledgment.
    Ack { nonce: u64 },
    /// Failure notification for one group.
    Notify { id: FuseId },
}

impl Payload for DirectMsg {
    fn size_bytes(&self) -> usize {
        match self {
            DirectMsg::Create { members, .. } => 9 + 5 + 1 + 4 * members.len(),
            DirectMsg::Ping { .. } | DirectMsg::Ack { .. } | DirectMsg::Notify { .. } => 9,
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
    /// The groups each watched edge carries; the ping machine watches
    /// exactly these peers.
    edges: DetHashMap<ProcId, DetHashSet<FuseId>>,
    pinger: Pinger<ProcId>,
    notified: Vec<(SimTime, FuseId)>,
}

impl DirectNode {
    fn watch_edge(&mut self, ctx: &mut Cx<'_>, id: FuseId, peer: ProcId) {
        self.edges.entry(peer).or_default().insert(id);
        self.pinger.watch(ctx, peer);
    }

    /// The watched edge to `peer` failed: every group on it burns.
    fn edge_failed(&mut self, ctx: &mut Cx<'_>, peer: ProcId) {
        self.pinger.unwatch(peer);
        let mut ids: Vec<FuseId> = self.edges.remove(&peer).into_iter().flatten().collect();
        ids.sort_unstable();
        for id in ids {
            self.burn(ctx, id, None);
        }
    }

    /// Lights the fuse: notifies locally, then tells the rest of the star
    /// (the root tells every member, a member tells the root) except
    /// `from`, the node it heard this from. One `Notify` per other member.
    fn burn(&mut self, ctx: &mut Cx<'_>, id: FuseId, from: Option<ProcId>) {
        let Some(g) = self.groups.get_mut(&id).filter(|g| !g.burnt) else {
            return;
        };
        g.burnt = true;
        self.notified.push((ctx.now, id));
        let star = if g.root == self.me {
            &g.members[..]
        } else {
            std::slice::from_ref(&g.root)
        };
        for &p in star.iter().filter(|&&p| Some(p) != from) {
            ctx.send(p, DirectMsg::Notify { id });
        }
        let pinger = &mut self.pinger;
        self.edges.retain(|&peer, ids| {
            ids.remove(&id);
            if ids.is_empty() {
                pinger.unwatch(peer);
            }
            !ids.is_empty()
        });
    }
}

impl Alternative for DirectNode {
    fn new(me: ProcId) -> Self {
        DirectNode {
            me,
            idgen: IdGen::new(u64::from(me) | (1 << 41)),
            groups: DetHashMap::default(),
            edges: DetHashMap::default(),
            pinger: Pinger::new(),
            notified: Vec::new(),
        }
    }

    /// Roots a star here over `members`.
    fn create_group(&mut self, ctx: &mut Cx<'_>, members: Vec<ProcId>) -> FuseId {
        let id = FuseId(self.idgen.next_id());
        let members: Vec<ProcId> = members.into_iter().filter(|&m| m != self.me).collect();
        for &m in &members {
            let create = DirectMsg::Create {
                id,
                root: self.me,
                members: members.clone(),
            };
            ctx.send(m, create);
            self.watch_edge(ctx, id, m);
        }
        let group = Group {
            root: self.me,
            members,
            burnt: false,
        };
        self.groups.insert(id, group);
        id
    }

    fn signal_failure(&mut self, ctx: &mut Cx<'_>, id: FuseId) {
        self.burn(ctx, id, None);
    }

    fn is_live(&self, id: FuseId) -> bool {
        self.groups.get(&id).is_some_and(|g| !g.burnt)
    }

    fn notified(&self) -> &[(SimTime, FuseId)] {
        &self.notified
    }
}

impl Process for DirectNode {
    type Msg = DirectMsg;
    type Timer = PingTimer<ProcId>;

    fn on_boot(&mut self, _ctx: &mut Cx<'_>) {}

    fn on_message(&mut self, ctx: &mut Cx<'_>, from: ProcId, msg: DirectMsg) {
        match msg {
            DirectMsg::Create { id, root, members } => {
                if let Entry::Vacant(e) = self.groups.entry(id) {
                    e.insert(Group {
                        root,
                        members,
                        burnt: false,
                    });
                    // Members watch the root from their side too ("monitored
                    // from both sides").
                    self.watch_edge(ctx, id, root);
                }
            }
            DirectMsg::Ping { nonce } => ctx.send(from, DirectMsg::Ack { nonce }),
            DirectMsg::Ack { nonce } => self.pinger.ack(from, nonce),
            DirectMsg::Notify { id } => self.burn(ctx, id, Some(from)),
        }
    }

    fn on_timer(&mut self, ctx: &mut Cx<'_>, tag: PingTimer<ProcId>) {
        match self.pinger.fire(ctx, tag) {
            Some(Fired::Ping(peer, nonce)) => ctx.send(peer, DirectMsg::Ping { nonce }),
            Some(Fired::Missed(peer)) => self.edge_failed(ctx, peer),
            None => {}
        }
    }

    fn on_link_broken(&mut self, ctx: &mut Cx<'_>, peer: ProcId) {
        self.edge_failed(ctx, peer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::ablation::tests::*;
    use fuse_sim::SimDuration;

    #[test]
    fn quiet_group_stays_alive() {
        quiet_group_survives::<DirectNode>();
    }

    #[test]
    fn member_crash_notifies_everyone() {
        crash_notifies_each_live_member_once::<DirectNode>();
    }

    #[test]
    fn member_signal_is_heard_once_everywhere() {
        signal_notifies_each_member_once::<DirectNode>();
    }

    #[test]
    fn root_crash_notifies_members_independently() {
        let mut sim = world::<DirectNode>(5, 3);
        let id = sim.with_proc(0, |n, ctx| n.create_group(ctx, vec![1, 2]));
        sim.run_for(SimDuration::from_secs(5));
        sim.crash(0);
        sim.run_for(SimDuration::from_secs(200));
        assert_eq!(notices(&sim, id.unwrap(), &[1, 2]), [1, 1]);
    }

    #[test]
    fn a_burn_sends_one_notify_per_other_member() {
        // Root 0 and members 1..=3: a member's signal goes to the root,
        // which tells the other two; the root's signal goes to all three.
        // Nobody answers the node it heard from.
        for signaler in [3, 0] {
            let mut sim = world::<DirectNode>(5, 4);
            let id = sim.with_proc(0, |n, ctx| n.create_group(ctx, vec![1, 2, 3]));
            let id = id.unwrap();
            sim.run_for(SimDuration::from_secs(2));
            sim.with_proc(signaler, |n, ctx| n.signal_failure(ctx, id));
            sim.run_for(SimDuration::from_secs(10));
            assert_eq!(sim.trace().0.get("direct.notify"), 3, "signaler {signaler}");
            assert_eq!(notices(&sim, id, &[0, 1, 2, 3]), [1, 1, 1, 1]);
        }
    }

    #[test]
    fn shared_edges_ping_once_for_many_groups() {
        // A second group on the same root–member edges adds no ping.
        let pings = |groups: usize| {
            let mut sim = world::<DirectNode>(3, 5);
            for _ in 0..groups {
                sim.with_proc(0, |n, ctx| n.create_group(ctx, vec![1, 2]));
            }
            sim.run_for(SimDuration::from_secs(600));
            sim.trace().0.get("direct.ping")
        };
        assert!(pings(1) > 0);
        assert_eq!(
            pings(2),
            pings(1),
            "identical membership must share liveness traffic"
        );
    }
}
