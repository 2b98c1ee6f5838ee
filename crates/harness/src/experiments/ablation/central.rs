//! Central-server liveness checking (§5.1's third alternative).
//!
//! One trusted server pings nothing — clients heartbeat *it* once per
//! period (one heartbeat covers every group the client belongs to), and the
//! server sweeps for clients that went quiet. Per-member load is minimal;
//! all traffic funnels through the server, which is the scalability
//! bottleneck and single point of trust the paper describes. Appropriate
//! inside a data center; not across administrative domains.

use fuse_core::FuseId;
use fuse_sim::process::Ctx;
use fuse_sim::{Payload, ProcId, Process, SimDuration, SimTime};
use fuse_util::idgen::IdGen;
use fuse_util::{DetHashMap, DetHashSet};
use rand::Rng;

use super::{Alternative, PING_PERIOD};

/// A handler's context.
type Cx<'a> = Ctx<'a, CentralMsg, CentralTimer>;

/// The server's process id; every other process is a client.
pub const SERVER: ProcId = 0;
/// Server-side allowance before a quiet client is declared dead.
const CLIENT_TIMEOUT: SimDuration = SimDuration::from_secs(80);
/// Server sweep granularity.
const SWEEP_PERIOD: SimDuration = SimDuration::from_secs(5);

/// Messages of the central-server notifier.
#[derive(Debug, Clone)]
pub enum CentralMsg {
    /// Client heartbeat (covers all of the client's groups).
    Heartbeat,
    /// Create a group (creator → server); `members` includes the creator.
    Create { id: FuseId, members: Vec<ProcId> },
    /// Server → members: you are in this group.
    Join { id: FuseId },
    /// Client → server: explicit failure signal.
    Signal { id: FuseId },
    /// Server → members: the group failed.
    Notify { id: FuseId },
}

impl Payload for CentralMsg {
    fn size_bytes(&self) -> usize {
        match self {
            CentralMsg::Heartbeat => 1,
            CentralMsg::Create { members, .. } => 9 + 1 + 4 * members.len(),
            CentralMsg::Join { .. } | CentralMsg::Signal { .. } | CentralMsg::Notify { .. } => 9,
        }
    }

    fn class(&self) -> &'static str {
        match self {
            CentralMsg::Heartbeat => "central.ping",
            CentralMsg::Create { .. } | CentralMsg::Join { .. } => "central.create",
            CentralMsg::Signal { .. } | CentralMsg::Notify { .. } => "central.notify",
        }
    }
}

/// Timer tags.
#[derive(Debug, Clone)]
pub enum CentralTimer {
    /// Client heartbeat due.
    HeartbeatDue,
    /// Server liveness sweep.
    Sweep,
}

/// A node of the central-server variant: the server if its id is
/// [`SERVER`], a client otherwise. Messages are addressed by role, so
/// each handler serves the one role its messages reach.
pub struct CentralNode {
    me: ProcId,
    idgen: IdGen,
    // --- server state ---
    groups: DetHashMap<FuseId, Vec<ProcId>>,
    last_heard: DetHashMap<ProcId, SimTime>,
    // --- client state ---
    my_groups: DetHashSet<FuseId>,
    notified: Vec<(SimTime, FuseId)>,
}

impl CentralNode {
    /// Server: fails one group, notifying all members.
    fn fail_group(&mut self, ctx: &mut Cx<'_>, id: FuseId) {
        for m in self.groups.remove(&id).into_iter().flatten() {
            ctx.send(m, CentralMsg::Notify { id });
        }
    }

    /// Server: client `dead` went quiet or its link broke; every group it
    /// is in fails.
    fn client_failed(&mut self, ctx: &mut Cx<'_>, dead: ProcId) {
        self.last_heard.remove(&dead);
        let mut failed: Vec<FuseId> = self
            .groups
            .iter()
            .filter(|(_, members)| members.contains(&dead))
            .map(|(&id, _)| id)
            .collect();
        failed.sort_unstable();
        for id in failed {
            self.fail_group(ctx, id);
        }
    }
}

impl Alternative for CentralNode {
    fn new(me: ProcId) -> Self {
        CentralNode {
            me,
            idgen: IdGen::new(u64::from(me) | (1 << 42)),
            groups: DetHashMap::default(),
            last_heard: DetHashMap::default(),
            my_groups: DetHashSet::default(),
            notified: Vec::new(),
        }
    }

    /// Client: creates a group over `members` through the server.
    fn create_group(&mut self, ctx: &mut Cx<'_>, mut members: Vec<ProcId>) -> FuseId {
        if !members.contains(&self.me) {
            members.push(self.me);
        }
        members.sort_unstable();
        let id = FuseId(self.idgen.next_id());
        self.my_groups.insert(id);
        ctx.send(SERVER, CentralMsg::Create { id, members });
        id
    }

    /// Client: explicit failure signal.
    fn signal_failure(&mut self, ctx: &mut Cx<'_>, id: FuseId) {
        if self.my_groups.remove(&id) {
            self.notified.push((ctx.now, id));
            ctx.send(SERVER, CentralMsg::Signal { id });
        }
    }

    fn is_live(&self, id: FuseId) -> bool {
        self.my_groups.contains(&id)
    }

    fn notified(&self) -> &[(SimTime, FuseId)] {
        &self.notified
    }
}

impl Process for CentralNode {
    type Msg = CentralMsg;
    type Timer = CentralTimer;

    fn on_boot(&mut self, ctx: &mut Cx<'_>) {
        if self.me == SERVER {
            ctx.set_timer(SWEEP_PERIOD, CentralTimer::Sweep);
        } else {
            let jitter = SimDuration(ctx.rng().gen_range(0..=PING_PERIOD.nanos()));
            ctx.set_timer(jitter, CentralTimer::HeartbeatDue);
        }
    }

    fn on_message(&mut self, ctx: &mut Cx<'_>, from: ProcId, msg: CentralMsg) {
        match msg {
            CentralMsg::Heartbeat => {
                self.last_heard.insert(from, ctx.now);
            }
            CentralMsg::Create { id, members } => {
                for &m in &members {
                    ctx.send(m, CentralMsg::Join { id });
                    // A client is only monitored once it has groups; seed
                    // its liveness record at creation.
                    self.last_heard.entry(m).or_insert(ctx.now);
                }
                self.groups.insert(id, members);
            }
            CentralMsg::Join { id } => {
                self.my_groups.insert(id);
            }
            CentralMsg::Signal { id } => self.fail_group(ctx, id),
            CentralMsg::Notify { id } => {
                if self.my_groups.remove(&id) {
                    self.notified.push((ctx.now, id));
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Cx<'_>, tag: CentralTimer) {
        match tag {
            CentralTimer::HeartbeatDue => {
                ctx.send(SERVER, CentralMsg::Heartbeat);
                ctx.set_timer(PING_PERIOD, CentralTimer::HeartbeatDue);
            }
            CentralTimer::Sweep => {
                let now = ctx.now;
                let dead: Vec<ProcId> = self
                    .last_heard
                    .iter()
                    .filter(|(_, &t)| now.since(t) > CLIENT_TIMEOUT)
                    .map(|(&p, _)| p)
                    .collect();
                for d in dead {
                    self.client_failed(ctx, d);
                }
                ctx.set_timer(SWEEP_PERIOD, CentralTimer::Sweep);
            }
        }
    }

    /// Server: a broken link is a client expired at once (a client's
    /// server state is empty, so there this does nothing).
    fn on_link_broken(&mut self, ctx: &mut Cx<'_>, peer: ProcId) {
        self.client_failed(ctx, peer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::ablation::tests::*;

    #[test]
    fn quiet_groups_survive() {
        quiet_group_survives::<CentralNode>();
    }

    #[test]
    fn client_crash_notifies_group() {
        crash_notifies_each_live_member_once::<CentralNode>();
    }

    #[test]
    fn explicit_signal_fans_out_through_server() {
        signal_notifies_each_member_once::<CentralNode>();
    }

    #[test]
    fn unrelated_groups_survive_a_crash() {
        let mut sim = world::<CentralNode>(8, 4);
        let dying = sim
            .with_proc(1, |n, ctx| n.create_group(ctx, vec![2]))
            .unwrap();
        let healthy = sim
            .with_proc(3, |n, ctx| n.create_group(ctx, vec![4, 5]))
            .unwrap();
        sim.run_for(SimDuration::from_secs(5));
        sim.crash(2);
        sim.run_for(SimDuration::from_secs(300));
        assert_eq!(sim.proc(1).unwrap().notified().len(), 1);
        assert_eq!(notices(&sim, dying, &[1]), [1]);
        for p in [3, 4, 5] {
            assert!(sim.proc(p).unwrap().is_live(healthy), "node {p}");
        }
    }

    #[test]
    fn per_member_load_is_one_ping_per_period() {
        // §5.1: "each group member only pings the central server during
        // each ping interval" — however many groups it is in.
        let mut sim = world::<CentralNode>(4, 5);
        for _ in 0..10 {
            sim.with_proc(1, |n, ctx| n.create_group(ctx, vec![2, 3]));
        }
        sim.run_for(SimDuration::from_secs(90));
        let before = sim.trace().0.get("central.ping");
        sim.run_for(SimDuration::from_secs(600));
        let heartbeats = sim.trace().0.get("central.ping") - before;
        assert_eq!(heartbeats, 3 * 10, "three clients, ten periods");
    }
}
