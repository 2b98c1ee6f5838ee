//! Central-server liveness checking (§5.1's third alternative).
//!
//! One trusted server pings nothing — clients ping *it* once per period (a
//! single ping covers every group the client belongs to), and the server
//! sweeps for clients that went quiet. Per-member load is minimal; all
//! traffic funnels through the server, which is the scalability bottleneck
//! and single point of trust the paper describes. Appropriate inside a data
//! center; not across administrative domains.

use fuse_sim::process::Ctx;
use fuse_sim::{Payload, ProcId, Process, SimDuration, SimTime};
use fuse_util::idgen::IdGen;
use fuse_util::{DetHashMap, DetHashSet};

use fuse_core::FuseId;

/// Client heartbeat period: the paper's 60 s ping period.
const PING_PERIOD: SimDuration = SimDuration::from_secs(60);
/// Server-side allowance before a quiet client is declared dead.
const CLIENT_TIMEOUT: SimDuration = SimDuration::from_secs(80);
/// Server sweep granularity.
const SWEEP_PERIOD: SimDuration = SimDuration::from_secs(5);

/// Messages of the central-server notifier.
#[derive(Debug, Clone)]
pub enum CentralMsg {
    /// Client heartbeat (covers all of the client's groups).
    Heartbeat,
    /// Create a group (creator → server).
    Create {
        /// The group.
        id: FuseId,
        /// All participants (including the creator).
        members: Vec<ProcId>,
    },
    /// Server → members: you are in this group.
    Join {
        /// The group.
        id: FuseId,
    },
    /// Client → server: explicit failure signal.
    Signal {
        /// The group.
        id: FuseId,
    },
    /// Server → members: the group failed.
    Notify {
        /// The group.
        id: FuseId,
    },
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

/// A node of the central-server variant: process 0 conventionally acts as
/// the server, everyone else as clients.
pub struct CentralNode {
    me: ProcId,
    server: ProcId,
    idgen: IdGen,
    // --- server state ---
    groups: DetHashMap<FuseId, Vec<ProcId>>,
    last_heard: DetHashMap<ProcId, SimTime>,
    // --- client state ---
    my_groups: DetHashSet<FuseId>,
    /// Failure notifications delivered to the application.
    pub notified: Vec<(SimTime, FuseId)>,
}

impl CentralNode {
    /// Creates a node; `server` names the hub process.
    pub fn new(me: ProcId, server: ProcId) -> Self {
        CentralNode {
            me,
            server,
            idgen: IdGen::new(u64::from(me) | (1 << 42)),
            groups: DetHashMap::default(),
            last_heard: DetHashMap::default(),
            my_groups: DetHashSet::default(),
            notified: Vec::new(),
        }
    }

    fn is_server(&self) -> bool {
        self.me == self.server
    }

    /// Client API: creates a group over `members` through the server.
    pub fn create_group(
        &mut self,
        ctx: &mut Ctx<'_, CentralMsg, CentralTimer>,
        mut members: Vec<ProcId>,
    ) -> FuseId {
        if !members.contains(&self.me) {
            members.push(self.me);
        }
        members.sort_unstable();
        let id = FuseId(self.idgen.next_id());
        self.my_groups.insert(id);
        ctx.send(self.server, CentralMsg::Create { id, members });
        id
    }

    /// Client API: explicit failure signal.
    pub fn signal_failure(&mut self, ctx: &mut Ctx<'_, CentralMsg, CentralTimer>, id: FuseId) {
        if self.my_groups.remove(&id) {
            self.notified.push((ctx.now, id));
            ctx.send(self.server, CentralMsg::Signal { id });
        }
    }

    /// Whether this client still considers `id` healthy.
    pub fn is_live(&self, id: FuseId) -> bool {
        self.my_groups.contains(&id)
    }

    /// Server-side: fail one group, notifying all members.
    fn server_fail_group(&mut self, ctx: &mut Ctx<'_, CentralMsg, CentralTimer>, id: FuseId) {
        if let Some(members) = self.groups.remove(&id) {
            for m in members {
                if m != self.me {
                    ctx.send(m, CentralMsg::Notify { id });
                }
            }
        }
    }
}

impl Process for CentralNode {
    type Msg = CentralMsg;
    type Timer = CentralTimer;

    fn on_boot(&mut self, ctx: &mut Ctx<'_, CentralMsg, CentralTimer>) {
        if self.is_server() {
            ctx.set_timer(SWEEP_PERIOD, CentralTimer::Sweep);
        } else {
            let jitter = SimDuration(rand::Rng::gen_range(ctx.rng(), 0..=PING_PERIOD.nanos()));
            ctx.set_timer(jitter, CentralTimer::HeartbeatDue);
        }
    }

    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, CentralMsg, CentralTimer>,
        from: ProcId,
        msg: CentralMsg,
    ) {
        match msg {
            CentralMsg::Heartbeat => {
                if self.is_server() {
                    self.last_heard.insert(from, ctx.now);
                }
            }
            CentralMsg::Create { id, members } => {
                if self.is_server() {
                    for &m in &members {
                        if m != self.me {
                            ctx.send(m, CentralMsg::Join { id });
                        }
                        // A client is only monitored once it has groups; seed
                        // its liveness record at creation.
                        self.last_heard.entry(m).or_insert(ctx.now);
                    }
                    self.groups.insert(id, members);
                }
            }
            CentralMsg::Join { id } => {
                self.my_groups.insert(id);
            }
            CentralMsg::Signal { id } => {
                if self.is_server() {
                    self.server_fail_group(ctx, id);
                }
            }
            CentralMsg::Notify { id } => {
                if self.my_groups.remove(&id) {
                    self.notified.push((ctx.now, id));
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, CentralMsg, CentralTimer>, tag: CentralTimer) {
        match tag {
            CentralTimer::HeartbeatDue => {
                ctx.send(self.server, CentralMsg::Heartbeat);
                ctx.set_timer(PING_PERIOD, CentralTimer::HeartbeatDue);
            }
            CentralTimer::Sweep => {
                debug_assert!(self.is_server());
                let now = ctx.now;
                let dead: Vec<ProcId> = self
                    .last_heard
                    .iter()
                    .filter(|(_, &t)| now.since(t) > CLIENT_TIMEOUT)
                    .map(|(&p, _)| p)
                    .collect();
                for d in dead {
                    self.last_heard.remove(&d);
                    let mut failed: Vec<FuseId> = self
                        .groups
                        .iter()
                        .filter(|(_, members)| members.contains(&d))
                        .map(|(&id, _)| id)
                        .collect();
                    failed.sort_unstable();
                    for id in failed {
                        self.server_fail_group(ctx, id);
                    }
                }
                ctx.set_timer(SWEEP_PERIOD, CentralTimer::Sweep);
            }
        }
    }

    fn on_link_broken(&mut self, ctx: &mut Ctx<'_, CentralMsg, CentralTimer>, peer: ProcId) {
        if self.is_server() {
            // Treat like an immediately-expired client.
            self.last_heard.remove(&peer);
            let mut failed: Vec<FuseId> = self
                .groups
                .iter()
                .filter(|(_, members)| members.contains(&peer))
                .map(|(&id, _)| id)
                .collect();
            failed.sort_unstable();
            for id in failed {
                self.server_fail_group(ctx, id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuse_sim::{PerfectMedium, Sim};

    fn world(n: usize, seed: u64) -> Sim<CentralNode, PerfectMedium> {
        let mut sim = Sim::new(seed, PerfectMedium::new(SimDuration::from_millis(5)));
        for i in 0..n {
            sim.add_process(CentralNode::new(i as ProcId, 0));
        }
        sim
    }

    #[test]
    fn quiet_groups_survive() {
        let mut sim = world(6, 1);
        let id = sim
            .with_proc(1, |n, ctx| n.create_group(ctx, vec![2, 3]))
            .unwrap();
        sim.run_for(SimDuration::from_secs(600));
        for p in [1u32, 2, 3] {
            assert!(sim.proc(p).unwrap().is_live(id), "node {p}");
        }
    }

    #[test]
    fn client_crash_notifies_group() {
        let mut sim = world(6, 2);
        let id = sim
            .with_proc(1, |n, ctx| n.create_group(ctx, vec![2, 3]))
            .unwrap();
        sim.run_for(SimDuration::from_secs(5));
        sim.crash(2);
        sim.run_for(SimDuration::from_secs(200));
        for p in [1u32, 3] {
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
    fn explicit_signal_fans_out_through_server() {
        let mut sim = world(6, 3);
        let id = sim
            .with_proc(1, |n, ctx| n.create_group(ctx, vec![2, 3, 4]))
            .unwrap();
        sim.run_for(SimDuration::from_secs(2));
        sim.with_proc(4, |n, ctx| n.signal_failure(ctx, id));
        sim.run_for(SimDuration::from_secs(5));
        for p in [1u32, 2, 3, 4] {
            assert_eq!(sim.proc(p).unwrap().notified.len(), 1, "node {p}");
        }
    }

    #[test]
    fn unrelated_groups_survive_a_crash() {
        let mut sim = world(8, 4);
        let dying = sim
            .with_proc(1, |n, ctx| n.create_group(ctx, vec![2]))
            .unwrap();
        let healthy = sim
            .with_proc(3, |n, ctx| n.create_group(ctx, vec![4, 5]))
            .unwrap();
        sim.run_for(SimDuration::from_secs(5));
        sim.crash(2);
        sim.run_for(SimDuration::from_secs(300));
        assert_eq!(sim.proc(1).unwrap().notified.len(), 1);
        assert!(sim.proc(1).unwrap().notified[0].1 == dying);
        for p in [3u32, 4, 5] {
            assert!(sim.proc(p).unwrap().is_live(healthy), "node {p}");
        }
    }

    #[test]
    fn per_member_load_is_one_ping_per_period() {
        // §5.1: "each group member only pings the central server during
        // each ping interval" — independent of how many groups it is in.
        let mut sim = world(4, 5);
        for _ in 0..10 {
            sim.with_proc(1, |n, ctx| n.create_group(ctx, vec![2, 3]));
        }
        sim.run_for(SimDuration::from_secs(600));
        // No assertion on exact counts here (covered by the ablation
        // bench); structural check: client 1 is in 10 groups with a single
        // heartbeat timer.
        assert_eq!(sim.proc(1).unwrap().my_groups.len(), 10);
    }
}
