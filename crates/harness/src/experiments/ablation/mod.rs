//! §5.1 ablation — liveness-checking topology trade-offs.
//!
//! The paper argues the overlay-shared topology keeps steady-state load
//! independent of the number of groups, while the alternatives trade
//! scalability for security: per-group direct trees are additive in groups
//! (modulo shared edges), all-to-all pinging is quadratic in group size,
//! and a central server concentrates the whole load on one node. The
//! ablation measures messages/second as the number of groups grows, for
//! all four implementations, plus the all-to-all detection bound (§3:
//! notification within twice the ping interval).
//!
//! The three alternatives live here, beside their only caller: [`direct`]
//! (a star per group, rooted at its creator), [`alltoall`] (every member
//! pings every other) and [`central`] (clients heartbeat one server). Each
//! is a sim-kernel process behind the [`Alternative`] trait, which the
//! sweep and the tests drive. Direct and all-to-all share one ping machine:
//! a jittered first ping, a node-wide nonce, one outstanding ack per key
//! and the timeout check, keyed by peer in direct (one ping covers every
//! group on an edge) and by `(group, peer)` in all-to-all. They stay three
//! protocols, not one switch: they differ in the detector (ping/ack, or a
//! heartbeat plus a server sweep), in what shares a ping (a peer pair, or
//! one group) and in how a failure spreads (a hub relays it, or the acks
//! stop).

use std::collections::hash_map::Entry;
use std::hash::Hash;

use fuse_core::FuseId;
use fuse_net::NetConfig;
use fuse_obs::Reservoir;
use fuse_sim::process::Ctx;
use fuse_sim::{NullTrace, PerfectMedium, ProcId, Process, Sim, SimDuration, SimTime, TraceSink};
use fuse_util::DetHashMap;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::metrics::MsgTrace;
use crate::world::{pick_nodes, World, WorldParams};

pub mod alltoall;
pub mod central;
pub mod direct;

use alltoall::AllToAllNode;
use central::CentralNode;
use direct::DirectNode;

/// One §5.1 alternative notifier: a sim-kernel process with the group API
/// the sweep and the tests drive.
pub trait Alternative: Process {
    /// A node whose id `me` equals its kernel process id.
    fn new(me: ProcId) -> Self;

    /// Creates a group of this node and `members`; returns its id.
    fn create_group(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg, Self::Timer>,
        members: Vec<ProcId>,
    ) -> FuseId;

    /// Explicitly signals the failure of group `id`.
    fn signal_failure(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Timer>, id: FuseId);

    /// Whether this node still considers `id` healthy.
    fn is_live(&self, id: FuseId) -> bool;

    /// Failure notifications delivered to the application, in order.
    fn notified(&self) -> &[(SimTime, FuseId)];
}

/// Ping period per watched key: the paper's 60 s (also the central
/// alternative's heartbeat period).
const PING_PERIOD: SimDuration = SimDuration::from_secs(60);
/// Ack timeout: the paper's 20 s.
const PING_TIMEOUT: SimDuration = SimDuration::from_secs(20);

/// Timer tags of the ping machine, for a key `K`.
#[derive(Debug, Clone)]
pub enum PingTimer<K> {
    /// The key's next ping is due.
    Due(K),
    /// The ack of the key's ping carrying this nonce is due.
    AckTimeout(K, u64),
}

/// What a fired [`PingTimer`] asks of its node.
enum Fired<K> {
    /// Send the key's ping with this nonce.
    Ping(K, u64),
    /// The key's ack did not come in time.
    Missed(K),
}

/// The ping/ack/timeout machine of direct and all-to-all.
struct Pinger<K> {
    /// Watched keys, each with its outstanding nonce (0 once acked; nonces
    /// start at 1). An unwatched key's timers fire into nothing.
    watched: DetHashMap<K, u64>,
    next_nonce: u64,
}

impl<K: Copy + Eq + Hash> Pinger<K> {
    fn new() -> Self {
        Pinger {
            watched: DetHashMap::default(),
            next_nonce: 0,
        }
    }

    /// Starts pinging `key`, first at a uniform point within one period
    /// (the jitter spreads the load); a watched key is left alone.
    fn watch<M>(&mut self, ctx: &mut Ctx<'_, M, PingTimer<K>>, key: K) {
        if let Entry::Vacant(e) = self.watched.entry(key) {
            e.insert(0);
            let jitter = SimDuration(ctx.rng().gen_range(0..=PING_PERIOD.nanos()));
            ctx.set_timer(jitter, PingTimer::Due(key));
        }
    }

    fn unwatch(&mut self, key: K) {
        self.watched.remove(&key);
    }

    fn ack(&mut self, key: K, nonce: u64) {
        if let Some(w) = self.watched.get_mut(&key).filter(|w| **w == nonce) {
            *w = 0;
        }
    }

    fn fire<M>(
        &mut self,
        ctx: &mut Ctx<'_, M, PingTimer<K>>,
        tag: PingTimer<K>,
    ) -> Option<Fired<K>> {
        match tag {
            PingTimer::Due(key) => {
                let w = self.watched.get_mut(&key)?;
                self.next_nonce += 1;
                *w = self.next_nonce;
                ctx.set_timer(PING_TIMEOUT, PingTimer::AckTimeout(key, *w));
                ctx.set_timer(PING_PERIOD, PingTimer::Due(key));
                Some(Fired::Ping(key, *w))
            }
            PingTimer::AckTimeout(key, nonce) => {
                (self.watched.get(&key) == Some(&nonce)).then_some(Fired::Missed(key))
            }
        }
    }
}

/// Parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Node population.
    pub n: usize,
    /// Group counts to sweep.
    pub group_counts: Vec<usize>,
    /// Group size.
    pub group_size: usize,
    /// Measurement window.
    pub window: SimDuration,
    /// RNG seed.
    pub seed: u64,
}

impl Params {
    /// Default scale.
    pub fn paper() -> Self {
        Params {
            n: 128,
            group_counts: vec![1, 10, 50, 100],
            group_size: 8,
            window: SimDuration::from_secs(600),
            seed: 15,
        }
    }

    /// Reduced scale.
    pub fn quick() -> Self {
        Params {
            n: 48,
            group_counts: vec![1, 10, 40],
            group_size: 6,
            window: SimDuration::from_secs(300),
            seed: 15,
        }
    }
}

/// Messages/second per topology per group count.
pub struct AblationResult {
    /// `(groups, overlay, direct, all_to_all, central)` rows.
    pub rows: Vec<(usize, f64, f64, f64, f64)>,
}

fn overlay_rate(p: &Params, groups: usize) -> f64 {
    let mut world = World::build(&WorldParams::new(p.n, p.seed, NetConfig::simulator()));
    let mut wrng = StdRng::seed_from_u64(p.seed.wrapping_mul(0x165667b1));
    world.run(SimDuration::from_secs(2));
    for _ in 0..groups {
        let root = pick_nodes(&mut wrng, p.n, 1, &[])[0];
        let members = pick_nodes(&mut wrng, p.n, p.group_size - 1, &[root]);
        let _ = world.create_group_blocking(root, &members);
    }
    world.run(SimDuration::from_secs(120));
    let s0 = world.sim.trace().snapshot(world.now());
    world.run(p.window);
    let s1 = world.sim.trace().snapshot(world.now());
    MsgTrace::rates(&s0, &s1).msgs_per_sec
}

/// Steady-state msg/s of alternative `A`: `p.n` nodes, then `groups`
/// groups. Roots and members are drawn from processes `first..p.n` (the
/// central server hosts none), member `k` of group `g` at offset
/// `g * stride.0 + k * stride.1`.
fn topology_rate<A: Alternative>(
    p: &Params,
    groups: usize,
    first: usize,
    stride: (usize, usize),
) -> f64 {
    let mut sim = nodes::<A, _>(p.n, p.seed, MsgTrace::new());
    let span = p.n - first;
    for g in 0..groups {
        let root = (first + g % span) as ProcId;
        let mut members = Vec::new();
        let mut k = 1usize;
        while members.len() < p.group_size - 1 {
            let m = (first + (g * stride.0 + k * stride.1) % span) as ProcId;
            k += 1;
            if m != root && !members.contains(&m) {
                members.push(m);
            }
        }
        sim.with_proc(root, |n, ctx| n.create_group(ctx, members));
    }
    sim.run_for(SimDuration::from_secs(90));
    let s0 = sim.trace().snapshot(sim.now());
    sim.run_for(p.window);
    let s1 = sim.trace().snapshot(sim.now());
    MsgTrace::rates(&s0, &s1).msgs_per_sec
}

/// Runs the sweep.
pub fn run(p: &Params) -> AblationResult {
    let rows = p
        .group_counts
        .iter()
        .map(|&g| {
            (
                g,
                overlay_rate(p, g),
                topology_rate::<DirectNode>(p, g, 0, (31, 17)),
                topology_rate::<AllToAllNode>(p, g, 0, (37, 13)),
                topology_rate::<CentralNode>(p, g, central::SERVER as usize + 1, (41, 19)),
            )
        })
        .collect();
    AblationResult { rows }
}

/// Renders the sweep.
pub fn render(r: &AblationResult) -> String {
    let mut out = String::from("§5.1 ablation — liveness topology message load (msg/s)\n");
    out.push_str("paper claims: overlay-shared load independent of #groups; direct additive; all-to-all n² per group; central = n heartbeats/period through one server\n");
    out.push_str("  groups   overlay    direct   all-to-all   central\n");
    for (g, ov, d, a, c) in &r.rows {
        out.push_str(&format!(
            "  {g:>6}   {ov:>7.1}   {d:>7.1}   {a:>10.1}   {c:>7.1}\n"
        ));
    }
    out
}

/// §3 bound check: all-to-all notification latency across seeds.
pub fn detection_bound(seeds: u32, group_size: usize) -> Reservoir {
    let mut lat = Reservoir::new();
    for seed in 0..seeds {
        let sim_seed = u64::from(seed) + 500;
        let mut sim = nodes::<AllToAllNode, _>(group_size + 2, sim_seed, NullTrace);
        let members: Vec<ProcId> = (1..group_size as ProcId).collect();
        let id = sim
            .with_proc(0, |n, ctx| n.create_group(ctx, members))
            .unwrap();
        sim.run_for(SimDuration::from_secs(5));
        let victim = 1 + (seed % (group_size as u32 - 1));
        let t0 = sim.now();
        sim.crash(victim);
        sim.run_for(SimDuration::from_secs(300));
        for p in 0..group_size as ProcId {
            if p == victim {
                continue;
            }
            let t = sim
                .proc(p)
                .expect("alive")
                .notified()
                .iter()
                .find(|&&(_, g)| g == id)
                .map(|&(t, _)| t)
                .expect("notified");
            lat.add(t.since(t0).as_secs_f64());
        }
    }
    lat
}

/// `n` nodes of alternative `A` on a 30 ms perfect medium, observed by
/// `trace`.
fn nodes<A: Alternative, S: TraceSink<A::Msg>>(
    n: usize,
    seed: u64,
    trace: S,
) -> Sim<A, PerfectMedium, S> {
    let medium = PerfectMedium::new(SimDuration::from_millis(30));
    let mut sim = Sim::with_trace(seed, medium, trace);
    for i in 0..n {
        sim.add_process(A::new(i as ProcId));
    }
    sim
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuse_obs::ClassCounter;
    use fuse_sim::{Payload, Verdict};

    /// Counts every send by message class.
    #[derive(Default)]
    pub(super) struct Sent(pub(super) ClassCounter);

    impl<M: Payload> TraceSink<M> for Sent {
        fn on_send(&mut self, _: SimTime, _: ProcId, _: ProcId, msg: &M, _: usize, _: &Verdict) {
            self.0.bump(msg.class());
        }
    }

    /// `n` nodes of alternative `A`, their sends counted by class.
    pub(super) fn world<A: Alternative>(n: usize, seed: u64) -> Sim<A, PerfectMedium, Sent> {
        nodes(n, seed, Sent::default())
    }

    /// How many times each of `procs` was notified of `id`.
    pub(super) fn notices<A: Alternative>(
        sim: &Sim<A, PerfectMedium, Sent>,
        id: FuseId,
        procs: &[ProcId],
    ) -> Vec<usize> {
        let notified = |p| sim.proc(p).unwrap().notified();
        let hits = |p| notified(p).iter().filter(|n| n.1 == id).count();
        procs.iter().map(|&p| hits(p)).collect()
    }

    /// Six nodes of `A`; node 1 creates a group with 2, 3 and 4 (node 0
    /// stays out: it is the central server).
    fn group<A: Alternative>(seed: u64) -> (Sim<A, PerfectMedium, Sent>, FuseId) {
        let mut sim = world::<A>(6, seed);
        let id = sim.with_proc(1, |n, ctx| n.create_group(ctx, vec![2, 3, 4]));
        (sim, id.unwrap())
    }

    /// Quiet for 600 s, the group stays live at every member and nobody
    /// is notified.
    pub(super) fn quiet_group_survives<A: Alternative>() {
        let (mut sim, id) = group::<A>(1);
        sim.run_for(SimDuration::from_secs(600));
        assert_eq!(notices(&sim, id, &[1, 2, 3, 4]), [0, 0, 0, 0]);
        assert!((1..=4).all(|p| sim.proc(p).unwrap().is_live(id)));
    }

    /// Member 3 crashes: each live member is notified exactly once.
    /// Returns how long after the crash members 1, 2 and 4 heard of it.
    pub(super) fn crash_notifies_each_live_member_once<A: Alternative>() -> Vec<SimDuration> {
        let (mut sim, id) = group::<A>(2);
        sim.run_for(SimDuration::from_secs(5));
        let t0 = sim.now();
        sim.crash(3);
        sim.run_for(SimDuration::from_secs(200));
        assert_eq!(notices(&sim, id, &[1, 2, 4]), [1, 1, 1], "crash");
        let heard = |p| sim.proc(p).unwrap().notified().iter().find(|n| n.1 == id);
        [1, 2, 4].map(|p| heard(p).unwrap().0.since(t0)).to_vec()
    }

    /// Member 4 signals: every member, the signaler too, is notified
    /// exactly once.
    pub(super) fn signal_notifies_each_member_once<A: Alternative>() {
        let (mut sim, id) = group::<A>(3);
        sim.run_for(SimDuration::from_secs(2));
        sim.with_proc(4, |n, ctx| n.signal_failure(ctx, id));
        sim.run_for(SimDuration::from_secs(200));
        assert_eq!(notices(&sim, id, &[1, 2, 3, 4]), [1, 1, 1, 1], "signal");
    }

    #[test]
    fn scaling_shapes_match_section_5_1() {
        let p = Params::quick();
        let r = run(&p);
        let (g_lo, ov_lo, d_lo, a_lo, _c_lo) = r.rows[0];
        let (g_hi, ov_hi, d_hi, a_hi, _c_hi) = r.rows[r.rows.len() - 1];
        assert!(g_hi > g_lo);
        // Overlay-shared: load nearly independent of group count.
        assert!(
            ov_hi < ov_lo * 1.5,
            "overlay load must stay flat: {ov_lo} -> {ov_hi}"
        );
        // All-to-all: grows steeply with group count.
        assert!(
            a_hi > a_lo * 8.0,
            "all-to-all must scale with groups: {a_lo} -> {a_hi}"
        );
        // Direct trees: grow, but far less than all-to-all (edge sharing,
        // star instead of clique).
        assert!(
            d_hi > d_lo * 2.0 && d_hi < a_hi,
            "direct {d_lo}->{d_hi} vs all-to-all {a_hi}"
        );
        // Pinned: the exact quick-scale rows (messages over the 300 s
        // window) and detection-bound samples, fixed by the seeds.
        let per_s = |msgs: f64| msgs / 300.0;
        #[rustfmt::skip]
        let rows = [
            (1, per_s(8521.0), per_s(100.0), per_s(300.0), per_s(235.0)),
            (10, per_s(8522.0), per_s(980.0), per_s(3000.0), per_s(235.0)),
            (40, per_s(8524.0), per_s(3660.0), per_s(12000.0), per_s(235.0)),
        ];
        assert_eq!(r.rows, rows);
        #[rustfmt::skip]
        let samples = [
            35.111549773, 76.733208464, 61.471105248, 61.43043209, 74.742514524,
            49.681831296, 65.167777805, 65.655273105, 27.185156316, 23.112256538,
            25.401038394, 31.917017702, 47.368282155, 49.483936206, 30.94567367,
            31.992029342, 23.237239108, 45.872042097, 65.189081608, 25.006790781,
        ];
        assert_eq!(detection_bound(4, 6).samples(), samples);
    }

    #[test]
    fn alltoall_detection_within_twice_ping_interval() {
        let mut lat = detection_bound(4, 5);
        let max = lat.max().unwrap();
        // §3's bound, adapted for the ack timeout: period + timeout.
        assert!(max <= 2.0 * 60.0 + 20.0, "max detection {max}s");
    }
}
