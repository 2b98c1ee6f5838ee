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

use fuse_net::NetConfig;
use fuse_obs::Reservoir;
use fuse_sim::process::Ctx;
use fuse_sim::{PerfectMedium, ProcId, Process, Sim, SimDuration};
use fuse_simdriver::topologies::alltoall::AllToAllNode;
use fuse_simdriver::topologies::central::CentralNode;
use fuse_simdriver::topologies::direct::DirectNode;

use crate::metrics::MsgTrace;
use crate::world::{pick_nodes, World, WorldParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

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

/// Steady-state msg/s of one §5.1 alternative: `p.n` nodes built by
/// `node`, then `groups` groups created by `create`. Roots and members are
/// drawn from processes `first..p.n` (the central server, process 0, hosts
/// none), member `k` of group `g` at offset `g * stride.0 + k * stride.1`.
fn topology_rate<P: Process>(
    p: &Params,
    groups: usize,
    node: impl Fn(ProcId) -> P,
    first: usize,
    stride: (usize, usize),
    create: impl Fn(&mut P, &mut Ctx<'_, P::Msg, P::Timer>, Vec<ProcId>),
) -> f64 {
    let medium = PerfectMedium::new(SimDuration::from_millis(30));
    let mut sim: Sim<P, PerfectMedium, MsgTrace> = Sim::with_trace(p.seed, medium, MsgTrace::new());
    for i in 0..p.n {
        sim.add_process(node(i as ProcId));
    }
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
        sim.with_proc(root, |n, ctx| create(n, ctx, members));
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
                topology_rate(p, g, DirectNode::new, 0, (31, 17), |n, ctx, m| {
                    n.create_group(ctx, m);
                }),
                topology_rate(p, g, AllToAllNode::new, 0, (37, 13), |n, ctx, m| {
                    n.create_group(ctx, m);
                }),
                topology_rate(
                    p,
                    g,
                    |i| CentralNode::new(i, 0),
                    1,
                    (41, 19),
                    |n, ctx, m| {
                        n.create_group(ctx, m);
                    },
                ),
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
        let medium = PerfectMedium::new(SimDuration::from_millis(30));
        let mut sim: Sim<AllToAllNode, PerfectMedium> = Sim::new(u64::from(seed) + 500, medium);
        for i in 0..(group_size + 2) {
            sim.add_process(AllToAllNode::new(i as ProcId));
        }
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
            let n = sim.proc(p).expect("alive");
            let t = n
                .notified
                .iter()
                .find(|&&(_, g)| g == id)
                .map(|&(t, _)| t)
                .expect("notified");
            lat.add(t.since(t0).as_secs_f64());
        }
    }
    lat
}

#[cfg(test)]
mod tests {
    use super::*;

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
    }

    #[test]
    fn alltoall_detection_within_twice_ping_interval() {
        let mut lat = detection_bound(4, 5);
        let max = lat.max().unwrap();
        // §3's bound, adapted for the ack timeout: period + timeout.
        assert!(max <= 2.0 * 60.0 + 20.0, "max detection {max}s");
    }
}
