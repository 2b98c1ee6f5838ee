//! The overlay's tables against the oracle's.
//!
//! FUSE needs two things from its overlay: per-hop upcalls and a visible
//! routing table (paper §6.1), and it piggybacks its liveness on the
//! overlay's pings (§6.3). The chaos invariants read notifications only, so
//! a ring that has lost a node, or keeps one that is gone, passes them. The
//! truth is computed here instead: `build_oracle_tables` over the live
//! nodes gives the converged leaf sets and routing tables, and every live
//! node's `leaf_set()` and `neighbors()` are held against them. A world is
//! scored as (live nodes whose leaf set differs, live nodes whose neighbour
//! set differs).
//!
//! A 120-node world on the cluster profile runs 1,800 quiet sim-s, then
//! machine 3 (ten nodes) is unplugged past every ping timeout. Healed after
//! 480 s, the ring must match the oracle exactly from 600 s on. Two pins
//! hold what the same worlds show wrong today, as exact counts under the
//! seed.
//!
//! `cargo test` runs seed 1; CI runs seeds 1–3 in release with
//! `-- --ignored`.

use fuse_harness::world::Bootstrap;
use fuse_harness::{World, WorldParams};
use fuse_net::NetConfig;
use fuse_overlay::{build_oracle_tables, NodeInfo, OverlayConfig, OverlayNode};
use fuse_sim::{ProcId, SimDuration};
use fuse_util::PeerAddr;

const N: usize = 120;
const UNPLUGGED: usize = 3;

fn secs(s: u64) -> SimDuration {
    SimDuration::from_secs(s)
}

fn overlay(world: &World, p: ProcId) -> &OverlayNode {
    &world.sim.proc(p).expect("a live node is up").overlay
}

fn procs(infos: &[NodeInfo]) -> Vec<PeerAddr> {
    infos.iter().map(|i| i.proc).collect()
}

/// (nodes whose leaf set differs from the oracle's, nodes whose neighbour
/// set differs) among `live`, the oracle built over `live` alone.
fn mismatch(world: &World, live: &[ProcId]) -> (usize, usize) {
    let infos: Vec<NodeInfo> = live.iter().map(|&p| world.infos[p as usize]).collect();
    let oracle = build_oracle_tables(&infos, &OverlayConfig::default());
    let (mut leaves, mut neighbours) = (0, 0);
    for (&p, (cw, ccw, rtable)) in live.iter().zip(oracle) {
        let ov = overlay(world, p);
        let (my_cw, my_ccw) = ov.leaf_set();
        leaves += usize::from(procs(my_cw) != procs(&cw) || procs(my_ccw) != procs(&ccw));
        let mut want = procs(&cw);
        let others = ccw.iter().chain(rtable.iter().flatten().flatten());
        want.extend(others.map(|i| i.proc));
        want.sort_unstable();
        want.dedup();
        neighbours += usize::from(ov.neighbors() != want);
    }
    (leaves, neighbours)
}

/// The 120-node world after 1,800 quiet sim-s, checked against the
/// oracle, with machine 3 just unplugged.
fn unplugged_after_quiet(seed: u64) -> World {
    let mut world = World::build(&WorldParams::new(N, seed, NetConfig::cluster()));
    world.run(secs(1800));
    let all: Vec<ProcId> = (0..N as ProcId).collect();
    assert_eq!(mismatch(&world, &all), (0, 0), "seed {seed}: quiet world");
    world.disconnect_machine(UNPLUGGED);
    world
}

fn heal_matches_the_oracle(seed: u64) {
    let mut world = unplugged_after_quiet(seed);
    world.run(secs(480));
    for p in world.machine_nodes(UNPLUGGED) {
        world.fault_mut().reconnect(p);
    }
    let all: Vec<ProcId> = (0..N as ProcId).collect();
    for after in [600, 1200, 1800, 2400] {
        world.run(secs(600));
        let at = format!("seed {seed}, {after} s after the heal");
        assert_eq!(mismatch(&world, &all), (0, 0), "{at}");
    }
}

#[test]
fn tables_match_the_oracle_when_quiet_and_after_a_heal() {
    heal_matches_the_oracle(1);
}

#[test]
#[ignore]
fn tables_match_the_oracle_when_quiet_and_after_a_heal_over_three_seeds() {
    for seed in 1..=3 {
        heal_matches_the_oracle(seed);
    }
}

/// Machine 3 unplugged and never healed: (deaths the live nodes declare in
/// the first 480 s, in the 1,800 s after; live nodes still listing a
/// machine-3 node among their neighbours at 480 s, at 2,280 s).
fn second_hand_returns(seed: u64) -> (u64, u64, usize, usize) {
    let mut world = unplugged_after_quiet(seed);
    let dead = world.machine_nodes(UNPLUGGED);
    let live: Vec<ProcId> = (0..N as ProcId).filter(|p| !dead.contains(p)).collect();
    let deaths = |w: &World| -> u64 {
        let died = live.iter().map(|&p| overlay(w, p).stats.neighbors_died);
        died.sum()
    };
    let stale = |w: &World| {
        let lists_dead = |&&p: &&ProcId| overlay(w, p).neighbors().iter().any(|n| dead.contains(n));
        live.iter().filter(lists_dead).count()
    };
    let before = deaths(&world);
    world.run(secs(480));
    let (first, stale_first) = (deaths(&world), stale(&world));
    world.run(secs(1800));
    let (next, stale_next) = (deaths(&world), stale(&world));
    (first - before, next - first, stale_first, stale_next)
}

/// Pins a known defect without fixing it; the tables-converge item
/// inverts it. While a machine stays unplugged its dead nodes come back
/// second-hand: a live node drops a dead peer, then takes it back from a
/// neighbour's `AnnounceAck` candidates or a probe path, pings it and
/// declares it dead again. None of those deaths make progress on the
/// fault, they never stop, and some live nodes list a dead peer after
/// 2,280 s. A node that skipped second-hand candidates it holds as
/// departed would declare about a hundred deaths, then none.
#[test]
fn dead_peers_keep_coming_back_second_hand() {
    assert_eq!(second_hand_returns(1), (213, 442, 5, 3));
}

#[test]
#[ignore]
fn dead_peers_keep_coming_back_second_hand_over_three_seeds() {
    let pins = [(213, 442, 5, 3), (325, 801, 5, 4), (248, 720, 8, 8)];
    for (seed, pin) in (1..=3).zip(pins) {
        assert_eq!(second_hand_returns(seed), pin, "seed {seed}");
    }
}

/// A 40-node ring grown by protocol joins through node 0, one a second:
/// its mismatch 600 s after the last join and 1,200 s later.
fn live_joins(seed: u64) -> [(usize, usize); 2] {
    let mut params = WorldParams::new(40, seed, NetConfig::cluster());
    params.bootstrap = Bootstrap::Live { stagger: secs(1) };
    let mut world = World::build(&params);
    let all: Vec<ProcId> = (0..40).collect();
    world.run(secs(600));
    let settled = mismatch(&world, &all);
    world.run(secs(1200));
    [settled, mismatch(&world, &all)]
}

/// Pins a known defect without fixing it; the tables-converge item
/// inverts it. A ring grown by live joins never reaches the oracle's
/// tables: on seed 1 every leaf set matches but eight neighbour sets do
/// not, so routing-table slots differ, and maintenance leaves the
/// mismatch as it is from 600 s to 1,800 s after the last join.
#[test]
fn live_joins_never_reach_the_oracle_tables() {
    assert_eq!(live_joins(1), [(0, 8); 2]);
}

#[test]
#[ignore]
fn live_joins_never_reach_the_oracle_tables_over_three_seeds() {
    let pins = [(0, 8), (4, 12), (7, 12)];
    for (seed, pin) in (1..=3).zip(pins) {
        assert_eq!(live_joins(seed), [pin; 2], "seed {seed}");
    }
}
