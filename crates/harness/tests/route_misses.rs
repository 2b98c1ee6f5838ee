//! Route work is done once: a paper-scale world computes at most one
//! shortest-path row per attachment router in its whole life — most of
//! them while its neighbours first ping each other — and none twice.
//!
//! The counts repeat exactly under the seed (the oracle's statistics are a
//! pure function of the query order, which the kernel fixes), so they are
//! asserted as counts, not as timings.

use fuse_harness::world::pick_nodes;
use fuse_harness::{World, WorldParams};
use fuse_net::NetConfig;
use fuse_sim::{ProcId, SimDuration};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NODES: usize = 400;

/// Creates every `(root, members)` group at once, signals each from its
/// first member and checks that root and signaller were notified.
fn create_signal_notified(world: &mut World, groups: &[(ProcId, Vec<ProcId>)]) {
    let tickets: Vec<_> = groups
        .iter()
        .map(|(root, members)| world.start_create(*root, members))
        .collect();
    world.run(SimDuration::from_secs(6));
    let ids: Vec<_> = groups
        .iter()
        .zip(tickets)
        .map(|((root, _), ticket)| {
            let app = &world.sim.proc(*root).expect("root is up").app;
            let created = app.created_result(ticket).expect("6 s is enough");
            created.expect("nothing failed").id
        })
        .collect();
    for ((_, members), &id) in groups.iter().zip(&ids) {
        world.signal(members[0], id);
    }
    world.run(SimDuration::from_secs(3));
    for ((root, members), &id) in groups.iter().zip(&ids) {
        assert!(!world.failures(*root, id).is_empty(), "root {root}");
        assert!(!world.failures(members[0], id).is_empty());
    }
}

#[test]
fn a_world_computes_each_route_row_at_most_once() {
    let mut world = World::build(&WorldParams::new(NODES, 1, NetConfig::cluster()));
    let misses = |w: &World| w.sim.medium().route_oracle_stats().misses;
    assert_eq!(misses(&world), 0, "construction computes no route");

    // One and a half ping periods: every node has pinged its neighbours.
    world.run(SimDuration::from_secs(90));
    let warm = misses(&world);
    assert!(
        (1..=NODES as u64).contains(&warm),
        "at most one row per attachment router, got {warm}"
    );

    // 100 concurrent creates of 2..32 members between uniformly drawn
    // nodes, most of which never exchanged a message before. Only a pair
    // with no row at either end costs a row sweep, and there is at most one
    // row left to compute per node that has none yet.
    let mut rng = StdRng::seed_from_u64(0x0063_6875_726e);
    let groups: Vec<_> = (0..100)
        .map(|i| {
            let root = rng.gen_range(0..NODES) as ProcId;
            let others = [1, 3, 7, 15, 31][i % 5];
            (root, pick_nodes(&mut rng, NODES, others, &[root]))
        })
        .collect();
    create_signal_notified(&mut world, &groups);
    let first = misses(&world);
    assert!(first <= NODES as u64, "{first} rows for {NODES} routers");

    // The same groups again: every route they need has been computed.
    create_signal_notified(&mut world, &groups);
    assert_eq!(misses(&world), first, "a repeated round recomputed a route");
    let s = world.sim.medium().route_oracle_stats();
    assert_eq!(s.resident_rows as u64, s.misses, "every computed row stays");
}
