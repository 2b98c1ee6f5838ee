//! Route work is done once: a paper-scale world computes at most one
//! shortest-path row per anchor (the core router an attachment router's
//! access chain hangs from) in its whole life — most of them while its
//! neighbours first ping each other — and none twice.
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
    let stats = |w: &World| w.sim.medium().route_oracle_stats();
    let misses = |w: &World| stats(w).misses;
    assert_eq!(misses(&world), 0, "construction computes no route");
    // The 400 attachment routers hang from 221 anchors: a sweep is per
    // anchor, not per router.
    let anchors = stats(&world).anchors as u64;
    assert_eq!(anchors, 221);

    // One and a half ping periods: every node has pinged its neighbours.
    world.run(SimDuration::from_secs(90));
    let warm = misses(&world);
    assert!(warm <= anchors, "at most one row per anchor, got {warm}");
    assert_eq!(warm, 203, "sweeps after the warm-up");

    // 100 concurrent creates of 2..32 members between uniformly drawn
    // nodes, most of which never exchanged a message before. Only a pair
    // whose anchors have no row yet costs a sweep, and by now there is
    // almost no anchor left without one.
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
    assert!(first <= anchors, "{first} rows for {anchors} anchors");
    assert_eq!(first, 204, "sweeps after the first create round");

    // The same groups again: every route they need has been computed.
    create_signal_notified(&mut world, &groups);
    assert_eq!(misses(&world), first, "a repeated round recomputed a route");
    let s = stats(&world);
    assert_eq!(s.resident_rows as u64, s.misses, "every computed row stays");
}
