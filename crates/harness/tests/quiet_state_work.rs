//! Standing groups are free in the quiet state — in work, not only in
//! messages (paper §7.5: 337 vs 338 msg/s with and without groups). One
//! piggybacked hash refreshes every group on a link, and an agreeing hash
//! is one store, and one link-expiry timer per node serves every monitored
//! peer: the kernel executes about as many events for a world with 200
//! standing groups as for the same world with none, and holds at most one
//! more timer per node — not per peer or per group — than it.
//!
//! The quiet state's own work per ping is counted too: an acknowledged
//! ping costs the ping, the ack and a share of its node's two liveness
//! wake-ups a period (the round and its sweep), at most 2.35 kernel events
//! in all.
//!
//! Event counts repeat exactly under the seed, so they are asserted as
//! counts, not as timings.

use fuse_harness::world::pick_nodes;
use fuse_harness::{World, WorldParams};
use fuse_net::NetConfig;
use fuse_sim::{ProcId, SimDuration};
use rand::rngs::StdRng;
use rand::SeedableRng;

const NODES: usize = 64;

/// Kernel events executed during, and still pending after, 300 quiet
/// simulated seconds with `groups` five-member groups standing, the
/// number of (node, peer) links some group monitors, and the overlay
/// pings sent in the window.
fn quiet_window(groups: usize) -> (u64, usize, usize, u64) {
    let mut world = World::build(&WorldParams::new(NODES, 3, NetConfig::cluster()));
    world.run(SimDuration::from_secs(90));
    let mut rng = StdRng::seed_from_u64(0x9E7);
    let tickets: Vec<_> = (0..groups)
        .map(|_| {
            let picked = pick_nodes(&mut rng, NODES, 5, &[]);
            (picked[0], world.start_create(picked[0], &picked[1..]))
        })
        .collect();
    // Creation, tree installation and the hash exchange that follows settle.
    world.run(SimDuration::from_secs(120));
    for (root, ticket) in tickets {
        let app = &world.sim.proc(root).expect("root is up").app;
        let created = app.created_result(ticket).expect("120 s is enough");
        created.expect("nothing failed");
    }
    let pings = |world: &World| -> u64 {
        let procs = (0..NODES as ProcId).map(|p| world.sim.proc(p).expect("up"));
        procs.map(|p| p.overlay.stats.pings_sent).sum()
    };
    let (before, pings_before) = (world.events_executed(), pings(&world));
    world.run(SimDuration::from_secs(300));
    let obs = world.obs_aggregates();
    assert_eq!(obs.notifications, 0, "a quiet group burned");
    assert_eq!(obs.links_expired, 0);
    let monitored =
        (0..NODES as ProcId).map(|p| world.sim.proc(p).expect("up").fuse.watched_peers().len());
    (
        world.events_executed() - before,
        world.sim.pending_events(),
        monitored.sum(),
        pings(&world) - pings_before,
    )
}

#[test]
fn standing_groups_add_no_kernel_work_to_the_quiet_state() {
    let (events_bare, pending_bare, monitored_bare, pings) = quiet_window(0);
    let (events_groups, pending_groups, monitored, _) = quiet_window(200);
    assert!(events_bare > 0 && pending_bare > 0 && pings > 0);
    assert_eq!(monitored_bare, 0);
    // The first count of the quiet state's work: a ping is the ping and the
    // ack, plus a share of its node's round and sweep wake-ups and of table
    // maintenance and its announces — 2.254 events (12,373 for 5,490
    // pings). A wake-up of its own for each ping, as when every neighbour
    // kept its own phase, adds about 0.9 (3.13: 17,193 events); a timer
    // per ping and per ack wait more again (3.28, and 4.13 when the ack
    // cancelled its wait's timer and the kernel still executed it).
    let per_ping = events_bare as f64 / pings as f64;
    assert!(
        per_ping <= 2.35,
        "{events_bare} kernel events for {pings} pings: {per_ping:.3} per ping"
    );
    // 12,693 against 12,373: each node's FUSE wake-up comes for the expiry
    // sweep about once a ping period (320 events over 64 nodes and 300 s),
    // not once per agreement on every monitored link (21,825 with a timer
    // per peer, when the bare window took 18,005).
    assert!(
        events_groups as f64 <= events_bare as f64 * 1.05,
        "200 standing groups: {events_groups} events against {events_bare} with none"
    );
    // 200 groups over 64 nodes put a group on 804 (node, peer) links; the
    // queue holds one FUSE wake-up per node for all of them (128 against
    // 64; 2,026 with a timer per peer, 1,286 against 1,222 when every
    // neighbour's ping was a timer of its own).
    assert!(
        pending_groups <= pending_bare + NODES,
        "200 standing groups on {monitored} links: {pending_groups} pending \
         against {pending_bare} with none"
    );
}
