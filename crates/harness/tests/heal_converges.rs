//! A healed machine costs nothing once the ring has taken it back.
//!
//! One machine (ten nodes) is unplugged past every ping timeout, so the
//! ring declares its nodes dead and they declare the ring dead, and every
//! group with a member there fails or repairs. After the heal, the ten
//! must be re-admitted to the overlay (each announces itself to the
//! neighbours it lost, and they to it), and the groups still standing must
//! stop repairing: from the third 300 s window on, no repair round starts
//! and the kernel does no more than 5 % more work than in the quiet window
//! before any fault. Two machines are unplugged and healed in turn.
//!
//! Event counts and repair counts repeat exactly under the seed, so they
//! are asserted as counts.

use fuse_harness::world::pick_nodes;
use fuse_harness::{World, WorldParams};
use fuse_net::NetConfig;
use fuse_sim::SimDuration;
use rand::rngs::StdRng;
use rand::SeedableRng;

const WINDOW: SimDuration = SimDuration::from_secs(300);

/// Kernel events executed and repair rounds started over one window.
fn window(world: &mut World) -> (u64, u64) {
    let (events, rounds) = (world.events_executed(), repairs_started(world));
    world.run(WINDOW);
    (
        world.events_executed() - events,
        repairs_started(world) - rounds,
    )
}

fn repairs_started(world: &World) -> u64 {
    world.obs_aggregates().repairs_started
}

fn heal_converges(n: usize, seed: u64) {
    let mut world = World::build(&WorldParams::new(n, seed, NetConfig::cluster()));
    world.run(SimDuration::from_secs(90));
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4EA1);
    for _ in 0..n {
        let picked = pick_nodes(&mut rng, n, 5, &[]);
        world.start_create(picked[0], &picked[1..]);
    }
    world.run(SimDuration::from_secs(90));
    let (quiet, _) = window(&mut world);
    for machine in [3, 4] {
        world.disconnect_machine(machine);
        world.run(SimDuration::from_secs(480));
        for p in world.machine_nodes(machine) {
            world.fault_mut().reconnect(p);
        }
        world.run(SimDuration::from_secs(120));
        let windows: Vec<(u64, u64)> = (0..4).map(|_| window(&mut world)).collect();
        for (i, &(events, repairs)) in windows.iter().enumerate().skip(2) {
            let at = format!("seed {seed}, n {n}, machine {machine}, window {i}: {windows:?}");
            assert_eq!(repairs, 0, "repair rounds after the heal ({at})");
            assert!(
                events as f64 <= quiet as f64 * 1.05,
                "{events} events against {quiet} quiet ({at})"
            );
        }
        for p in world.machine_nodes(machine) {
            let stack = world.sim.proc(p).expect("reconnected, not crashed");
            let (cw, ccw) = stack.overlay.leaf_set();
            assert!(
                !cw.is_empty() && !ccw.is_empty(),
                "seed {seed}: healed node {p} was not re-admitted"
            );
        }
    }
}

#[test]
fn a_healed_machine_rejoins_and_repair_stops() {
    for seed in 1..=3 {
        heal_converges(120, seed);
    }
}

/// The same at the paper's 400 nodes (§7.1): about 9 s a seed in debug.
/// CI runs it in release with `-- --ignored`.
#[test]
#[ignore]
fn a_healed_machine_rejoins_and_repair_stops_at_paper_scale() {
    for seed in 1..=3 {
        heal_converges(400, seed);
    }
}
