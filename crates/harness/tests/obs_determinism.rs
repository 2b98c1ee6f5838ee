//! Determinism contract of the unified observation plane (DESIGN.md §12).
//!
//! Two properties the `fuse_obs` recorder plane stakes:
//!
//! 1. **Fold-order invariance**: the merged run aggregates — every counter
//!    AND every per-class latency reservoir — are bit-identical whatever
//!    order the per-node and network recorders (and, one level up, the
//!    per-run reports) are folded in. The fold must be a pure function of
//!    the executed trace, never of how the recorders were walked.
//!    (Recorder-level partition invariance is pinned next to the code, in
//!    `fuse_obs::recorder::tests::merge_is_partition_invariant`.)
//! 2. **Observation is free**: interrogating the recorder plane mid-run
//!    (stats views, merged aggregates) never perturbs the simulation —
//!    a probed world and an untouched one finish on the same event count,
//!    clock, and aggregates.

use fuse_harness::chaos::{run_script_world, ExploreParams};
use fuse_harness::{World, WorldParams};
use fuse_net::NetConfig;
use fuse_obs::Aggregates;
use fuse_sim::{ProcId, SimDuration};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Folds `parts` forward, reversed and in a seeded-shuffled order and
/// requires the three results equal; returns the forward fold.
fn fold_every_order(parts: &[&Aggregates], what: &str) -> Aggregates {
    let fold = |order: &[&Aggregates]| {
        let mut agg = Aggregates::default();
        for part in order {
            agg.merge_from(part);
        }
        agg
    };
    let forward = fold(parts);
    let mut order = parts.to_vec();
    order.reverse();
    assert_eq!(forward, fold(&order), "{what}: reverse fold differs");
    order.shuffle(&mut StdRng::seed_from_u64(20260807));
    assert_eq!(forward, fold(&order), "{what}: shuffled fold differs");
    forward
}

/// Full-stack fold-order check over generator-drawn chaos scripts: after
/// each script, the live stacks' recorders and the network's fold to the
/// same [`Aggregates`] in any order, and so do the four run reports (the
/// fold `chaos explore --slo` performs, latency reservoirs included).
/// The scripts come from the chaos generator at a pinned seed, so they
/// mix crashes, partitions, adversaries and loss ramps — the same
/// distribution `chaos explore` walks.
#[test]
fn aggregates_are_bit_identical_in_any_fold_order() {
    let p = ExploreParams::new(20260807, 4);
    let mut reports = Vec::new();
    for i in 0..4 {
        let (report, world) = run_script_world(&p.config_for(i), &p.script_for(i));
        let mut parts: Vec<&Aggregates> = (0..world.infos.len() as ProcId)
            .filter_map(|n| world.sim.proc(n))
            .map(|s| s.fuse.obs())
            .collect();
        parts.push(world.sim.medium().obs());
        let folded = fold_every_order(&parts, &format!("script {i}"));
        assert_eq!(folded, world.obs_aggregates(), "script {i}: world fold");
        // Counter spot-checks so a trivially-empty Aggregates can't make
        // the equality vacuous: every run creates groups and moves bytes.
        assert!(folded.bytes_offered > 0, "script {i}: no bytes recorded");
        assert!(
            folded.groups_created > 0,
            "script {i}: no creation recorded"
        );
        reports.push(report.obs);
    }
    let all = fold_every_order(&reports.iter().collect::<Vec<_>>(), "run reports");
    assert!(
        all.latency.values().any(|r| !r.is_empty()),
        "no script produced latency samples; the reservoir leg is vacuous"
    );
}

/// Runs two identical worlds step-locked; one has its observation plane
/// interrogated at every step (per-node aggregates, the world-level
/// merged fold), the other is left alone.
/// Both must land on the identical event count, clock and aggregates —
/// reading the recorder plane is side-effect-free by construction
/// (`&self` accessors over monotone state), and this pins it.
#[test]
fn reading_the_observation_plane_never_perturbs_the_run() {
    let params = WorldParams::new(24, 0xb5, NetConfig::simulator());
    let mut quiet = World::build(&params);
    let mut probed = World::build(&params);
    for _ in 0..12 {
        quiet.run(SimDuration::from_secs(30));
        probed.run(SimDuration::from_secs(30));
        let _ = probed.obs_aggregates();
        if let Some(stack) = probed.sim.proc(0) {
            let _ = stack.fuse.obs();
        }
    }
    assert_eq!(quiet.sim.events_executed(), probed.sim.events_executed());
    assert_eq!(quiet.now(), probed.now());
    assert_eq!(quiet.obs_aggregates(), probed.obs_aggregates());
}
