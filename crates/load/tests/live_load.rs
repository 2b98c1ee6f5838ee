//! End-to-end exercise of the live load harness at small scale: a real
//! fleet behind its fault proxies, one kill round and one signal round, plus
//! a chaos-token replay cross-checked against the simulator.
//!
//! The paper-scale run is `fuse-load` with its defaults (N=10); these
//! tests keep the same machinery honest at a size that fits the tier-1
//! wall-clock budget.

use std::path::PathBuf;
use std::process::Command;
use std::sync::OnceLock;
use std::time::Duration;

use fuse_load::cluster::fast_timing_args;
use fuse_load::live::{condition_links, run_rounds};
use fuse_load::replay::replay_token;
use fuse_load::scenario::{plan, FaultClass, ScenarioParams};
use fuse_load::{Cluster, LoadReport};

/// Locates (building if necessary) the `fuse-node` binary. `fuse_load`
/// has no crate dependency on `fuse-node`, so `CARGO_BIN_EXE_*` is not
/// set here; probe the shared target directory instead, with an env
/// override for CI.
fn node_bin() -> PathBuf {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    BIN.get_or_init(|| {
        if let Ok(p) = std::env::var("FUSE_NODE_BIN") {
            return PathBuf::from(p);
        }
        // Test binaries live in target/<profile>/deps; fuse-node goes to
        // target/<profile>/fuse-node.
        let me = std::env::current_exe().expect("current_exe");
        let profile_dir = me
            .parent() // deps/
            .and_then(|d| d.parent()) // <profile>/
            .expect("target profile dir");
        let candidate = profile_dir.join("fuse-node");
        if !candidate.exists() {
            let status = Command::new(env!("CARGO"))
                .args(["build", "-p", "fuse-node", "--bin", "fuse-node"])
                .current_dir(env!("CARGO_MANIFEST_DIR"))
                .status()
                .expect("spawn cargo build");
            assert!(status.success(), "building fuse-node failed");
        }
        assert!(candidate.exists(), "no fuse-node at {candidate:?}");
        candidate
    })
    .clone()
}

/// Fast-detection node timings plus an orphan-protection lifetime cap.
fn fast_timings() -> Vec<String> {
    let mut args = fast_timing_args();
    args.push("--run-secs".into());
    args.push("240".into());
    args
}

#[test]
fn kill_and_signal_rounds_meet_budget_on_a_small_fleet() {
    let p = ScenarioParams {
        nodes: 5,
        groups: 2,
        rounds: 1,
        seed: 11,
        budget: Duration::from_secs(90),
        delay_ms: 0,
        loss_pct: 0,
    };
    let rounds = plan(&p, &[FaultClass::Kill, FaultClass::Signal]);
    let mut cluster =
        Cluster::launch(p.nodes, node_bin(), p.seed, &fast_timings()).expect("launch");
    condition_links(&cluster, &p);
    let live = run_rounds(&mut cluster, &p, &rounds, |_| {}).expect("rounds");
    cluster.shutdown();

    let report = LoadReport::assemble(p, &live, &Default::default());
    assert!(
        report.within_budget(),
        "all groups must notify within budget:\n{}",
        report.render()
    );
    let kill = report
        .classes
        .iter()
        .find(|c| c.class == FaultClass::Kill)
        .expect("kill class measured");
    assert_eq!(kill.live_ms.len(), 2, "2 groups in the kill round");
    // SIGKILL resets TCP streams: EOF-driven detection is far faster than
    // the 90 s budget even with proxy hops in the path.
    assert!(
        kill.live_ms.iter().all(|&ms| ms < 60_000.0),
        "kill latencies: {:?}",
        kill.live_ms
    );
    let signal = report
        .classes
        .iter()
        .find(|c| c.class == FaultClass::Signal)
        .expect("signal class measured");
    assert_eq!(signal.live_ms.len(), 2);
}

#[test]
fn delayed_links_slow_signal_propagation_measurably() {
    let p = ScenarioParams {
        nodes: 4,
        groups: 1,
        rounds: 1,
        seed: 23,
        budget: Duration::from_secs(60),
        delay_ms: 150,
        loss_pct: 0,
    };
    let rounds = plan(&p, &[FaultClass::Signal]);
    let mut cluster =
        Cluster::launch(p.nodes, node_bin(), p.seed, &fast_timings()).expect("launch");
    condition_links(&cluster, &p);
    let live = run_rounds(&mut cluster, &p, &rounds, |_| {}).expect("rounds");
    cluster.shutdown();

    let (samples, misses) = &live[&FaultClass::Signal];
    assert_eq!(*misses, 0);
    // One proxied hop carries >= 150 ms of injected delay; the fault ->
    // last-member path crosses at least one.
    assert!(
        samples.iter().all(|&ms| ms >= 100.0),
        "delay must show up in the signal path: {samples:?}"
    );
}

#[test]
fn chaos_token_replays_against_live_processes() {
    // A hand-written short token: 12-node world (the token grammar's
    // minimum), 3-member group, crash the slot-1 member two (scaled)
    // seconds in. The sim burns this group; the live fleet must therefore
    // notify every survivor.
    let token = "chaos-v1;seed=5;n=12;gs=3;script=crash(1)@2s";
    let out = replay_token(
        token,
        node_bin(),
        0.5, // compress the 2 s offset to 1 s of wall time
        Duration::from_secs(90),
        &fast_timings(),
        |_| {},
    )
    .expect("replay");
    assert!(
        out.sim_burned,
        "the sim reference must burn on a member crash"
    );
    assert!(
        out.live_all_notified,
        "every surviving live participant must hear: {:?}",
        out.live_notified
    );
    assert!(out.consistent);
    // 1 root + 3 members, minus the crashed slot-1 member = 3 survivors.
    assert_eq!(out.live_notified.len(), 3, "{:?}", out.live_notified);
}

#[test]
fn plans_the_fleet_cannot_serve_are_usage_errors() {
    // Past parsing, each would trip an assert (the plan's, or the
    // simulator's loss-rate range) and exit 101 with a panic.
    let cases: [(&[&str], &str); 3] = [
        (&["--nodes", "3"], "need at least 4 nodes"),
        (
            &["--nodes", "10", "--groups", "11"],
            "groups (11) must be <= nodes (10)",
        ),
        (&["--loss-pct", "100"], "loss percent must be below 100"),
    ];
    for (args, why) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_fuse-load"))
            .args(args)
            .output()
            .expect("run fuse-load");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?}: usage error, got {out:?}"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(why), "{args:?}: stderr says why: {stderr}");
    }
}
