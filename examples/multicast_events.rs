//! Event delivery over a Subscriber/Volunteer tree (paper §4).
//!
//! Ten subscribers join a multicast tree; the root publishes events; a
//! forwarding subscriber is killed; FUSE notifications garbage-collect the
//! broken content links, orphaned children re-join along fresh routes, and
//! delivery resumes — the paper's "garbage collect out-of-date state using
//! FUSE and retry" pattern in action.
//!
//! Run with `cargo run --example multicast_events`.

use fuse_core::FuseConfig;
use fuse_net::{NetConfig, Network, TopologyConfig};
use fuse_overlay::{build_oracle_tables, NodeInfo, NodeName, OverlayConfig};
use fuse_sim::{ProcId, Sim, SimDuration};
use fuse_simdriver::NodeStack;
use fuse_svtree::{SvApp, SvConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let n = 64;
    let topic = NodeName::new("scores/football/final").expect("the topic fits a ring name");
    let mut rng = StdRng::seed_from_u64(5);
    let net = Network::generate(
        &TopologyConfig::default(),
        n,
        NetConfig::simulator(),
        &mut rng,
    );
    let infos: Vec<NodeInfo> = (0..n)
        .map(|i| NodeInfo::new(i as ProcId, NodeName::numbered(i)))
        .collect();
    let ov_cfg = OverlayConfig::default();
    let tables = build_oracle_tables(&infos, &ov_cfg);

    let mut sim = Sim::new(11, net);
    for (info, (cw, ccw, rt)) in infos.iter().zip(tables) {
        // Everyone is a potential volunteer; subscribers opt in below.
        let mut cfg = SvConfig::bystander(topic);
        cfg.volunteer = true;
        let mut stack = NodeStack::new(
            *info,
            None,
            ov_cfg.clone(),
            FuseConfig::default(),
            SvApp::new(cfg),
        );
        stack.overlay.preload_tables(cw, ccw, rt);
        sim.add_process(stack);
    }
    sim.run_for(SimDuration::from_secs(1));

    // The owner of the topic name is the tree root.
    let root = (0..n as ProcId)
        .find(|&p| sim.proc(p).map(|s| s.app.is_root()).unwrap_or(false))
        .expect("someone owns the topic");
    println!("tree root (owner of '{topic}') is node {root}");

    // Ten subscribers join, staggered.
    let subscribers: Vec<ProcId> = (0..n as ProcId).filter(|&p| p != root).step_by(6).collect();
    for &s in &subscribers {
        sim.run_for(SimDuration::from_millis(300));
        sim.with_proc(s, |stack, ctx| {
            stack.with_api(ctx, |api, app| app.subscribe_now(api))
        });
    }
    sim.run_for(SimDuration::from_secs(10));

    // Publish a batch of events from the root.
    for ev in 1..=5u64 {
        sim.with_proc(root, |stack, ctx| {
            stack.with_api(ctx, |api, app| app.publish(api, ev))
        });
    }
    sim.run_for(SimDuration::from_secs(5));
    for &s in &subscribers {
        let got = sim.proc(s).expect("alive").app.deliveries.len();
        println!("subscriber {s}: {got}/5 events");
        assert_eq!(got, 5, "subscriber {s} missed events");
    }

    // Kill a forwarding subscriber (one with children if possible).
    let victim = subscribers
        .iter()
        .copied()
        .max_by_key(|&s| sim.proc(s).map(|st| st.app.child_count()).unwrap_or(0))
        .expect("have subscribers");
    println!(
        "--- killing node {victim} (forwards to {} children) ---",
        sim.proc(victim).unwrap().app.child_count()
    );
    sim.crash(victim);

    // FUSE detection + tree repair: within the ping/repair timeouts.
    sim.run_for(SimDuration::from_secs(400));
    for ev in 6..=8u64 {
        sim.with_proc(root, |stack, ctx| {
            stack.with_api(ctx, |api, app| app.publish(api, ev))
        });
    }
    sim.run_for(SimDuration::from_secs(10));

    for &s in &subscribers {
        if s == victim {
            continue;
        }
        let app = &sim.proc(s).expect("alive").app;
        let late = app.deliveries.iter().filter(|&&(_, e)| e >= 6).count();
        println!(
            "subscriber {s}: {}/8 total events, {late}/3 after the crash (rejoined {} times)",
            app.deliveries.len(),
            app.join_attempts
        );
        assert_eq!(late, 3, "subscriber {s} did not recover");
    }
    println!("tree healed itself through FUSE notifications and version-stamped rejoins");
}
