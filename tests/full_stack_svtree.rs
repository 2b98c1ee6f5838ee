//! End-to-end test of the complete system: SV-tree event delivery over
//! FUSE over the SkipNet-style overlay over the wide-area network model —
//! every crate in the workspace in one scenario.

use fuse_core::FuseConfig;
use fuse_net::{NetConfig, Network, TopologyConfig};
use fuse_overlay::{build_oracle_tables, NodeInfo, NodeName, OverlayConfig};
use fuse_sim::{ProcId, Sim, SimDuration};
use fuse_simdriver::NodeStack;
use fuse_svtree::{SvApp, SvConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

type World = Sim<NodeStack<SvApp>, Network>;

fn sv_world(n: usize, seed: u64, topic: &NodeName, volunteer: bool) -> World {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut topo = TopologyConfig::default();
    topo.n_as = 24;
    let net = Network::generate(&topo, n, NetConfig::simulator(), &mut rng);
    let infos: Vec<NodeInfo> = (0..n)
        .map(|i| NodeInfo::new(i as ProcId, NodeName::numbered(i)))
        .collect();
    let ov = OverlayConfig::default();
    let tables = build_oracle_tables(&infos, &ov);
    let mut sim = Sim::new(seed, net);
    for (info, (cw, ccw, rt)) in infos.iter().zip(tables) {
        let mut cfg = SvConfig::bystander(*topic);
        cfg.volunteer = volunteer;
        let mut stack = NodeStack::new(
            *info,
            None,
            ov.clone(),
            FuseConfig::default(),
            SvApp::new(cfg),
        );
        stack.overlay.preload_tables(cw, ccw, rt);
        sim.add_process(stack);
    }
    sim.run_for(SimDuration::from_secs(1));
    sim
}

fn subscribe(sim: &mut World, node: ProcId) {
    sim.with_proc(node, |stack, ctx| {
        stack.with_api(ctx, |api, app| app.subscribe_now(api))
    });
}

fn publish_from_root(sim: &mut World, n: usize, event: u64) -> ProcId {
    let root = (0..n as ProcId)
        .find(|&p| sim.proc(p).map(|s| s.app.is_root()).unwrap_or(false))
        .expect("a root exists");
    sim.with_proc(root, |stack, ctx| {
        stack.with_api(ctx, |api, app| app.publish(api, event))
    });
    root
}

#[test]
fn events_reach_all_subscribers_over_the_wide_area_model() {
    let topic = NodeName::new("updates/weather").unwrap();
    let n = 48;
    let mut sim = sv_world(n, 31, &topic, true);
    let subs: Vec<ProcId> = (1..n as ProcId).step_by(5).collect();
    for &s in &subs {
        sim.run_for(SimDuration::from_millis(400));
        subscribe(&mut sim, s);
    }
    sim.run_for(SimDuration::from_secs(20));
    let root = publish_from_root(&mut sim, n, 1);
    sim.run_for(SimDuration::from_secs(10));
    for &s in &subs {
        if s == root {
            continue;
        }
        assert_eq!(
            sim.proc(s).unwrap().app.deliveries.len(),
            1,
            "subscriber {s} missed the event"
        );
    }
}

#[test]
fn forwarder_crash_heals_and_delivery_resumes() {
    let topic = NodeName::new("updates/scores").unwrap();
    let n = 48;
    let mut sim = sv_world(n, 32, &topic, true);
    let subs: Vec<ProcId> = (1..n as ProcId).step_by(4).collect();
    for &s in &subs {
        sim.run_for(SimDuration::from_millis(400));
        subscribe(&mut sim, s);
    }
    sim.run_for(SimDuration::from_secs(20));
    let root = publish_from_root(&mut sim, n, 1);
    sim.run_for(SimDuration::from_secs(10));

    // Kill the busiest forwarder among the subscribers.
    let victim = subs
        .iter()
        .copied()
        .filter(|&s| s != root)
        .max_by_key(|&s| sim.proc(s).map(|st| st.app.child_count()).unwrap_or(0))
        .expect("subscribers exist");
    sim.crash(victim);
    // Detection + GC + rejoin (ping 60s + timeout 20s + repair + rejoin).
    sim.run_for(SimDuration::from_secs(400));

    publish_from_root(&mut sim, n, 2);
    sim.run_for(SimDuration::from_secs(15));
    for &s in &subs {
        if s == victim || s == root {
            continue;
        }
        let got: Vec<u64> = sim
            .proc(s)
            .unwrap()
            .app
            .deliveries
            .iter()
            .map(|&(_, e)| e)
            .collect();
        assert!(
            got.contains(&2),
            "subscriber {s} did not recover (got {got:?})"
        );
    }
}

#[test]
fn voluntary_leave_triggers_clean_repair() {
    let topic = NodeName::new("updates/traffic").unwrap();
    let n = 32;
    let mut sim = sv_world(n, 33, &topic, true);
    let subs: Vec<ProcId> = vec![2, 7, 12, 17, 22];
    for &s in &subs {
        sim.run_for(SimDuration::from_millis(400));
        subscribe(&mut sim, s);
    }
    sim.run_for(SimDuration::from_secs(20));
    let root = publish_from_root(&mut sim, n, 1);

    // A subscriber leaves gracefully: it signals the FUSE groups that
    // would have burned had it crashed (§4) — repair is immediate, no
    // timeout wait.
    let leaver = *subs.iter().find(|&&s| s != root).expect("non-root sub");
    sim.with_proc(leaver, |stack, ctx| {
        stack.with_api(ctx, |api, app| app.leave(api))
    });
    sim.run_for(SimDuration::from_secs(30));

    publish_from_root(&mut sim, n, 2);
    sim.run_for(SimDuration::from_secs(15));
    for &s in &subs {
        if s == leaver || s == root {
            continue;
        }
        let got: Vec<u64> = sim
            .proc(s)
            .unwrap()
            .app
            .deliveries
            .iter()
            .map(|&(_, e)| e)
            .collect();
        assert!(got.contains(&2), "subscriber {s} lost delivery after leave");
    }
    // The leaver no longer receives content.
    let leaver_got: Vec<u64> = sim
        .proc(leaver)
        .unwrap()
        .app
        .deliveries
        .iter()
        .map(|&(_, e)| e)
        .collect();
    assert!(
        !leaver_got.contains(&2),
        "leaver still receives after leaving"
    );
}
