//! Quickstart: create a FUSE group through the typed handle API, signal a
//! failure, watch every member hear about it exactly once — with the cause.
//!
//! Run with `cargo run --example quickstart`.

use fuse_core::{FuseApi, FuseApp, FuseConfig, FuseEvent};
use fuse_net::{NetConfig, Network, TopologyConfig};
use fuse_overlay::{build_oracle_tables, NodeInfo, NodeName, OverlayConfig};
use fuse_sim::{ProcId, Sim, SimDuration};
use fuse_simdriver::NodeStack;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Minimal application: print every FUSE event as it happens.
struct PrintApp;

impl FuseApp for PrintApp {
    fn on_fuse_event(&mut self, api: &mut FuseApi<'_>, ev: FuseEvent) {
        match ev {
            FuseEvent::Created { ticket, result } => match result {
                Ok(handle) => println!(
                    "[{}] node {}: group {} created (role {:?})",
                    api.now(),
                    api.me().proc,
                    handle.id,
                    handle.role
                ),
                Err(e) => println!(
                    "[{}] node {}: creation of {} failed: {e:?}",
                    api.now(),
                    api.me().proc,
                    ticket.id()
                ),
            },
            FuseEvent::Notified(n) => {
                println!(
                    "[{}] node {}: FAILURE of {} (cause {}, role {:?}) — garbage-collect now",
                    api.now(),
                    api.me().proc,
                    n.id,
                    n.reason,
                    n.role
                );
            }
        }
    }
}

fn main() {
    // A 32-node overlay on a synthetic wide-area topology.
    let n = 32;
    let mut rng = StdRng::seed_from_u64(1);
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

    let mut sim = Sim::new(42, net);
    for (info, (cw, ccw, rt)) in infos.iter().zip(tables) {
        // `FuseConfig::default()` is the paper's constants: liveness rides
        // the overlay's pings, one deadline per monitored peer (DESIGN.md
        // §9); `FuseConfig::builder()` overrides any of them.
        let mut stack =
            NodeStack::new(*info, None, ov_cfg.clone(), FuseConfig::default(), PrintApp);
        stack.overlay.preload_tables(cw, ccw, rt);
        sim.add_process(stack);
    }
    sim.run_for(SimDuration::from_secs(2));

    // Node 0 creates a group over nodes 7, 13 and 21 (the paper's
    // CreateGroup). The call returns a typed ticket immediately; the
    // Created event echoing it arrives once every member answered.
    let others: Vec<NodeInfo> = [7usize, 13, 21].iter().map(|&i| infos[i]).collect();
    let ticket = sim
        .with_proc(0, |stack, ctx| {
            stack.with_api(ctx, |api, _| api.create_group(others))
        })
        .expect("node 0 is alive");
    let id = ticket.id();
    println!("node 0 asked for group {id}");
    sim.run_for(SimDuration::from_secs(5));

    // Any member may associate distributed state with the group and
    // explicitly signal failure when *its* definition of failure is met
    // (the paper's SignalFailure; `group_send` covers fail-on-send).
    println!("--- node 13 signals failure ---");
    sim.with_proc(13, |stack, ctx| {
        stack.with_api(ctx, |api, _| api.signal_failure(id))
    });
    sim.run_for(SimDuration::from_secs(5));

    // Every member heard exactly once; all state is gone everywhere.
    for node in 0..n as ProcId {
        if let Some(stack) = sim.proc(node) {
            assert!(!stack.fuse.knows_group(id), "orphaned state on {node}");
        }
    }
    println!("group {id} fully garbage-collected on all {n} nodes");
}
