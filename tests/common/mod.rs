//! Shared helpers for the cross-crate integration tests.

// Each integration-test binary compiles this module separately and uses a
// subset of the helpers.
#![allow(dead_code)]

use fuse_core::{FuseApi, FuseApp, FuseConfig, FuseEvent, FuseId, Notification};
use fuse_net::{NetConfig, Network, TopologyConfig};
use fuse_overlay::{build_oracle_tables, NodeInfo, NodeName, OverlayConfig};
use fuse_sim::{ProcId, Sim, SimDuration, SimTime};
use fuse_simdriver::NodeStack;

/// Minimal recording application.
#[derive(Default)]
pub struct Rec {
    /// All FUSE events with timestamps.
    pub events: Vec<(SimTime, FuseEvent)>,
}

impl FuseApp for Rec {
    fn on_fuse_event(&mut self, api: &mut FuseApi<'_>, ev: FuseEvent) {
        self.events.push((api.now(), ev));
    }
}

pub type World = Sim<NodeStack<Rec>, Network>;

/// Builds an `n`-node world over the wide-area network model with
/// converged overlay tables.
pub fn world(n: usize, seed: u64) -> (World, Vec<NodeInfo>) {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed ^ 0xabc);
    let mut topo = TopologyConfig::default();
    topo.n_as = 24; // Smaller topology for test speed; same structure.
    let net = Network::generate(&topo, n, NetConfig::simulator(), &mut rng);
    let infos: Vec<NodeInfo> = (0..n)
        .map(|i| NodeInfo::new(i as ProcId, NodeName::numbered(i)))
        .collect();
    let ov = OverlayConfig::default();
    let tables = build_oracle_tables(&infos, &ov);
    let mut sim = Sim::new(seed, net);
    for (info, (cw, ccw, rt)) in infos.iter().zip(tables) {
        let mut stack = NodeStack::new(
            *info,
            None,
            ov.clone(),
            FuseConfig::default(),
            Rec::default(),
        );
        stack.overlay.preload_tables(cw, ccw, rt);
        sim.add_process(stack);
    }
    sim.run_for(SimDuration::from_secs(2));
    (sim, infos)
}

/// Creates a group and runs until the `Created` event lands.
pub fn create(sim: &mut World, infos: &[NodeInfo], root: ProcId, members: &[ProcId]) -> FuseId {
    let others: Vec<NodeInfo> = members.iter().map(|&m| infos[m as usize]).collect();
    let ticket = sim
        .with_proc(root, |stack, ctx| {
            stack.with_api(ctx, |api, _| api.create_group(others))
        })
        .expect("root alive");
    sim.run_for(SimDuration::from_secs(10));
    let ok = sim.proc(root).unwrap().app.events.iter().any(
        |(_, ev)| matches!(ev, FuseEvent::Created { ticket: t, result: Ok(_) } if *t == ticket),
    );
    assert!(ok, "creation must complete");
    ticket.id()
}

/// Failure notifications for `id` observed at `node`.
pub fn notifications(sim: &World, node: ProcId, id: FuseId) -> Vec<(SimTime, Notification)> {
    sim.proc(node)
        .map(|s| {
            s.app
                .events
                .iter()
                .filter_map(|&(t, ev)| match ev {
                    FuseEvent::Notified(n) if n.id == id => Some((t, n)),
                    _ => None,
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Failure notification timestamps for `id` at `node`.
pub fn failures(sim: &World, node: ProcId, id: FuseId) -> Vec<SimTime> {
    notifications(sim, node, id)
        .into_iter()
        .map(|(t, _)| t)
        .collect()
}

/// Asserts no node holds any state for `id`.
pub fn assert_no_orphans(sim: &World, id: FuseId) {
    for p in 0..sim.process_count() as ProcId {
        if let Some(s) = sim.proc(p) {
            assert!(!s.fuse.knows_group(id), "node {p} still holds {id}");
        }
    }
}
