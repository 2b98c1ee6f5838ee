//! Shared liveness plane integration tests: the node-level SWIM-style
//! detector (`fuse_liveness`) replacing per-(group, link) expiry deadlines.
//!
//! These tests pin the subscription semantics end to end: a dead peer burns
//! exactly the groups subscribed to it (no over- or under-burn), group
//! churn registers and unregisters peers in the detector, a quiet network
//! never suspects anyone, and the shared plane's notification behaviour
//! matches the per-group path on the same scenario.

use bytes::Bytes;
use rand::rngs::StdRng;

use fuse_core::{FuseApi, FuseApp, FuseConfig, FuseEvent, FuseId, NotifyReason, Role};
use fuse_overlay::{build_oracle_tables, NodeInfo, NodeName, OverlayConfig};
use fuse_sim::{Medium, PerfectMedium, ProcId, Sim, SimDuration, SimTime, Verdict};
use fuse_simdriver::NodeStack;

#[derive(Default)]
struct Recorder {
    events: Vec<(SimTime, FuseEvent)>,
}

impl FuseApp for Recorder {
    fn on_fuse_event(&mut self, api: &mut FuseApi<'_>, ev: FuseEvent) {
        self.events.push((api.now(), ev));
    }

    fn on_app_message(&mut self, _api: &mut FuseApi<'_>, _from: ProcId, _payload: Bytes) {}
}

/// Silently black-holes all traffic to and from one node once `after` is
/// reached — a silent partition, unlike a crash, produces no sender-side
/// connection-break notices, so only timeout-driven detection can see it.
/// Also counts the shared plane's direct probes and acks it was offered.
struct MuteMedium {
    inner: PerfectMedium,
    mute: ProcId,
    after: SimTime,
    probes: u64,
}

impl Medium for MuteMedium {
    fn unicast(
        &mut self,
        now: SimTime,
        rng: &mut StdRng,
        from: ProcId,
        to: ProcId,
        size: usize,
        class: &'static str,
    ) -> Verdict {
        if class == "overlay.probe-direct" {
            self.probes += 1;
        }
        if now >= self.after && (from == self.mute || to == self.mute) {
            return Verdict::Drop;
        }
        self.inner.unicast(now, rng, from, to, size, class)
    }

    fn node_up(&mut self, id: ProcId) {
        self.inner.node_up(id);
    }

    fn node_down(&mut self, id: ProcId) {
        self.inner.node_down(id);
    }
}

fn shared_cfg() -> FuseConfig {
    FuseConfig::builder()
        .shared_plane(true)
        .build()
        .expect("default shared-plane config is valid")
}

/// An overlay tuned so slow that its own ping path cannot detect anything
/// within a test window: failure detection must then come from the shared
/// liveness plane.
fn deaf_overlay() -> OverlayConfig {
    OverlayConfig {
        ping_period: SimDuration::from_secs(600),
        ping_timeout: SimDuration::from_secs(200),
        maintenance_period: SimDuration::from_secs(1200),
        ..OverlayConfig::default()
    }
}

fn world_on<M: Medium>(
    n: usize,
    seed: u64,
    ov_cfg: OverlayConfig,
    fuse_cfg: FuseConfig,
    medium: M,
) -> (Sim<NodeStack<Recorder>, M>, Vec<NodeInfo>) {
    let infos: Vec<NodeInfo> = (0..n)
        .map(|i| NodeInfo::new(i as ProcId, NodeName::numbered(i)))
        .collect();
    let tables = build_oracle_tables(&infos, &ov_cfg);
    let mut sim = Sim::new(seed, medium);
    for (info, (cw, ccw, rt)) in infos.iter().zip(tables) {
        let mut stack = NodeStack::new(
            info.clone(),
            None,
            ov_cfg.clone(),
            fuse_cfg.clone(),
            Recorder::default(),
        );
        stack.overlay.preload_tables(cw, ccw, rt);
        sim.add_process(stack);
    }
    (sim, infos)
}

fn world_with(
    n: usize,
    seed: u64,
    ov_cfg: OverlayConfig,
    fuse_cfg: FuseConfig,
) -> (Sim<NodeStack<Recorder>, PerfectMedium>, Vec<NodeInfo>) {
    let medium = PerfectMedium::new(SimDuration::from_millis(25));
    world_on(n, seed, ov_cfg, fuse_cfg, medium)
}

fn create_group<M: Medium>(
    sim: &mut Sim<NodeStack<Recorder>, M>,
    infos: &[NodeInfo],
    root: ProcId,
    members: &[ProcId],
) -> FuseId {
    let others: Vec<NodeInfo> = members.iter().map(|&m| infos[m as usize].clone()).collect();
    let ticket = sim
        .with_proc(root, |stack, ctx| {
            stack.with_api(ctx, |api, _app| api.create_group(others))
        })
        .expect("root alive");
    sim.run_for(SimDuration::from_secs(2));
    let created = sim.proc(root).unwrap().app.events.iter().any(|(_, ev)| {
        matches!(ev, FuseEvent::Created { ticket: t, result: Ok(h) }
            if t.id() == ticket.id() && h.id == ticket.id() && h.role == Role::Root)
    });
    assert!(created, "creation must complete");
    ticket.id()
}

fn failures_of<M: Medium>(
    sim: &Sim<NodeStack<Recorder>, M>,
    node: ProcId,
    id: FuseId,
) -> Vec<NotifyReason> {
    sim.proc(node)
        .map(|s| {
            s.app
                .events
                .iter()
                .filter_map(|(_, ev)| ev.notification().filter(|n| n.id == id))
                .map(|n| n.reason)
                .collect()
        })
        .unwrap_or_default()
}

/// The plane invariant: on every node, the detector probes exactly the
/// peers carrying at least one subscription.
fn assert_plane_consistent<M: Medium>(sim: &Sim<NodeStack<Recorder>, M>) {
    for p in 0..sim.process_count() as ProcId {
        if let Some(s) = sim.proc(p) {
            assert_eq!(
                s.fuse.detector().peers(),
                s.fuse.subscriptions().peers(),
                "node {p}: detector must track exactly the subscribed peers"
            );
        }
    }
}

#[test]
fn quiet_network_never_suspects_or_burns() {
    let (mut sim, infos) = world_with(24, 41, OverlayConfig::default(), shared_cfg());
    sim.run_for(SimDuration::from_secs(5));
    let mut ids = Vec::new();
    for root in [0u32, 1, 2, 3] {
        let members = [(root + 5) % 24, (root + 10) % 24, (root + 15) % 24];
        ids.push(create_group(&mut sim, &infos, root, &members));
    }
    assert_plane_consistent(&sim);
    // 20 quiet minutes: many probe rounds on every subscribed peer.
    sim.run_for(SimDuration::from_secs(1200));
    for &id in &ids {
        for node in 0..24u32 {
            assert!(
                failures_of(&sim, node, id).is_empty(),
                "false positive on node {node}"
            );
        }
    }
    let mut probed = 0;
    for p in 0..sim.process_count() as ProcId {
        let s = sim.proc(p).unwrap();
        assert_eq!(s.fuse.stats().suspects, 0, "node {p} suspected a live peer");
        assert_eq!(s.fuse.stats().peer_deaths, 0);
        probed += s.fuse.detector().peer_count();
    }
    assert!(probed > 0, "the plane must actually be probing peers");
    assert_plane_consistent(&sim);
}

#[test]
fn silently_partitioned_peer_burns_exactly_the_subscribed_groups() {
    // The overlay is deaf and the partition is silent (no connection-break
    // notices): the shared plane's suspect-then-kill is the only possible
    // detection path.
    let mute_at = SimTime::ZERO + SimDuration::from_secs(20);
    let medium = MuteMedium {
        inner: PerfectMedium::new(SimDuration::from_millis(25)),
        mute: 8,
        after: mute_at,
        probes: 0,
    };
    let (mut sim, infos) = world_on(24, 42, deaf_overlay(), shared_cfg(), medium);
    sim.run_for(SimDuration::from_secs(5));
    // Group A monitors node 8; group B lives on disjoint nodes.
    let id_a = create_group(&mut sim, &infos, 0, &[4, 8]);
    let id_b = create_group(&mut sim, &infos, 1, &[5, 9]);
    assert_plane_consistent(&sim);
    // Run past the mute point, worst-case detection (110 s), repair
    // failure, and the partitioned member's own give-up.
    sim.run_for(SimDuration::from_secs(500));
    for node in [0u32, 4, 8] {
        assert_eq!(
            failures_of(&sim, node, id_a).len(),
            1,
            "participant {node} of group A must be notified exactly once"
        );
    }
    for node in 0..24u32 {
        assert!(
            failures_of(&sim, node, id_b).is_empty(),
            "group B does not subscribe to node 8 and must not burn (node {node})"
        );
    }
    let deaths: u64 = (0..24u32)
        .map(|p| sim.proc(p).map_or(0, |s| s.fuse.stats().peer_deaths))
        .sum();
    let suspects: u64 = (0..24u32)
        .map(|p| sim.proc(p).map_or(0, |s| s.fuse.stats().suspects))
        .sum();
    assert!(
        deaths >= 1 && suspects >= 1,
        "detection must have gone through suspect-then-kill (suspects {suspects}, deaths {deaths})"
    );
    for p in 0..24u32 {
        if let Some(s) = sim.proc(p) {
            assert!(!s.fuse.knows_group(id_a), "node {p} holds orphaned A state");
        }
    }
    assert_plane_consistent(&sim);
}

#[test]
fn group_churn_registers_and_unregisters_peers() {
    let (mut sim, infos) = world_with(16, 43, OverlayConfig::default(), shared_cfg());
    sim.run_for(SimDuration::from_secs(5));
    let id_a = create_group(&mut sim, &infos, 0, &[3, 6]);
    let id_b = create_group(&mut sim, &infos, 0, &[3, 9]);
    assert_plane_consistent(&sim);
    let total_subs: usize = (0..16u32)
        .map(|p| sim.proc(p).map_or(0, |s| s.fuse.subscriptions().len()))
        .sum();
    assert!(total_subs > 0, "live groups must hold subscriptions");

    // Burn A explicitly: its subscriptions must unwind, B's must survive.
    sim.with_proc(3, |stack, ctx| {
        stack.with_api(ctx, |api, _| api.signal_failure(id_a))
    });
    sim.run_for(SimDuration::from_secs(60));
    for p in 0..16u32 {
        let s = sim.proc(p).unwrap();
        for peer in s.fuse.subscriptions().peers() {
            assert!(
                !s.fuse.subscriptions().is_subscribed(peer, id_a),
                "node {p} still subscribed for burned group A"
            );
        }
    }
    assert!(
        (0..16u32).any(|p| !sim.proc(p).unwrap().fuse.subscriptions().is_empty()),
        "group B must still hold subscriptions"
    );
    assert_plane_consistent(&sim);

    // Burn B too: every registry and every detector must drain to empty.
    sim.with_proc(9, |stack, ctx| {
        stack.with_api(ctx, |api, _| api.signal_failure(id_b))
    });
    sim.run_for(SimDuration::from_secs(60));
    for p in 0..16u32 {
        let s = sim.proc(p).unwrap();
        assert!(
            s.fuse.subscriptions().is_empty(),
            "node {p} must have no subscriptions left"
        );
        assert_eq!(
            s.fuse.detector().peer_count(),
            0,
            "node {p} must have stopped probing everyone"
        );
    }
}

/// The plane's load-bearing claim: probe traffic tracks the set of
/// monitored peers, not the number of groups monitoring them.
#[test]
fn probe_traffic_is_invariant_in_the_group_count() {
    let run = |groups: usize| {
        let medium = MuteMedium {
            inner: PerfectMedium::new(SimDuration::from_millis(25)),
            mute: ProcId::MAX,
            after: SimTime::ZERO,
            probes: 0,
        };
        let (mut sim, infos) = world_on(16, 45, OverlayConfig::default(), shared_cfg(), medium);
        sim.run_for(SimDuration::from_secs(5));
        for _ in 0..groups {
            create_group(&mut sim, &infos, 0, &[3, 6, 9]);
        }
        assert_plane_consistent(&sim);
        let tracked: Vec<Vec<ProcId>> = (0..16u32)
            .map(|p| sim.proc(p).unwrap().fuse.detector().peers())
            .collect();
        // Twenty probe periods, counted from after the last creation so
        // the longer setup of the ten-group world is not in the window.
        let before = sim.medium().probes;
        sim.run_for(SimDuration::from_secs(1200));
        (tracked, sim.medium().probes - before)
    };
    let (tracked_1, probes_1) = run(1);
    let (tracked_10, probes_10) = run(10);
    assert_eq!(
        tracked_1, tracked_10,
        "ten groups over the same members must monitor the same peers"
    );
    let pairs: u64 = tracked_1.iter().map(|t| t.len() as u64).sum();
    assert!(pairs > 0 && probes_1 >= 2 * 19 * pairs, "{probes_1}");
    // A probe and its ack per monitored pair per period; the two windows
    // start at different phases of the period, so allow one round of skew.
    assert!(
        probes_1.abs_diff(probes_10) <= 2 * pairs,
        "probe traffic moved with the group count: {probes_1} vs {probes_10}"
    );
}

/// Differential check in miniature: the same crash scenario produces the
/// same per-node notification outcome (count and reason) in both modes.
#[test]
fn shared_plane_matches_per_group_path_on_a_crash() {
    let run = |shared: bool| {
        let cfg = if shared {
            shared_cfg()
        } else {
            FuseConfig::default()
        };
        let (mut sim, infos) = world_with(24, 44, OverlayConfig::default(), cfg);
        sim.run_for(SimDuration::from_secs(5));
        let id = create_group(&mut sim, &infos, 0, &[4, 8, 15]);
        sim.crash(8);
        sim.run_for(SimDuration::from_secs(400));
        let outcome: Vec<(ProcId, Vec<NotifyReason>)> =
            (0..24u32).map(|n| (n, failures_of(&sim, n, id))).collect();
        outcome
    };
    let per_group = run(false);
    let shared = run(true);
    assert_eq!(
        per_group, shared,
        "both modes must notify the same nodes for the same reasons"
    );
    // And the scenario is not vacuous: survivors were notified.
    let notified: usize = per_group.iter().map(|(_, v)| v.len()).sum();
    assert_eq!(notified, 3, "root and both survivors hear the failure");
}
