//! Full-stack integration tests: overlay + FUSE + application over the
//! deterministic kernel with a perfect medium.
//!
//! These tests exercise the paper's semantics end to end: blocking create,
//! explicit signal, crash detection through shared liveness pings, repair,
//! exactly-once notification, and the no-orphaned-state guarantee.

use bytes::Bytes;
use rand::rngs::StdRng;

use fuse_core::{CreateError, FuseApi, FuseApp, FuseConfig, FuseEvent, FuseId, NotifyReason, Role};
use fuse_overlay::{build_oracle_tables, NodeInfo, NodeName, OverlayConfig};
use fuse_sim::{Medium, PerfectMedium, ProcId, Sim, SimDuration, SimTime, Verdict};
use fuse_simdriver::NodeStack;

/// Records every FUSE event with its arrival time.
#[derive(Default)]
struct Recorder {
    events: Vec<(SimTime, FuseEvent)>,
    app_msgs: Vec<(ProcId, Bytes)>,
}

impl FuseApp for Recorder {
    fn on_fuse_event(&mut self, api: &mut FuseApi<'_>, ev: FuseEvent) {
        self.events.push((api.now(), ev));
    }

    fn on_app_message(&mut self, api: &mut FuseApi<'_>, from: ProcId, payload: Bytes) {
        let _ = api;
        self.app_msgs.push((from, payload));
    }
}

type World<M = PerfectMedium> = Sim<NodeStack<Recorder>, M>;

/// Silently black-holes all traffic to and from one node once `after` is
/// reached — a silent partition, unlike a crash, produces no sender-side
/// connection-break notices, so only timeout-driven detection can see it.
struct MuteMedium {
    inner: PerfectMedium,
    mute: ProcId,
    after: SimTime,
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

/// Builds an `n`-node world with converged (oracle) overlay tables.
fn world(n: usize, seed: u64) -> (World, Vec<NodeInfo>) {
    world_on(n, seed, PerfectMedium::new(SimDuration::from_millis(25)))
}

/// [`world`] over a caller-supplied medium.
fn world_on<M: Medium>(n: usize, seed: u64, medium: M) -> (World<M>, Vec<NodeInfo>) {
    let infos: Vec<NodeInfo> = (0..n)
        .map(|i| NodeInfo::new(i as ProcId, NodeName::numbered(i)))
        .collect();
    let ov_cfg = OverlayConfig::default();
    let tables = build_oracle_tables(&infos, &ov_cfg);
    let mut sim = Sim::new(seed, medium);
    for (info, (cw, ccw, rt)) in infos.iter().zip(tables) {
        let mut stack = NodeStack::new(
            *info,
            None,
            ov_cfg.clone(),
            FuseConfig::default(),
            Recorder::default(),
        );
        stack.overlay.preload_tables(cw, ccw, rt);
        sim.add_process(stack);
    }
    (sim, infos)
}

fn create_group<M: Medium>(
    sim: &mut World<M>,
    infos: &[NodeInfo],
    root: ProcId,
    members: &[ProcId],
) -> FuseId {
    let others: Vec<NodeInfo> = members.iter().map(|&m| infos[m as usize]).collect();
    let ticket = sim
        .with_proc(root, |stack, ctx| {
            stack.with_api(ctx, |api, _app| api.create_group(others))
        })
        .expect("root alive");
    // Let creation complete.
    sim.run_for(SimDuration::from_secs(2));
    let created = sim.proc(root).unwrap().app.events.iter().any(|(_, ev)| {
        matches!(ev, FuseEvent::Created { ticket: t, result: Ok(h) }
            if t.id() == ticket.id() && h.id == ticket.id() && h.role == Role::Root)
    });
    assert!(created, "creation must complete");
    ticket.id()
}

fn failures_of<M: Medium>(sim: &World<M>, node: ProcId, id: FuseId) -> Vec<SimTime> {
    sim.proc(node)
        .map(|s| {
            s.app
                .events
                .iter()
                .filter(|(_, ev)| matches!(ev.notification(), Some(n) if n.id == id))
                .map(|&(t, _)| t)
                .collect()
        })
        .unwrap_or_default()
}

/// No node in the world retains any state for `id`.
fn assert_no_orphans<M: Medium>(sim: &World<M>, id: FuseId) {
    for p in 0..sim.process_count() as ProcId {
        if let Some(s) = sim.proc(p) {
            assert!(
                !s.fuse.knows_group(id),
                "node {p} still holds state for {id}"
            );
        }
    }
}

#[test]
fn create_then_signal_notifies_all_members_exactly_once() {
    let (mut sim, infos) = world(24, 7);
    sim.run_for(SimDuration::from_secs(5));
    let members = [3, 9, 17];
    let id = create_group(&mut sim, &infos, 0, &members);

    // A random member signals failure explicitly.
    sim.with_proc(9, |stack, ctx| {
        stack.with_api(ctx, |api, _| api.signal_failure(id))
    });
    sim.run_for(SimDuration::from_secs(5));

    for node in [0u32, 3, 9, 17] {
        let f = failures_of(&sim, node, id);
        assert_eq!(f.len(), 1, "node {node} must hear exactly one failure");
    }
    assert_no_orphans(&sim, id);
}

#[test]
fn signaled_notification_is_fast() {
    let (mut sim, infos) = world(24, 8);
    sim.run_for(SimDuration::from_secs(5));
    let id = create_group(&mut sim, &infos, 0, &[5, 11]);
    let t0 = sim.now();
    sim.with_proc(5, |stack, ctx| {
        stack.with_api(ctx, |api, _| api.signal_failure(id))
    });
    sim.run_for(SimDuration::from_secs(2));
    for node in [0u32, 11] {
        let f = failures_of(&sim, node, id);
        assert_eq!(f.len(), 1);
        // Member → root → member: a few 25 ms one-way hops, well under 1 s.
        assert!(f[0].since(t0) < SimDuration::from_secs(1));
    }
}

#[test]
fn member_crash_notifies_survivors_within_detection_bound() {
    let (mut sim, infos) = world(24, 9);
    sim.run_for(SimDuration::from_secs(5));
    let id = create_group(&mut sim, &infos, 0, &[4, 8, 15]);
    let t0 = sim.now();
    sim.crash(8);
    // Bound: ping interval (60) + ping timeout (20) + repair round (120)
    // plus margin.
    sim.run_for(SimDuration::from_secs(300));
    for node in [0u32, 4, 15] {
        let f = failures_of(&sim, node, id);
        assert_eq!(f.len(), 1, "survivor {node} must be notified once");
        assert!(
            f[0].since(t0) < SimDuration::from_secs(240),
            "notification too slow: {:?}",
            f[0].since(t0)
        );
    }
    assert_no_orphans(&sim, id);
}

#[test]
fn root_crash_notifies_members() {
    let (mut sim, infos) = world(24, 10);
    sim.run_for(SimDuration::from_secs(5));
    let id = create_group(&mut sim, &infos, 2, &[6, 13]);
    sim.crash(2);
    sim.run_for(SimDuration::from_secs(300));
    for node in [6u32, 13] {
        assert_eq!(failures_of(&sim, node, id).len(), 1, "member {node}");
    }
    assert_no_orphans(&sim, id);
}

#[test]
fn no_false_positives_in_quiet_network() {
    let (mut sim, infos) = world(24, 11);
    sim.run_for(SimDuration::from_secs(5));
    let mut ids = Vec::new();
    for root in [0u32, 1, 2, 3] {
        let members = [(root + 5) % 24, (root + 10) % 24, (root + 15) % 24];
        ids.push(create_group(&mut sim, &infos, root, &members));
    }
    // 20 quiet minutes: several ping periods and link-expiry windows.
    sim.run_for(SimDuration::from_secs(1200));
    for (i, &id) in ids.iter().enumerate() {
        for node in 0..24u32 {
            assert!(
                failures_of(&sim, node, id).is_empty(),
                "false positive for group {i} on node {node}"
            );
        }
    }
}

#[test]
fn silently_partitioned_peer_burns_exactly_the_subscribed_groups() {
    // The partition is silent (no connection-break notices): the ping
    // timeout and the per-peer liveness deadline are the only ways to see
    // it.
    let medium = MuteMedium {
        inner: PerfectMedium::new(SimDuration::from_millis(25)),
        mute: 8,
        after: SimTime::ZERO + SimDuration::from_secs(20),
    };
    let (mut sim, infos) = world_on(24, 42, medium);
    sim.run_for(SimDuration::from_secs(5));
    // Group A monitors node 8; group B lives on disjoint nodes.
    let id_a = create_group(&mut sim, &infos, 0, &[4, 8]);
    let id_b = create_group(&mut sim, &infos, 1, &[5, 9]);
    // Past the mute point, detection, the failed repair round and the
    // partitioned member's own give-up.
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
            "group B does not monitor node 8 and must not burn (node {node})"
        );
    }
    assert_no_orphans(&sim, id_a);
}

#[test]
fn group_churn_registers_and_unregisters_peers() {
    let (mut sim, infos) = world(16, 43);
    sim.run_for(SimDuration::from_secs(5));
    let id_a = create_group(&mut sim, &infos, 0, &[3, 6]);
    let id_b = create_group(&mut sim, &infos, 0, &[3, 9]);
    // Every record names exactly the groups linked to its peer.
    let assert_consistent = |sim: &World| {
        for p in 0..16u32 {
            let s = sim.proc(p).unwrap();
            assert!(s.fuse.hash_cache_consistent(), "node {p}");
        }
    };
    assert_consistent(&sim);
    let total_subs: usize = (0..16u32)
        .map(|p| {
            let fuse = &sim.proc(p).unwrap().fuse;
            let peers = fuse.watched_peers().into_iter();
            peers
                .map(|peer| fuse.link_groups(peer).len())
                .sum::<usize>()
        })
        .sum();
    assert!(total_subs > 0, "live groups must hold subscriptions");

    // Burn A explicitly: its subscriptions must unwind, B's must survive.
    sim.with_proc(3, |stack, ctx| {
        stack.with_api(ctx, |api, _| api.signal_failure(id_a))
    });
    sim.run_for(SimDuration::from_secs(60));
    for p in 0..16u32 {
        let fuse = &sim.proc(p).unwrap().fuse;
        for peer in fuse.watched_peers() {
            assert!(
                !fuse.link_groups(peer).contains(&id_a),
                "node {p} still subscribed for burned group A"
            );
        }
    }
    assert!(
        (0..16u32).any(|p| !sim.proc(p).unwrap().fuse.watched_peers().is_empty()),
        "group B must still hold subscriptions"
    );
    assert_consistent(&sim);

    // Burn B too: every peer record must drain to empty.
    sim.with_proc(9, |stack, ctx| {
        stack.with_api(ctx, |api, _| api.signal_failure(id_b))
    });
    sim.run_for(SimDuration::from_secs(60));
    for p in 0..16u32 {
        let peers = sim.proc(p).unwrap().fuse.watched_peers();
        assert!(peers.is_empty(), "node {p} still watches a peer");
    }
    assert_consistent(&sim);
}

#[test]
fn register_handler_on_unknown_group_fires_immediately() {
    let (mut sim, _infos) = world(8, 12);
    sim.run_for(SimDuration::from_secs(2));
    let ghost = FuseId(0xdeadbeef);
    sim.with_proc(3, |stack, ctx| {
        stack.with_api(ctx, |api, _| api.register_handler(ghost, 9))
    });
    sim.run_for(SimDuration::from_millis(10));
    let events = &sim.proc(3).unwrap().app.events;
    let note = events
        .iter()
        .find_map(|(_, ev)| ev.notification().filter(|n| n.id == ghost))
        .expect("immediate callback");
    assert_eq!(note.reason, NotifyReason::UnknownGroup);
    assert_eq!(note.role, Role::Observer);
    assert_eq!(note.ctx, Some(9));
}

#[test]
fn create_with_dead_member_fails() {
    let (mut sim, infos) = world(16, 13);
    sim.run_for(SimDuration::from_secs(2));
    sim.crash(7);
    let others: Vec<NodeInfo> = [3u32, 7].iter().map(|&m| infos[m as usize]).collect();
    let ticket = sim
        .with_proc(0, |stack, ctx| {
            stack.with_api(ctx, |api, _| api.create_group(others))
        })
        .unwrap();
    sim.run_for(SimDuration::from_secs(60));
    let events = &sim.proc(0).unwrap().app.events;
    let failed = events.iter().any(|(_, ev)| {
        matches!(
            ev,
            FuseEvent::Created {
                ticket: t,
                result: Err(CreateError::MemberUnreachable | CreateError::ConnectionBroken)
            } if t.id() == ticket.id()
        )
    });
    assert!(
        failed,
        "creation against a dead member must fail: {events:?}"
    );
    // The contacted live member must not be left with orphaned state, and
    // the state it briefly installed burns with the create-failed cause.
    sim.run_for(SimDuration::from_secs(300));
    assert!(!sim.proc(3).unwrap().fuse.knows_group(ticket.id()));
    let member_events = &sim.proc(3).unwrap().app.events;
    let burned = member_events
        .iter()
        .find_map(|(_, ev)| ev.notification().filter(|n| n.id == ticket.id()));
    if let Some(n) = burned {
        assert_eq!(n.reason, NotifyReason::CreateFailed);
    }
}

/// Crashes `p` and restarts it at once with fresh state and converged
/// tables.
fn crash_and_restart(sim: &mut World, infos: &[NodeInfo], p: ProcId) {
    sim.crash(p);
    let ov_cfg = OverlayConfig::default();
    let tables = build_oracle_tables(infos, &ov_cfg);
    let mut stack = NodeStack::new(
        infos[p as usize],
        None,
        ov_cfg.clone(),
        FuseConfig::default(),
        Recorder::default(),
    );
    let (cw, ccw, rt) = tables[p as usize].clone();
    stack.overlay.preload_tables(cw, ccw, rt);
    sim.restart(p, stack);
}

/// A restarted node keeps no state, its id counter included, yet the
/// group it creates first in its new life does not take the id of the one
/// it created first in its last: a member still holding the old group
/// would take one for the other.
#[test]
fn a_restarted_root_creates_under_an_id_its_last_life_did_not_issue() {
    let (mut sim, infos) = world(24, 14);
    sim.run_for(SimDuration::from_secs(5));
    let old = create_group(&mut sim, &infos, 4, &[0, 8]);
    crash_and_restart(&mut sim, &infos, 4);
    sim.run_for(SimDuration::from_secs(1));
    let new = create_group(&mut sim, &infos, 4, &[0, 8]);
    assert_ne!(new, old, "the new life re-issued its last life's first id");
}

#[test]
fn crashed_and_restarted_member_groups_fail_via_reconciliation() {
    let (mut sim, infos) = world(24, 14);
    sim.run_for(SimDuration::from_secs(5));
    let id = create_group(&mut sim, &infos, 0, &[4, 8]);
    // Crash and immediately restart node 4 with fresh state (no stable
    // storage, §3.6): it forgets the group; reconciliation must burn it.
    crash_and_restart(&mut sim, &infos, 4);
    sim.run_for(SimDuration::from_secs(400));
    for node in [0u32, 8] {
        assert_eq!(
            failures_of(&sim, node, id).len(),
            1,
            "survivor {node} must learn of the forgotten group"
        );
    }
    assert_no_orphans(&sim, id);
}

#[test]
fn independent_groups_do_not_interfere() {
    let (mut sim, infos) = world(24, 15);
    sim.run_for(SimDuration::from_secs(5));
    // Two groups over the same nodes (§1: groups may span the same set).
    let id_a = create_group(&mut sim, &infos, 0, &[5, 10]);
    let id_b = create_group(&mut sim, &infos, 0, &[5, 10]);
    sim.with_proc(5, |stack, ctx| {
        stack.with_api(ctx, |api, _| api.signal_failure(id_a))
    });
    sim.run_for(SimDuration::from_secs(60));
    for node in [0u32, 5, 10] {
        assert_eq!(failures_of(&sim, node, id_a).len(), 1);
        assert!(
            failures_of(&sim, node, id_b).is_empty(),
            "group B must survive group A's failure"
        );
    }
    assert_no_orphans(&sim, id_a);
}

#[test]
fn deterministic_replay() {
    let run = |seed| {
        let (mut sim, infos) = world(16, seed);
        sim.run_for(SimDuration::from_secs(5));
        let id = create_group(&mut sim, &infos, 0, &[3, 6, 9]);
        sim.crash(6);
        sim.run_for(SimDuration::from_secs(400));
        let times: Vec<u64> = [0u32, 3, 9]
            .iter()
            .flat_map(|&n| failures_of(&sim, n, id))
            .map(|t| t.nanos())
            .collect();
        (sim.events_executed(), times)
    };
    assert_eq!(run(99), run(99));
    assert_ne!(run(99).1, Vec::<u64>::new());
}

/// The cached per-peer piggyback digest must equal a fresh SHA-1
/// recomputation at every point in a group's life: after creation (links
/// added), during steady state (ping refreshes must NOT touch the cache),
/// and after failures (links removed, cache entries dropped).
#[test]
fn piggyback_digest_cache_matches_recomputation() {
    let (mut sim, infos) = world(24, 17);
    sim.run_for(SimDuration::from_secs(5));
    let check_all = |sim: &World, when: &str| {
        for p in 0..sim.process_count() as ProcId {
            if let Some(s) = sim.proc(p) {
                assert!(
                    s.fuse.hash_cache_consistent(),
                    "node {p} digest cache diverged {when}"
                );
            }
        }
    };
    let id_a = create_group(&mut sim, &infos, 0, &[4, 9, 14]);
    let id_b = create_group(&mut sim, &infos, 2, &[9, 19]);
    check_all(&sim, "after creation");
    // Several ping periods: hash agreement refreshes must be pure lookups
    // that leave the cache exactly consistent.
    sim.run_for(SimDuration::from_secs(200));
    check_all(&sim, "at steady state");
    sim.with_proc(9, |stack, ctx| {
        stack.with_api(ctx, |api, _| api.signal_failure(id_a))
    });
    sim.run_for(SimDuration::from_secs(30));
    check_all(&sim, "after a signalled failure");
    sim.crash(19);
    sim.run_for(SimDuration::from_secs(300));
    check_all(&sim, "after a crash-driven failure");
    for node in [2u32, 9] {
        assert_eq!(failures_of(&sim, node, id_b).len(), 1, "node {node}");
    }
}

#[test]
fn app_messages_flow_between_stacks() {
    let (mut sim, _infos) = world(8, 16);
    sim.with_proc(0, |stack, ctx| {
        stack.with_api(ctx, |api, _| api.send_app(5, Bytes::from_static(b"hi")))
    });
    sim.run_for(SimDuration::from_secs(1));
    let msgs = &sim.proc(5).unwrap().app.app_msgs;
    assert_eq!(msgs.len(), 1);
    assert_eq!(&msgs[0].1[..], b"hi");
    assert_eq!(msgs[0].0, 0);
}
