//! One scenario per [`NotifyReason`] variant: the typed notification API
//! must classify *why* each group failed, at the root and at the members.
//!
//! | scenario                         | expected cause                    |
//! |----------------------------------|-----------------------------------|
//! | member calls `signal_failure`    | `ExplicitSignal` everywhere       |
//! | member dead at creation          | `CreateFailed` on installed state |
//! | member partitioned away          | `LivenessExpired` on the minority |
//! | member restarts with fresh state | `RepairFailed` on survivors       |
//! | `group_send` over a broken path  | `ConnectionBroken` everywhere     |
//! | register on a ghost group        | `UnknownGroup`, role `Observer`   |

mod common;

use bytes::Bytes;
use common::{assert_no_orphans, create, notifications, world};
use fuse_core::{FuseEvent, FuseId, NotifyReason, Role};
use fuse_overlay::{build_oracle_tables, NodeInfo, OverlayConfig};
use fuse_sim::{ProcId, SimDuration};

/// The single notification observed at `node`, with its reason and role.
fn sole_reason(sim: &common::World, node: ProcId, id: FuseId) -> (NotifyReason, Role) {
    let notes = notifications(sim, node, id);
    assert_eq!(notes.len(), 1, "node {node} must hear exactly once");
    (notes[0].1.reason, notes[0].1.role)
}

#[test]
fn explicit_signal_observed_at_root_and_members() {
    let (mut sim, infos) = world(24, 41);
    let id = create(&mut sim, &infos, 0, &[4, 8]);
    sim.run_for(SimDuration::from_secs(5));
    sim.with_proc(4, |stack, ctx| {
        stack.with_api(ctx, |api, _| api.signal_failure(id))
    });
    sim.run_for(SimDuration::from_secs(30));
    assert_eq!(
        sole_reason(&sim, 0, id),
        (NotifyReason::ExplicitSignal, Role::Root)
    );
    for m in [4u32, 8] {
        assert_eq!(
            sole_reason(&sim, m, id),
            (NotifyReason::ExplicitSignal, Role::Member),
            "member {m}"
        );
    }
    assert_no_orphans(&sim, id);
}

#[test]
fn failed_creation_burns_installed_members_with_create_failed() {
    let (mut sim, infos) = world(16, 42);
    sim.crash(7);
    let others: Vec<NodeInfo> = [3u32, 7].iter().map(|&m| infos[m as usize]).collect();
    let ticket = sim
        .with_proc(0, |stack, ctx| {
            stack.with_api(ctx, |api, _| api.create_group(others))
        })
        .expect("root alive");
    let id = ticket.id();
    sim.run_for(SimDuration::from_secs(60));
    // The root observes the creation error, not a notification (it never
    // held group state).
    let root_err = sim.proc(0).unwrap().app.events.iter().any(
        |(_, ev)| matches!(ev, FuseEvent::Created { ticket: t, result: Err(_) } if *t == ticket),
    );
    assert!(root_err, "root must see the creation failure");
    assert!(
        notifications(&sim, 0, id).is_empty(),
        "no root notification"
    );
    // The live member briefly installed state; it burns with the real cause.
    assert_eq!(
        sole_reason(&sim, 3, id),
        (NotifyReason::CreateFailed, Role::Member)
    );
    assert_no_orphans(&sim, id);
}

#[test]
fn partitioned_member_gives_up_with_liveness_expired() {
    let (mut sim, infos) = world(24, 43);
    let id = create(&mut sim, &infos, 0, &[4, 8]);
    sim.run_for(SimDuration::from_secs(30));
    // Node 4 alone on the minority side: its NeedRepair cannot reach the
    // root, so its member repair wait (60 s) expires — the liveness path.
    sim.medium_mut().fault_mut().set_partition(4, 1);
    sim.run_for(SimDuration::from_secs(400));
    assert_eq!(
        sole_reason(&sim, 4, id),
        (NotifyReason::LivenessExpired, Role::Member),
        "the isolated member's own repair wait must expire"
    );
    // The majority side observes broken connections or a failed repair
    // round toward the unreachable member — never an explicit signal.
    for m in [0u32, 8] {
        let (reason, _) = sole_reason(&sim, m, id);
        assert!(
            matches!(
                reason,
                NotifyReason::ConnectionBroken | NotifyReason::RepairFailed
            ),
            "node {m} observed {reason}"
        );
    }
    assert_no_orphans(&sim, id);
}

#[test]
fn member_that_lost_state_fails_repair_with_repair_failed() {
    let (mut sim, infos) = world(24, 44);
    let id = create(&mut sim, &infos, 0, &[4, 8]);
    sim.run_for(SimDuration::from_secs(5));
    // Crash and immediately restart node 4 with fresh state (no stable
    // storage, §3.6): reconciliation notices, repair reaches a member that
    // no longer knows the group, and the round fails.
    sim.crash(4);
    let ov_cfg = OverlayConfig::default();
    let tables = build_oracle_tables(&infos, &ov_cfg);
    let mut stack = fuse_simdriver::NodeStack::new(
        infos[4],
        None,
        ov_cfg,
        fuse_core::FuseConfig::default(),
        common::Rec::default(),
    );
    let (cw, ccw, rt) = tables[4].clone();
    stack.overlay.preload_tables(cw, ccw, rt);
    sim.restart(4, stack);
    sim.run_for(SimDuration::from_secs(400));
    assert_eq!(
        sole_reason(&sim, 0, id),
        (NotifyReason::RepairFailed, Role::Root)
    );
    assert_eq!(
        sole_reason(&sim, 8, id),
        (NotifyReason::RepairFailed, Role::Member)
    );
    // The restarted node never re-learned the group: no notification.
    assert!(notifications(&sim, 4, id).is_empty());
    assert_no_orphans(&sim, id);
}

#[test]
fn broken_group_send_is_connection_broken_everywhere() {
    let (mut sim, infos) = world(24, 45);
    let (a, c) = (3u32, 9u32);
    let id = create(&mut sim, &infos, 0, &[a, c]);
    sim.run_for(SimDuration::from_secs(10));
    sim.medium_mut().fault_mut().add_blackhole(a, c);
    // Fail-on-send (§3.4), now core API: the broken delivery itself burns
    // the group once TCP gives up.
    sim.with_proc(a, |stack, ctx| {
        stack.with_api(ctx, |api, _| {
            assert!(api.group_send(id, c, Bytes::from_static(b"payload")));
        })
    });
    sim.run_for(SimDuration::from_secs(150));
    assert_eq!(
        sole_reason(&sim, 0, id),
        (NotifyReason::ConnectionBroken, Role::Root)
    );
    for m in [a, c] {
        assert_eq!(
            sole_reason(&sim, m, id),
            (NotifyReason::ConnectionBroken, Role::Member),
            "member {m}"
        );
    }
    assert_no_orphans(&sim, id);
}

#[test]
fn register_on_unknown_group_fires_unknown_group_with_context() {
    let (mut sim, _infos) = world(8, 46);
    let ghost = FuseId(0xfeed_beef);
    sim.with_proc(5, |stack, ctx| {
        stack.with_api(ctx, |api, _| api.register_handler(ghost, 4242))
    });
    sim.run_for(SimDuration::from_millis(50));
    let notes = notifications(&sim, 5, ghost);
    assert_eq!(notes.len(), 1);
    assert_eq!(notes[0].1.reason, NotifyReason::UnknownGroup);
    assert_eq!(notes[0].1.role, Role::Observer);
    assert_eq!(notes[0].1.ctx, Some(4242), "registered context echoed");
}

/// The piggyback-digest cache (SHA-1 off the per-ping path) stays equal to
/// a fresh recomputation through creation, steady state and failure.
#[test]
fn digest_cache_consistent_across_group_lifecycle() {
    let (mut sim, infos) = world(16, 47);
    let id = create(&mut sim, &infos, 0, &[4, 8, 12]);
    for _ in 0..4 {
        sim.run_for(SimDuration::from_secs(45));
        for p in 0..sim.process_count() as ProcId {
            if let Some(s) = sim.proc(p) {
                assert!(s.fuse.hash_cache_consistent(), "node {p} cache diverged");
            }
        }
    }
    sim.with_proc(4, |stack, ctx| {
        stack.with_api(ctx, |api, _| api.signal_failure(id))
    });
    sim.run_for(SimDuration::from_secs(60));
    for p in 0..sim.process_count() as ProcId {
        if let Some(s) = sim.proc(p) {
            assert!(s.fuse.hash_cache_consistent(), "node {p} after failure");
        }
    }
}
