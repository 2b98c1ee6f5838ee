//! Acceptance tests for the chaos explorer: an injected protocol
//! regression must be *caught* by the invariant checkers, *shrunk* to a
//! minimal script, and *replayed bit-identically* from its token — and the
//! honest protocol must survive the §3.5 content adversary.

use fuse_harness::chaos::{
    self, explore, ChaosConfig, ChaosOp, ChaosScript, ExploreParams, MsgClass, Phase,
};
use fuse_sim::SimDuration;

/// The injected regression: a member that asks its root for repair assumes
/// the answer will arrive — its give-up timer is pushed out to ~11 days, so
/// the §6.5 member-side self-notification path is effectively disabled.
/// (This is the runtime expression of "disabling the notification resend /
/// give-up on a silent root"; the honest default is 60 s.)
const BROKEN_MEMBER_GIVE_UP_S: u64 = 1_000_000;

fn noisy_script() -> ChaosScript {
    // Four phases of which exactly one (the disconnect) is load-bearing
    // for the regression; the rest is decoy noise the shrinker must strip.
    ChaosScript::new(vec![
        Phase {
            at: SimDuration::from_secs(3),
            op: ChaosOp::LinkLoss {
                from: 0,
                to: 2,
                pct: 30,
            },
        },
        Phase {
            at: SimDuration::from_secs(5),
            op: ChaosOp::AdversaryDrop {
                class: MsgClass::Reconcile,
            },
        },
        Phase {
            at: SimDuration::from_secs(8),
            op: ChaosOp::Disconnect { slot: 1 },
        },
        Phase {
            at: SimDuration::from_secs(20),
            op: ChaosOp::HealPartitions,
        },
    ])
}

fn broken_cfg() -> ChaosConfig {
    let mut cfg = ChaosConfig::new(3, 16, 2);
    cfg.member_repair_timeout_s = Some(BROKEN_MEMBER_GIVE_UP_S);
    cfg
}

#[test]
fn injected_regression_is_caught_shrunk_and_replayed_bit_identically() {
    let cfg = broken_cfg();
    let script = noisy_script();

    // 1. Caught: the run must violate the paper's invariants (the
    //    disconnected member never self-notifies and orphans its state).
    let report = chaos::run_script(&cfg, &script);
    assert!(
        !report.violations.is_empty(),
        "the injected regression must trip the invariant checkers"
    );
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.invariant == "exactly-once-agreement"),
        "the missing self-notification must surface as an agreement breach: {:?}",
        report.violations
    );
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.invariant == "no-orphan-state"),
        "the stuck member must surface as orphaned state: {:?}",
        report.violations
    );

    // 2. Shrunk: to at most 3 phases (this one reduces to the lone
    //    disconnect), still failing.
    let (shrunk, shrunk_report) = chaos::shrink(&cfg, &script);
    assert!(
        !shrunk_report.violations.is_empty(),
        "shrinking must preserve the failure"
    );
    assert!(
        shrunk.phases.len() <= 3,
        "shrunk script must have <= 3 phases, got {} ({})",
        shrunk.phases.len(),
        shrunk.to_text()
    );
    assert!(
        shrunk
            .phases
            .iter()
            .any(|p| matches!(p.op, ChaosOp::Disconnect { slot: 1 })),
        "the load-bearing disconnect must survive shrinking: {}",
        shrunk.to_text()
    );

    // 3. Replayable: the token round-trips exactly, and two independent
    //    replays reproduce the shrunk run bit-identically — same
    //    violations, same fingerprint, same event count, same clock.
    let token = chaos::format_token(&cfg, &shrunk);
    let (cfg2, script2) = chaos::parse_token(&token).expect("token parses");
    assert_eq!(script2, shrunk, "token must round-trip the script exactly");
    assert_eq!(cfg2.member_repair_timeout_s, cfg.member_repair_timeout_s);
    let replay_a = chaos::run_script(&cfg2, &script2);
    let replay_b = chaos::run_script(&cfg2, &script2);
    assert_eq!(replay_a, replay_b, "replays must be bit-identical");
    assert_eq!(
        replay_a, shrunk_report,
        "replay must reproduce the shrink-time failing trace"
    );
}

#[test]
fn honest_protocol_survives_the_same_script() {
    // The same noisy script under the honest config must pass — the catch
    // above is the regression, not harness over-sensitivity.
    let cfg = ChaosConfig::new(3, 16, 2);
    let report = chaos::run_script(&cfg, &noisy_script());
    assert!(
        report.violations.is_empty(),
        "honest protocol violated: {:?}",
        report.violations
    );
    assert!(report.burned, "the disconnect must still burn the group");
}

#[test]
fn content_adversary_cannot_defeat_the_guarantee() {
    // §3.5: "even an adversary dropping packets based on their content".
    // For each decoded type the adversary could target — liveness pings,
    // the routed envelopes carrying InstallChecking, hard notifications,
    // repair traffic — drop *every* such message forever, then crash a
    // member: every live participant must still hear exactly once, in
    // budget, with no orphaned state.
    for class in [
        MsgClass::Ping,
        MsgClass::InstallChecking,
        MsgClass::Hard,
        MsgClass::Repair,
    ] {
        let cfg = ChaosConfig::new(17, 16, 2);
        let script = ChaosScript::new(vec![
            Phase {
                at: SimDuration::from_secs(5),
                op: ChaosOp::AdversaryDrop { class },
            },
            Phase {
                at: SimDuration::from_secs(10),
                op: ChaosOp::Crash { slot: 1 },
            },
        ]);
        let report = chaos::run_script(&cfg, &script);
        assert!(
            report.violations.is_empty(),
            "adversary dropping {:?} defeated the guarantee: {:?}\nreplay: chaos replay '{}'",
            class,
            report.violations,
            chaos::format_token(&cfg, &script)
        );
        assert!(report.burned, "the crash must burn the group ({class:?})");
    }
}

#[test]
fn dropping_one_probe_flavor_never_burns_either_plane() {
    // §3.5 against the shared plane: an adversary dropping every direct
    // probe (but not the indirect relays) — or every indirect relay (but
    // not the direct probes) — must not burn a healthy group. The
    // surviving path keeps confirming liveness. The same scripts are
    // benign by construction, so the false-suspicion invariant is armed
    // and any notification at all is a violation. Both planes run: the
    // per-group plane ignores probes entirely, the shared plane must
    // route around the hole.
    for class in [MsgClass::ProbeDirect, MsgClass::ProbeIndirect] {
        for shared in [false, true] {
            let mut cfg = ChaosConfig::new(21, 16, 2);
            cfg.shared_plane = shared;
            // Past the detector's worst case (~110 s) with margin, but
            // not the full 480 s default — these runs never burn, so
            // they always run out the whole window.
            cfg.detection_budget = SimDuration::from_secs(240);
            let script = ChaosScript::new(vec![Phase {
                at: SimDuration::from_secs(5),
                op: ChaosOp::AdversaryDrop { class },
            }]);
            let report = chaos::run_script(&cfg, &script);
            assert!(
                report.violations.is_empty(),
                "dropping {class:?} (shared={shared}) violated: {:?}\nreplay: chaos replay '{}'",
                report.violations,
                chaos::format_token(&cfg, &script)
            );
            assert!(
                !report.burned,
                "dropping {class:?} (shared={shared}) must not burn a healthy group"
            );
            assert!(
                report.notified.iter().all(|&(_, n)| n == 0),
                "no participant may hear a notification ({class:?}, shared={shared})"
            );
        }
    }
}

/// A script muting *both* probe flavors from early on.
fn blind_detector_script(extra: Option<Phase>) -> ChaosScript {
    let mut phases = vec![
        Phase {
            at: SimDuration::from_secs(5),
            op: ChaosOp::AdversaryDrop {
                class: MsgClass::ProbeDirect,
            },
        },
        Phase {
            at: SimDuration::from_secs(6),
            op: ChaosOp::AdversaryDrop {
                class: MsgClass::ProbeIndirect,
            },
        },
    ];
    phases.extend(extra);
    ChaosScript::new(phases)
}

#[test]
fn blind_shared_detector_churns_repair_but_never_burns_live_members() {
    // With both probe flavors muted the shared detector is completely
    // blind: every round ends in suspicion and every suspicion ends in a
    // `Dead` verdict against a peer that is actually alive. Each false
    // kill rides the ordinary teardown cascade — and the cascade's next
    // stop is *repair*, whose RPCs still flow. Live members answer, the
    // tree reinstalls, and the cycle repeats. The group must NOT burn:
    // repair is the paper's mechanism for keeping a lying failure
    // detector from manufacturing spurious notifications, and it absorbs
    // a blind one the same way. The per-group plane never sends probes,
    // so the same script is a no-op there — both planes agree on the
    // application-visible outcome (nothing happened).
    for shared in [false, true] {
        let mut cfg = ChaosConfig::new(23, 16, 2);
        cfg.shared_plane = shared;
        cfg.detection_budget = SimDuration::from_secs(240);
        let report = chaos::run_script(&cfg, &blind_detector_script(None));
        assert!(
            report.violations.is_empty(),
            "blind detector (shared={shared}) violated: {:?}",
            report.violations
        );
        assert!(
            !report.burned,
            "repair must absorb the blind kills (shared={shared})"
        );
        assert!(
            report.notified.iter().all(|&(_, n)| n == 0),
            "no spurious notification may escape (shared={shared}): {:?}",
            report.notified
        );
    }
}

#[test]
fn blind_detector_churn_is_real_kills_absorbed_by_real_repairs() {
    // White-box companion to the no-burn test above: the quiet outcome
    // must be the repair loop absorbing real `Dead` verdicts, not the
    // probes quietly surviving the drop rules. Drive a shared-plane
    // world with both probe flavors muted and watch the root's counters:
    // peers die, repairs start, repairs succeed, nobody gets notified.
    use fuse_harness::World;
    let mut p = fuse_harness::WorldParams::new(16, 23, fuse_net::NetConfig::simulator());
    p.topo.n_as = 24;
    p.fuse.shared_plane = true;
    let mut world = World::build(&p);
    world.run(SimDuration::from_secs(2));
    let (created, _) = world.create_group_blocking(0, &[5, 10]);
    created.expect("group creation must succeed before faults");
    world.run(SimDuration::from_secs(5));
    world.fault_mut().drop_class("overlay.probe-direct");
    world.fault_mut().drop_class("overlay.probe-indirect");
    world.run(SimDuration::from_secs(300));
    let stats = world.sim.proc(0).expect("root up").fuse.stats();
    assert!(
        stats.peer_deaths > 0,
        "the blind detector must actually issue Dead verdicts"
    );
    assert!(
        stats.repairs_started > 0,
        "each false kill must kick a repair round"
    );
    assert_eq!(
        stats.repairs_failed, 0,
        "live members answer every repair round"
    );
    assert_eq!(
        stats.notifications, 0,
        "no spurious notification reaches the application"
    );
}

#[test]
fn blind_shared_detector_still_detects_a_real_crash() {
    // Blindness must not cost the guarantee: with both probe flavors
    // still muted, a member that *really* crashes cannot answer repair
    // (and direct sends to it break), so both planes burn the group and
    // every live participant hears exactly once, in budget, with no
    // orphaned state — §3.5's content adversary loses even against the
    // shared plane's own transport.
    let crash = Phase {
        at: SimDuration::from_secs(10),
        op: ChaosOp::Crash { slot: 1 },
    };
    for shared in [false, true] {
        let mut cfg = ChaosConfig::new(23, 16, 2);
        cfg.shared_plane = shared;
        let report = chaos::run_script(&cfg, &blind_detector_script(Some(crash)));
        assert!(
            report.violations.is_empty(),
            "crash under a blind detector (shared={shared}) violated: {:?}",
            report.violations
        );
        assert!(report.burned, "the crash must burn (shared={shared})");
    }
}

#[test]
fn plane_burn_outcomes_match_on_a_crash_script() {
    // The differential contract behind `chaos crosscheck`:
    // for a fault that genuinely kills a participant, both planes must
    // agree on the application-visible outcome — who burned, who heard
    // how many notifications, and for which reasons. (Fingerprints are
    // excluded by design: the planes exchange different wire traffic.)
    let script = ChaosScript::new(vec![Phase {
        at: SimDuration::from_secs(10),
        op: ChaosOp::Crash { slot: 1 },
    }]);
    let pergroup_cfg = ChaosConfig::new(29, 16, 2);
    let mut shared_cfg = ChaosConfig::new(29, 16, 2);
    shared_cfg.shared_plane = true;
    let pergroup = chaos::run_script(&pergroup_cfg, &script);
    let shared = chaos::run_script(&shared_cfg, &script);
    assert!(pergroup.violations.is_empty(), "{:?}", pergroup.violations);
    assert!(shared.violations.is_empty(), "{:?}", shared.violations);
    assert_eq!(
        pergroup.burn_outcome(),
        shared.burn_outcome(),
        "planes must agree on the application-visible outcome"
    );
    assert!(pergroup.burned);
}

#[test]
fn exploration_is_deterministic_and_regression_aware() {
    // The explorer is a pure function of its params: the same exploration
    // twice visits identical traces...
    let params = ExploreParams::new(100, 4);
    let mut fp_a = Vec::new();
    let mut fp_b = Vec::new();
    let a = explore(&params, |_, r| fp_a.push(r.fingerprint));
    let b = explore(&params, |_, r| fp_b.push(r.fingerprint));
    assert!(a.is_ok() && b.is_ok(), "honest exploration must run clean");
    assert_eq!(fp_a, fp_b, "exploration must be deterministic");

    // ...and with the regression knob forwarded, it finds, shrinks and
    // tokenizes a failure whose token replays to the same violations.
    let mut broken = ExploreParams::new(100, 30);
    broken.n = 16;
    broken.group_size = Some(2);
    broken.member_repair_timeout_s = Some(BROKEN_MEMBER_GIVE_UP_S);
    let fail = explore(&broken, |_, _| {}).expect_err("regression must be found");
    assert!(!fail.shrunk_report.violations.is_empty());
    assert!(fail.shrunk_phases <= 3, "token: {}", fail.shrunk_token);
    let (cfg, script) = chaos::parse_token(&fail.shrunk_token).expect("token parses");
    let replay = chaos::run_script(&cfg, &script);
    assert_eq!(
        replay, fail.shrunk_report,
        "the explorer's token must reproduce its own failing trace"
    );
}
