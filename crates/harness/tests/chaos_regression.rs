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
fn benign_script_arms_false_suspicion_and_never_burns() {
    // A script that only clears an adversary that was never installed and
    // heals partitions that never existed is benign by construction, so
    // the false-suspicion invariant is armed: any notification at all,
    // over a window several liveness timeouts long, is a violation.
    let mut cfg = ChaosConfig::new(21, 16, 2);
    cfg.detection_budget = SimDuration::from_secs(240);
    let script = ChaosScript::new(vec![
        Phase {
            at: SimDuration::from_secs(5),
            op: ChaosOp::AdversaryClear,
        },
        Phase {
            at: SimDuration::from_secs(6),
            op: ChaosOp::HealPartitions,
        },
    ]);
    let report = chaos::run_script(&cfg, &script);
    assert!(
        report.violations.is_empty(),
        "a benign script violated: {:?}\nreplay: chaos replay '{}'",
        report.violations,
        chaos::format_token(&cfg, &script)
    );
    assert!(!report.burned, "a benign script must not burn the group");
    assert!(
        report.notified.iter().all(|&(_, n)| n == 0),
        "no participant may hear a notification: {:?}",
        report.notified
    );
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
