//! Negative-path matrix for [`FuseConfig::builder`]: one test per
//! [`ConfigError`] variant, the zero-duration check over *every* validated
//! field, the documented validation precedence, and a proptest showing
//! that any configuration the builder accepts re-validates when fed back
//! through the builder (validation is a fixpoint, not a one-shot filter).

use fuse_core::{ConfigError, FuseConfig};
use fuse_liveness::LivenessConfig;
use fuse_util::Duration;
use proptest::prelude::*;

const Z: Duration = Duration::ZERO;

fn secs(s: u64) -> Duration {
    Duration::from_secs(s)
}

/// A valid shared-plane liveness tuning to perturb from.
fn live_ok() -> LivenessConfig {
    LivenessConfig::default()
}

#[test]
fn default_and_empty_builder_validate() {
    assert!(FuseConfig::builder().build().is_ok());
    // The builder starts from Default, so the two must agree.
    assert_eq!(
        FuseConfig::builder().build().unwrap(),
        FuseConfig::default()
    );
}

#[test]
fn every_base_duration_field_rejects_zero() {
    // (setter, reported field name) — one row per duration the base
    // validation loop walks, in its declared order.
    let cases: [(&dyn Fn() -> Result<FuseConfig, ConfigError>, &str); 7] = [
        (
            &|| FuseConfig::builder().create_timeout(Z).build(),
            "create_timeout",
        ),
        (
            &|| FuseConfig::builder().install_wait(Z).build(),
            "install_wait",
        ),
        (
            &|| FuseConfig::builder().member_repair_timeout(Z).build(),
            "member_repair_timeout",
        ),
        (
            &|| FuseConfig::builder().root_repair_timeout(Z).build(),
            "root_repair_timeout",
        ),
        (
            &|| FuseConfig::builder().link_failure_timeout(Z).build(),
            "link_failure_timeout",
        ),
        (
            &|| FuseConfig::builder().repair_backoff_base(Z).build(),
            "repair_backoff_base",
        ),
        (
            &|| FuseConfig::builder().repair_backoff_cap(Z).build(),
            "repair_backoff_cap",
        ),
    ];
    for (build, field) in cases {
        assert_eq!(
            build(),
            Err(ConfigError::ZeroDuration(field)),
            "zeroing {field} must name that field"
        );
    }
}

#[test]
fn every_liveness_duration_rejects_zero_under_shared_plane() {
    let fields: [(&dyn Fn(&mut LivenessConfig), &str); 4] = [
        (&|l| l.probe_period = Z, "liveness.probe_period"),
        (&|l| l.probe_timeout = Z, "liveness.probe_timeout"),
        (&|l| l.indirect_timeout = Z, "liveness.indirect_timeout"),
        (&|l| l.suspect_timeout = Z, "liveness.suspect_timeout"),
    ];
    for (zero, name) in fields {
        let mut l = live_ok();
        zero(&mut l);
        let shared = FuseConfig::builder()
            .shared_plane(true)
            .liveness(l.clone())
            .build();
        assert_eq!(
            shared,
            Err(ConfigError::ZeroDuration(name)),
            "shared-plane mode must validate {name}"
        );
        // The same broken tuning is *accepted* without the shared plane:
        // the per-group deadline mode never reads it.
        let private = FuseConfig::builder().liveness(l).build();
        assert!(
            private.is_ok(),
            "{name} is dead config off the shared plane"
        );
    }
}

#[test]
fn backoff_inversion_is_rejected_and_equality_allowed() {
    let err = FuseConfig::builder()
        .repair_backoff_base(secs(41))
        .repair_backoff_cap(secs(40))
        .build();
    assert_eq!(err, Err(ConfigError::BackoffInverted));
    let eq = FuseConfig::builder()
        .repair_backoff_base(secs(40))
        .repair_backoff_cap(secs(40))
        .build();
    assert!(
        eq.is_ok(),
        "base == cap degenerates to constant backoff, legal"
    );
}

#[test]
fn repair_window_inversion_is_rejected_and_equality_allowed() {
    let err = FuseConfig::builder()
        .member_repair_timeout(secs(121))
        .root_repair_timeout(secs(120))
        .build();
    assert_eq!(err, Err(ConfigError::RepairWindowInverted));
    let eq = FuseConfig::builder()
        .member_repair_timeout(secs(120))
        .root_repair_timeout(secs(120))
        .build();
    assert!(eq.is_ok(), "member == root window is legal");
}

#[test]
fn grace_must_stay_strictly_below_link_timeout() {
    // `>=` (unlike the two inversions above): equality is already broken,
    // because a fresh tree would be reconcile-immune for its whole
    // liveness window.
    let eq = FuseConfig::builder()
        .reconcile_grace(secs(90))
        .link_failure_timeout(secs(90))
        .build();
    assert_eq!(eq, Err(ConfigError::GraceExceedsLinkTimeout));
    let above = FuseConfig::builder()
        .reconcile_grace(secs(91))
        .link_failure_timeout(secs(90))
        .build();
    assert_eq!(above, Err(ConfigError::GraceExceedsLinkTimeout));
    let below = FuseConfig::builder()
        .reconcile_grace(secs(89))
        .link_failure_timeout(secs(90))
        .build();
    assert!(below.is_ok());
}

#[test]
fn shared_plane_requires_indirect_relays() {
    let mut l = live_ok();
    l.k_indirect = 0;
    let err = FuseConfig::builder()
        .shared_plane(true)
        .liveness(l.clone())
        .build();
    assert_eq!(err, Err(ConfigError::NoIndirectRelays));
    assert!(
        FuseConfig::builder().liveness(l).build().is_ok(),
        "k_indirect is unread without the shared plane"
    );
}

#[test]
fn shared_plane_probe_timeout_must_beat_probe_period() {
    let mut l = live_ok();
    l.probe_timeout = l.probe_period;
    let err = FuseConfig::builder().shared_plane(true).liveness(l).build();
    assert_eq!(err, Err(ConfigError::ProbeTimeoutExceedsPeriod));
    let mut l = live_ok();
    l.probe_timeout = secs(61);
    l.probe_period = secs(60);
    let err = FuseConfig::builder().shared_plane(true).liveness(l).build();
    assert_eq!(err, Err(ConfigError::ProbeTimeoutExceedsPeriod));
}

#[test]
fn zero_durations_are_reported_before_inversions() {
    // A config that is simultaneously zero-duration AND backoff-inverted
    // AND window-inverted: the zero must win, in field-declaration order.
    let err = FuseConfig::builder()
        .create_timeout(Z)
        .repair_backoff_base(secs(100))
        .repair_backoff_cap(secs(1))
        .member_repair_timeout(secs(500))
        .build();
    assert_eq!(err, Err(ConfigError::ZeroDuration("create_timeout")));
    // With the zero fixed, the first inversion in validation order
    // (backoff) surfaces next.
    let err = FuseConfig::builder()
        .repair_backoff_base(secs(100))
        .repair_backoff_cap(secs(1))
        .member_repair_timeout(secs(500))
        .build();
    assert_eq!(err, Err(ConfigError::BackoffInverted));
}

/// Any duration in [0, 200] seconds — zero included, so the strategy
/// exercises rejection paths too.
fn arb_secs() -> impl Strategy<Value = Duration> {
    (0u64..=200).prop_map(Duration::from_secs)
}

type BaseDurations = (
    Duration,
    Duration,
    Duration,
    Duration,
    Duration,
    Duration,
    Duration,
    Duration,
);

/// The eight builder durations as one strategy (the vendored proptest
/// macro caps parameter tuples at arity 10).
fn arb_base() -> impl Strategy<Value = BaseDurations> {
    (
        arb_secs(),
        arb_secs(),
        arb_secs(),
        arb_secs(),
        arb_secs(),
        arb_secs(),
        arb_secs(),
        arb_secs(),
    )
}

proptest! {
    /// Round-trip fixpoint: whenever a random assembly builds, feeding
    /// every field of the result back through the builder builds again
    /// and reproduces the identical config.
    #[test]
    fn accepted_configs_revalidate_identically(
        base8 in arb_base(),
        shared in any::<bool>(),
        probe_period in arb_secs(),
        probe_timeout in arb_secs(),
        k_indirect in 0usize..4,
    ) {
        let (create, install, member, root, link, grace, base, cap) = base8;
        let mut l = live_ok();
        l.probe_period = probe_period;
        l.probe_timeout = probe_timeout;
        l.k_indirect = k_indirect;
        let attempt = FuseConfig::builder()
            .create_timeout(create)
            .install_wait(install)
            .member_repair_timeout(member)
            .root_repair_timeout(root)
            .link_failure_timeout(link)
            .reconcile_grace(grace)
            .repair_backoff_base(base)
            .repair_backoff_cap(cap)
            .shared_plane(shared)
            .liveness(l)
            .build();
        if let Ok(cfg) = attempt {
            // Spot-check the invariants the builder claims to enforce.
            prop_assert!(cfg.repair_backoff_base <= cfg.repair_backoff_cap);
            prop_assert!(cfg.member_repair_timeout <= cfg.root_repair_timeout);
            prop_assert!(cfg.reconcile_grace < cfg.link_failure_timeout);
            if cfg.shared_plane {
                prop_assert!(cfg.liveness.k_indirect > 0);
                prop_assert!(cfg.liveness.probe_timeout < cfg.liveness.probe_period);
            }
            // Fixpoint: the accepted config re-validates byte-for-byte.
            let again = FuseConfig::builder()
                .create_timeout(cfg.create_timeout)
                .install_wait(cfg.install_wait)
                .member_repair_timeout(cfg.member_repair_timeout)
                .root_repair_timeout(cfg.root_repair_timeout)
                .link_failure_timeout(cfg.link_failure_timeout)
                .reconcile_grace(cfg.reconcile_grace)
                .repair_backoff_base(cfg.repair_backoff_base)
                .repair_backoff_cap(cfg.repair_backoff_cap)
                .shared_plane(cfg.shared_plane)
                .liveness(cfg.liveness.clone())
                .build();
            prop_assert_eq!(again, Ok(cfg));
        }
    }
}
