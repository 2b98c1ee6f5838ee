//! Negative-path matrix for [`FuseConfig::builder`]: one test per
//! [`ConfigError`] variant, the zero-duration check over *every* validated
//! field, the documented validation precedence, and a proptest showing
//! that any configuration the builder accepts re-validates when fed back
//! through the builder (validation is a fixpoint, not a one-shot filter).

use fuse_core::{ConfigError, FuseConfig};
use fuse_util::Duration;
use proptest::prelude::*;

const Z: Duration = Duration::ZERO;

fn secs(s: u64) -> Duration {
    Duration::from_secs(s)
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
    let cases: [(&dyn Fn() -> Result<FuseConfig, ConfigError>, &str); 3] = [
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
    // `>=` (unlike the inversion above): equality is already broken,
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
fn zero_durations_are_reported_before_inversions() {
    // A config that is simultaneously zero-duration AND window-inverted
    // AND grace-inverted: the zero must win, in field-declaration order.
    let err = FuseConfig::builder()
        .root_repair_timeout(Z)
        .link_failure_timeout(Z)
        .member_repair_timeout(secs(500))
        .reconcile_grace(secs(100))
        .build();
    assert_eq!(err, Err(ConfigError::ZeroDuration("root_repair_timeout")));
    // With the zeros fixed, the first inversion in validation order
    // (repair window) surfaces next.
    let err = FuseConfig::builder()
        .member_repair_timeout(secs(500))
        .reconcile_grace(secs(100))
        .build();
    assert_eq!(err, Err(ConfigError::RepairWindowInverted));
}

/// Any duration in [0, 200] seconds — zero included, so the strategy
/// exercises rejection paths too.
fn arb_secs() -> impl Strategy<Value = Duration> {
    (0u64..=200).prop_map(Duration::from_secs)
}

proptest! {
    /// Round-trip fixpoint: whenever a random assembly builds, feeding
    /// every field of the result back through the builder builds again
    /// and reproduces the identical config.
    #[test]
    fn accepted_configs_revalidate_identically(
        member in arb_secs(),
        root in arb_secs(),
        link in arb_secs(),
        grace in arb_secs(),
    ) {
        let attempt = FuseConfig::builder()
            .member_repair_timeout(member)
            .root_repair_timeout(root)
            .link_failure_timeout(link)
            .reconcile_grace(grace)
            .build();
        if let Ok(cfg) = attempt {
            // Spot-check the invariants the builder claims to enforce.
            prop_assert!(cfg.member_repair_timeout <= cfg.root_repair_timeout);
            prop_assert!(cfg.reconcile_grace < cfg.link_failure_timeout);
            // Fixpoint: the accepted config re-validates byte-for-byte.
            let again = FuseConfig::builder()
                .member_repair_timeout(cfg.member_repair_timeout)
                .root_repair_timeout(cfg.root_repair_timeout)
                .link_failure_timeout(cfg.link_failure_timeout)
                .reconcile_grace(cfg.reconcile_grace)
                .build();
            prop_assert_eq!(again, Ok(cfg));
        }
    }
}
