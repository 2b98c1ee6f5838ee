//! Core FUSE types: identifiers, configuration, timers and the typed
//! client-facing event model (`CreateTicket` / `GroupHandle` /
//! [`FuseEvent`]).

use fuse_util::{Duration, Time};
use fuse_wire::{Decode, DecodeError, Encode, Reader, Writer};

/// A FUSE group identifier.
///
/// "Not bound to a process or machine" (§2): just a unique opaque token the
/// application can associate with any distributed state. Uniqueness comes
/// from mixing the creator's node tag with a local counter through a 64-bit
/// bijection (see `fuse_util::idgen`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuseId(pub u64);

impl Encode for FuseId {
    fn encode(&self, w: &mut dyn Writer) {
        self.0.encode(w);
    }

    fn size_hint(&self) -> usize {
        self.0.size_hint()
    }
}

impl Decode for FuseId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(FuseId(u64::decode(r)?))
    }
}

impl std::fmt::Display for FuseId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fuse:{:016x}", self.0)
    }
}

/// Root-side timeout for the blocking group creation attempt.
pub(crate) const CREATE_TIMEOUT: Duration = Duration::from_secs(10);

/// Root-side wait for the `InstallChecking`s a round still misses once its
/// replies are all in.
pub(crate) const INSTALL_WAIT: Duration = Duration::from_secs(30);

/// First-retry delay of the per-group repair backoff.
pub(crate) const REPAIR_BACKOFF_BASE: Duration = Duration::from_secs(1);

/// Cap of the per-group repair backoff (paper §6.5: 40 seconds).
pub(crate) const REPAIR_BACKOFF_CAP: Duration = Duration::from_secs(40);

// A capped exponential backoff must be able to emit its base delay.
const _: () = assert!(REPAIR_BACKOFF_BASE.0 <= REPAIR_BACKOFF_CAP.0);

/// FUSE's failure-detector timings, defaulting to the paper's constants;
/// the protocol's other periods are constants in this module.
///
/// Construct via [`FuseConfig::default`] or, for anything non-default,
/// through [`FuseConfig::builder`] — the builder is the only supported way
/// to assemble a custom configuration, and [`FuseConfigBuilder::build`]
/// validates the timer-period relationships before handing the config out. The struct is `#[non_exhaustive]`
/// precisely so downstream code cannot bypass that validation with a
/// struct literal. Field *reads* are unrestricted.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct FuseConfig {
    /// Member-side wait for the root to react to `NeedRepair` before
    /// declaring the group failed (paper §7.4: members time out after one
    /// minute with no repair response).
    pub member_repair_timeout: Duration,
    /// Root-side wait for repair replies before declaring the group failed
    /// (paper §7.4: the root times out after two minutes).
    pub root_repair_timeout: Duration,
    /// Per-(group, link) liveness deadline: the link expires when no
    /// matching piggyback hash refreshes it for this long. Set above ping
    /// period + ping timeout so the pinging side's 20 s timeout normally
    /// detects failures first.
    pub link_failure_timeout: Duration,
    /// Grace period before hash-mismatch reconciliation may tear down a
    /// freshly installed liveness tree (paper §6.3: 5 seconds).
    pub reconcile_grace: Duration,
}

impl Default for FuseConfig {
    fn default() -> Self {
        FuseConfig {
            member_repair_timeout: Duration::from_secs(60),
            root_repair_timeout: Duration::from_secs(120),
            link_failure_timeout: Duration::from_secs(90),
            reconcile_grace: Duration::from_secs(5),
        }
    }
}

impl FuseConfig {
    /// Starts a builder seeded with the paper's default constants.
    pub fn builder() -> FuseConfigBuilder {
        FuseConfigBuilder {
            cfg: FuseConfig::default(),
        }
    }
}

/// A rejected [`FuseConfigBuilder::build`]: which cross-field invariant the
/// requested configuration violates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// A duration that the protocol divides by or waits on was zero.
    ZeroDuration(&'static str),
    /// `member_repair_timeout` exceeds `root_repair_timeout`: members would
    /// give up on groups *after* the root has already declared them dead,
    /// making the member wait pure latency with no repair opportunity.
    RepairWindowInverted,
    /// `reconcile_grace` is not shorter than `link_failure_timeout`: a
    /// freshly installed tree would stay immune to reconciliation for
    /// longer than the liveness timer that protects it.
    GraceExceedsLinkTimeout,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroDuration(field) => write!(f, "{field} must be non-zero"),
            ConfigError::RepairWindowInverted => {
                f.write_str("member_repair_timeout must not exceed root_repair_timeout")
            }
            ConfigError::GraceExceedsLinkTimeout => {
                f.write_str("reconcile_grace must be shorter than link_failure_timeout")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Builder for [`FuseConfig`]: starts from the paper's defaults, lets each
/// knob be overridden, and [`build`](FuseConfigBuilder::build) checks the
/// cross-field invariants the protocol machinery assumes.
#[derive(Debug, Clone)]
pub struct FuseConfigBuilder {
    cfg: FuseConfig,
}

impl FuseConfigBuilder {
    /// Member-side wait for the root to react to `NeedRepair`.
    pub fn member_repair_timeout(mut self, d: Duration) -> Self {
        self.cfg.member_repair_timeout = d;
        self
    }

    /// Root-side wait for repair replies.
    pub fn root_repair_timeout(mut self, d: Duration) -> Self {
        self.cfg.root_repair_timeout = d;
        self
    }

    /// Per-(group, link) liveness expiry.
    pub fn link_failure_timeout(mut self, d: Duration) -> Self {
        self.cfg.link_failure_timeout = d;
        self
    }

    /// Grace period shielding freshly installed trees from reconciliation.
    pub fn reconcile_grace(mut self, d: Duration) -> Self {
        self.cfg.reconcile_grace = d;
        self
    }

    /// Validates the assembled configuration and returns it.
    pub fn build(self) -> Result<FuseConfig, ConfigError> {
        let c = &self.cfg;
        for (d, name) in [
            (c.member_repair_timeout, "member_repair_timeout"),
            (c.root_repair_timeout, "root_repair_timeout"),
            (c.link_failure_timeout, "link_failure_timeout"),
        ] {
            if d == Duration::ZERO {
                return Err(ConfigError::ZeroDuration(name));
            }
        }
        if c.member_repair_timeout > c.root_repair_timeout {
            return Err(ConfigError::RepairWindowInverted);
        }
        if c.reconcile_grace >= c.link_failure_timeout {
            return Err(ConfigError::GraceExceedsLinkTimeout);
        }
        Ok(self.cfg)
    }
}

/// Why a blocking group creation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CreateError {
    /// Some member did not answer within the creation timeout.
    MemberUnreachable,
    /// A member's transport connection broke during creation.
    ConnectionBroken,
    /// A member explicitly refused (e.g. shutting down).
    Refused,
}

/// Why a group was declared failed — the evidence class behind a
/// [`Notification`].
///
/// The layer threads the *real* local cause into every notification, and
/// `HardNotification` carries the originator's reason on the wire, so the
/// cause a member observes is the cause the declaring node actually saw
/// (per-cause latency breakdowns, Figures 8/9/12, depend on this).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NotifyReason {
    /// A participant called `SignalFailure` — including the §3.4
    /// fail-on-send idiom (`group_send` on a broken connection).
    ExplicitSignal,
    /// Group creation did not complete; state already installed on members
    /// is burned back.
    CreateFailed,
    /// Liveness checking expired and no repair arrived in time (member-side
    /// give-up, §6.5).
    LivenessExpired,
    /// A root-driven repair round failed: a member lost its state, or the
    /// round timed out (§6.5).
    RepairFailed,
    /// A transport connection underneath the group broke (TCP gave up).
    ConnectionBroken,
    /// The group is unknown on this node — it already failed here, or never
    /// existed (immediate callback on `RegisterFailureHandler`, §3.1).
    UnknownGroup,
}

impl NotifyReason {
    /// Every variant, in a fixed order: per-reason tallies index by it, and
    /// a reason's wire tag is its place in it, counted from 1.
    pub const ALL: [NotifyReason; 6] = [
        NotifyReason::ExplicitSignal,
        NotifyReason::CreateFailed,
        NotifyReason::LivenessExpired,
        NotifyReason::RepairFailed,
        NotifyReason::ConnectionBroken,
        NotifyReason::UnknownGroup,
    ];

    /// Short label for renders and logs: its [`kind`](NotifyReason::kind)'s.
    pub fn label(self) -> &'static str {
        self.kind().label()
    }

    /// The payload-free observability-plane mirror of this reason
    /// ([`fuse_obs::ReasonKind`]): what recorded events and cross-plane
    /// comparisons carry instead of wire enums or string labels.
    pub fn kind(self) -> fuse_obs::ReasonKind {
        match self {
            NotifyReason::ExplicitSignal => fuse_obs::ReasonKind::ExplicitSignal,
            NotifyReason::CreateFailed => fuse_obs::ReasonKind::CreateFailed,
            NotifyReason::LivenessExpired => fuse_obs::ReasonKind::LivenessExpired,
            NotifyReason::RepairFailed => fuse_obs::ReasonKind::RepairFailed,
            NotifyReason::ConnectionBroken => fuse_obs::ReasonKind::ConnectionBroken,
            NotifyReason::UnknownGroup => fuse_obs::ReasonKind::UnknownGroup,
        }
    }
}

impl std::fmt::Display for NotifyReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl Encode for NotifyReason {
    fn encode(&self, w: &mut dyn Writer) {
        // The wire tag is the reason's place in `ALL`, from 1.
        let at = NotifyReason::ALL.iter().position(|r| r == self);
        (at.expect("every reason is listed") as u8 + 1).encode(w);
    }

    fn size_hint(&self) -> usize {
        1
    }
}

impl Decode for NotifyReason {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let tag = usize::from(u8::decode(r)?);
        let reason = tag.checked_sub(1).and_then(|at| NotifyReason::ALL.get(at));
        reason
            .copied()
            .ok_or(DecodeError::Invalid("notify reason tag"))
    }
}

/// A node's relationship to a group at notification time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// The creator and repair coordinator.
    Root,
    /// A participant that is not the root.
    Member,
    /// Not a participant: the node only registered a handler (the immediate
    /// unknown-group callback fires with this role).
    Observer,
}

/// Ticket identifying one `create_group` call.
///
/// Returned synchronously by `create_group` and echoed in the matching
/// [`FuseEvent::Created`]; replaces the old caller-supplied `token: u64`.
/// The ticket *is* the provisionally assigned group id — ids are unique per
/// creation attempt, so no separate correlation counter exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CreateTicket(FuseId);

impl CreateTicket {
    /// Wraps the provisional id of a creation attempt (layer-internal;
    /// applications receive tickets, they never forge them).
    pub(crate) fn new(id: FuseId) -> Self {
        CreateTicket(id)
    }

    /// The group id this ticket resolves to if creation succeeds.
    pub fn id(self) -> FuseId {
        self.0
    }
}

/// A successfully created group, as seen by the local node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupHandle {
    /// The group's identity (what travels on the wire and in app state).
    pub id: FuseId,
    /// This node's role in the group.
    pub role: Role,
    /// Local time the group state was installed here.
    pub created_at: Time,
}

/// One failure notification: the payload of [`FuseEvent::Notified`].
///
/// Fires exactly once per participant per group; `reason` is the evidence
/// that burned the fuse, `role`/`seq`/`created_at` are the local group
/// facts at that instant, and `ctx` returns whatever the application
/// registered through `register_handler`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Notification {
    /// The failed group.
    pub id: FuseId,
    /// Why the group failed, as observed here (or carried by the
    /// notification that reached us).
    pub reason: NotifyReason,
    /// This node's role at notification time.
    pub role: Role,
    /// The group's repair sequence number when it failed.
    pub seq: u64,
    /// When this node installed the group (`io.now()` for unknown groups).
    pub created_at: Time,
    /// Application context registered via `register_handler`, if any.
    pub ctx: Option<u64>,
}

/// Events FUSE delivers to the application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuseEvent {
    /// A blocking `create_group` call completed.
    Created {
        /// The ticket returned by the `create_group` call.
        ticket: CreateTicket,
        /// The new group's handle, or why creation failed.
        result: Result<GroupHandle, CreateError>,
    },
    /// The failure handler fired (exactly once per node per group).
    Notified(Notification),
}

impl FuseEvent {
    /// The notification payload, when this is a `Notified` event.
    pub fn notification(&self) -> Option<&Notification> {
        match self {
            FuseEvent::Notified(n) => Some(n),
            FuseEvent::Created { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuse_wire::{Decode, Encode};

    #[test]
    fn fuse_id_roundtrips() {
        let id = FuseId(0xdead_beef_1234_5678);
        let b = id.to_bytes();
        assert_eq!(FuseId::from_bytes(&b).unwrap(), id);
    }

    #[test]
    fn notify_reason_roundtrips() {
        for r in NotifyReason::ALL {
            let b = r.to_bytes();
            assert_eq!(NotifyReason::from_bytes(&b).unwrap(), r);
        }
        assert!(NotifyReason::from_bytes(&[99]).is_err());
    }

    #[test]
    fn reason_labels_are_distinct() {
        let mut labels: Vec<&str> = NotifyReason::ALL.iter().map(|r| r.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), NotifyReason::ALL.len());
    }

    #[test]
    fn defaults_match_paper_constants() {
        let c = FuseConfig::default();
        assert_eq!(c.member_repair_timeout, Duration::from_secs(60));
        assert_eq!(c.root_repair_timeout, Duration::from_secs(120));
        assert_eq!(c.reconcile_grace, Duration::from_secs(5));
        assert_eq!(REPAIR_BACKOFF_CAP, Duration::from_secs(40), "§6.5");
        assert_eq!(REPAIR_BACKOFF_BASE, Duration::from_secs(1));
        assert_eq!(CREATE_TIMEOUT, Duration::from_secs(10));
        assert_eq!(INSTALL_WAIT, Duration::from_secs(30));
        assert!(
            c.link_failure_timeout > Duration::from_secs(80),
            "link expiry must exceed ping period + ping timeout"
        );
    }

    #[test]
    fn builder_defaults_build_clean() {
        let built = FuseConfig::builder().build().expect("defaults are valid");
        assert_eq!(built, FuseConfig::default());
    }

    #[test]
    fn builder_rejects_zero_durations() {
        let err = FuseConfig::builder()
            .link_failure_timeout(Duration::ZERO)
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::ZeroDuration("link_failure_timeout"));
    }

    #[test]
    fn builder_rejects_inverted_repair_windows() {
        let err = FuseConfig::builder()
            .member_repair_timeout(Duration::from_secs(200))
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::RepairWindowInverted);
    }

    #[test]
    fn builder_rejects_grace_at_or_above_link_timeout() {
        let err = FuseConfig::builder()
            .reconcile_grace(Duration::from_secs(90))
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::GraceExceedsLinkTimeout);
    }

    #[test]
    fn config_errors_display_distinctly() {
        let errs: [ConfigError; 3] = [
            ConfigError::ZeroDuration("link_failure_timeout"),
            ConfigError::RepairWindowInverted,
            ConfigError::GraceExceedsLinkTimeout,
        ];
        let mut msgs: Vec<String> = errs.iter().map(|e| e.to_string()).collect();
        msgs.sort_unstable();
        msgs.dedup();
        assert_eq!(msgs.len(), errs.len());
    }
}
