//! The typed observation grammar.
//!
//! Instrumented code (the FUSE protocol layer, the simulated network, the
//! chaos runner) emits [`Event`]s through an [`ObsSink`] instead of
//! mutating bespoke counter structs. Events are plain-old-data: class
//! labels are `&'static str`, timestamps are nanosecond counts stamped by
//! the caller from its driver's clock, and notification reasons are the
//! payload-free [`ReasonKind`] mirror of the wire-level reason enum.

/// Why a group burned, as a payload-free tag.
///
/// Mirrors `fuse_core`'s `NotifyReason` variant-for-variant (that crate
/// owns the wire encoding; this one owns aggregation), so recorded events
/// carry no wire enums or string labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ReasonKind {
    /// A member deliberately signalled the group.
    ExplicitSignal,
    /// Group creation did not complete.
    CreateFailed,
    /// Liveness checking expired and no repair arrived in time.
    LivenessExpired,
    /// A repair round exhausted its budget.
    RepairFailed,
    /// A transport connection to a group peer broke.
    ConnectionBroken,
    /// A message referenced a group this node no longer knows.
    UnknownGroup,
}

impl ReasonKind {
    /// The canonical lowercase label (matches `NotifyReason::label`).
    pub fn label(self) -> &'static str {
        match self {
            ReasonKind::ExplicitSignal => "explicit-signal",
            ReasonKind::CreateFailed => "create-failed",
            ReasonKind::LivenessExpired => "liveness-expired",
            ReasonKind::RepairFailed => "repair-failed",
            ReasonKind::ConnectionBroken => "connection-broken",
            ReasonKind::UnknownGroup => "unknown-group",
        }
    }
}

impl std::fmt::Display for ReasonKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One typed observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A group finished forming on this node.
    GroupCreated,
    /// A group creation attempt failed.
    CreateFailed,
    /// The application was notified that a group burned. `at_nanos` is
    /// driver time; `seq` is the notification sequence number.
    Notified {
        /// Why the group burned.
        reason: ReasonKind,
        /// Driver timestamp (nanoseconds since the driver's epoch).
        at_nanos: u64,
        /// Notification sequence number.
        seq: u64,
    },
    /// `n` hard notifications were sent.
    HardSent {
        /// How many were sent.
        n: u64,
    },
    /// A soft notification was sent.
    SoftSent,
    /// A repair round started.
    RepairStarted,
    /// A repair round failed.
    RepairFailed,
    /// A liveness link expired.
    LinkExpired,
    /// A state reconciliation ran after a hash disagreement.
    Reconciled,
    /// `bytes` were offered to the transport for a message of `class`.
    BytesOffered {
        /// Message class label.
        class: &'static str,
        /// Payload size in bytes.
        bytes: u64,
    },
    /// `bytes` were delivered by the transport.
    BytesDelivered {
        /// Message class label.
        class: &'static str,
        /// Payload size in bytes.
        bytes: u64,
    },
    /// The content adversary silently ate a message of `class`.
    ContentDropped {
        /// Message class label.
        class: &'static str,
    },
    /// A transport connection broke.
    ConnectionBroken,
}

/// Where instrumented code sends its events.
///
/// The standard implementation is [`crate::Recorder`]; tests can supply
/// their own to assert on raw event streams.
pub trait ObsSink {
    /// Accepts one event.
    fn record(&mut self, ev: Event);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reason_labels_are_stable() {
        let all = [
            ReasonKind::ExplicitSignal,
            ReasonKind::CreateFailed,
            ReasonKind::LivenessExpired,
            ReasonKind::RepairFailed,
            ReasonKind::ConnectionBroken,
            ReasonKind::UnknownGroup,
        ];
        let labels: Vec<_> = all.iter().map(|r| r.label()).collect();
        assert_eq!(
            labels,
            [
                "explicit-signal",
                "create-failed",
                "liveness-expired",
                "repair-failed",
                "connection-broken",
                "unknown-group"
            ]
        );
    }
}
