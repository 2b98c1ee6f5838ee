//! The standard event sink and its mergeable aggregates.
//!
//! A [`Recorder`] folds the typed event stream into [`Aggregates`]:
//! monotone counters, per-class byte accounting, a canonical notification
//! log, and per-class latency reservoirs. Aggregates merge by summing
//! counters and concatenating logs into a canonical order, so folding one
//! recorder per node produces bit-identical results regardless of how the
//! work was partitioned or in which order the recorders are folded.

use std::collections::BTreeMap;

use crate::event::{Event, ObsSink, ReasonKind};
use crate::reservoir::{ClassCounter, Reservoir};

/// One application-visible burn notification, as logged by a recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct NotifyRecord {
    /// Driver timestamp (nanoseconds since the driver's epoch).
    pub at_nanos: u64,
    /// The notified node (recorder origin).
    pub origin: u32,
    /// Notification sequence number.
    pub seq: u64,
    /// Why the group burned.
    pub reason: ReasonKind,
}

/// A scripted phase marker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PhaseMark {
    /// Driver timestamp (nanoseconds since the driver's epoch).
    pub at_nanos: u64,
    /// Phase label.
    pub label: &'static str,
}

/// Mergeable observation aggregates.
///
/// Every field is either a monotone counter (merge = sum), a per-class
/// counter (merge = pointwise sum), a log (merge = concatenate, then sort
/// into the canonical order), or a reservoir (merge = multiset union).
/// Equality is canonical: log order after [`Aggregates::merge_from`] and
/// reservoir sample order are deterministic functions of the recorded
/// events, never of the partitioning.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Aggregates {
    // --- FUSE protocol counters ---
    /// Groups successfully created.
    pub groups_created: u64,
    /// Group creations that failed.
    pub creates_failed: u64,
    /// Application notifications delivered.
    pub notifications: u64,
    /// Hard notifications sent.
    pub hard_sent: u64,
    /// Soft notifications sent.
    pub soft_sent: u64,
    /// Repair rounds started.
    pub repairs_started: u64,
    /// Repair rounds failed.
    pub repairs_failed: u64,
    /// Liveness links expired.
    pub links_expired: u64,
    /// Reconciliations after hash disagreement.
    pub reconciles: u64,
    // --- transport counters (the Network accessors read these) ---
    /// Connections broken.
    pub breaks: u64,
    /// Messages silently eaten by the content adversary.
    pub content_drops: u64,
    /// Bytes offered to the transport.
    pub bytes_offered: u64,
    /// Bytes delivered by the transport.
    pub bytes_delivered: u64,
    /// Bytes offered, per message class.
    pub offered_by_class: ClassCounter,
    /// Bytes delivered, per message class.
    pub delivered_by_class: ClassCounter,
    /// Content-adversary drops, per message class.
    pub drops_by_class: ClassCounter,
    // --- logs and distributions ---
    /// Every notification, in canonical `(at, origin, seq)` order after a
    /// merge.
    pub notify_log: Vec<NotifyRecord>,
    /// Scripted phase markers.
    pub phases: Vec<PhaseMark>,
    /// Per-class latency reservoirs (seconds).
    pub latency: BTreeMap<&'static str, Reservoir>,
}

impl Aggregates {
    /// Creates empty aggregates.
    pub fn new() -> Self {
        Aggregates::default()
    }

    /// The latency reservoir for `class`, creating it if absent.
    pub fn latency_reservoir(&mut self, class: &'static str) -> &mut Reservoir {
        self.latency.entry(class).or_default()
    }

    /// Records one latency sample under `class`.
    pub fn add_latency(&mut self, class: &'static str, seconds: f64) {
        self.latency_reservoir(class).add(seconds);
    }

    /// Absorbs `other`, restoring the canonical log order.
    ///
    /// Merging is commutative and associative up to equality: counters
    /// sum, reservoirs take multiset union, and the logs are re-sorted by
    /// `(at, origin, seq)` / `(at, label)`, which are unique per record.
    pub fn merge_from(&mut self, other: &Aggregates) {
        self.groups_created += other.groups_created;
        self.creates_failed += other.creates_failed;
        self.notifications += other.notifications;
        self.hard_sent += other.hard_sent;
        self.soft_sent += other.soft_sent;
        self.repairs_started += other.repairs_started;
        self.repairs_failed += other.repairs_failed;
        self.links_expired += other.links_expired;
        self.reconciles += other.reconciles;
        self.breaks += other.breaks;
        self.content_drops += other.content_drops;
        self.bytes_offered += other.bytes_offered;
        self.bytes_delivered += other.bytes_delivered;
        self.offered_by_class.merge_from(&other.offered_by_class);
        self.delivered_by_class
            .merge_from(&other.delivered_by_class);
        self.drops_by_class.merge_from(&other.drops_by_class);
        self.notify_log.extend_from_slice(&other.notify_log);
        self.notify_log.sort_unstable();
        self.phases.extend_from_slice(&other.phases);
        self.phases.sort_unstable();
        for (class, res) in &other.latency {
            self.latency_reservoir(class).merge_from(res);
        }
    }
}

/// The standard [`ObsSink`]: folds events into [`Aggregates`].
///
/// `origin` identifies the node the recorder is attached to; it is
/// stamped into notification log records so merged logs stay canonically
/// ordered.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    origin: u32,
    agg: Aggregates,
}

impl Recorder {
    /// Creates a recorder with origin 0.
    pub fn new() -> Self {
        Recorder::default()
    }

    /// Creates a recorder attached to node `origin`.
    pub fn with_origin(origin: u32) -> Self {
        Recorder {
            origin,
            agg: Aggregates::default(),
        }
    }

    /// The node this recorder is attached to.
    pub fn origin(&self) -> u32 {
        self.origin
    }

    /// Read-only view of the aggregates. Reading never perturbs them.
    pub fn aggregates(&self) -> &Aggregates {
        &self.agg
    }

    /// Consumes the recorder, yielding its aggregates.
    pub fn into_aggregates(self) -> Aggregates {
        self.agg
    }
}

impl ObsSink for Recorder {
    fn record(&mut self, ev: Event) {
        let a = &mut self.agg;
        match ev {
            Event::GroupCreated => a.groups_created += 1,
            Event::CreateFailed => a.creates_failed += 1,
            Event::Notified {
                reason,
                at_nanos,
                seq,
            } => {
                a.notifications += 1;
                a.notify_log.push(NotifyRecord {
                    at_nanos,
                    origin: self.origin,
                    seq,
                    reason,
                });
            }
            Event::HardSent { n } => a.hard_sent += n,
            Event::SoftSent => a.soft_sent += 1,
            Event::RepairStarted => a.repairs_started += 1,
            Event::RepairFailed => a.repairs_failed += 1,
            Event::LinkExpired => a.links_expired += 1,
            Event::Reconciled => a.reconciles += 1,
            Event::BytesOffered { class, bytes } => {
                a.bytes_offered += bytes;
                a.offered_by_class.bump_by(class, bytes);
            }
            Event::BytesDelivered { class, bytes } => {
                a.bytes_delivered += bytes;
                a.delivered_by_class.bump_by(class, bytes);
            }
            Event::ContentDropped { class } => {
                a.content_drops += 1;
                a.drops_by_class.bump(class);
            }
            Event::ConnectionBroken => a.breaks += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn notified(r: &mut Recorder, reason: ReasonKind, at_nanos: u64, seq: u64) {
        r.record(Event::Notified {
            reason,
            at_nanos,
            seq,
        });
    }

    #[test]
    fn recorder_folds_every_event_kind() {
        let mut r = Recorder::with_origin(7);
        r.record(Event::GroupCreated);
        r.record(Event::CreateFailed);
        notified(&mut r, ReasonKind::LivenessExpired, 5, 1);
        r.record(Event::HardSent { n: 3 });
        r.record(Event::SoftSent);
        r.record(Event::RepairStarted);
        r.record(Event::RepairFailed);
        r.record(Event::LinkExpired);
        r.record(Event::Reconciled);
        r.record(Event::BytesOffered {
            class: "ping",
            bytes: 40,
        });
        r.record(Event::BytesDelivered {
            class: "ping",
            bytes: 40,
        });
        r.record(Event::ContentDropped { class: "ack" });
        r.record(Event::ConnectionBroken);
        let a = r.aggregates();
        assert_eq!(a.groups_created, 1);
        assert_eq!(a.creates_failed, 1);
        assert_eq!(a.notifications, 1);
        assert_eq!(a.hard_sent, 3);
        assert_eq!(a.soft_sent, 1);
        assert_eq!(a.repairs_started, 1);
        assert_eq!(a.repairs_failed, 1);
        assert_eq!(a.links_expired, 1);
        assert_eq!(a.reconciles, 1);
        assert_eq!(a.breaks, 1);
        assert_eq!(a.content_drops, 1);
        assert_eq!(a.bytes_offered, 40);
        assert_eq!(a.bytes_delivered, 40);
        assert_eq!(a.offered_by_class.get("ping"), 40);
        assert_eq!(a.drops_by_class.get("ack"), 1);
        assert_eq!(
            a.notify_log,
            vec![NotifyRecord {
                at_nanos: 5,
                origin: 7,
                seq: 1,
                reason: ReasonKind::LivenessExpired
            }]
        );
    }

    #[test]
    fn merge_is_partition_invariant() {
        // The same event stream, recorded whole vs split across two
        // recorders and merged in either order, aggregates identically.
        let mut whole = Recorder::with_origin(1);
        let mut part_a = Recorder::with_origin(1);
        let mut part_b = Recorder::with_origin(1);
        let events = [
            Event::GroupCreated,
            Event::BytesOffered {
                class: "ping",
                bytes: 10,
            },
            Event::Notified {
                reason: ReasonKind::ExplicitSignal,
                at_nanos: 3,
                seq: 1,
            },
            Event::Notified {
                reason: ReasonKind::LivenessExpired,
                at_nanos: 9,
                seq: 2,
            },
        ];
        for (i, ev) in events.iter().enumerate() {
            whole.record(*ev);
            if i % 2 == 0 {
                part_a.record(*ev);
            } else {
                part_b.record(*ev);
            }
        }
        let mut whole_agg = whole.into_aggregates();
        let (mut agg_a, mut agg_b) = (part_a.into_aggregates(), part_b.into_aggregates());
        // Latency samples, split the same way.
        for (i, seconds) in [2.0, 1.0, 3.0].into_iter().enumerate() {
            whole_agg.add_latency("kill", seconds);
            let part = if i % 2 == 0 { &mut agg_a } else { &mut agg_b };
            part.add_latency("kill", seconds);
        }
        // Canonicalize the whole-stream log the same way merges do.
        let empty = Aggregates::new();
        whole_agg.merge_from(&empty);

        let mut ab = Aggregates::new();
        ab.merge_from(&agg_a);
        ab.merge_from(&agg_b);
        let mut ba = Aggregates::new();
        ba.merge_from(&agg_b);
        ba.merge_from(&agg_a);
        assert_eq!(ab, ba, "merge order must not matter");
        assert_eq!(ab, whole_agg, "partitioning must not matter");
        assert_eq!(ab.notify_log.len(), 2);
        assert_eq!(ab.notify_log[0].seq, 1, "canonical order by (at, ...)");
    }
}
