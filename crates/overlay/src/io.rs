//! The overlay's sans-io surface: effects out, upcalls up.
//!
//! The overlay is a pure state machine. Every entry point takes an
//! [`OverlayCx`] — a borrowed bundle of `now`, the driver RNG, an
//! [`OverlaySink`] and an upcall buffer — and all side effects leave as
//! plain data: sends and timer arms go straight into the embedding stack's
//! output queue through the sink, and [`OverlayUpcall`]s wait for the
//! client layer (FUSE) to consume. A timer is armed with its
//! [`OverlayTimer`] tag and comes back with it; nothing is cancelled, and
//! each handler checks its own deadline when the tag fires. No driver type
//! (`fuse_sim` or otherwise) appears anywhere in the signatures.

use bytes::Bytes;
use rand::rngs::StdRng;

use fuse_util::{Duration, PeerAddr, Time};
use fuse_wire::Digest;

use crate::id::{NodeInfo, NodeName};
use crate::messages::OverlayMsg;

/// Timer tags owned by the overlay. Each is a hint: a firing acts only if
/// the state it names is due.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverlayTimer {
    /// Periodic liveness ping for one neighbor; it pings only once the
    /// neighbour's next ping is due.
    PingDue(PeerAddr),
    /// The node's one ack-deadline timer: every neighbour whose ping went
    /// unacknowledged for the ping timeout is declared dead. An ack cancels
    /// nothing; the timer is armed at or before the earliest outstanding
    /// deadline and re-arms itself at the next one.
    AckTimeout,
    /// The join request went unanswered; retry unless the node joined.
    JoinRetry,
    /// Periodic background table maintenance.
    Maintenance,
}

/// Where the overlay's sends and timer arms go, in emission order, and
/// where it reads the digest it piggybacks. The embedding stack implements
/// it over its own output queue, so an effect lands there the moment the
/// overlay emits it.
pub trait OverlaySink {
    /// Transmit an overlay message to a peer.
    fn send(&mut self, to: PeerAddr, msg: OverlayMsg);
    /// Schedule `tag` to come back through `OverlayNode::on_timer` `after`
    /// from now.
    fn set_timer(&mut self, tag: OverlayTimer, after: Duration);
    /// The client's digest for the link to `peer` (paper §6.1: FUSE
    /// piggybacks a 20-byte hash of the groups on the link), `None` when
    /// the client monitors nothing there. Read once for each ping and each
    /// ack the overlay builds, just before it sends it.
    fn link_digest(&mut self, peer: PeerAddr) -> Option<Digest>;
}

/// Upcalls from the overlay to its client layer.
#[derive(Debug, Clone)]
pub enum OverlayUpcall {
    /// A liveness message (ping or ack) from `peer` carried this piggyback
    /// digest — the client compares it with its own for the link and
    /// refreshes whatever state the digest covers (paper §6.3). A ping's
    /// upcall is queued before its ack reads the client's digest.
    PingHash {
        /// Monitored neighbor.
        peer: PeerAddr,
        /// The digest the neighbor piggybacked for this link.
        hash: Digest,
    },
    /// A monitored link stopped being monitored.
    LinkDown {
        /// The neighbor.
        peer: PeerAddr,
        /// `true` when the neighbor was declared dead (ping timeout or
        /// transport break); `false` when it was merely evicted by table
        /// maintenance (overlay route change).
        died: bool,
    },
    /// A routed client payload reached this node (the routing target).
    Delivered {
        /// The originator.
        src: NodeInfo,
        /// The hop the message arrived from (the originator itself when the
        /// route was a single hop).
        prev: PeerAddr,
        /// Opaque client payload.
        payload: Bytes,
    },
    /// A routed client payload passed through this node (the per-hop upcall
    /// of §6.1).
    Forwarded {
        /// The originator.
        src: NodeInfo,
        /// Final routing target.
        target: NodeName,
        /// Previous hop process.
        prev: PeerAddr,
        /// Next hop process.
        next: PeerAddr,
        /// Opaque client payload.
        payload: Bytes,
    },
    /// A routed client payload could not make progress (routing hole); the
    /// upcall fires on the node where the message stalled.
    RouteStuck {
        /// The originator.
        src: NodeInfo,
        /// Unreachable routing target.
        target: NodeName,
        /// Opaque client payload.
        payload: Bytes,
    },
}

/// Borrowed per-call context for one overlay entry point.
///
/// The embedding stack owns the RNG, the sink and the upcall buffer; it constructs an `OverlayCx` around them for the
/// duration of one call and drains `upcalls` afterwards. Effects reach the
/// sink in call order, which the drivers preserve — that is what keeps sim
/// traces bit-identical across the sans-io boundary.
pub struct OverlayCx<'a> {
    now: Time,
    rng: &'a mut StdRng,
    sink: &'a mut dyn OverlaySink,
    upcalls: &'a mut Vec<OverlayUpcall>,
}

impl<'a> OverlayCx<'a> {
    /// Builds a context over the stack-owned state.
    pub fn new(
        now: Time,
        rng: &'a mut StdRng,
        sink: &'a mut dyn OverlaySink,
        upcalls: &'a mut Vec<OverlayUpcall>,
    ) -> Self {
        OverlayCx {
            now,
            rng,
            sink,
            upcalls,
        }
    }

    /// Current time (driver-provided).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Deterministic randomness (driver-provided).
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Queues an overlay message to a peer.
    pub fn send(&mut self, to: PeerAddr, msg: OverlayMsg) {
        self.sink.send(to, msg);
    }

    /// Arms a timer with an overlay tag.
    pub fn set_timer(&mut self, after: Duration, tag: OverlayTimer) {
        self.sink.set_timer(tag, after);
    }

    /// The client's digest to piggyback on the link to `peer`.
    pub fn link_digest(&mut self, peer: PeerAddr) -> Option<Digest> {
        self.sink.link_digest(peer)
    }

    /// Delivers an upcall to the client layer (buffered by the stack).
    pub fn upcall(&mut self, ev: OverlayUpcall) {
        self.upcalls.push(ev);
    }
}
