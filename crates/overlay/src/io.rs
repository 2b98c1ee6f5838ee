//! The overlay's sans-io surface: effects out, upcalls up.
//!
//! The overlay is a pure state machine. Every entry point takes an
//! [`OverlayCx`] — a borrowed bundle of `now`, the driver RNG, an
//! [`OverlaySink`] and an upcall buffer — and all side effects leave as
//! plain data: sends and wake-up requests go straight into the embedding
//! stack's output queue through the sink, and [`OverlayUpcall`]s wait for
//! the client layer (FUSE) to consume. The overlay asks for one wake-up at
//! a time, at the earliest deadline it stores ([`Wake`]); when it comes,
//! `OverlayNode::on_wake` acts on whatever is due and asks for the next.
//! Nothing is cancelled. No driver type (`fuse_sim` or otherwise) appears
//! anywhere in the signatures.

use bytes::Bytes;
use rand::rngs::StdRng;

use fuse_util::{Duration, PeerAddr, Time, Wake};
use fuse_wire::Digest;

use crate::id::{NodeInfo, NodeName};
use crate::messages::OverlayMsg;

/// Where the overlay's sends and wake-ups go, in emission order, and
/// where it reads the digest it piggybacks. The embedding stack implements
/// it over its own output queue, so an effect lands there the moment the
/// overlay emits it.
pub trait OverlaySink {
    /// Transmit an overlay message to a peer.
    fn send(&mut self, to: PeerAddr, msg: OverlayMsg);
    /// Schedule a call of `OverlayNode::on_wake` `after` from now.
    fn wake(&mut self, after: Duration);
    /// The client's digest for the link to `peer` (paper §6.1: FUSE
    /// piggybacks a 20-byte hash of the groups on the link), `None` when
    /// the client monitors nothing there; a receiver hands a missing
    /// digest up as [`Digest::ZERO`]. Read once for each ping and each ack
    /// the overlay builds, just before it sends it. FUSE keeps the digest
    /// current as the link's groups change, so a read is a lookup.
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
    #[inline]
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
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Deterministic randomness (driver-provided).
    #[inline]
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Queues an overlay message to a peer.
    #[inline]
    pub fn send(&mut self, to: PeerAddr, msg: OverlayMsg) {
        self.sink.send(to, msg);
    }

    /// Notes the deadline `at` in `wake`, asking the sink for a wake-up
    /// when it comes before the one pending.
    #[inline]
    pub fn wake_at(&mut self, wake: &mut Wake, at: Time) {
        if let Some(after) = wake.note(self.now, at) {
            self.sink.wake(after);
        }
    }

    /// The client's digest to piggyback on the link to `peer`.
    #[inline]
    pub fn link_digest(&mut self, peer: PeerAddr) -> Option<Digest> {
        self.sink.link_digest(peer)
    }

    /// Delivers an upcall to the client layer (buffered by the stack).
    #[inline]
    pub fn upcall(&mut self, ev: OverlayUpcall) {
        self.upcalls.push(ev);
    }
}
