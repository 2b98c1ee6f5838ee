//! Overlay wire messages.
//!
//! Every message has a hand-written binary encoding so experiments measure
//! real byte counts — in particular, a `Ping` is a nonce plus the 20-byte
//! piggyback digest, matching the paper's "the only additional cost was a 20
//! byte hash piggybacked on each ping" (§7.5).

use bytes::Bytes;

use fuse_wire::{Decode, DecodeError, Digest, Encode, Reader, Writer};

use crate::id::{NodeInfo, NodeName};

/// Overlay protocol messages.
#[derive(Debug, Clone, PartialEq)]
pub enum OverlayMsg {
    /// Liveness ping carrying the piggyback digest for this link.
    Ping {
        /// Matches the ack to the outstanding timeout.
        nonce: u64,
        /// Piggyback digest (FUSE's hash of jointly monitored group IDs);
        /// absent when no groups monitor this link, so an idle overlay pays
        /// zero piggyback bytes (§7.5).
        hash: Option<Digest>,
    },
    /// Acknowledgment, carrying the responder's digest for the link.
    PingAck {
        /// Echoed nonce.
        nonce: u64,
        /// Responder's piggyback digest.
        hash: Option<Digest>,
    },
    /// Envelope routed by name through the overlay.
    Routed {
        /// Originator identity.
        src: NodeInfo,
        /// Routing target name.
        target: NodeName,
        /// Remaining hops before the loop guard drops the message.
        ttl: u8,
        /// Protocol class (see [`RoutedClass`]).
        class: u8,
        /// Payload (client bytes, or encoded overlay control data).
        payload: Bytes,
        /// Hop recording for maintenance probes.
        path: Vec<NodeInfo>,
    },
    /// Join answer: candidates for the joiner's tables, sent directly.
    JoinReply {
        /// Responder plus its leaf set and routing-table entries.
        candidates: Vec<NodeInfo>,
    },
    /// Announce a (new) node to a prospective leaf-set/table neighbor.
    Announce {
        /// The announcing node.
        info: NodeInfo,
        /// Whether a reply with candidates is requested.
        want_reply: bool,
    },
    /// Reply to an announce with table candidates.
    AnnounceAck {
        /// Responder's identity plus candidates.
        candidates: Vec<NodeInfo>,
    },
    /// Reply to a maintenance probe: the path the probe traversed.
    ProbeReply {
        /// Hop infos collected by the probe.
        path: Vec<NodeInfo>,
    },
    /// A routed message could not progress; returned to the originator.
    RoutedError {
        /// Routing target that was unreachable.
        target: NodeName,
        /// Node where the route stalled.
        at: NodeInfo,
        /// Original class.
        class: u8,
        /// Original payload.
        payload: Bytes,
    },
}

/// Classes of routed envelopes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutedClass {
    /// Client payload (FUSE) — upcalled at every hop and at the target.
    Client = 0,
    /// Join request — payload is the joiner's `NodeInfo`.
    Join = 1,
    /// Maintenance probe — records the hop path.
    Probe = 2,
}

impl RoutedClass {
    /// Parses a wire class byte.
    pub fn from_u8(v: u8) -> Option<RoutedClass> {
        match v {
            0 => Some(RoutedClass::Client),
            1 => Some(RoutedClass::Join),
            2 => Some(RoutedClass::Probe),
            _ => None,
        }
    }
}

const TAG_PING: u8 = 1;
const TAG_PING_ACK: u8 = 2;
const TAG_ROUTED: u8 = 3;
const TAG_JOIN_REPLY: u8 = 4;
const TAG_ANNOUNCE: u8 = 5;
const TAG_ANNOUNCE_ACK: u8 = 6;
const TAG_PROBE_REPLY: u8 = 7;
const TAG_ROUTED_ERROR: u8 = 8;

impl Encode for OverlayMsg {
    fn encode(&self, w: &mut dyn Writer) {
        match self {
            OverlayMsg::Ping { nonce, hash } => {
                TAG_PING.encode(w);
                nonce.encode(w);
                hash.encode(w);
            }
            OverlayMsg::PingAck { nonce, hash } => {
                TAG_PING_ACK.encode(w);
                nonce.encode(w);
                hash.encode(w);
            }
            OverlayMsg::Routed {
                src,
                target,
                ttl,
                class,
                payload,
                path,
            } => {
                TAG_ROUTED.encode(w);
                src.encode(w);
                target.encode(w);
                ttl.encode(w);
                class.encode(w);
                payload.encode(w);
                path.encode(w);
            }
            OverlayMsg::JoinReply { candidates } => {
                TAG_JOIN_REPLY.encode(w);
                candidates.encode(w);
            }
            OverlayMsg::Announce { info, want_reply } => {
                TAG_ANNOUNCE.encode(w);
                info.encode(w);
                want_reply.encode(w);
            }
            OverlayMsg::AnnounceAck { candidates } => {
                TAG_ANNOUNCE_ACK.encode(w);
                candidates.encode(w);
            }
            OverlayMsg::ProbeReply { path } => {
                TAG_PROBE_REPLY.encode(w);
                path.encode(w);
            }
            OverlayMsg::RoutedError {
                target,
                at,
                class,
                payload,
            } => {
                TAG_ROUTED_ERROR.encode(w);
                target.encode(w);
                at.encode(w);
                class.encode(w);
                payload.encode(w);
            }
        }
    }

    #[inline]
    fn size_hint(&self) -> usize {
        1 + match self {
            OverlayMsg::Ping { nonce, hash } | OverlayMsg::PingAck { nonce, hash } => {
                nonce.size_hint() + hash.size_hint()
            }
            OverlayMsg::Routed {
                src,
                target,
                ttl,
                class,
                payload,
                path,
            } => {
                src.size_hint()
                    + target.size_hint()
                    + ttl.size_hint()
                    + class.size_hint()
                    + payload.size_hint()
                    + path.size_hint()
            }
            OverlayMsg::JoinReply { candidates } | OverlayMsg::AnnounceAck { candidates } => {
                candidates.size_hint()
            }
            OverlayMsg::Announce { info, want_reply } => info.size_hint() + want_reply.size_hint(),
            OverlayMsg::ProbeReply { path } => path.size_hint(),
            OverlayMsg::RoutedError {
                target,
                at,
                class,
                payload,
            } => target.size_hint() + at.size_hint() + class.size_hint() + payload.size_hint(),
        }
    }
}

impl Decode for OverlayMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            TAG_PING => Ok(OverlayMsg::Ping {
                nonce: u64::decode(r)?,
                hash: Option::decode(r)?,
            }),
            TAG_PING_ACK => Ok(OverlayMsg::PingAck {
                nonce: u64::decode(r)?,
                hash: Option::decode(r)?,
            }),
            TAG_ROUTED => Ok(OverlayMsg::Routed {
                src: NodeInfo::decode(r)?,
                target: NodeName::decode(r)?,
                ttl: u8::decode(r)?,
                class: u8::decode(r)?,
                payload: Bytes::decode(r)?,
                path: Vec::decode(r)?,
            }),
            TAG_JOIN_REPLY => Ok(OverlayMsg::JoinReply {
                candidates: Vec::decode(r)?,
            }),
            TAG_ANNOUNCE => Ok(OverlayMsg::Announce {
                info: NodeInfo::decode(r)?,
                want_reply: bool::decode(r)?,
            }),
            TAG_ANNOUNCE_ACK => Ok(OverlayMsg::AnnounceAck {
                candidates: Vec::decode(r)?,
            }),
            TAG_PROBE_REPLY => Ok(OverlayMsg::ProbeReply {
                path: Vec::decode(r)?,
            }),
            TAG_ROUTED_ERROR => Ok(OverlayMsg::RoutedError {
                target: NodeName::decode(r)?,
                at: NodeInfo::decode(r)?,
                class: u8::decode(r)?,
                payload: Bytes::decode(r)?,
            }),
            _ => Err(DecodeError::Invalid("overlay message tag")),
        }
    }
}

impl OverlayMsg {
    /// Metrics class label.
    pub fn class_label(&self) -> &'static str {
        match self {
            OverlayMsg::Ping { .. } => "overlay.ping",
            OverlayMsg::PingAck { .. } => "overlay.ack",
            OverlayMsg::Routed { class, .. } => match RoutedClass::from_u8(*class) {
                Some(RoutedClass::Client) => "overlay.routed",
                Some(RoutedClass::Join) => "overlay.join",
                Some(RoutedClass::Probe) => "overlay.probe",
                None => "overlay.routed",
            },
            OverlayMsg::JoinReply { .. } => "overlay.join",
            OverlayMsg::Announce { .. } | OverlayMsg::AnnounceAck { .. } => "overlay.maint",
            OverlayMsg::ProbeReply { .. } => "overlay.probe",
            OverlayMsg::RoutedError { .. } => "overlay.routed",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::NodeName;
    use fuse_wire::sha1;

    fn roundtrip(m: OverlayMsg) {
        let b = m.to_bytes();
        assert_eq!(b.len(), m.wire_size());
        assert_eq!(OverlayMsg::from_bytes(&b).unwrap(), m);
    }

    #[test]
    fn all_variants_roundtrip() {
        let info = NodeInfo::new(3, NodeName::numbered(3));
        roundtrip(OverlayMsg::Ping {
            nonce: 77,
            hash: Some(sha1(b"x")),
        });
        roundtrip(OverlayMsg::PingAck {
            nonce: 77,
            hash: None,
        });
        roundtrip(OverlayMsg::Routed {
            src: info,
            target: NodeName::numbered(9),
            ttl: 40,
            class: 0,
            payload: Bytes::from_static(b"hello"),
            path: vec![info],
        });
        roundtrip(OverlayMsg::JoinReply {
            candidates: vec![info, NodeInfo::new(4, NodeName::numbered(4))],
        });
        roundtrip(OverlayMsg::Announce {
            info,
            want_reply: true,
        });
        roundtrip(OverlayMsg::AnnounceAck { candidates: vec![] });
        roundtrip(OverlayMsg::ProbeReply { path: vec![info] });
        roundtrip(OverlayMsg::RoutedError {
            target: NodeName::numbered(1),
            at: info,
            class: 0,
            payload: Bytes::new(),
        });
    }

    #[test]
    fn ping_wire_cost_is_20_extra_bytes_only_with_groups() {
        // Paper §7.5: "the only additional cost was a 20 byte hash
        // piggybacked on each ping". Tag (1) + varint nonce (1) + option
        // tag (1) [+ digest (20)].
        let idle = OverlayMsg::Ping {
            nonce: 1,
            hash: None,
        };
        let busy = OverlayMsg::Ping {
            nonce: 1,
            hash: Some(sha1(b"")),
        };
        assert_eq!(busy.wire_size() - idle.wire_size(), 20);
        assert_eq!(idle.wire_size(), 3);
    }

    #[test]
    fn bad_tag_rejected() {
        assert!(OverlayMsg::from_bytes(&[99]).is_err());
        // Tags 9–12 carried the retired node-level liveness probes, direct
        // and relayed, with their acks: a frame in their old shape — bare,
        // `nonce ‖ no digest`, `origin ‖ target ‖ nonce` — is an unknown
        // tag now.
        for tag in 9..=12u8 {
            for frame in [vec![tag], vec![tag, 1, 0], vec![tag, 2, 5, 7]] {
                assert_eq!(
                    OverlayMsg::from_bytes(&frame),
                    Err(DecodeError::Invalid("overlay message tag")),
                    "{frame:?}"
                );
            }
        }
    }
}
