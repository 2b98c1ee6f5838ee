//! The passive view: the overlay membership a node knows of beyond its
//! tables (SkipNet's repair state; the paper's §6.1 asks of the overlay
//! only routing upcalls and a visible routing table). It holds live
//! candidates to refill the tables from, and neighbours declared dead that
//! the node keeps announcing itself to, so that a healed partition is
//! taken back.
//!
//! This module alone writes the candidate cache and the departed list;
//! [`PassiveView`]'s fields are private to it. The invariant it keeps: at
//! most [`CANDIDATE_CACHE`] candidates (a new one enters only while there
//! is room) and at most [`DEPARTED_CAP`] departed peers, each once, in
//! death order (the oldest leaves first when a new one dies). A departed
//! peer is announced to on maintenance ticks 1, 2, 4, 8 and 16 after its
//! death, [`DEPARTED_TRIES`] in all, and leaves at once when it is heard
//! from first-hand.

use fuse_util::{DetHashMap, PeerAddr};

use crate::config::{CANDIDATE_CACHE, DEPARTED_CAP, DEPARTED_TRIES};
use crate::id::NodeInfo;

/// The nodes a node knows of outside its tables.
#[derive(Clone, Default)]
pub(super) struct PassiveView {
    /// Live candidates, recently seen.
    known: DetHashMap<PeerAddr, NodeInfo>,
    /// Neighbours declared dead, each with the announces sent to it and
    /// the maintenance ticks until the next.
    departed: Vec<(NodeInfo, u32, u32)>,
}

impl PassiveView {
    /// A candidate was seen, first- or second-hand. It enters while the
    /// cache has room, even while it is departed: a dead peer a neighbour
    /// still lists comes back this way (pinned by
    /// `dead_peers_keep_coming_back_second_hand`).
    pub(super) fn seen(&mut self, cand: &NodeInfo) {
        if self.known.len() < CANDIDATE_CACHE {
            self.known.insert(cand.proc, *cand);
        }
    }

    /// Whether `peer` is a live candidate.
    pub(super) fn knows(&self, peer: PeerAddr) -> bool {
        self.known.contains_key(&peer)
    }

    /// Live candidates to refill the tables from.
    pub(super) fn live(&self) -> impl Iterator<Item = &NodeInfo> {
        self.known.values()
    }

    /// A neighbour was declared dead. It stops being a candidate and
    /// becomes the newest departed peer, under its table entry `entry` or
    /// else its candidate entry; a peer known by neither is not kept.
    pub(super) fn died(&mut self, peer: PeerAddr, entry: Option<NodeInfo>) {
        if let Some(info) = entry.or_else(|| self.known.get(&peer).copied()) {
            // A peer dies into the list once: an earlier death leaves it.
            self.heard_from(peer);
            if self.departed.len() == DEPARTED_CAP {
                self.departed.remove(0);
            }
            self.departed.push((info, 0, 1));
        }
        self.known.remove(&peer);
    }

    /// `peer` was heard from first-hand (its own announce or announce
    /// reply): it is no longer departed.
    pub(super) fn heard_from(&mut self, peer: PeerAddr) {
        self.departed.retain(|d| d.0.proc != peer);
    }

    /// One maintenance tick: hands `announce` every departed peer due on
    /// it, in death order, each gap twice the last, and forgets a peer
    /// after its last unanswered try.
    pub(super) fn tick(&mut self, mut announce: impl FnMut(PeerAddr)) {
        self.departed.retain_mut(|(peer, sent, wait)| {
            *wait -= 1;
            if *wait > 0 {
                return true;
            }
            announce(peer.proc);
            *sent += 1;
            *wait = 1 << (*sent - 1);
            *sent < DEPARTED_TRIES
        });
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{info, node_with};
    use crate::id::NodeInfo;
    use crate::io::OverlayUpcall;
    use crate::messages::OverlayMsg;
    use fuse_util::PeerAddr;

    /// A neighbour declared dead is announced to on maintenance ticks 1,
    /// 2, 4, 8 and 16 after its death, then forgotten; its answer ends the
    /// retries at once.
    #[test]
    fn departed_neighbours_are_announced_to_with_doubling_gaps() {
        let (mut n, mut io) = node_with(10, &[20, 30]);
        io.on_link_broken(&mut n, 20);
        io.on_link_broken(&mut n, 30);
        let mut ticks: [Vec<usize>; 2] = Default::default();
        for tick in 1..=40 {
            if tick == 3 {
                let candidates = vec![info(30)];
                io.on_message(&mut n, 30, OverlayMsg::AnnounceAck { candidates });
            }
            io.sent.clear();
            io.maintain(&mut n);
            for (to, msg) in &io.sent {
                if let OverlayMsg::Announce {
                    want_reply: true, ..
                } = msg
                {
                    ticks[usize::from(*to == 30)].push(tick);
                }
            }
        }
        assert_eq!(ticks[0], [1, 2, 4, 8, 16], "peer 20 never answers");
        assert_eq!(ticks[1], [1, 2], "peer 30 answers before tick 3");
        assert!(n.view.departed.is_empty());
    }

    #[test]
    fn eviction_emits_non_fatal_linkdown() {
        // Fill both leaf sides with far nodes, then insert strictly closer
        // nodes on both sides: the far nodes leave both leaf sets, and any
        // that hold no routing-table slot must produce
        // LinkDown { died: false }.
        let others: Vec<usize> = (600..640).collect();
        let (mut n, mut io) = node_with(500, &others);
        io.upcalls.clear();
        let close: Vec<NodeInfo> = (501..509).chain(492..500).map(info).collect();
        io.integrate_all(&mut n, &close);
        let evicted: Vec<PeerAddr> = io
            .upcalls
            .iter()
            .filter_map(|u| match u {
                OverlayUpcall::LinkDown { peer, died: false } => Some(*peer),
                _ => None,
            })
            .collect();
        assert!(!evicted.is_empty(), "someone must have been evicted");
        // Evicted nodes stay in the candidate cache (alive, just not
        // monitored) and are truly out of the monitored set.
        for p in evicted {
            assert!(n.view.knows(p));
            assert!(!n.neighbors().contains(&p));
        }
    }
}
