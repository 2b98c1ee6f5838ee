//! Ring maintenance (paper §6.1, SkipNet's join and repair): joining
//! through a bootstrap node, announcing this node to its neighbours,
//! periodic probes whose hop paths refresh the tables, and the repair that
//! follows a neighbour's death.
//!
//! This module writes only the join state (`ready` and the attempts; a
//! join retry that fires after the reply finds the node ready); it changes the tables, the passive view and the monitored
//! set through their own modules. The invariant it keeps: a neighbour
//! declared dead leaves the tables, the candidates and the monitored set
//! together, is upcalled once as `LinkDown { died: true }`, and is
//! replaced from the outermost leaves and the live candidates at once.

use bytes::Bytes;
use rand::Rng;

use fuse_util::PeerAddr;
use fuse_wire::{Decode, Encode};

use super::OverlayNode;
use crate::config::{JOIN_TIMEOUT, MAINTENANCE_PERIOD};
use crate::id::{NodeInfo, NodeName};
use crate::io::{OverlayCx, OverlayTimer, OverlayUpcall};
use crate::messages::{OverlayMsg, RoutedClass};

impl OverlayNode {
    pub(super) fn send_join(&mut self, io: &mut OverlayCx<'_>) {
        let Some(bs) = self.bootstrap else { return };
        self.join_attempts += 1;
        let me = *self.info();
        let join = self.originate(me.name, RoutedClass::Join, me.to_bytes(), Vec::new());
        io.send(bs, join);
        io.set_timer(JOIN_TIMEOUT, OverlayTimer::JoinRetry);
    }

    pub(super) fn handle_join_request(&mut self, io: &mut OverlayCx<'_>, payload: Bytes) {
        let Ok(joiner) = NodeInfo::from_bytes(&payload) else {
            return;
        };
        let candidates = self.tables.candidates(true);
        let joiner_proc = joiner.proc;
        self.integrate_all(io, &[joiner]);
        io.send(joiner_proc, OverlayMsg::JoinReply { candidates });
    }

    pub(super) fn on_join_reply(&mut self, io: &mut OverlayCx<'_>, candidates: Vec<NodeInfo>) {
        let was_ready = self.ready;
        self.ready = true;
        self.integrate_all(io, &candidates);
        if !was_ready {
            // Announce ourselves to every neighbor so both sides of
            // each link monitor it.
            for p in self.neighbors() {
                announce(io, *self.info(), p);
            }
        }
    }

    pub(super) fn on_announce(&mut self, io: &mut OverlayCx<'_>, info: NodeInfo, want_reply: bool) {
        self.view.heard_from(info.proc);
        if want_reply {
            let candidates = self.tables.candidates(false);
            io.send(info.proc, OverlayMsg::AnnounceAck { candidates });
        }
        self.integrate_all(io, &[info]);
    }

    /// One maintenance period: a probe, then an announce to every departed
    /// peer that is due.
    pub(super) fn maintain(&mut self, io: &mut OverlayCx<'_>) {
        if self.ready {
            self.send_probe(io);
        }
        let me = *self.info();
        self.view.tick(|peer| announce(io, me, peer));
        io.set_timer(MAINTENANCE_PERIOD, OverlayTimer::Maintenance);
    }

    fn send_probe(&mut self, io: &mut OverlayCx<'_>) {
        // Probe toward a random point named `probe-<hex>`; hop path infos
        // opportunistically refresh tables along the way and at the source.
        // Every such name sorts after every `node-…` name, so in a world
        // of numbered nodes each probe ends at the highest-named node, not
        // at a uniformly random ring position (pinned by a test below).
        let point: u64 = io.rng().gen();
        let target = NodeName::format(format_args!("probe-{point:016x}"))
            .expect("a probe target is 22 bytes");
        if let Some(next) = self.next_hop(&target) {
            self.stats.probes_sent += 1;
            // Reserved once for the source, the owner and two hops per
            // routing level: routes are O(log N) hops (at most 13 in the
            // 400-node steady-state world), so no hop regrows it.
            let mut path = Vec::with_capacity(2 * self.tables.levels() + 2);
            path.push(*self.info());
            let probe = self.originate(target, RoutedClass::Probe, Bytes::new(), path);
            io.send(next, probe);
        }
    }

    /// `peer` stopped answering (ack timeout or transport break).
    pub(super) fn neighbor_dead(&mut self, io: &mut OverlayCx<'_>, peer: PeerAddr) {
        if !self.is_neighbor(peer) && !self.view.knows(peer) {
            return;
        }
        self.stats.neighbors_died += 1;
        self.live.stop(peer);
        let entry = self.tables.remove(peer);
        self.view.died(peer, entry);
        io.upcall(OverlayUpcall::LinkDown { peer, died: true });
        self.repair_after_death(io);
    }

    fn repair_after_death(&mut self, io: &mut OverlayCx<'_>) {
        // Pull candidates from the extreme survivors on each leaf side and
        // refill from the passive cache.
        let me = *self.info();
        let (cw, ccw) = self.tables.leaf_set();
        for l in cw.last().into_iter().chain(ccw.last()) {
            announce(io, me, l.proc);
        }
        let cached: Vec<NodeInfo> = self.view.live().copied().collect();
        self.integrate_all(io, &cached);
    }
}

/// Announces `info` (this node) to `peer`, asking for its leaf sets back.
fn announce(io: &mut OverlayCx<'_>, info: NodeInfo, peer: PeerAddr) {
    let want_reply = true;
    io.send(peer, OverlayMsg::Announce { info, want_reply });
}
