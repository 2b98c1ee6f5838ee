//! The checking tree (paper §6.1–§6.3): which links each group monitors,
//! when each monitored peer's links expire, and the piggyback digest of the
//! groups on each link.
//!
//! This module alone writes link state. A group's links are a [`Links`]
//! that other modules can only read; the subscription index, the
//! per-peer expiry records and the node's one expiry timer live in
//! [`Watch`], whose fields only this module can name. Installs (§6.2) add
//! links as `InstallChecking` envelopes pass; agreeing ping digests and
//! reconcile replies refresh them (§6.3); a link leaves through
//! [`remove_link`](FuseLayer::remove_link) or
//! [`clear_links`](FuseLayer::clear_links). The invariant it owns:
//! [`hash_cache_consistent`](FuseLayer::hash_cache_consistent) holds after
//! every entry point — every subscribed peer, and only those, has an expiry
//! record, and every digest not marked stale equals a fresh recomputation.

use fuse_obs::{Event, ObsSink};
use fuse_overlay::node::RouteStart;
use fuse_overlay::{NodeInfo, OverlayNode};
use fuse_util::{DetHashMap, DetHashSet, PeerAddr, Time};
use fuse_wire::{Digest, Sha1};

use super::{CoreCx, FuseLayer, Group, RoleState};
use crate::messages::{FuseMsg, InstallChecking};
use crate::registry::SubscriptionRegistry;
use crate::types::{FuseId, FuseTimer, NotifyReason};

#[derive(Clone, Copy, Default)]
struct Link {
    installed_at: Time,
    /// When this one link was last installed or agreed by a reconcile.
    refreshed_at: Time,
}

/// Links a group keeps without a heap block: a delegate's two, one toward
/// the member and one toward the root.
const INLINE_LINKS: usize = 2;

/// One group's checking-tree links, in the order they were installed,
/// which is the order soft notifications fan out in. Up to
/// [`INLINE_LINKS`] live in the record itself; a group with more (a root,
/// or a member other branches pass through) moves them all to a `Vec`.
/// Lookups are linear: a root has at most its group's size of links.
#[derive(Clone)]
pub(super) struct Links(Repr);

#[derive(Clone)]
enum Repr {
    /// The first `len` slots hold links; the rest are placeholders.
    Inline {
        len: u8,
        slots: [(PeerAddr, Link); INLINE_LINKS],
    },
    Spilled(Vec<(PeerAddr, Link)>),
}

impl Default for Links {
    fn default() -> Links {
        Links(Repr::Inline {
            len: 0,
            slots: Default::default(),
        })
    }
}

impl Links {
    fn as_slice(&self) -> &[(PeerAddr, Link)] {
        match &self.0 {
            Repr::Inline { len, slots } => &slots[..usize::from(*len)],
            Repr::Spilled(v) => v,
        }
    }

    /// The peers at the far end of the links.
    pub(super) fn peers(&self) -> impl Iterator<Item = PeerAddr> + '_ {
        self.as_slice().iter().map(|&(peer, _)| peer)
    }

    pub(super) fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    fn get(&self, peer: PeerAddr) -> Option<&Link> {
        self.as_slice().iter().find(|e| e.0 == peer).map(|e| &e.1)
    }

    fn get_mut(&mut self, peer: PeerAddr) -> Option<&mut Link> {
        let links = match &mut self.0 {
            Repr::Inline { len, slots } => &mut slots[..usize::from(*len)],
            Repr::Spilled(v) => v,
        };
        links.iter_mut().find(|e| e.0 == peer).map(|e| &mut e.1)
    }

    /// Appends a link to a peer not yet linked.
    fn push(&mut self, peer: PeerAddr, link: Link) {
        match &mut self.0 {
            Repr::Inline { len, slots } if usize::from(*len) < INLINE_LINKS => {
                slots[usize::from(*len)] = (peer, link);
                *len += 1;
            }
            Repr::Inline { slots, .. } => {
                let mut v = Vec::with_capacity(INLINE_LINKS * 2);
                v.extend_from_slice(slots);
                v.push((peer, link));
                self.0 = Repr::Spilled(v);
            }
            Repr::Spilled(v) => v.push((peer, link)),
        }
    }

    /// Drops the link to `peer`, keeping the others in order; `false` when
    /// there was none.
    fn remove(&mut self, peer: PeerAddr) -> bool {
        let Some(at) = self.peers().position(|p| p == peer) else {
            return false;
        };
        match &mut self.0 {
            Repr::Inline { len, slots } => {
                slots[at..usize::from(*len)].rotate_left(1);
                *len -= 1;
            }
            Repr::Spilled(v) => {
                v.remove(at);
            }
        }
        true
    }
}

/// Liveness expiry and digest staleness of one monitored peer. A
/// (group, link)'s deadline is `max(link.refreshed_at, agreed_at) +
/// link_failure_timeout`.
#[derive(Clone)]
struct PeerExpiry {
    /// When a piggybacked hash from the peer last agreed with ours — the
    /// refresh of every link to the peer at once (§6.3).
    agreed_at: Time,
    /// The peer's set of monitored groups changed since the overlay's
    /// piggyback digest for it was last computed.
    hash_dirty: bool,
}

/// The per-peer side of the checking trees.
#[derive(Clone, Default)]
pub(super) struct Watch {
    /// Index: which groups monitor each link (drives the piggyback hash and
    /// the per-peer liveness deadline).
    subs: SubscriptionRegistry,
    /// Per-peer liveness deadline and digest staleness, one record per
    /// subscribed peer.
    expiry: DetHashMap<PeerAddr, PeerExpiry>,
    /// Whether the node's one `LinkExpired` timer is armed; it is, at or
    /// before the earliest deadline of any monitored link.
    armed: bool,
}

impl FuseLayer {
    /// Which groups monitor the link to each peer (visibility for tests and
    /// the microbench).
    pub fn subscriptions(&self) -> &SubscriptionRegistry {
        &self.watch.subs
    }

    // ---- Installs (§6.2) ------------------------------------------------------

    /// Routes this member's `InstallChecking` toward the root, monitoring
    /// the first hop.
    pub(super) fn route_install_checking(
        &mut self,
        cx: &mut CoreCx<'_>,
        ov: &mut OverlayNode,
        id: FuseId,
        seq: u64,
        root: NodeInfo,
    ) {
        if root.proc == self.me.proc {
            return;
        }
        let ic = InstallChecking {
            id,
            seq,
            member: self.me,
            root,
        };
        let payload = self.ebuf.encode_to_bytes(&ic);
        let start = cx.ov(ov, |ov, ocx| ov.route_client(ocx, &root.name, payload));
        match start {
            RouteStart::Sent { next } => {
                self.add_link(cx, ov, id, next);
            }
            RouteStart::SelfIsTarget => {}
            RouteStart::NoRoute => {
                // No overlay path right now: fall back on root-driven repair.
                self.initiate_member_repair(cx, id);
            }
        }
    }

    pub(super) fn install_delivered(
        &mut self,
        cx: &mut CoreCx<'_>,
        ov: &mut OverlayNode,
        ic: InstallChecking,
        src: PeerAddr,
        prev: PeerAddr,
    ) {
        if ic.root.proc != self.me.proc {
            // Routed to us although we are not the root: stale name tables.
            return;
        }
        if let Some(round) = self.round_mut(ic.id, ic.seq) {
            round.installs.remove(&src);
        }
        let Some(g) = self.groups.get(&ic.id) else {
            // Group already failed: burn the fuse back toward the member.
            self.send_hard(cx, src, ic.id, ic.seq, NotifyReason::UnknownGroup);
            return;
        };
        if ic.seq < g.seq {
            return; // Stale branch from before a repair.
        }
        self.end_round_if_done(ic.id);
        if prev != self.me.proc {
            self.add_link(cx, ov, ic.id, prev);
        }
    }

    pub(super) fn install_forwarded(
        &mut self,
        cx: &mut CoreCx<'_>,
        ov: &mut OverlayNode,
        ic: InstallChecking,
        prev: PeerAddr,
        next: PeerAddr,
    ) {
        match self.groups.get_mut(&ic.id) {
            Some(g) => {
                if ic.seq < g.seq {
                    return;
                }
                g.seq = g.seq.max(ic.seq);
            }
            None => {
                let g = Group::new(ic.seq, RoleState::Delegate);
                self.groups.insert(ic.id, g);
            }
        }
        if prev != self.me.proc {
            self.add_link(cx, ov, ic.id, prev);
        }
        if next != self.me.proc {
            self.add_link(cx, ov, ic.id, next);
        }
    }

    // ---- Refresh and expiry (§6.3) ------------------------------------------

    pub(super) fn on_ping_hash(
        &mut self,
        cx: &mut CoreCx<'_>,
        ov: &mut OverlayNode,
        peer: PeerAddr,
        hash: Digest,
    ) {
        self.refresh_link_hash(ov, peer);
        let mine = ov.link_hash(peer).unwrap_or_else(Digest::of_empty);
        if mine == hash {
            // Agreement: one store refreshes every (group, link) deadline
            // this hash covers.
            if let Some(rec) = self.watch.expiry.get_mut(&peer) {
                rec.agreed_at = cx.now;
            }
        } else {
            // Disagreement: exchange lists (§6.3).
            self.obs.record(Event::Reconciled);
            let links = self.links_with(peer);
            cx.send_fuse(peer, FuseMsg::ReconcileRequest { links });
        }
    }

    pub(super) fn reconcile(
        &mut self,
        cx: &mut CoreCx<'_>,
        ov: &mut OverlayNode,
        peer: PeerAddr,
        theirs: &[(FuseId, u64)],
    ) {
        let their_ids: DetHashSet<FuseId> = theirs.iter().map(|&(id, _)| id).collect();
        let now = cx.now;
        for id in self.watch.subs.subscribers(peer).to_vec() {
            let group = self.groups.get_mut(&id);
            let Some(link) = group.and_then(|g| g.links.get_mut(peer)) else {
                continue;
            };
            if their_ids.contains(&id) {
                // Agreed link: treat like a refresh.
                link.refreshed_at = now;
            } else if now.since(link.installed_at) >= self.cfg.reconcile_grace {
                // They do not monitor this tree with us. Outside the grace
                // period (creation race, §6.3) the disagreeing tree is torn
                // down and repaired.
                self.local_link_failed(cx, ov, id, peer);
            }
        }
    }

    pub(super) fn links_with(&self, peer: PeerAddr) -> Vec<(FuseId, u64)> {
        self.watch
            .subs
            .subscribers(peer)
            .iter()
            .filter_map(|&id| self.groups.get(&id).map(|g| (id, g.seq)))
            .collect()
    }

    /// The groups monitoring the link to `peer`, in `FuseId` order.
    pub(super) fn watchers(&self, peer: PeerAddr) -> Vec<FuseId> {
        self.watch.subs.subscribers(peer).to_vec()
    }

    /// The node's `LinkExpired` timer fired. No deadline on a peer comes
    /// before its last agreement's, so a peer agreed within the last
    /// timeout is not looked at. On a peer silent for a whole timeout, the
    /// links whose deadline has come are due. The timer follows the
    /// earliest deadline left before any due link fails; then they fail,
    /// peers in ascending address order and each peer's in `FuseId` order.
    pub(super) fn sweep_link_expiry(&mut self, cx: &mut CoreCx<'_>, ov: &mut OverlayNode) {
        let (now, timeout) = (cx.now, self.cfg.link_failure_timeout);
        let mut due = Vec::new();
        let mut next: Option<Time> = None;
        for (&peer, rec) in &self.watch.expiry {
            let floor = rec.agreed_at + timeout;
            if floor > now {
                next = Some(next.map_or(floor, |n| n.min(floor)));
                continue;
            }
            for &id in self.watch.subs.subscribers(peer) {
                let link = self.groups[&id].links.get(peer).expect("subscribed");
                let deadline = link.refreshed_at.max(rec.agreed_at) + timeout;
                if deadline <= now {
                    due.push((peer, id));
                } else {
                    next = Some(next.map_or(deadline, |n| n.min(deadline)));
                }
            }
        }
        // With nothing ahead every link is due, and the next first
        // subscription arms the timer again.
        self.watch.armed = next.is_some();
        if let Some(at) = next {
            cx.set_fuse_timer(at.since(now), FuseTimer::LinkExpired);
        }
        due.sort_unstable();
        for (peer, id) in due {
            self.obs.record(Event::LinkExpired);
            self.local_link_failed(cx, ov, id, peer);
        }
    }

    // ---- Link bookkeeping ---------------------------------------------------

    pub(super) fn add_link(
        &mut self,
        cx: &mut CoreCx<'_>,
        ov: &mut OverlayNode,
        id: FuseId,
        peer: PeerAddr,
    ) {
        debug_assert_ne!(peer, self.me.proc);
        let now = cx.now;
        let Some(g) = self.groups.get_mut(&id) else {
            return;
        };
        match g.links.get_mut(peer) {
            Some(link) => link.refreshed_at = now,
            None => {
                g.links.push(
                    peer,
                    Link {
                        installed_at: now,
                        refreshed_at: now,
                    },
                );
                if self.watch.subs.subscribe(peer, id) {
                    // First subscription on the peer: start watching it. An
                    // armed timer is already at or before `now + timeout`,
                    // and agreements and new links only move deadlines later.
                    if !std::mem::replace(&mut self.watch.armed, true) {
                        let timeout = self.cfg.link_failure_timeout;
                        cx.set_fuse_timer(timeout, FuseTimer::LinkExpired);
                    }
                    let rec = PeerExpiry {
                        agreed_at: now,
                        hash_dirty: true,
                    };
                    self.watch.expiry.insert(peer, rec);
                }
                self.link_set_changed(ov, peer);
            }
        }
    }

    /// Drops `id`'s link to `peer`; `false` when there was none.
    pub(super) fn remove_link(&mut self, ov: &mut OverlayNode, id: FuseId, peer: PeerAddr) -> bool {
        let removed = self
            .groups
            .get_mut(&id)
            .is_some_and(|g| g.links.remove(peer));
        if removed {
            self.unindex_link(ov, id, peer);
        }
        removed
    }

    fn unindex_link(&mut self, ov: &mut OverlayNode, id: FuseId, peer: PeerAddr) {
        if self.watch.subs.unsubscribe(peer, id) {
            // Last subscription gone: stop watching the peer. The timer is
            // left to fire; the sweep finds nothing of the peer.
            let rec = self.watch.expiry.remove(&peer);
            rec.expect("a watched peer has a record");
        }
        self.link_set_changed(ov, peer);
    }

    /// Drops every link of `id`.
    pub(super) fn clear_links(&mut self, ov: &mut OverlayNode, id: FuseId) {
        let Some(g) = self.groups.get_mut(&id) else {
            return;
        };
        let links = std::mem::take(&mut g.links);
        for peer in links.peers() {
            self.unindex_link(ov, id, peer);
        }
    }

    // ---- The piggyback digest (§6.1) ----------------------------------------

    /// The monitored set on the link to `peer` changed. A peer still
    /// watched has its digest recomputed when a ping or ack next reads it
    /// ([`refresh_link_hash`]); a peer no longer watched piggybacks none.
    ///
    /// [`refresh_link_hash`]: FuseLayer::refresh_link_hash
    fn link_set_changed(&mut self, ov: &mut OverlayNode, peer: PeerAddr) {
        match self.watch.expiry.get_mut(&peer) {
            Some(rec) => rec.hash_dirty = true,
            None => ov.set_link_hash(peer, None),
        }
    }

    /// Brings the overlay's piggyback digest for `peer` up to date. The
    /// digest covers the sorted FUSE IDs jointly monitored on the link
    /// (paper §6.1: a 20-byte hash encoding "all the FUSE groups that use
    /// this overlay link"). SHA-1 runs only when the set changed since the
    /// last read, so an install or teardown costs no hash and an agreeing
    /// ping costs a lookup and a flag test. Called before the overlay
    /// sends a ping to, or answers a ping from, `peer`, and before a
    /// received digest is compared.
    pub(crate) fn refresh_link_hash(&mut self, ov: &mut OverlayNode, peer: PeerAddr) {
        let dirty = self
            .watch
            .expiry
            .get_mut(&peer)
            .is_some_and(|rec| std::mem::take(&mut rec.hash_dirty));
        if dirty {
            self.obs.record(Event::HashComputed);
            ov.set_link_hash(peer, Some(self.recompute_hash(peer)));
        }
    }

    /// The digest of the groups monitoring the link to `peer`, computed
    /// from scratch.
    fn recompute_hash(&self, peer: PeerAddr) -> Digest {
        let ids = self.watch.subs.subscribers(peer);
        if ids.is_empty() {
            return Digest::of_empty();
        }
        let mut h = Sha1::new();
        for id in ids {
            h.update(&id.0.to_be_bytes());
        }
        h.finalize()
    }

    /// Whether the overlay's piggyback digests agree with the links (test
    /// hook): every group's links are exactly the subscriptions that name
    /// it; every subscribed peer has its expiry record and, unless its
    /// digest is marked stale, a digest equal to a fresh recomputation;
    /// no other peer has a record or a digest.
    pub fn hash_cache_consistent(&self, ov: &OverlayNode) -> bool {
        let subs = &self.watch.subs;
        let peers = subs.peers();
        let links: usize = self.groups.values().map(|g| g.links.as_slice().len()).sum();
        let linked = self
            .groups
            .iter()
            .all(|(&id, g)| g.links.peers().all(|p| subs.is_subscribed(p, id)));
        let subscribed = peers.iter().all(|&p| {
            let mut ids = subs.subscribers(p).iter();
            ids.all(|id| {
                self.groups
                    .get(id)
                    .is_some_and(|g| g.links.get(p).is_some())
            })
        });
        let hashed = peers.iter().filter(|&&p| ov.link_hash(p).is_some());
        linked
            && subscribed
            && links == subs.len()
            && peers.iter().all(|&p| {
                self.watch.expiry.get(&p).is_some_and(|rec| {
                    rec.hash_dirty || ov.link_hash(p) == Some(self.recompute_hash(p))
                })
            })
            && self.watch.expiry.len() == peers.len()
            && ov.link_hash_count() == hashed.count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(at: u64) -> Link {
        Link {
            installed_at: Time(at),
            refreshed_at: Time(at),
        }
    }

    fn peers(links: &Links) -> Vec<PeerAddr> {
        links.peers().collect()
    }

    #[test]
    fn links_keep_insertion_order_inline_spilled_and_drained() {
        let mut links = Links::default();
        links.push(7, link(1));
        links.push(3, link(2));
        // A delegate's two links stay in the record, no wider than the
        // pair and a tag.
        assert!(matches!(links.0, Repr::Inline { len: 2, .. }));
        let pair = std::mem::size_of::<[(PeerAddr, Link); 2]>();
        assert!(std::mem::size_of::<Links>() <= pair + 8);
        assert_eq!(peers(&links), [7, 3]);
        links.push(9, link(3));
        links.push(1, link(4));
        assert!(matches!(links.0, Repr::Spilled(_)));
        assert_eq!(peers(&links), [7, 3, 9, 1]);
        assert!(links.remove(3));
        assert!(!links.remove(3), "no second link to remove");
        assert_eq!(peers(&links), [7, 9, 1]);
        links.get_mut(9).expect("linked").refreshed_at = Time(5);
        assert_eq!(links.get(9).map(|l| l.refreshed_at), Some(Time(5)));
        assert_eq!(peers(&std::mem::take(&mut links)), [7, 9, 1]);
        assert!(links.is_empty());

        let mut inline = Links::default();
        inline.push(4, link(1));
        inline.push(2, link(2));
        assert!(inline.remove(4));
        inline.push(6, link(3));
        assert!(matches!(inline.0, Repr::Inline { len: 2, .. }));
        assert_eq!(peers(&inline), [2, 6]);
        assert!(inline.remove(6) && inline.remove(2) && inline.is_empty());
    }
}
