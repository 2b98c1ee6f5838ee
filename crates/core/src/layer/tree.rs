//! The checking tree (paper §6.1–§6.3): which links each group monitors,
//! when each monitored peer's links expire, and the piggyback digest of the
//! groups on each link.
//!
//! This module alone writes link state. A group's links are a [`Links`]
//! that other modules can only read; the per-peer records and the node's
//! one expiry deadline live in [`Watch`], whose fields only this module
//! can name (the layer's wake-up reads the deadline). Each monitored peer
//! has one record: the sorted groups on its link, when a piggybacked
//! digest last agreed, and the link's digest.
//! Installs (§6.2) add links as `InstallChecking` envelopes pass; agreeing
//! ping digests and reconcile replies refresh them (§6.3); a link leaves
//! through [`remove_link`](FuseLayer::remove_link) or
//! [`clear_links`](FuseLayer::clear_links).
//!
//! A link's digest is the XOR, over its groups, of a fixed 160-bit
//! expansion of each `FuseId` (`expand`). A group joining or leaving the
//! link folds its expansion in or out in place, so the digest is always
//! current: no ping, ack or comparison hashes, and the digest of no groups
//! is the XOR identity, [`Digest::ZERO`]. Two different group sets share a
//! digest with probability about 2⁻¹⁶⁰, so equal digests stand for equal
//! sets as the paper's SHA-1 did. The overlay keeps no digest: it asks for
//! one when it builds a ping or an ack
//! ([`link_digest`](FuseLayer::link_digest)). The invariant this module
//! owns: [`hash_cache_consistent`](FuseLayer::hash_cache_consistent) holds
//! after every entry point — the records name exactly the groups' links,
//! and every digest equals the fold over its link's groups.

use fuse_obs::{Event, ObsSink};
use fuse_overlay::node::RouteStart;
use fuse_overlay::{NodeInfo, OverlayNode};
use fuse_util::{DetHashMap, DetHashSet, PeerAddr, Time};
use fuse_wire::Digest;

use super::{CoreCx, FuseLayer, Group, RoleState};
use crate::messages::{FuseMsg, InstallChecking};
use crate::types::{FuseId, NotifyReason};

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

/// One monitored peer: the groups on its link, its liveness floor and its
/// piggyback digest. A (group, link)'s deadline is
/// `max(link.refreshed_at, agreed_at) + link_failure_timeout`.
#[derive(Clone)]
struct Peer {
    /// The groups monitoring the link, sorted: links fail in this order.
    groups: Vec<FuseId>,
    /// When a piggybacked hash from the peer last agreed with ours — the
    /// refresh of every link to the peer at once (§6.3).
    agreed_at: Time,
    /// The XOR of `groups`' expansions, folded as they come and go.
    digest: Digest,
}

/// The 160 bits `id` contributes to a link's digest: the first three
/// outputs of SplitMix64 seeded with the id (add the golden-ratio
/// increment `0x9e3779b97f4a7c15`, then the 64-bit finalizer
/// `z ^= z >> 30; z *= 0xbf58476d1ce4e5b9; z ^= z >> 27;
/// z *= 0x94d049bb133111eb; z ^= z >> 31`), written out big-endian, the
/// third cut to its high four bytes.
fn expand(id: FuseId) -> [u8; 20] {
    let mut state = id.0;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)).to_be_bytes()
    };
    let mut out = [0; 20];
    out[..8].copy_from_slice(&next());
    out[8..16].copy_from_slice(&next());
    out[16..].copy_from_slice(&next()[..4]);
    out
}

/// Folds `id` into `digest`, or out of it if it is in: XOR is its own
/// inverse.
fn toggle(digest: &mut Digest, id: FuseId) {
    for (d, e) in digest.0.iter_mut().zip(expand(id)) {
        *d ^= e;
    }
}

/// The per-peer side of the checking trees.
#[derive(Clone, Default)]
pub(super) struct Watch {
    /// One record per peer whose link at least one group monitors.
    peers: DetHashMap<PeerAddr, Peer>,
    /// When the links are next swept: at or before the earliest deadline of
    /// any monitored link; `None` when none is monitored.
    pub(super) expiry: Option<Time>,
}

impl Watch {
    /// Adds `id` to the groups on `peer`'s link, folding it into the
    /// link's digest. Returns `true` when this is the peer's first group:
    /// its record is new, agreed at `now`.
    fn subscribe(&mut self, peer: PeerAddr, id: FuseId, now: Time) -> bool {
        let rec = self.peers.entry(peer).or_insert_with(|| Peer {
            groups: Vec::new(),
            agreed_at: now,
            digest: Digest::ZERO,
        });
        let first = rec.groups.is_empty();
        if let Err(at) = rec.groups.binary_search(&id) {
            rec.groups.insert(at, id);
            toggle(&mut rec.digest, id);
        }
        first
    }

    /// Drops `id` from the groups on `peer`'s link, folding it out of the
    /// link's digest. The peer's last group takes its record with it.
    fn unsubscribe(&mut self, peer: PeerAddr, id: FuseId) {
        let Some(rec) = self.peers.get_mut(&peer) else {
            return;
        };
        if let Ok(at) = rec.groups.binary_search(&id) {
            rec.groups.remove(at);
            toggle(&mut rec.digest, id);
        }
        if rec.groups.is_empty() {
            self.peers.remove(&peer);
        }
    }

    /// The groups monitoring the link to `peer`, sorted.
    fn groups(&self, peer: PeerAddr) -> &[FuseId] {
        self.peers.get(&peer).map_or(&[], |rec| &rec.groups)
    }
}

impl FuseLayer {
    /// The groups monitoring the link to `peer`, in `FuseId` order
    /// (visibility for tests and the microbench).
    pub fn link_groups(&self, peer: PeerAddr) -> &[FuseId] {
        self.watch.groups(peer)
    }

    /// The peers whose link at least one group monitors, sorted.
    pub fn watched_peers(&self) -> Vec<PeerAddr> {
        let mut v: Vec<PeerAddr> = self.watch.peers.keys().copied().collect();
        v.sort_unstable();
        v
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
        let start = cx.ov(ov, None, |ov, ocx| {
            ov.route_client(ocx, &root.name, payload)
        });
        match start {
            RouteStart::Sent { next } => {
                self.add_link(cx, id, next);
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
            self.add_link(cx, ic.id, prev);
        }
    }

    pub(super) fn install_forwarded(
        &mut self,
        cx: &mut CoreCx<'_>,
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
            self.add_link(cx, ic.id, prev);
        }
        if next != self.me.proc {
            self.add_link(cx, ic.id, next);
        }
    }

    // ---- Refresh and expiry (§6.3) ------------------------------------------

    #[inline]
    pub(super) fn on_ping_hash(&mut self, cx: &mut CoreCx<'_>, peer: PeerAddr, hash: Digest) {
        let agreed = match self.watch.peers.get_mut(&peer) {
            Some(rec) => {
                let agreed = rec.digest == hash;
                if agreed {
                    // One store refreshes every (group, link) deadline
                    // this hash covers.
                    rec.agreed_at = cx.now;
                }
                agreed
            }
            None => hash == Digest::ZERO,
        };
        if !agreed {
            // Disagreement: exchange lists (§6.3).
            self.obs.record(Event::Reconciled);
            let links = self.links_with(peer);
            cx.send_fuse(peer, FuseMsg::ReconcileRequest { links });
        }
    }

    pub(super) fn reconcile(
        &mut self,
        cx: &mut CoreCx<'_>,
        peer: PeerAddr,
        theirs: &[(FuseId, u64)],
    ) {
        let their_ids: DetHashSet<FuseId> = theirs.iter().map(|&(id, _)| id).collect();
        let now = cx.now;
        for id in self.watch.groups(peer).to_vec() {
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
                self.local_link_failed(cx, id, peer);
            }
        }
    }

    pub(super) fn links_with(&self, peer: PeerAddr) -> Vec<(FuseId, u64)> {
        self.watch
            .groups(peer)
            .iter()
            .filter_map(|&id| self.groups.get(&id).map(|g| (id, g.seq)))
            .collect()
    }

    /// The groups monitoring the link to `peer`, in `FuseId` order.
    pub(super) fn watchers(&self, peer: PeerAddr) -> Vec<FuseId> {
        self.watch.groups(peer).to_vec()
    }

    /// The sweep came (`Watch::expiry`). No deadline on a peer comes
    /// before its last agreement's, so a peer agreed within the last
    /// timeout is not looked at. On a peer silent for a whole timeout, the
    /// links whose deadline has come are due. The next sweep is set at the
    /// earliest deadline left before any due link fails; then they fail,
    /// peers in ascending address order and each peer's in `FuseId` order.
    pub(super) fn sweep_link_expiry(&mut self, cx: &mut CoreCx<'_>) {
        let (now, timeout) = (cx.now, self.cfg.link_failure_timeout);
        let mut due = Vec::new();
        let mut next: Option<Time> = None;
        for (&peer, rec) in &self.watch.peers {
            let floor = rec.agreed_at + timeout;
            if floor > now {
                next = Some(next.map_or(floor, |n| n.min(floor)));
                continue;
            }
            for &id in &rec.groups {
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
        // subscription sets the sweep again.
        self.watch.expiry = next;
        due.sort_unstable();
        for (peer, id) in due {
            self.obs.record(Event::LinkExpired);
            self.local_link_failed(cx, id, peer);
        }
    }

    // ---- Link bookkeeping ---------------------------------------------------

    pub(super) fn add_link(&mut self, cx: &mut CoreCx<'_>, id: FuseId, peer: PeerAddr) {
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
                // The first subscription on a peer starts watching it. A
                // sweep already set is at or before `now + timeout`, and
                // agreements and new links only move deadlines later.
                if self.watch.subscribe(peer, id, now) && self.watch.expiry.is_none() {
                    let at = now + self.cfg.link_failure_timeout;
                    self.watch.expiry = Some(at);
                    cx.wake_at(at);
                }
            }
        }
    }

    /// Drops `id`'s link to `peer`; `false` when there was none.
    pub(super) fn remove_link(&mut self, id: FuseId, peer: PeerAddr) -> bool {
        let removed = self
            .groups
            .get_mut(&id)
            .is_some_and(|g| g.links.remove(peer));
        if removed {
            // The last subscription gone stops watching the peer. The sweep
            // stays set; it finds nothing of the peer.
            self.watch.unsubscribe(peer, id);
        }
        removed
    }

    /// Drops every link of `id`.
    pub(super) fn clear_links(&mut self, id: FuseId) {
        let Some(g) = self.groups.get_mut(&id) else {
            return;
        };
        for peer in std::mem::take(&mut g.links).peers() {
            self.watch.unsubscribe(peer, id);
        }
    }

    // ---- The piggyback digest (§6.1) ----------------------------------------

    /// The digest piggybacked on the link to `peer`: it covers the sorted
    /// FUSE IDs jointly monitored on the link (paper §6.1: a 20-byte hash
    /// encoding "all the FUSE groups that use this overlay link"), and is
    /// `None` when no group monitors it. Read when the overlay builds a
    /// ping to, or an ack for, `peer`. The record keeps it current, so a
    /// read is a lookup.
    #[inline]
    pub(crate) fn link_digest(&self, peer: PeerAddr) -> Option<Digest> {
        self.watch.peers.get(&peer).map(|rec| rec.digest)
    }

    /// Whether the link state agrees with itself (test hook): every
    /// group's links are exactly the records that name it, each record
    /// names at least one group, and every digest equals the fold over its
    /// link's groups.
    pub fn hash_cache_consistent(&self) -> bool {
        let links: usize = self.groups.values().map(|g| g.links.as_slice().len()).sum();
        let subs: usize = self.watch.peers.values().map(|rec| rec.groups.len()).sum();
        let linked = self.groups.iter().all(|(&id, g)| {
            g.links
                .peers()
                .all(|p| self.watch.groups(p).binary_search(&id).is_ok())
        });
        let watched = self.watch.peers.iter().all(|(&p, rec)| {
            let named = rec.groups.iter().all(|id| {
                self.groups
                    .get(id)
                    .is_some_and(|g| g.links.get(p).is_some())
            });
            let mut fold = Digest::ZERO;
            rec.groups.iter().for_each(|&id| toggle(&mut fold, id));
            let fresh = rec.digest == fold;
            named && fresh && !rec.groups.is_empty()
        });
        linked && watched && links == subs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    #[test]
    fn first_and_last_subscription_edges_are_reported() {
        let mut w = Watch::default();
        assert!(w.subscribe(7, FuseId(100), Time(1)), "first sub on peer 7");
        assert!(
            !w.subscribe(7, FuseId(200), Time(2)),
            "second sub is not an edge"
        );
        assert!(
            !w.subscribe(7, FuseId(100), Time(3)),
            "duplicate sub is a no-op"
        );
        assert_eq!(
            w.peers[&7].agreed_at,
            Time(1),
            "the first sub dates the record"
        );
        assert_eq!(w.groups(7).len(), 2);
        w.unsubscribe(7, FuseId(100));
        assert_eq!(w.groups(7), [FuseId(200)], "one sub remains");
        w.unsubscribe(7, FuseId(200));
        assert!(w.peers.is_empty(), "the last sub takes the record");
        w.unsubscribe(7, FuseId(200));
        assert!(w.peers.is_empty(), "double unsubscribe is a no-op");
        assert!(w.subscribe(7, FuseId(200), Time(4)), "a new first sub");
    }

    #[test]
    fn subscribers_are_sorted_and_per_peer() {
        let mut w = Watch::default();
        for k in [300, 100, 200] {
            w.subscribe(7, FuseId(k), Time(0));
        }
        w.subscribe(8, FuseId(400), Time(0));
        assert_eq!(w.groups(7), [FuseId(100), FuseId(200), FuseId(300)]);
        assert_eq!(w.groups(8), [FuseId(400)]);
        assert!(w.groups(9).is_empty());
        let mut peers: Vec<PeerAddr> = w.peers.keys().copied().collect();
        peers.sort_unstable();
        assert_eq!(peers, [7, 8]);
    }

    /// A test-local fold over `ids`: the XOR of their expansions.
    fn fold(ids: impl IntoIterator<Item = FuseId>) -> Digest {
        let mut d = [0u8; 20];
        for id in ids {
            for (b, e) in d.iter_mut().zip(expand(id)) {
                *b ^= e;
            }
        }
        Digest(d)
    }

    /// The expansion is SplitMix64's stream, pinned by its known first
    /// outputs for seed 0 (`e220a8397b1dcdaf`, `6e789e6aa1b965f4`,
    /// `06c45d188009454f`), written out big-endian.
    #[test]
    fn the_expansion_is_splitmix64_big_endian() {
        let hex: String = expand(FuseId(0))
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(hex, "e220a8397b1dcdaf6e789e6aa1b965f406c45d18");
        assert_eq!(fold([]), Digest::ZERO, "no groups fold to the identity");
    }

    proptest! {
        /// Groups come and go across three peers: the records hold exactly
        /// the subscriptions, each at least one group, every digest is the
        /// fold over its record's groups, and a change to a peer's groups,
        /// and only that, changes its digest.
        #[test]
        fn churn_keeps_counts_consistent(
            ops in prop::collection::vec((any::<bool>(), 0u32..3, 0u64..5), 1..60),
        ) {
            let mut w = Watch::default();
            let mut model = std::collections::BTreeSet::new();
            for (sub, peer, key) in ops {
                let digest = |w: &Watch, p| w.peers.get(&p).map_or(Digest::ZERO, |r| r.digest);
                let before: Vec<Digest> = (0..3).map(|p| digest(&w, p)).collect();
                let changed = if sub {
                    w.subscribe(peer, FuseId(key), Time(0));
                    model.insert((peer, FuseId(key)))
                } else {
                    w.unsubscribe(peer, FuseId(key));
                    model.remove(&(peer, FuseId(key)))
                };
                let mut subs = Vec::new();
                for (&p, rec) in &w.peers {
                    prop_assert!(!rec.groups.is_empty());
                    subs.extend(rec.groups.iter().map(|&id| (p, id)));
                    prop_assert_eq!(rec.digest, fold(rec.groups.iter().copied()));
                }
                for p in 0..3 {
                    let moved = digest(&w, p) != before[p as usize];
                    prop_assert_eq!(moved, changed && p == peer, "peer {}", p);
                }
                subs.sort_unstable();
                prop_assert_eq!(subs, model.iter().copied().collect::<Vec<_>>());
            }
        }

        /// A link's digest depends on its set of groups, not on the order
        /// they came in.
        #[test]
        fn the_digest_ignores_subscription_order(
            raw in prop::collection::vec(any::<u64>(), 0..24),
            picks in prop::collection::vec(any::<prop::sample::Index>(), 24..25),
        ) {
            let set: std::collections::BTreeSet<u64> = raw.into_iter().collect();
            let ids: Vec<FuseId> = set.into_iter().map(FuseId).collect();
            // Fisher–Yates, one drawn index a slot.
            let mut shuffled = ids.clone();
            for (k, pick) in (1..shuffled.len()).rev().zip(&picks) {
                shuffled.swap(k, pick.index(k + 1));
            }
            let (mut a, mut b) = (Watch::default(), Watch::default());
            for (&x, &y) in ids.iter().zip(&shuffled) {
                a.subscribe(1, x, Time(0));
                b.subscribe(1, y, Time(0));
            }
            let digest = |w: &Watch| w.peers.get(&1).map_or(Digest::ZERO, |r| r.digest);
            prop_assert_eq!(digest(&a), digest(&b));
            prop_assert_eq!(digest(&a), fold(ids.iter().copied()));
        }
    }
}
