//! The FUSE protocol state machine (paper §6).
//!
//! One [`FuseLayer`] lives on every node, above the overlay. It holds every
//! group the node participates in — as **root** (the creator, coordinator of
//! repair), **member**, or **delegate** (a non-member node on an overlay
//! route between a member and the root, holding only liveness-tree state).
//!
//! The invariant the layer maintains is the paper's *distributed one-way
//! agreement*: once any participant decides the group failed, every live
//! member's application handler is invoked exactly once, within a bounded
//! time, regardless of crashes, partitions or message loss. Failure burns
//! along the liveness tree ("the fuse"): any link that stops refreshing
//! converts into `SoftNotification`s and repair attempts, and any repair
//! that cannot complete converts into `HardNotification`s.
//!
//! Every notification carries the *cause* that burned the fuse
//! ([`NotifyReason`](crate::NotifyReason)): the local evidence where failure was first declared,
//! propagated on the wire inside `HardNotification` so members observe the
//! same classified cause the declaring node saw.
//!
//! The layer is sans-io: every entry point takes a `CoreCx` — a borrowed
//! bundle of `now`, the driver RNG and the [`Output`] queue — and all side
//! effects leave as queued outputs. The embedded overlay is driven through
//! an `OverlayCx` whose sink is that same queue, so its effects land in
//! emission order.
//!
//! Each group has one record here, from the root's `create_group` (or the
//! first message that names the group) until the group fails: its `seq`,
//! its checking-tree links and this node's role, whose box holds the
//! rest — a root's creation or repair round, a member's repair wait, and
//! the handler context and fail-on-send peers the application bound.
//!
//! The layer arms one wake-up for all of its deadlines, and cancels
//! nothing. Each deadline lives in the state it guards: a round's `due`, a
//! root's `kick`, a member's `repair_wait`, and the earliest link expiry
//! in `tree`'s record of monitored peers. Setting a group's deadline
//! (`CoreCx::deadline`) pushes `(deadline, FuseId)` on a lazy min-queue
//! and asks the host for a wake-up only when it comes before the one
//! pending. Nothing leaves the queue but at its front: an entry is live
//! while its group's record holds it as `Group::deadline`, and one the
//! group consumed, moved or took away with it is dropped when it gets
//! there. A wake-up acts on whatever has come (`due <= now`: a socket
//! driver wakes late) — the link expiry first, then each group whose live
//! entry has come, in (deadline, `FuseId`) order, a round's before its
//! kick — drops the stale entries off the queue's front and asks for a
//! wake-up at the earliest of the front and the link expiry, so one that
//! comes early or twice finds nothing due. Once stale entries could
//! outnumber the records' deadlines, the entry points that set deadlines
//! (a FUSE message, a wake-up, a creation) drop every one no record holds
//! (`trim_deadlines`), so group churn faster than the deadlines come
//! keeps the queue within a few entries a record.
//!
//! This module holds the state and the dispatch; the protocol lives in one
//! module per seam of §6: `create` (blocking creation, §6.2), `tree` (the
//! checking tree: installs, links, deadlines and digest, §6.1–§6.3),
//! `repair` (§6.5) and `notify` (soft and hard notification, §3.4 and
//! §6.4).

mod create;
mod notify;
mod repair;
mod tree;

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use fuse_obs::{Aggregates, Recorder};
use fuse_overlay::{NodeInfo, OverlayCx, OverlayMsg, OverlayNode, OverlaySink, OverlayUpcall};
use fuse_util::backoff::Backoff;
use fuse_util::idgen::IdGen;
use fuse_util::{DetHashMap, DetHashSet, Duration, PeerAddr, Time, Wake};
use fuse_wire::{Decode, Digest, EncodeBuf};
use rand::rngs::StdRng;

use crate::messages::{FuseMsg, InstallChecking};
use crate::stack::{timer_key, AppCall, Output, StackMsg, NS_FUSE, NS_OVERLAY};
use crate::types::{
    FuseConfig, FuseEvent, FuseId, GroupHandle, Role, INSTALL_WAIT, REPAIR_BACKOFF_BASE,
    REPAIR_BACKOFF_CAP,
};

use tree::{Links, Watch};

/// Borrowed per-call context for one FUSE-layer entry point.
///
/// Owned state lives in `FuseStack`; the stack constructs a `CoreCx` around
/// disjoint borrows of it for the duration of one call. Sends, wake-up
/// requests and application callbacks all leave through the shared
/// [`Output`] queue, in emission order — the property drivers rely on to
/// reproduce the simulator's event order bit-for-bit.
pub(crate) struct CoreCx<'a> {
    pub(crate) now: Time,
    pub(crate) rng: &'a mut StdRng,
    /// Overlay upcalls produced by re-entrant overlay calls (routing from
    /// inside the layer); the stack feeds them back after the entry point
    /// returns.
    pub(crate) ov_upcalls: &'a mut Vec<OverlayUpcall>,
    pub(crate) out: &'a mut VecDeque<Output>,
    pub(crate) alarm: &'a mut Alarm,
}

/// The layer's one wake-up, and the lazy min-queue of its groups'
/// deadlines: every deadline a group record holds has an entry, and an
/// entry whose record no longer holds it leaves when it reaches the front.
#[derive(Clone, Default)]
pub(crate) struct Alarm {
    wake: Wake,
    groups: BinaryHeap<Reverse<(Time, FuseId)>>,
}

impl CoreCx<'_> {
    /// Queues a FUSE message to a peer.
    #[inline]
    pub(crate) fn send_fuse(&mut self, to: PeerAddr, msg: FuseMsg) {
        self.out.push_back(Output::Send {
            to,
            msg: StackMsg::Fuse(msg),
        });
    }

    /// A deadline of group `id`, `after` from now: queued for the layer's
    /// wake-up, and noted for it.
    #[inline]
    pub(crate) fn deadline(&mut self, id: FuseId, after: Duration) -> Time {
        let at = self.now + after;
        self.alarm.groups.push(Reverse((at, id)));
        self.wake_at(at);
        at
    }

    /// Notes `at` for the layer's wake-up, asking the host for one when it
    /// comes before the one pending.
    #[inline]
    fn wake_at(&mut self, at: Time) {
        if let Some(after) = self.alarm.wake.note(self.now, at) {
            let key = timer_key(NS_FUSE, 0);
            self.out.push_back(Output::SetTimer { key, after });
        }
    }

    /// Queues an application event callback.
    pub(crate) fn app(&mut self, ev: FuseEvent) {
        self.out.push_back(Output::App(AppCall::Event(ev)));
    }

    /// Runs `f` against the overlay through an [`OverlayCx`] whose sink is
    /// the output queue, so the overlay's sends and wake-ups take their
    /// places in emission order. Upcalls stay buffered for the stack's
    /// drain loop. `links` answers the overlay's digest reads: the stack's
    /// overlay entry passes the layer, since pings and acks are built only
    /// there; the layer's own overlay calls (routing) pass `None`.
    #[inline]
    pub(crate) fn ov<R>(
        &mut self,
        ov: &mut OverlayNode,
        links: Option<&FuseLayer>,
        f: impl FnOnce(&mut OverlayNode, &mut OverlayCx<'_>) -> R,
    ) -> R {
        let mut sink = OverlayOut {
            out: self.out,
            links,
        };
        let mut ocx = OverlayCx::new(self.now, self.rng, &mut sink, self.ov_upcalls);
        f(ov, &mut ocx)
    }
}

/// The output queue, and the layer's link records, as the overlay's sink:
/// the one place overlay effects become outputs.
struct OverlayOut<'a> {
    out: &'a mut VecDeque<Output>,
    links: Option<&'a FuseLayer>,
}

impl OverlaySink for OverlayOut<'_> {
    #[inline]
    fn send(&mut self, to: PeerAddr, msg: OverlayMsg) {
        self.out.push_back(Output::Send {
            to,
            msg: StackMsg::Overlay(msg),
        });
    }

    #[inline]
    fn wake(&mut self, after: Duration) {
        let key = timer_key(NS_OVERLAY, 0);
        self.out.push_back(Output::SetTimer { key, after });
    }

    #[inline]
    fn link_digest(&mut self, peer: PeerAddr) -> Option<Digest> {
        debug_assert!(self.links.is_some(), "a ping or ack built while routing");
        self.links?.link_digest(peer)
    }
}

#[derive(Clone)]
struct RootState {
    /// When round 0's last reply came; `None` while the group is being
    /// created, when the root is not yet a participant.
    created_at: Option<Time>,
    members: Vec<NodeInfo>,
    /// The round at the group's `seq`, until its replies and installs are
    /// all in or its deadline passes.
    round: Option<Round>,
    /// When the backed-off repair round starts.
    kick: Option<Time>,
    backoff: Backoff,
    binding: Option<Box<Binding>>,
}

impl RootState {
    /// A root about to create its group: round 0 is `round`, or nothing
    /// for a group of one.
    fn new(members: Vec<NodeInfo>, round: Option<Round>) -> Box<RootState> {
        Box::new(RootState {
            created_at: None,
            members,
            round,
            kick: None,
            backoff: Backoff::new(REPAIR_BACKOFF_BASE.nanos(), REPAIR_BACKOFF_CAP.nanos()),
            binding: None,
        })
    }
}

/// One root-side round of creation (§6.2) or repair (§6.5) at the group's
/// `seq`: the members whose reply, and whose `InstallChecking`, are still
/// to come. Each leaves its set whenever it arrives, in either order.
#[derive(Clone)]
struct Round {
    replies: DetHashSet<PeerAddr>,
    installs: DetHashSet<PeerAddr>,
    /// The reply deadline, then `INSTALL_WAIT` while installs are missing.
    due: Time,
    /// A repair was requested while replies were outstanding.
    dirty: bool,
}

impl Round {
    /// Group `id`'s round awaiting every member, its reply deadline
    /// `after` from now.
    fn new(cx: &mut CoreCx<'_>, id: FuseId, members: &[NodeInfo], after: Duration) -> Round {
        let replies: DetHashSet<PeerAddr> = members.iter().map(|m| m.proc).collect();
        Round {
            installs: replies.clone(),
            replies,
            due: cx.deadline(id, after),
            dirty: false,
        }
    }

    /// Counts awaited `from`'s reply to group `id`'s round; `true` when it
    /// was the last. The reply deadline then gives way to `INSTALL_WAIT` if
    /// installs are missing.
    fn reply(&mut self, cx: &mut CoreCx<'_>, id: FuseId, from: PeerAddr) -> bool {
        self.replies.remove(&from);
        if !self.replies.is_empty() {
            return false;
        }
        if !self.installs.is_empty() {
            self.due = cx.deadline(id, INSTALL_WAIT);
        }
        true
    }

    fn done(&self) -> bool {
        self.replies.is_empty() && self.installs.is_empty()
    }
}

#[derive(Clone)]
struct MemberState {
    root: NodeInfo,
    created_at: Time,
    /// When the wait for the root's repair, after `NeedRepair`, runs out.
    repair_wait: Option<Time>,
    binding: Option<Box<Binding>>,
}

/// What the application bound to a group it participates in. Boxed on
/// first use: most groups never get a handler context or a `group_send`.
#[derive(Clone, Default)]
struct Binding {
    /// Context registered via `register_handler`; returned inside the
    /// failure [`Notification`](crate::Notification).
    ctx: Option<u64>,
    /// Fail-on-send peers (§3.4): those this node made a `group_send` to.
    /// A broken connection to one declares the group failed.
    sends: Vec<PeerAddr>,
}

#[derive(Clone)]
enum RoleState {
    /// Root and member state are boxed: a node keeps a record for every
    /// group it roots, joins or relays, and most of them are delegates,
    /// which carry nothing but the shared record.
    Root(Box<RootState>),
    Member(Box<MemberState>),
    Delegate,
}

impl RoleState {
    /// A participant's role and when it joined the group; `None` on a
    /// delegate and on a root whose group is still being created.
    fn participant(&self) -> Option<(Role, Time)> {
        match self {
            RoleState::Root(rs) => Some((Role::Root, rs.created_at?)),
            RoleState::Member(ms) => Some((Role::Member, ms.created_at)),
            RoleState::Delegate => None,
        }
    }

    /// A participant's binding, allocated on first use; `None` where no
    /// application may bind.
    fn bind(&mut self) -> Option<&mut Binding> {
        let slot = match self {
            RoleState::Root(rs) if rs.created_at.is_some() => &mut rs.binding,
            RoleState::Member(ms) => &mut ms.binding,
            _ => return None,
        };
        Some(slot.get_or_insert_default())
    }

    /// What the application bound, if anything.
    fn binding(&self) -> Option<&Binding> {
        match self {
            RoleState::Root(rs) => rs.binding.as_deref(),
            RoleState::Member(ms) => ms.binding.as_deref(),
            RoleState::Delegate => None,
        }
    }

    /// Whether the application bound a `group_send` to `peer` (§3.4).
    fn sends_to(&self, peer: PeerAddr) -> bool {
        self.binding().is_some_and(|b| b.sends.contains(&peer))
    }
}

#[derive(Clone)]
struct Group {
    seq: u64,
    role: RoleState,
    links: Links,
}

impl Group {
    /// A record with no checking-tree links yet.
    fn new(seq: u64, role: RoleState) -> Group {
        Group {
            seq,
            role,
            links: Links::default(),
        }
    }

    /// The earliest of the record's deadlines: a root's round and kick, a
    /// member's repair wait.
    fn deadline(&self) -> Option<Time> {
        match &self.role {
            RoleState::Root(rs) => {
                let round = rs.round.as_ref().map(|r| r.due);
                round.into_iter().chain(rs.kick).min()
            }
            RoleState::Member(ms) => ms.repair_wait,
            RoleState::Delegate => None,
        }
    }

    /// Whether `at` is one of the record's deadlines, the earliest or not.
    fn has_deadline(&self, at: Time) -> bool {
        match &self.role {
            RoleState::Root(rs) => {
                rs.round.as_ref().map(|r| r.due) == Some(at) || rs.kick == Some(at)
            }
            RoleState::Member(ms) => ms.repair_wait == Some(at),
            RoleState::Delegate => false,
        }
    }
}

/// The per-node FUSE layer.
#[derive(Clone)]
pub struct FuseLayer {
    cfg: FuseConfig,
    me: NodeInfo,
    idgen: IdGen,
    /// Every group this node holds state for, in any role, a root's from
    /// its `create_group` on.
    groups: DetHashMap<FuseId, Group>,
    /// One record per monitored peer: the groups on its link, its
    /// liveness floor and its digest; only `tree` touches it.
    watch: Watch,
    /// Reusable single-pass encode scratch for wire payloads this layer
    /// builds (`InstallChecking` envelopes): encoding reserves the exact
    /// size hint once and never re-counts or grows per message.
    ebuf: EncodeBuf,
    /// The node's observation recorder; [`FuseLayer::obs`] exposes a
    /// read-only view.
    obs: Recorder,
}

impl FuseLayer {
    /// Creates the layer for node `me`.
    pub fn new(me: NodeInfo, cfg: FuseConfig) -> Self {
        FuseLayer {
            cfg,
            me,
            idgen: IdGen::new(u64::from(me.proc)),
            groups: DetHashMap::default(),
            watch: Watch::default(),
            ebuf: EncodeBuf::new(),
            obs: Recorder::with_origin(me.proc),
        }
    }

    /// The node booted at `now`: the groups it creates take ids of this
    /// life, none an earlier life of the node issued.
    pub(crate) fn boot(&mut self, now: Time) {
        self.idgen = IdGen::booted(u64::from(self.me.proc), now.nanos());
    }

    /// The node's full observation aggregates (read-only).
    pub fn obs(&self) -> &Aggregates {
        self.obs.aggregates()
    }

    /// Number of groups this node holds state for: any role, a root's
    /// from its `create_group` on, before the creation succeeded.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Whether this node holds state for `id`, a creating root's included.
    pub fn knows_group(&self, id: FuseId) -> bool {
        self.groups.contains_key(&id)
    }

    /// Whether this node holds *member or root* state for `id`.
    pub fn is_participant(&self, id: FuseId) -> bool {
        self.role(id).and_then(RoleState::participant).is_some()
    }

    /// This node's handle for a live group it participates in.
    pub fn handle(&self, id: FuseId) -> Option<GroupHandle> {
        let (role, created_at) = self.role(id)?.participant()?;
        Some(GroupHandle {
            id,
            role,
            created_at,
        })
    }

    /// Liveness-tree neighbors currently monitored for `id` (visibility for
    /// tests and the SV-tree census).
    pub fn tree_links(&self, id: FuseId) -> Vec<PeerAddr> {
        let mut v: Vec<PeerAddr> = self
            .groups
            .get(&id)
            .map(|g| g.links.peers().collect())
            .unwrap_or_default();
        v.sort_unstable();
        v
    }

    fn role(&self, id: FuseId) -> Option<&RoleState> {
        self.groups.get(&id).map(|g| &g.role)
    }

    /// Whether `id` is rooted here.
    fn is_root(&self, id: FuseId) -> bool {
        matches!(self.role(id), Some(RoleState::Root(_)))
    }

    // ---- Dispatch -------------------------------------------------------------

    /// Handles a FUSE message from `from`.
    pub(crate) fn on_message(
        &mut self,
        cx: &mut CoreCx<'_>,
        ov: &mut OverlayNode,
        from: PeerAddr,
        msg: FuseMsg,
    ) {
        match msg {
            FuseMsg::GroupCreateRequest { id, root, .. } => {
                self.on_create_request(cx, ov, from, id, root)
            }
            // Creation is the group's round 0.
            FuseMsg::GroupCreateReply { id, ok } => self.on_round_reply(cx, from, id, 0, ok),
            FuseMsg::SoftNotification { id, seq } => self.on_soft(cx, from, id, seq),
            FuseMsg::HardNotification { id, reason, .. } => self.on_hard(cx, from, id, reason),
            FuseMsg::NeedRepair { id, .. } => self.on_need_repair(cx, from, id),
            FuseMsg::GroupRepairRequest { id, seq, root } => {
                self.on_repair_request(cx, ov, from, id, seq, root)
            }
            FuseMsg::GroupRepairReply { id, seq, ok } => self.on_round_reply(cx, from, id, seq, ok),
            FuseMsg::ReconcileRequest { links } => {
                let mine = self.links_with(from);
                cx.send_fuse(from, FuseMsg::ReconcileReply { links: mine });
                self.reconcile(cx, from, &links);
            }
            FuseMsg::ReconcileReply { links } => self.reconcile(cx, from, &links),
        }
        self.trim_deadlines(cx);
    }

    /// Handles an upcall from the overlay beneath.
    #[inline]
    pub(crate) fn on_overlay_upcall(&mut self, cx: &mut CoreCx<'_>, up: OverlayUpcall) {
        match up {
            OverlayUpcall::PingHash { peer, hash } => self.on_ping_hash(cx, peer, hash),
            OverlayUpcall::LinkDown { peer, .. } => {
                // Dead or rerouted link: every group monitoring it soft-fails
                // that branch and repairs.
                self.peer_links_failed(cx, peer);
            }
            OverlayUpcall::Delivered { src, prev, payload } => {
                if let Ok(ic) = InstallChecking::from_bytes(&payload) {
                    self.install_delivered(cx, ic, src.proc, prev);
                }
            }
            OverlayUpcall::Forwarded {
                prev,
                next,
                payload,
                ..
            } => {
                if let Ok(ic) = InstallChecking::from_bytes(&payload) {
                    self.install_forwarded(cx, ic, prev, next);
                }
            }
            OverlayUpcall::RouteStuck { payload, .. } => {
                if let Ok(ic) = InstallChecking::from_bytes(&payload) {
                    // Our InstallChecking could not reach the root.
                    if ic.member.proc == self.me.proc {
                        self.initiate_member_repair(cx, ic.id);
                    }
                }
            }
        }
    }

    /// The layer's wake-up: a hint. The link expiry runs if it has come.
    /// Then the queue's entries that have come leave it, and each group
    /// whose entry among them is live runs, in (deadline, `FuseId`) order;
    /// all leave before any runs, so a deadline one of them sets waits for
    /// a wake-up of its own. Last, the stale entries at the front go, and
    /// the layer asks for a wake-up at the earlier of the front and the
    /// expiry.
    pub(crate) fn on_wake(&mut self, cx: &mut CoreCx<'_>) {
        let now = cx.now;
        cx.alarm.wake.fired(now);
        if self.watch.expiry.is_some_and(|at| at <= now) {
            self.sweep_link_expiry(cx);
        }
        let mut due = Vec::new();
        while let Some(&Reverse((at, id))) = cx.alarm.groups.peek() {
            if at > now {
                break;
            }
            cx.alarm.groups.pop();
            if self.holds(at, id) && due.last() != Some(&id) {
                due.push(id);
            }
        }
        for id in due {
            self.on_group_timer(cx, id);
        }
        self.trim_deadlines(cx);
        while let Some(&Reverse((at, id))) = cx.alarm.groups.peek() {
            if self.holds(at, id) {
                break;
            }
            cx.alarm.groups.pop();
        }
        let front = cx.alarm.groups.peek().map(|e| e.0 .0);
        if let Some(at) = front.into_iter().chain(self.watch.expiry).min() {
            cx.wake_at(at);
        }
    }

    /// Whether `at` is group `id`'s deadline: its queue entry is live.
    fn holds(&self, at: Time, id: FuseId) -> bool {
        self.groups.get(&id).and_then(Group::deadline) == Some(at)
    }

    /// Drops the queue's entries that no record holds among its deadlines
    /// once they could outnumber the records' own: a root that creates and
    /// signals groups faster than their deadlines come would otherwise
    /// queue an entry for every deadline set within the last
    /// `INSTALL_WAIT`. A record holds at most two, so the queue stays
    /// within about four entries a record, at O(1) per entry pushed.
    fn trim_deadlines(&self, cx: &mut CoreCx<'_>) {
        if cx.alarm.groups.len() <= 4 * self.groups.len() + 64 {
            return;
        }
        let held = |id, at| self.groups.get(&id).is_some_and(|g| g.has_deadline(at));
        cx.alarm.groups.retain(|&Reverse((at, id))| held(id, at));
    }

    /// Handles a transport-level broken connection (direct messages).
    pub(crate) fn on_link_broken(&mut self, cx: &mut CoreCx<'_>, peer: PeerAddr) {
        self.fail_awaiting_or_bound(cx, peer);
        // Liveness-tree links to this peer are gone.
        self.peer_links_failed(cx, peer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Alarm {
        /// Entries queued, stale ones included.
        pub(crate) fn queued(&self) -> usize {
            self.groups.len()
        }
    }

    #[test]
    fn group_record_keeps_root_state_out_of_line() {
        // One record per (group, node), and most of them are delegates: a
        // root's or a member's state must not widen the delegate records,
        // which hold their two links inline.
        assert!(
            std::mem::size_of::<Group>() <= 80,
            "Group is {} bytes",
            std::mem::size_of::<Group>()
        );
    }
}
