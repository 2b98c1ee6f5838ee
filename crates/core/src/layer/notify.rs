//! Failure notification (paper §3.4, §6.4): how a failure burns along the
//! checking tree and reaches the application.
//!
//! A lost link sends `SoftNotification`s down the rest of its group's tree
//! and turns into a repair; a failure that repair cannot undo — an explicit
//! signal, a fail-on-send break, a failed round — sends
//! `HardNotification`s and tears the group down. Each kind has one send
//! path here: [`send_softs`](FuseLayer::send_softs) and
//! [`send_hard`](FuseLayer::send_hard). The invariant this module owns:
//! the application hears of a group's failure at most once per node,
//! because only [`fail_locally`](FuseLayer::fail_locally) reports one, and
//! only while the group's record exists, which it then removes. (A handler
//! registered for a group with no record here is answered at once with
//! `UnknownGroup`, §3.1.)

use fuse_obs::{Event, ObsSink};
use fuse_overlay::OverlayNode;
use fuse_util::PeerAddr;

use super::{CoreCx, FuseLayer, RoleState};
use crate::messages::FuseMsg;
use crate::types::{CreateError, FuseEvent, FuseId, Notification, NotifyReason, Role};

impl FuseLayer {
    /// `RegisterFailureHandler`: attaches `ctx` to the group's local failure
    /// handler; it is returned inside the [`Notification`]. If the group is
    /// unknown on this node (never existed here, or already failed), the
    /// callback fires immediately with [`NotifyReason::UnknownGroup`],
    /// exactly as §3.1 specifies.
    pub(crate) fn register_handler(&mut self, cx: &mut CoreCx<'_>, id: FuseId, ctx: u64) {
        if self.is_participant(id) {
            self.handlers.insert(id, ctx);
        } else {
            cx.app(FuseEvent::Notified(Notification {
                id,
                reason: NotifyReason::UnknownGroup,
                role: Role::Observer,
                seq: 0,
                created_at: cx.now,
                ctx: Some(ctx),
            }));
        }
    }

    /// `SignalFailure`: explicit, application-triggered group failure.
    pub(crate) fn signal_failure(&mut self, cx: &mut CoreCx<'_>, ov: &mut OverlayNode, id: FuseId) {
        self.declare_failed(cx, ov, id, NotifyReason::ExplicitSignal);
    }

    /// Records a §3.4 fail-on-send binding: this node is about to send
    /// group-correlated data to `to`, and a broken delivery must burn the
    /// group. Returns `false` (and binds nothing) when this node does not
    /// hold live participant state for `id` — the caller should drop the
    /// payload, since the group has already failed here.
    pub fn bind_fail_on_send(&mut self, id: FuseId, to: PeerAddr) -> bool {
        if !self.is_participant(id) {
            return false;
        }
        self.send_bound.entry(id).or_default().insert(to);
        true
    }

    /// §3.4 fail-on-send: groups whose data path to `peer` just broke are
    /// declared failed, exactly as if the sender had signalled.
    pub(super) fn fail_bound_sends(
        &mut self,
        cx: &mut CoreCx<'_>,
        ov: &mut OverlayNode,
        peer: PeerAddr,
    ) {
        let mut bound: Vec<FuseId> = self
            .send_bound
            .iter()
            .filter(|(_, peers)| peers.contains(&peer))
            .map(|(&id, _)| id)
            .collect();
        bound.sort_unstable();
        for id in bound {
            self.declare_failed(cx, ov, id, NotifyReason::ConnectionBroken);
        }
    }

    /// Declares `id` failed with the given evidence: the member/root halves
    /// of `SignalFailure`, shared by the explicit API and fail-on-send.
    pub(super) fn declare_failed(
        &mut self,
        cx: &mut CoreCx<'_>,
        ov: &mut OverlayNode,
        id: FuseId,
        reason: NotifyReason,
    ) {
        let Some(g) = self.groups.get(&id) else {
            return; // Already failed; handler already ran.
        };
        match &g.role {
            RoleState::Root(_) => self.group_failed_at_root(cx, ov, id, None, reason),
            RoleState::Member(_) => self.fail_member(cx, ov, id, reason),
            RoleState::Delegate => {
                // Only participants may signal; a delegate-only node has no
                // registered application handler for the group.
            }
        }
    }

    /// Sends one `HardNotification` and counts it.
    pub(super) fn send_hard(
        &mut self,
        cx: &mut CoreCx<'_>,
        to: PeerAddr,
        id: FuseId,
        seq: u64,
        reason: NotifyReason,
    ) {
        self.obs.record(Event::HardSent { n: 1 });
        cx.send_fuse(to, FuseMsg::HardNotification { id, seq, reason });
    }

    /// Sends a `SoftNotification` under `seq` over every link of `id`
    /// except the one to `except`, in the links' order.
    fn send_softs(&mut self, cx: &mut CoreCx<'_>, id: FuseId, seq: u64, except: Option<PeerAddr>) {
        let Some(g) = self.groups.get(&id) else {
            return;
        };
        for p in g.links.peers().filter(|&p| Some(p) != except) {
            self.obs.record(Event::SoftSent);
            cx.send_fuse(p, FuseMsg::SoftNotification { id, seq });
        }
    }

    /// A member gives the group up: it tells the root, then fails locally.
    pub(super) fn fail_member(
        &mut self,
        cx: &mut CoreCx<'_>,
        ov: &mut OverlayNode,
        id: FuseId,
        reason: NotifyReason,
    ) {
        let g = &self.groups[&id];
        if let RoleState::Member(ms) = &g.role {
            let (root, seq) = (ms.root.proc, g.seq);
            self.send_hard(cx, root, id, seq, reason);
        }
        self.fail_locally(cx, ov, id, reason);
    }

    pub(super) fn on_soft(
        &mut self,
        cx: &mut CoreCx<'_>,
        ov: &mut OverlayNode,
        from: PeerAddr,
        id: FuseId,
        seq: u64,
    ) {
        let Some(g) = self.groups.get(&id) else {
            return;
        };
        if seq < g.seq {
            return; // Stale notification from before a completed repair.
        }
        // Forward along the tree, away from the originator, then drop the
        // damaged tree locally.
        self.send_softs(cx, id, seq, Some(from));
        self.clear_links(ov, id);
        self.branch_lost(cx, id);
    }

    pub(super) fn on_hard(
        &mut self,
        cx: &mut CoreCx<'_>,
        ov: &mut OverlayNode,
        from: PeerAddr,
        id: FuseId,
        reason: NotifyReason,
    ) {
        if self.creating.contains_key(&id) {
            // A member installed state and failed before creation finished.
            self.create_failed(cx, id, CreateError::Refused);
            return;
        }
        if !self.groups.contains_key(&id) {
            return; // Already failed here; handler already ran.
        }
        if self.is_root(id) {
            self.group_failed_at_root(cx, ov, id, Some(from), reason);
        } else {
            self.fail_locally(cx, ov, id, reason);
        }
    }

    /// Fails every (group, link) monitoring `peer`, in `FuseId` order.
    pub(super) fn peer_links_failed(
        &mut self,
        cx: &mut CoreCx<'_>,
        ov: &mut OverlayNode,
        peer: PeerAddr,
    ) {
        for id in self.watchers(peer) {
            self.local_link_failed(cx, ov, id, peer);
        }
    }

    /// `id`'s link to `peer` failed: the rest of the tree hears of it and
    /// the group repairs.
    pub(super) fn local_link_failed(
        &mut self,
        cx: &mut CoreCx<'_>,
        ov: &mut OverlayNode,
        id: FuseId,
        peer: PeerAddr,
    ) {
        if !self.remove_link(ov, id, peer) {
            return;
        }
        let seq = self.groups[&id].seq;
        self.send_softs(cx, id, seq, None);
        self.branch_lost(cx, id);
    }

    /// Part of `id`'s tree is gone: a delegate left with no link drops the
    /// group, a member asks for repair, a root starts one.
    fn branch_lost(&mut self, cx: &mut CoreCx<'_>, id: FuseId) {
        let g = &self.groups[&id];
        match &g.role {
            RoleState::Delegate => {
                if g.links.is_empty() {
                    self.groups.remove(&id);
                }
            }
            RoleState::Member(_) => self.initiate_member_repair(cx, id),
            RoleState::Root(_) => self.request_repair(cx, id),
        }
    }

    pub(super) fn group_failed_at_root(
        &mut self,
        cx: &mut CoreCx<'_>,
        ov: &mut OverlayNode,
        id: FuseId,
        except: Option<PeerAddr>,
        reason: NotifyReason,
    ) {
        self.obs.record(Event::RepairFailed);
        if let Some(g) = self.groups.get_mut(&id) {
            if let RoleState::Root(rs) = &mut g.role {
                // The record is torn down below; its member list moves out.
                let (seq, members) = (g.seq, std::mem::take(&mut rs.members));
                for m in members.iter().filter(|m| Some(m.proc) != except) {
                    self.send_hard(cx, m.proc, id, seq, reason);
                }
            }
        }
        self.fail_locally(cx, ov, id, reason);
    }

    /// Tears down all local state for `id` and invokes the application
    /// handler when this node is a participant. Exactly-once: state presence
    /// gates the upcall.
    pub(super) fn fail_locally(
        &mut self,
        cx: &mut CoreCx<'_>,
        ov: &mut OverlayNode,
        id: FuseId,
        reason: NotifyReason,
    ) {
        let Some(g) = self.groups.get(&id) else {
            return;
        };
        let seq = g.seq;
        let participant = g.role.participant();
        // Clean the liveness tree below us.
        self.send_softs(cx, id, seq, None);
        self.clear_links(ov, id);
        self.groups.remove(&id);
        let ctx = self.handlers.remove(&id);
        self.send_bound.remove(&id);
        if let Some((role, created_at)) = participant {
            self.obs.record(Event::Notified {
                reason: reason.kind(),
                at_nanos: cx.now.nanos(),
                seq,
            });
            cx.app(FuseEvent::Notified(Notification {
                id,
                reason,
                role,
                seq,
                created_at,
                ctx,
            }));
        }
    }
}
