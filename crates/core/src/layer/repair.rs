//! Root-driven repair (paper §6.5), and the round record it shares with
//! creation.
//!
//! A member that loses its branch asks the root for repair and waits; the
//! root, after an exponential backoff, starts a sequence-numbered round
//! that contacts every member directly, and each member reinstalls its
//! branch under the new `seq`. A round that cannot complete — a member
//! that no longer knows the group, a broken connection, a timeout — fails
//! the group. The invariant this module owns: a root runs at most one
//! [`Round`] at a time, at its group's `seq`, and the round ends when its
//! replies and installs are all in, whichever order they arrive in. Only
//! then is the backoff reset, and not at all when a request came while
//! replies were outstanding: that marks the round `dirty`, and its last
//! reply asks for the next round. A member waits on at most one repair
//! deadline. Each timer here acts only once the deadline it names has
//! come, and consumes or moves it.

use fuse_obs::{Event, ObsSink};
use fuse_overlay::{NodeInfo, OverlayNode};
use fuse_util::{Duration, PeerAddr};

use super::{CoreCx, FuseLayer, Group, RoleState, Round};
use crate::messages::FuseMsg;
use crate::types::{CreateError, FuseId, FuseTimer, NotifyReason};

impl FuseLayer {
    /// A member lost its branch: ask the root for repair, once per wait.
    pub(super) fn initiate_member_repair(&mut self, cx: &mut CoreCx<'_>, id: FuseId) {
        let Some(g) = self.groups.get_mut(&id) else {
            return;
        };
        let seq = g.seq;
        let RoleState::Member(ms) = &mut g.role else {
            return;
        };
        if ms.repair_wait.is_some() {
            return;
        }
        cx.send_fuse(ms.root.proc, FuseMsg::NeedRepair { id, seq });
        ms.repair_wait = Some(cx.set_fuse_timer(
            self.cfg.member_repair_timeout,
            FuseTimer::MemberRepairWait { id },
        ));
    }

    pub(super) fn on_need_repair(&mut self, cx: &mut CoreCx<'_>, from: PeerAddr, id: FuseId) {
        if self.is_root(id) {
            self.request_repair(cx, id);
        } else if !self.groups.contains_key(&id) && !self.creating.contains_key(&id) {
            // The group already failed here; burn the fuse back.
            self.send_hard(cx, from, id, u64::MAX, NotifyReason::UnknownGroup);
        }
    }

    /// "If the timer fires, it signals a failure notification to the FUSE
    /// client application, sends a HardNotification message to the root,
    /// and cleans up" (§6.5).
    pub(super) fn on_member_repair_wait(
        &mut self,
        cx: &mut CoreCx<'_>,
        ov: &mut OverlayNode,
        id: FuseId,
    ) {
        let Some(RoleState::Member(ms)) = self.groups.get_mut(&id).map(|g| &mut g.role) else {
            return;
        };
        if ms.repair_wait.take_if(|due| *due <= cx.now).is_some() {
            self.fail_member(cx, ov, id, NotifyReason::LivenessExpired);
        }
    }

    /// Asks for a repair round at the root, after the backoff. A request
    /// while the round's replies are outstanding marks it `dirty`; one
    /// while it waits on installs schedules the round that replaces it.
    pub(super) fn request_repair(&mut self, cx: &mut CoreCx<'_>, id: FuseId) {
        let Some(RoleState::Root(rs)) = self.groups.get_mut(&id).map(|g| &mut g.role) else {
            return;
        };
        match &mut rs.round {
            Some(round) if !round.replies.is_empty() => round.dirty = true,
            _ if rs.kick.is_none() => {
                let delay = Duration(rs.backoff.next_delay());
                rs.kick = Some(cx.set_fuse_timer(delay, FuseTimer::RepairKick { id }));
            }
            _ => {}
        }
    }

    /// The kick came: a round at the next `seq` replaces any round still
    /// running.
    pub(super) fn start_repair_round(&mut self, cx: &mut CoreCx<'_>, id: FuseId) {
        let Some(g) = self.groups.get_mut(&id) else {
            return;
        };
        let RoleState::Root(rs) = &mut g.role else {
            return;
        };
        if rs.kick.take_if(|due| *due <= cx.now).is_none() {
            return;
        }
        g.seq += 1;
        let seq = g.seq;
        if rs.members.is_empty() {
            return;
        }
        self.obs.record(Event::RepairStarted);
        for m in &rs.members {
            cx.send_fuse(
                m.proc,
                FuseMsg::GroupRepairRequest {
                    id,
                    seq,
                    root: self.me,
                },
            );
        }
        let timeout = self.cfg.root_repair_timeout;
        rs.round = Some(Round::new(cx, id, &rs.members, timeout));
    }

    /// The round `id` runs at `seq`: its creation (round 0) until the
    /// group's record exists, then its root's round at the group's `seq`.
    pub(super) fn round_mut(&mut self, id: FuseId, seq: u64) -> Option<&mut Round> {
        if let Some(attempt) = self.creating.get_mut(&id) {
            return (seq == 0).then_some(&mut attempt.round);
        }
        match self.groups.get_mut(&id) {
            Some(Group {
                seq: at,
                role: RoleState::Root(rs),
                ..
            }) if *at == seq => rs.round.as_mut(),
            _ => None,
        }
    }

    /// `from` answered the round at `seq`. The last reply asks for the next
    /// round if the round is `dirty`, and records a creation's group at its
    /// root.
    pub(super) fn on_round_reply(
        &mut self,
        cx: &mut CoreCx<'_>,
        ov: &mut OverlayNode,
        from: PeerAddr,
        id: FuseId,
        seq: u64,
        ok: bool,
    ) {
        let Some(round) = self.round_mut(id, seq) else {
            return;
        };
        if !round.replies.contains(&from) {
            return;
        }
        if !ok {
            let reason = NotifyReason::RepairFailed;
            self.round_failed(cx, ov, id, CreateError::Refused, reason);
        } else if round.reply(cx, id, from) {
            if round.dirty {
                self.request_repair(cx, id);
            }
            self.creation_answered(cx, ov, id);
            self.end_round_if_done(id);
        }
    }

    /// Ends `id`'s round once its replies and installs are all in.
    pub(super) fn end_round_if_done(&mut self, id: FuseId) {
        let Some(RoleState::Root(rs)) = self.groups.get_mut(&id).map(|g| &mut g.role) else {
            return;
        };
        let Some(round) = rs.round.take_if(|r| r.done()) else {
            return;
        };
        if !round.dirty {
            rs.backoff.reset();
        }
    }

    /// The round's deadline passed. Missing replies fail the creation or
    /// the group; missing installs ask for the next round.
    pub(super) fn on_round_deadline(
        &mut self,
        cx: &mut CoreCx<'_>,
        ov: &mut OverlayNode,
        id: FuseId,
    ) {
        let now = cx.now;
        if let Some(attempt) = self.creating.get(&id) {
            if attempt.round.due <= now {
                self.create_failed(cx, id, CreateError::MemberUnreachable);
            }
            return;
        }
        let Some(RoleState::Root(rs)) = self.groups.get_mut(&id).map(|g| &mut g.role) else {
            return;
        };
        let Some(round) = rs.round.take_if(|r| r.due <= now) else {
            return;
        };
        if round.replies.is_empty() {
            self.request_repair(cx, id);
        } else {
            self.group_failed_at_root(cx, ov, id, None, NotifyReason::RepairFailed);
        }
    }

    /// Rounds still waiting on `peer`'s reply fail: its connection broke.
    pub(super) fn fail_rounds_awaiting(
        &mut self,
        cx: &mut CoreCx<'_>,
        ov: &mut OverlayNode,
        peer: PeerAddr,
    ) {
        let creating = self.creating.iter().map(|(&id, a)| (id, &a.round));
        let rooted = self.groups.iter().filter_map(|(&id, g)| match &g.role {
            RoleState::Root(rs) => Some((id, rs.round.as_ref()?)),
            _ => None,
        });
        let failed: Vec<FuseId> = creating
            .chain(rooted)
            .filter(|(_, r)| r.replies.contains(&peer))
            .map(|(id, _)| id)
            .collect();
        for id in failed {
            let reason = NotifyReason::ConnectionBroken;
            self.round_failed(cx, ov, id, CreateError::ConnectionBroken, reason);
        }
    }

    /// A round failed: a creation reports `err`, a group fails for `reason`.
    fn round_failed(
        &mut self,
        cx: &mut CoreCx<'_>,
        ov: &mut OverlayNode,
        id: FuseId,
        err: CreateError,
        reason: NotifyReason,
    ) {
        if self.creating.contains_key(&id) {
            self.create_failed(cx, id, err);
        } else {
            self.group_failed_at_root(cx, ov, id, None, reason);
        }
    }

    pub(super) fn on_repair_request(
        &mut self,
        cx: &mut CoreCx<'_>,
        ov: &mut OverlayNode,
        from: PeerAddr,
        id: FuseId,
        seq: u64,
        root: NodeInfo,
    ) {
        match self.groups.get_mut(&id) {
            None => {
                // "If a repair message ever encounters a member that no
                // longer has knowledge of the group, it fails and signals a
                // HardNotification" (§6.5). Crash recovery lands here.
                cx.send_fuse(from, FuseMsg::GroupRepairReply { id, seq, ok: false });
            }
            Some(g) => {
                if seq <= g.seq {
                    // Stale repair (we already advanced); still acknowledge.
                    cx.send_fuse(from, FuseMsg::GroupRepairReply { id, seq, ok: true });
                    return;
                }
                g.seq = seq;
                if matches!(g.role, RoleState::Delegate) {
                    // A delegate that happens to also be addressed as a
                    // member (stale root view); treat conservatively as
                    // unknown membership.
                    cx.send_fuse(from, FuseMsg::GroupRepairReply { id, seq, ok: false });
                    return;
                }
                if let RoleState::Member(ms) = &mut g.role {
                    ms.repair_wait = None;
                }
                cx.send_fuse(from, FuseMsg::GroupRepairReply { id, seq, ok: true });
                self.clear_links(ov, id);
                self.route_install_checking(cx, ov, id, seq, root);
            }
        }
    }
}
