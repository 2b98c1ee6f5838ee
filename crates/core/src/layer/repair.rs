//! Root-driven repair (paper §6.5).
//!
//! A member that loses its branch asks the root for repair and waits; the
//! root, after an exponential backoff, starts a sequence-numbered round
//! that contacts every member directly, and each member reinstalls its
//! branch under the new `seq`. A round that cannot complete — a member
//! that no longer knows the group, a broken connection, a timeout — fails
//! the group. The invariant this module owns: a root runs at most one round
//! at a time (a request during a round marks it `dirty` and starts the
//! next one when it ends), and a member waits on at most one repair timer.

use fuse_obs::{Event, ObsSink};
use fuse_overlay::{NodeInfo, OverlayNode};
use fuse_util::{DetHashSet, Duration, PeerAddr};

use super::{CoreCx, FuseLayer, RepairRound, RoleState};
use crate::messages::FuseMsg;
use crate::types::{FuseId, FuseTimer, NotifyReason, INSTALL_WAIT};

impl FuseLayer {
    /// A member lost its branch: ask the root for repair, once per wait.
    pub(super) fn initiate_member_repair(&mut self, cx: &mut CoreCx<'_>, id: FuseId) {
        let Some(g) = self.groups.get_mut(&id) else {
            return;
        };
        let root = g.root.proc;
        let seq = g.seq;
        let RoleState::Member(ms) = &mut g.role else {
            return;
        };
        if ms.repair_wait.is_some() {
            return;
        }
        cx.send_fuse(root, FuseMsg::NeedRepair { id, seq });
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
        if let Some(RoleState::Member(ms)) = self.groups.get_mut(&id).map(|g| &mut g.role) {
            ms.repair_wait = None;
            self.fail_member(cx, ov, id, NotifyReason::LivenessExpired);
        }
    }

    /// Asks for a repair round at the root, after the backoff.
    pub(super) fn request_repair(&mut self, cx: &mut CoreCx<'_>, id: FuseId) {
        let Some(g) = self.groups.get_mut(&id) else {
            return;
        };
        let RoleState::Root(rs) = &mut g.role else {
            return;
        };
        if rs.repair.is_some() {
            rs.dirty = true;
            return;
        }
        if rs.kick.is_some() {
            return;
        }
        let delay = Duration(rs.backoff.next_delay());
        rs.kick = Some(cx.set_fuse_timer(delay, FuseTimer::RepairKick { id }));
    }

    /// Some member's install has not reached the root in time.
    pub(super) fn on_install_wait(&mut self, cx: &mut CoreCx<'_>, id: FuseId) {
        if let Some(RoleState::Root(rs)) = self.groups.get_mut(&id).map(|g| &mut g.role) {
            rs.install_timer = None;
            if !rs.install_missing.is_empty() {
                self.request_repair(cx, id);
            }
        }
    }

    pub(super) fn start_repair_round(&mut self, cx: &mut CoreCx<'_>, id: FuseId) {
        let Some(g) = self.groups.get_mut(&id) else {
            return;
        };
        let RoleState::Root(rs) = &mut g.role else {
            return;
        };
        rs.kick = None;
        if rs.repair.is_some() {
            rs.dirty = true;
            return;
        }
        g.seq += 1;
        let seq = g.seq;
        let awaiting: DetHashSet<PeerAddr> = rs.members.iter().map(|m| m.proc).collect();
        if awaiting.is_empty() {
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
        let timer = cx.set_fuse_timer(
            self.cfg.root_repair_timeout,
            FuseTimer::RepairRound { id, seq },
        );
        rs.repair = Some(RepairRound {
            seq,
            awaiting,
            timer,
        });
    }

    pub(super) fn on_repair_round_timeout(
        &mut self,
        cx: &mut CoreCx<'_>,
        ov: &mut OverlayNode,
        id: FuseId,
        seq: u64,
    ) {
        let failed = matches!(
            self.role(id),
            Some(RoleState::Root(rs))
                if rs.repair.as_ref().is_some_and(|r| r.seq == seq && !r.awaiting.is_empty())
        );
        if failed {
            self.group_failed_at_root(cx, ov, id, None, NotifyReason::RepairFailed);
        }
    }

    /// Repair rounds waiting on `peer` fail their group.
    pub(super) fn fail_repairs_awaiting(
        &mut self,
        cx: &mut CoreCx<'_>,
        ov: &mut OverlayNode,
        peer: PeerAddr,
    ) {
        let failed: Vec<FuseId> = self
            .groups
            .iter()
            .filter(|(_, g)| match &g.role {
                RoleState::Root(rs) => rs
                    .repair
                    .as_ref()
                    .is_some_and(|r| r.awaiting.contains(&peer)),
                _ => false,
            })
            .map(|(&id, _)| id)
            .collect();
        for id in failed {
            self.group_failed_at_root(cx, ov, id, None, NotifyReason::ConnectionBroken);
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
                    if let Some(h) = ms.repair_wait.take() {
                        cx.cancel_fuse_timer(h);
                    }
                }
                cx.send_fuse(from, FuseMsg::GroupRepairReply { id, seq, ok: true });
                self.clear_links(cx, ov, id);
                self.route_install_checking(cx, ov, id, seq, root);
            }
        }
    }

    pub(super) fn on_repair_reply(
        &mut self,
        cx: &mut CoreCx<'_>,
        ov: &mut OverlayNode,
        from: PeerAddr,
        id: FuseId,
        seq: u64,
        ok: bool,
    ) {
        let Some(g) = self.groups.get_mut(&id) else {
            return;
        };
        let RoleState::Root(rs) = &mut g.role else {
            return;
        };
        let Some(round) = &mut rs.repair else {
            return;
        };
        if round.seq != seq {
            return;
        }
        if !ok {
            self.group_failed_at_root(cx, ov, id, None, NotifyReason::RepairFailed);
            return;
        }
        round.awaiting.remove(&from);
        if !round.awaiting.is_empty() {
            return;
        }
        // Round succeeded.
        let round = rs.repair.take().expect("round present");
        cx.cancel_fuse_timer(round.timer);
        rs.install_missing = rs.members.iter().map(|m| m.proc).collect();
        if let Some(h) = rs.install_timer.take() {
            cx.cancel_fuse_timer(h);
        }
        rs.install_timer = Some(cx.set_fuse_timer(INSTALL_WAIT, FuseTimer::InstallWait { id }));
        if rs.dirty {
            rs.dirty = false;
            self.request_repair(cx, id);
        } else {
            rs.backoff.reset();
        }
    }
}
