//! Blocking group creation (paper §6.2, Figure 1's `CreateGroup`).
//!
//! The root contacts every member directly and in parallel; a member
//! installs state, replies, and routes its `InstallChecking` toward the
//! root. Creation is the group's round 0, and the root's record exists
//! from the requests on: its [`Round`] counts replies and installs in
//! either order, an install's first hop is linked when it arrives, and a
//! repair asked for meanwhile marks the round `dirty`, as in any round.
//! Until the last reply the root is not a participant (`created_at` is
//! `None`): it has no handle, takes no handler or `group_send`, and
//! ignores its own `signal_failure`. The invariant this module owns: a
//! creation reports exactly one [`FuseEvent::Created`] — success at the
//! last reply, which sets `created_at`, failure on the first refusal,
//! broken connection or timeout, which removes the record.

use fuse_obs::{Event, ObsSink};
use fuse_overlay::{NodeInfo, OverlayNode};
use fuse_util::PeerAddr;

use super::{CoreCx, FuseLayer, Group, MemberState, RoleState, RootState, Round};
use crate::messages::FuseMsg;
use crate::types::{
    CreateError, CreateTicket, FuseEvent, FuseId, GroupHandle, NotifyReason, Role, CREATE_TIMEOUT,
};

impl FuseLayer {
    /// `CreateGroup`: blocking creation of a group over `others` (the other
    /// participants; the caller is the root and an implicit participant).
    ///
    /// Returns a [`CreateTicket`] immediately; the outcome arrives as a
    /// [`FuseEvent::Created`] echoing the ticket once every member has been
    /// contacted (the paper's blocking-create semantics: success implies all
    /// members were alive and reachable).
    pub(crate) fn create_group(
        &mut self,
        cx: &mut CoreCx<'_>,
        others: Vec<NodeInfo>,
    ) -> CreateTicket {
        let id = FuseId(self.idgen.next_id());
        for m in &others {
            cx.send_fuse(
                m.proc,
                FuseMsg::GroupCreateRequest {
                    id,
                    root: self.me,
                    members: others.clone(),
                },
            );
        }
        // A singleton group has no round: alive until explicitly signalled.
        let round = (!others.is_empty()).then(|| Round::new(cx, id, &others, CREATE_TIMEOUT));
        let singleton = round.is_none();
        let role = RoleState::Root(RootState::new(others, round));
        self.groups.insert(id, Group::new(0, role));
        if singleton {
            self.creation_answered(cx, id);
        }
        self.trim_deadlines(cx);
        CreateTicket::new(id)
    }

    pub(super) fn on_create_request(
        &mut self,
        cx: &mut CoreCx<'_>,
        ov: &mut OverlayNode,
        from: PeerAddr,
        id: FuseId,
        root: NodeInfo,
    ) {
        // A delegate branch for this group may have been installed before
        // our own create request arrived; either record becomes a member's.
        let g = self
            .groups
            .entry(id)
            .or_insert_with(|| Group::new(0, RoleState::Delegate));
        if matches!(g.role, RoleState::Delegate) {
            g.role = RoleState::Member(Box::new(MemberState {
                root,
                created_at: cx.now,
                repair_wait: None,
                binding: None,
            }));
        }
        cx.send_fuse(from, FuseMsg::GroupCreateReply { id, ok: true });
        self.route_install_checking(cx, ov, id, 0, root);
    }

    /// A round's last reply came: if it was round 0, the group is created
    /// and the root becomes a participant.
    pub(super) fn creation_answered(&mut self, cx: &mut CoreCx<'_>, id: FuseId) {
        let Some(RoleState::Root(rs)) = self.groups.get_mut(&id).map(|g| &mut g.role) else {
            return;
        };
        if rs.created_at.is_some() {
            return;
        }
        rs.created_at = Some(cx.now);
        self.obs.record(Event::GroupCreated);
        cx.app(FuseEvent::Created {
            ticket: CreateTicket::new(id),
            result: Ok(GroupHandle {
                id,
                role: Role::Root,
                created_at: cx.now,
            }),
        });
    }

    /// The creation failed: the root's record and its links go, and the
    /// members are told.
    pub(super) fn create_failed(&mut self, cx: &mut CoreCx<'_>, id: FuseId, err: CreateError) {
        self.clear_links(id);
        let Some(Group {
            role: RoleState::Root(rs),
            ..
        }) = self.groups.remove(&id)
        else {
            unreachable!("only a creating root fails a creation");
        };
        self.obs.record(Event::CreateFailed);
        // Best effort: tear down any member state already installed.
        for m in &rs.members {
            self.send_hard(cx, m.proc, id, 0, NotifyReason::CreateFailed);
        }
        cx.app(FuseEvent::Created {
            ticket: CreateTicket::new(id),
            result: Err(err),
        });
    }
}
