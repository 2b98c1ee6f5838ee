//! Blocking group creation (paper §6.2, Figure 1's `CreateGroup`).
//!
//! The root contacts every member directly and in parallel; a member
//! installs state, replies, and routes its `InstallChecking` toward the
//! root. Creation is the group's round 0: its [`Round`] counts replies and
//! installs in either order, and moves into the root's record once every
//! member has answered, to end when the installs are in too. The invariant
//! this module owns: a creation reports exactly one
//! [`FuseEvent::Created`] — success once every member answered, failure on
//! the first refusal, broken connection or timeout — because either
//! outcome first takes the attempt out of `creating`.

use fuse_obs::{Event, ObsSink};
use fuse_overlay::{NodeInfo, OverlayNode};
use fuse_util::PeerAddr;

use super::{CoreCx, FuseLayer, Group, MemberState, RoleState, RootState, Round};
use crate::messages::FuseMsg;
use crate::types::{
    CreateError, CreateTicket, FuseEvent, FuseId, GroupHandle, NotifyReason, Role, CREATE_TIMEOUT,
};

#[derive(Clone)]
pub(super) struct CreateAttempt {
    members: Vec<NodeInfo>,
    pub(super) round: Round,
    /// First hops of `InstallChecking`s that reached the root before its
    /// group record existed; linked once it does.
    pub(super) early_ics: Vec<PeerAddr>,
}

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
        let ticket = CreateTicket::new(id);
        if others.is_empty() {
            // Singleton group: alive until explicitly signalled.
            self.root_created(cx, id, Vec::new(), None);
            return ticket;
        }
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
        let round = Round::new(cx, id, &others, CREATE_TIMEOUT);
        self.creating.insert(
            id,
            CreateAttempt {
                members: others,
                round,
                early_ics: Vec::new(),
            },
        );
        ticket
    }

    /// Records the group at its root and reports the creation.
    fn root_created(
        &mut self,
        cx: &mut CoreCx<'_>,
        id: FuseId,
        members: Vec<NodeInfo>,
        round: Option<Round>,
    ) {
        let now = cx.now;
        let role = RoleState::Root(RootState::new(members, round, now));
        self.groups.insert(id, Group::new(0, role));
        self.obs.record(Event::GroupCreated);
        cx.app(FuseEvent::Created {
            ticket: CreateTicket::new(id),
            result: Ok(GroupHandle {
                id,
                role: Role::Root,
                created_at: now,
            }),
        });
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
            }));
        }
        cx.send_fuse(from, FuseMsg::GroupCreateReply { id, ok: true });
        self.route_install_checking(cx, ov, id, 0, root);
    }

    /// Every member answered the creation: the group's record exists from
    /// here on, with the round still waiting on installs.
    pub(super) fn creation_answered(
        &mut self,
        cx: &mut CoreCx<'_>,
        ov: &mut OverlayNode,
        id: FuseId,
    ) {
        let Some(attempt) = self.creating.remove(&id) else {
            return;
        };
        self.root_created(cx, id, attempt.members, Some(attempt.round));
        for prev in attempt.early_ics {
            self.add_link(cx, ov, id, prev);
        }
    }

    pub(super) fn create_failed(&mut self, cx: &mut CoreCx<'_>, id: FuseId, err: CreateError) {
        let Some(attempt) = self.creating.remove(&id) else {
            return;
        };
        self.obs.record(Event::CreateFailed);
        // Best effort: tear down any member state already installed.
        for m in &attempt.members {
            self.send_hard(cx, m.proc, id, 0, NotifyReason::CreateFailed);
        }
        cx.app(FuseEvent::Created {
            ticket: CreateTicket::new(id),
            result: Err(err),
        });
    }
}
