//! Blocking group creation (paper §6.2, Figure 1's `CreateGroup`).
//!
//! The root contacts every member directly and in parallel; a member
//! installs state, replies, and routes its `InstallChecking` toward the
//! root. The invariant this module owns: a creation reports exactly one
//! [`FuseEvent::Created`] — success once every member answered, failure on
//! the first refusal, broken connection or timeout — because either
//! outcome first takes the attempt out of `creating`.

use fuse_obs::{Event, ObsSink};
use fuse_overlay::{NodeInfo, OverlayNode};
use fuse_util::{DetHashSet, PeerAddr, TimerKey};

use super::{CoreCx, FuseLayer, Group, MemberState, RoleState, RootState};
use crate::messages::FuseMsg;
use crate::types::{
    CreateError, CreateTicket, FuseEvent, FuseId, FuseTimer, GroupHandle, NotifyReason, Role,
    CREATE_TIMEOUT, INSTALL_WAIT,
};

#[derive(Clone)]
pub(super) struct CreateAttempt {
    members: Vec<NodeInfo>,
    awaiting: DetHashSet<PeerAddr>,
    timer: TimerKey,
    /// InstallChecking arrivals that raced ahead of the last create reply.
    pub(super) early_ics: Vec<(PeerAddr, PeerAddr)>,
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
        let awaiting: DetHashSet<PeerAddr> = others.iter().map(|m| m.proc).collect();
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
        let timer = cx.set_fuse_timer(CREATE_TIMEOUT, FuseTimer::CreateTimeout { id });
        self.creating.insert(
            id,
            CreateAttempt {
                members: others,
                awaiting,
                timer,
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
        install_timer: Option<TimerKey>,
    ) {
        let now = cx.now;
        let role = RoleState::Root(RootState::new(members, install_timer));
        self.groups.insert(id, Group::new(0, self.me, role, now));
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
        let now = cx.now;
        let member = RoleState::Member(MemberState { repair_wait: None });
        match self.groups.get_mut(&id) {
            Some(g) => {
                // A delegate branch for this group was installed before our
                // own create request arrived; upgrade to member.
                if matches!(g.role, RoleState::Delegate) {
                    g.role = member;
                    g.root = root;
                    g.created_at = now;
                }
            }
            None => {
                self.groups.insert(id, Group::new(0, root, member, now));
            }
        }
        cx.send_fuse(from, FuseMsg::GroupCreateReply { id, ok: true });
        self.route_install_checking(cx, ov, id, 0, root);
    }

    pub(super) fn on_create_reply(
        &mut self,
        cx: &mut CoreCx<'_>,
        ov: &mut OverlayNode,
        from: PeerAddr,
        id: FuseId,
        ok: bool,
    ) {
        let Some(attempt) = self.creating.get_mut(&id) else {
            return; // Late reply for an already-failed creation.
        };
        if !ok {
            self.create_failed(cx, id, CreateError::Refused);
            return;
        }
        attempt.awaiting.remove(&from);
        if !attempt.awaiting.is_empty() {
            return;
        }
        // Blocking create complete: every member answered.
        let attempt = self.creating.remove(&id).expect("attempt present");
        cx.cancel_fuse_timer(attempt.timer);
        let install_timer = Some(cx.set_fuse_timer(INSTALL_WAIT, FuseTimer::InstallWait { id }));
        self.root_created(cx, id, attempt.members, install_timer);
        // Process InstallChecking arrivals that raced ahead.
        for (member, prev) in attempt.early_ics {
            self.install_arrived_at_root(cx, ov, id, 0, member, prev);
        }
    }

    /// Creation attempts waiting on `peer` fail at once.
    pub(super) fn fail_creates_awaiting(&mut self, cx: &mut CoreCx<'_>, peer: PeerAddr) {
        let failed: Vec<FuseId> = self
            .creating
            .iter()
            .filter(|(_, a)| a.awaiting.contains(&peer))
            .map(|(&id, _)| id)
            .collect();
        for id in failed {
            self.create_failed(cx, id, CreateError::ConnectionBroken);
        }
    }

    pub(super) fn create_failed(&mut self, cx: &mut CoreCx<'_>, id: FuseId, err: CreateError) {
        let Some(attempt) = self.creating.remove(&id) else {
            return;
        };
        cx.cancel_fuse_timer(attempt.timer);
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
