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
//! ([`NotifyReason`]): the local evidence where failure was first declared,
//! propagated on the wire inside `HardNotification` so members observe the
//! same classified cause the declaring node saw.
//!
//! The layer is sans-io: every entry point takes a `CoreCx` — a borrowed
//! bundle of `now`, the driver RNG, the stack's timer tables and the
//! [`Output`] queue — and all side effects leave as queued outputs. The
//! embedded overlay is driven through a scratch context whose effects are
//! translated into the same queue, in emission order.

use std::collections::VecDeque;

use fuse_obs::{Aggregates, Event, ObsSink, Recorder};
use fuse_overlay::node::RouteStart;
use fuse_overlay::{NodeInfo, OverlayCx, OverlayEffect, OverlayNode, OverlayTimer, OverlayUpcall};
use fuse_util::backoff::Backoff;
use fuse_util::idgen::IdGen;
use fuse_util::{DetHashMap, DetHashSet, Duration, KeyedTimers, PeerAddr, Time, TimerKey};
use fuse_wire::{Decode, Digest, EncodeBuf, Sha1};
use rand::rngs::StdRng;

use crate::messages::{FuseMsg, InstallChecking};
use crate::registry::SubscriptionRegistry;
use crate::stack::{AppCall, Output, StackMsg};
use crate::types::{
    CreateError, CreateTicket, FuseConfig, FuseEvent, FuseId, FuseTimer, GroupHandle, Notification,
    NotifyReason, Role, CREATE_TIMEOUT, INSTALL_WAIT, REPAIR_BACKOFF_BASE, REPAIR_BACKOFF_CAP,
};

/// Borrowed per-call context for one FUSE-layer entry point.
///
/// Owned state lives in `FuseStack`; the stack constructs a `CoreCx` around
/// disjoint borrows of it for the duration of one call. Sends, timer
/// commands and application callbacks all leave through the shared
/// [`Output`] queue, in emission order — the property drivers rely on to
/// reproduce the simulator's event order bit-for-bit.
pub(crate) struct CoreCx<'a> {
    pub(crate) now: Time,
    pub(crate) rng: &'a mut StdRng,
    pub(crate) fuse_timers: &'a mut KeyedTimers<FuseTimer>,
    pub(crate) ov_timers: &'a mut KeyedTimers<OverlayTimer>,
    /// Scratch buffer for overlay effects; always drained empty before an
    /// [`ov`](CoreCx::ov) call returns.
    pub(crate) ov_effects: &'a mut VecDeque<OverlayEffect>,
    /// Overlay upcalls produced by re-entrant overlay calls (routing from
    /// inside the layer); the stack feeds them back after the entry point
    /// returns.
    pub(crate) ov_upcalls: &'a mut Vec<OverlayUpcall>,
    pub(crate) out: &'a mut VecDeque<Output>,
}

impl CoreCx<'_> {
    /// Current time (driver-provided).
    pub(crate) fn now(&self) -> Time {
        self.now
    }

    /// Queues a FUSE message to a peer.
    pub(crate) fn send_fuse(&mut self, to: PeerAddr, msg: FuseMsg) {
        self.out.push_back(Output::Send {
            to,
            msg: StackMsg::Fuse(msg),
        });
    }

    /// Arms a FUSE timer, returning its key.
    pub(crate) fn set_fuse_timer(&mut self, after: Duration, tag: FuseTimer) -> TimerKey {
        let key = self.fuse_timers.arm(tag);
        self.out.push_back(Output::SetTimer { key, after });
        key
    }

    /// Cancels a previously armed FUSE timer.
    pub(crate) fn cancel_fuse_timer(&mut self, key: TimerKey) {
        if self.fuse_timers.cancel(key) {
            self.out.push_back(Output::CancelTimer { key });
        }
    }

    /// Queues an application event callback.
    pub(crate) fn app(&mut self, ev: FuseEvent) {
        self.out.push_back(Output::App(AppCall::Event(ev)));
    }

    /// Runs `f` against the overlay through a scratch [`OverlayCx`], then
    /// translates the emitted overlay effects into stack outputs, in
    /// emission order. Upcalls stay buffered for the stack's drain loop.
    pub(crate) fn ov<R>(
        &mut self,
        ov: &mut OverlayNode,
        f: impl FnOnce(&mut OverlayNode, &mut OverlayCx<'_>) -> R,
    ) -> R {
        let r = {
            let mut ocx = OverlayCx::new(
                self.now,
                self.rng,
                self.ov_timers,
                self.ov_effects,
                self.ov_upcalls,
            );
            f(ov, &mut ocx)
        };
        while let Some(eff) = self.ov_effects.pop_front() {
            match eff {
                OverlayEffect::Send { to, msg } => self.out.push_back(Output::Send {
                    to,
                    msg: StackMsg::Overlay(msg),
                }),
                OverlayEffect::SetTimer { key, after } => {
                    self.out.push_back(Output::SetTimer { key, after });
                }
                OverlayEffect::CancelTimer { key } => {
                    self.out.push_back(Output::CancelTimer { key });
                }
            }
        }
        r
    }
}

/// Counter view exposed for tests and experiments.
///
/// Since the observability-plane refactor this struct holds no state of
/// its own: [`FuseLayer::stats`] computes it on demand from the layer's
/// [`fuse_obs::Aggregates`], so every consumer reads the same recorder
/// the chaos runner and benches aggregate.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FuseStats {
    /// Groups successfully created (root side).
    pub groups_created: u64,
    /// Creation attempts that failed.
    pub creates_failed: u64,
    /// Application failure handlers invoked on this node.
    pub notifications: u64,
    /// Hard notifications sent.
    pub hard_sent: u64,
    /// Soft notifications sent.
    pub soft_sent: u64,
    /// Repair rounds started (root side).
    pub repairs_started: u64,
    /// Repair rounds that failed (group declared dead).
    pub repairs_failed: u64,
    /// (group, link) liveness deadlines that expired.
    pub links_expired: u64,
    /// Reconciliations triggered by hash mismatches.
    pub reconciles: u64,
    /// Piggyback digests computed on read: a ping or ack about to carry, or
    /// compare against, the digest of a link whose monitored set changed
    /// since it was last computed.
    pub hashes_computed: u64,
}

struct Link {
    installed_at: Time,
    /// When this one link was last installed or agreed by a reconcile.
    refreshed_at: Time,
}

/// Liveness expiry and digest staleness of one monitored peer. A
/// (group, link)'s deadline is `max(link.refreshed_at, agreed_at) +
/// link_failure_timeout`.
struct PeerExpiry {
    /// When a piggybacked hash from the peer last agreed with ours — the
    /// refresh of every link to the peer at once (§6.3).
    agreed_at: Time,
    /// The peer's one `LinkExpired` timer, armed at or before the earliest
    /// deadline among its links.
    timer: TimerKey,
    /// The peer's set of monitored groups changed since the overlay's
    /// piggyback digest for it was last computed.
    hash_dirty: bool,
}

struct RootState {
    members: Vec<NodeInfo>,
    install_missing: DetHashSet<PeerAddr>,
    install_timer: Option<TimerKey>,
    repair: Option<RepairRound>,
    kick: Option<TimerKey>,
    dirty: bool,
    backoff: Backoff,
}

struct RepairRound {
    seq: u64,
    awaiting: DetHashSet<PeerAddr>,
    timer: TimerKey,
}

struct MemberState {
    repair_wait: Option<TimerKey>,
}

enum RoleState {
    /// Boxed: a node keeps a record for every group it roots, joins or
    /// relays, and few of them are roots; the rest should not carry the
    /// root's state inline.
    Root(Box<RootState>),
    Member(MemberState),
    Delegate,
}

struct Group {
    seq: u64,
    root: NodeInfo,
    role: RoleState,
    created_at: Time,
    links: DetHashMap<PeerAddr, Link>,
}

struct CreateAttempt {
    members: Vec<NodeInfo>,
    awaiting: DetHashSet<PeerAddr>,
    timer: TimerKey,
    /// InstallChecking arrivals that raced ahead of the last create reply.
    early_ics: Vec<(PeerAddr, PeerAddr)>,
}

/// The per-node FUSE layer.
pub struct FuseLayer {
    cfg: FuseConfig,
    me: NodeInfo,
    idgen: IdGen,
    groups: DetHashMap<FuseId, Group>,
    creating: DetHashMap<FuseId, CreateAttempt>,
    /// Index: which groups monitor each link (drives the piggyback hash and
    /// the per-peer liveness deadline).
    subs: SubscriptionRegistry<FuseId>,
    /// Per-peer liveness deadline and digest staleness, one record per
    /// subscribed peer.
    expiry: DetHashMap<PeerAddr, PeerExpiry>,
    /// Application context registered per group via `register_handler`;
    /// returned inside the failure [`Notification`].
    handlers: DetHashMap<FuseId, u64>,
    /// Group-scoped fail-on-send bindings (§3.4): peers this node performed
    /// a `group_send` to, per group. A broken connection to a bound peer
    /// declares the group failed.
    send_bound: DetHashMap<FuseId, DetHashSet<PeerAddr>>,
    /// Reusable single-pass encode scratch for wire payloads this layer
    /// builds (`InstallChecking` envelopes): encoding reserves the exact
    /// size hint once and never re-counts or grows per message.
    ebuf: EncodeBuf,
    /// The node's observation recorder; [`FuseLayer::stats`] and
    /// [`FuseLayer::obs`] expose read-only views.
    obs: Recorder,
}

impl FuseLayer {
    /// Creates the layer for node `me`.
    pub fn new(me: NodeInfo, cfg: FuseConfig) -> Self {
        let tag = u64::from(me.proc);
        let obs = Recorder::with_origin(me.proc);
        FuseLayer {
            cfg,
            me,
            idgen: IdGen::new(tag),
            groups: DetHashMap::default(),
            creating: DetHashMap::default(),
            subs: SubscriptionRegistry::default(),
            expiry: DetHashMap::default(),
            handlers: DetHashMap::default(),
            send_bound: DetHashMap::default(),
            ebuf: EncodeBuf::new(),
            obs,
        }
    }

    /// The counter view, computed from the recorder aggregates.
    pub fn stats(&self) -> FuseStats {
        let a = self.obs.aggregates();
        FuseStats {
            groups_created: a.groups_created,
            creates_failed: a.creates_failed,
            notifications: a.notifications,
            hard_sent: a.hard_sent,
            soft_sent: a.soft_sent,
            repairs_started: a.repairs_started,
            repairs_failed: a.repairs_failed,
            links_expired: a.links_expired,
            reconciles: a.reconciles,
            hashes_computed: a.hashes_computed,
        }
    }

    /// The node's full observation aggregates (read-only).
    pub fn obs(&self) -> &Aggregates {
        self.obs.aggregates()
    }

    /// Number of live groups this node holds state for (any role).
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Whether this node holds state for `id`.
    pub fn knows_group(&self, id: FuseId) -> bool {
        self.groups.contains_key(&id)
    }

    /// Whether this node holds *member or root* state for `id`.
    pub fn is_participant(&self, id: FuseId) -> bool {
        matches!(
            self.groups.get(&id).map(|g| &g.role),
            Some(RoleState::Root(_)) | Some(RoleState::Member(_))
        )
    }

    /// This node's handle for a live group it participates in.
    pub fn handle(&self, id: FuseId) -> Option<GroupHandle> {
        let g = self.groups.get(&id)?;
        let role = match g.role {
            RoleState::Root(_) => Role::Root,
            RoleState::Member(_) => Role::Member,
            RoleState::Delegate => return None,
        };
        Some(GroupHandle {
            id,
            role,
            created_at: g.created_at,
        })
    }

    /// Which groups monitor the link to each peer (visibility for tests and
    /// the microbench).
    pub fn subscriptions(&self) -> &SubscriptionRegistry<FuseId> {
        &self.subs
    }

    /// Liveness-tree neighbors currently monitored for `id` (visibility for
    /// tests and the SV-tree census).
    pub fn tree_links(&self, id: FuseId) -> Vec<PeerAddr> {
        let mut v: Vec<PeerAddr> = self
            .groups
            .get(&id)
            .map(|g| g.links.keys().copied().collect())
            .unwrap_or_default();
        v.sort_unstable();
        v
    }

    // ---- Public API (paper Figure 1) --------------------------------------

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
            let now = cx.now();
            self.groups.insert(
                id,
                Group {
                    seq: 0,
                    root: self.me,
                    role: RoleState::Root(Box::new(RootState {
                        members: Vec::new(),
                        install_missing: DetHashSet::default(),
                        install_timer: None,
                        repair: None,
                        kick: None,
                        dirty: false,
                        backoff: new_backoff(),
                    })),
                    created_at: now,
                    links: DetHashMap::default(),
                },
            );
            self.obs.record(Event::GroupCreated);
            cx.app(FuseEvent::Created {
                ticket,
                result: Ok(GroupHandle {
                    id,
                    role: Role::Root,
                    created_at: now,
                }),
            });
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
                created_at: cx.now(),
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

    /// Declares `id` failed with the given evidence: the member/root halves
    /// of `SignalFailure`, shared by the explicit API and fail-on-send.
    fn declare_failed(
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
            RoleState::Member(_) => {
                let root = g.root.proc;
                let seq = g.seq;
                self.obs.record(Event::HardSent { n: 1 });
                cx.send_fuse(root, FuseMsg::HardNotification { id, seq, reason });
                self.fail_locally(cx, ov, id, reason);
            }
            RoleState::Delegate => {
                // Only participants may signal; a delegate-only node has no
                // registered application handler for the group.
            }
        }
    }

    // ---- Message handling --------------------------------------------------

    /// Handles a FUSE message from `from`.
    pub(crate) fn on_message(
        &mut self,
        cx: &mut CoreCx<'_>,
        ov: &mut OverlayNode,
        from: PeerAddr,
        msg: FuseMsg,
    ) {
        match msg {
            FuseMsg::GroupCreateRequest { id, root, members } => {
                self.on_create_request(cx, ov, from, id, root, members);
            }
            FuseMsg::GroupCreateReply { id, ok } => {
                self.on_create_reply(cx, ov, from, id, ok);
            }
            FuseMsg::SoftNotification { id, seq } => {
                self.on_soft(cx, ov, from, id, seq);
            }
            FuseMsg::HardNotification { id, seq, reason } => {
                self.on_hard(cx, ov, from, id, seq, reason);
            }
            FuseMsg::NeedRepair { id, .. } => {
                if self
                    .groups
                    .get(&id)
                    .map(|g| matches!(g.role, RoleState::Root(_)))
                    == Some(true)
                {
                    self.request_repair(cx, id);
                } else if !self.groups.contains_key(&id) && !self.creating.contains_key(&id) {
                    // The group already failed here; burn the fuse back.
                    cx.send_fuse(
                        from,
                        FuseMsg::HardNotification {
                            id,
                            seq: u64::MAX,
                            reason: NotifyReason::UnknownGroup,
                        },
                    );
                }
            }
            FuseMsg::GroupRepairRequest { id, seq, root } => {
                self.on_repair_request(cx, ov, from, id, seq, root);
            }
            FuseMsg::GroupRepairReply { id, seq, ok } => {
                self.on_repair_reply(cx, ov, from, id, seq, ok);
            }
            FuseMsg::ReconcileRequest { links } => {
                let mine = self.links_with(from);
                cx.send_fuse(from, FuseMsg::ReconcileReply { links: mine });
                self.reconcile(cx, ov, from, &links);
            }
            FuseMsg::ReconcileReply { links } => {
                self.reconcile(cx, ov, from, &links);
            }
        }
    }

    fn on_create_request(
        &mut self,
        cx: &mut CoreCx<'_>,
        ov: &mut OverlayNode,
        from: PeerAddr,
        id: FuseId,
        root: NodeInfo,
        _members: Vec<NodeInfo>,
    ) {
        let now = cx.now();
        match self.groups.get_mut(&id) {
            Some(g) => {
                // A delegate branch for this group was installed before our
                // own create request arrived; upgrade to member.
                if matches!(g.role, RoleState::Delegate) {
                    g.role = RoleState::Member(MemberState { repair_wait: None });
                    g.root = root;
                    g.created_at = now;
                }
            }
            None => {
                self.groups.insert(
                    id,
                    Group {
                        seq: 0,
                        root,
                        role: RoleState::Member(MemberState { repair_wait: None }),
                        created_at: now,
                        links: DetHashMap::default(),
                    },
                );
            }
        }
        cx.send_fuse(from, FuseMsg::GroupCreateReply { id, ok: true });
        self.route_install_checking(cx, ov, id, 0, root);
    }

    fn route_install_checking(
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

    fn on_create_reply(
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
        let install_missing: DetHashSet<PeerAddr> =
            attempt.members.iter().map(|m| m.proc).collect();
        let install_timer = Some(cx.set_fuse_timer(INSTALL_WAIT, FuseTimer::InstallWait { id }));
        let now = cx.now();
        self.groups.insert(
            id,
            Group {
                seq: 0,
                root: self.me,
                role: RoleState::Root(Box::new(RootState {
                    members: attempt.members,
                    install_missing,
                    install_timer,
                    repair: None,
                    kick: None,
                    dirty: false,
                    backoff: new_backoff(),
                })),
                created_at: now,
                links: DetHashMap::default(),
            },
        );
        self.obs.record(Event::GroupCreated);
        cx.app(FuseEvent::Created {
            ticket: CreateTicket::new(id),
            result: Ok(GroupHandle {
                id,
                role: Role::Root,
                created_at: now,
            }),
        });
        // Process InstallChecking arrivals that raced ahead.
        for (member, prev) in attempt.early_ics {
            self.install_arrived_at_root(cx, ov, id, 0, member, prev);
        }
    }

    fn create_failed(&mut self, cx: &mut CoreCx<'_>, id: FuseId, err: CreateError) {
        let Some(attempt) = self.creating.remove(&id) else {
            return;
        };
        cx.cancel_fuse_timer(attempt.timer);
        self.obs.record(Event::CreateFailed);
        // Best effort: tear down any member state already installed.
        for m in &attempt.members {
            self.obs.record(Event::HardSent { n: 1 });
            cx.send_fuse(
                m.proc,
                FuseMsg::HardNotification {
                    id,
                    seq: 0,
                    reason: NotifyReason::CreateFailed,
                },
            );
        }
        cx.app(FuseEvent::Created {
            ticket: CreateTicket::new(id),
            result: Err(err),
        });
    }

    fn on_soft(
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
        let peers: Vec<PeerAddr> = g.links.keys().copied().filter(|&p| p != from).collect();
        for p in peers {
            self.obs.record(Event::SoftSent);
            cx.send_fuse(p, FuseMsg::SoftNotification { id, seq });
        }
        self.clear_links(cx, ov, id);
        match &self.groups.get(&id).expect("group present").role {
            RoleState::Delegate => {
                self.groups.remove(&id);
            }
            RoleState::Member(_) => self.initiate_member_repair(cx, id),
            RoleState::Root(_) => self.request_repair(cx, id),
        }
    }

    fn on_hard(
        &mut self,
        cx: &mut CoreCx<'_>,
        ov: &mut OverlayNode,
        from: PeerAddr,
        id: FuseId,
        _seq: u64,
        reason: NotifyReason,
    ) {
        if self.creating.contains_key(&id) {
            // A member installed state and failed before creation finished.
            self.create_failed(cx, id, CreateError::Refused);
            return;
        }
        let Some(g) = self.groups.get(&id) else {
            return; // Already failed here; handler already ran.
        };
        if matches!(g.role, RoleState::Root(_)) {
            self.group_failed_at_root(cx, ov, id, Some(from), reason);
        } else {
            self.fail_locally(cx, ov, id, reason);
        }
    }

    fn on_repair_request(
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

    fn on_repair_reply(
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

    // ---- Overlay upcalls ----------------------------------------------------

    /// Handles an upcall from the overlay beneath.
    pub(crate) fn on_overlay_upcall(
        &mut self,
        cx: &mut CoreCx<'_>,
        ov: &mut OverlayNode,
        up: OverlayUpcall,
    ) {
        match up {
            OverlayUpcall::PingHash { peer, hash } => self.on_ping_hash(cx, ov, peer, hash),
            OverlayUpcall::LinkUp { .. } => {}
            OverlayUpcall::LinkDown { peer, .. } => {
                // Dead or rerouted link: every group monitoring it soft-fails
                // that branch and repairs.
                self.peer_links_failed(cx, ov, peer);
            }
            OverlayUpcall::Delivered { src, prev, payload } => {
                if let Ok(ic) = InstallChecking::from_bytes(&payload) {
                    self.install_delivered(cx, ov, ic, src.proc, prev);
                }
            }
            OverlayUpcall::Forwarded {
                prev,
                next,
                payload,
                ..
            } => {
                if let Ok(ic) = InstallChecking::from_bytes(&payload) {
                    self.install_forwarded(cx, ov, ic, prev, next);
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

    fn install_delivered(
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
        if self.creating.contains_key(&ic.id) {
            let attempt = self.creating.get_mut(&ic.id).expect("attempt");
            attempt.early_ics.push((src, prev));
            return;
        }
        if !self.groups.contains_key(&ic.id) {
            // Group already failed: burn the fuse back toward the member.
            self.obs.record(Event::HardSent { n: 1 });
            cx.send_fuse(
                src,
                FuseMsg::HardNotification {
                    id: ic.id,
                    seq: ic.seq,
                    reason: NotifyReason::UnknownGroup,
                },
            );
            return;
        }
        self.install_arrived_at_root(cx, ov, ic.id, ic.seq, src, prev);
    }

    fn install_arrived_at_root(
        &mut self,
        cx: &mut CoreCx<'_>,
        ov: &mut OverlayNode,
        id: FuseId,
        seq: u64,
        member: PeerAddr,
        prev: PeerAddr,
    ) {
        let Some(g) = self.groups.get_mut(&id) else {
            return;
        };
        if seq < g.seq {
            return; // Stale branch from before a repair.
        }
        if let RoleState::Root(rs) = &mut g.role {
            rs.install_missing.remove(&member);
            if rs.install_missing.is_empty() {
                if let Some(h) = rs.install_timer.take() {
                    cx.cancel_fuse_timer(h);
                }
            }
        }
        if prev != self.me.proc {
            self.add_link(cx, ov, id, prev);
        }
    }

    fn install_forwarded(
        &mut self,
        cx: &mut CoreCx<'_>,
        ov: &mut OverlayNode,
        ic: InstallChecking,
        prev: PeerAddr,
        next: PeerAddr,
    ) {
        let now = cx.now();
        match self.groups.get_mut(&ic.id) {
            Some(g) => {
                if ic.seq < g.seq {
                    return;
                }
                g.seq = g.seq.max(ic.seq);
            }
            None => {
                self.groups.insert(
                    ic.id,
                    Group {
                        seq: ic.seq,
                        root: ic.root,
                        role: RoleState::Delegate,
                        created_at: now,
                        links: DetHashMap::default(),
                    },
                );
            }
        }
        if prev != self.me.proc {
            self.add_link(cx, ov, ic.id, prev);
        }
        if next != self.me.proc {
            self.add_link(cx, ov, ic.id, next);
        }
    }

    fn on_ping_hash(
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
            if let Some(rec) = self.expiry.get_mut(&peer) {
                rec.agreed_at = cx.now();
            }
        } else {
            // Disagreement: exchange lists (§6.3).
            self.obs.record(Event::Reconciled);
            let links = self.links_with(peer);
            cx.send_fuse(peer, FuseMsg::ReconcileRequest { links });
        }
    }

    fn reconcile(
        &mut self,
        cx: &mut CoreCx<'_>,
        ov: &mut OverlayNode,
        peer: PeerAddr,
        theirs: &[(FuseId, u64)],
    ) {
        let their_ids: DetHashSet<FuseId> = theirs.iter().map(|&(id, _)| id).collect();
        let now = cx.now();
        for id in self.subs.subscribers(peer).to_vec() {
            let group = self.groups.get_mut(&id);
            let Some(link) = group.and_then(|g| g.links.get_mut(&peer)) else {
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

    // ---- Timers ---------------------------------------------------------------

    /// Handles a FUSE timer.
    pub(crate) fn on_timer(&mut self, cx: &mut CoreCx<'_>, ov: &mut OverlayNode, tag: FuseTimer) {
        match tag {
            FuseTimer::LinkExpired { peer } => self.on_peer_expiry(cx, ov, peer),
            FuseTimer::CreateTimeout { id } => {
                self.create_failed(cx, id, CreateError::MemberUnreachable);
            }
            FuseTimer::InstallWait { id } => {
                let needs = match self.groups.get_mut(&id) {
                    Some(Group {
                        role: RoleState::Root(rs),
                        ..
                    }) => {
                        rs.install_timer = None;
                        !rs.install_missing.is_empty()
                    }
                    _ => false,
                };
                if needs {
                    self.request_repair(cx, id);
                }
            }
            FuseTimer::MemberRepairWait { id } => {
                let give_up = match self.groups.get_mut(&id) {
                    Some(Group {
                        role: RoleState::Member(ms),
                        ..
                    }) => {
                        ms.repair_wait = None;
                        true
                    }
                    _ => false,
                };
                if give_up {
                    // "If the timer fires, it signals a failure notification
                    // to the FUSE client application, sends a
                    // HardNotification message to the root, and cleans up"
                    // (§6.5).
                    let (root, seq) = {
                        let g = self.groups.get(&id).expect("member state");
                        (g.root.proc, g.seq)
                    };
                    self.obs.record(Event::HardSent { n: 1 });
                    cx.send_fuse(
                        root,
                        FuseMsg::HardNotification {
                            id,
                            seq,
                            reason: NotifyReason::LivenessExpired,
                        },
                    );
                    self.fail_locally(cx, ov, id, NotifyReason::LivenessExpired);
                }
            }
            FuseTimer::RepairRound { id, seq } => {
                let failed = matches!(
                    self.groups.get(&id),
                    Some(Group {
                        role: RoleState::Root(rs),
                        ..
                    }) if rs.repair.as_ref().is_some_and(|r| r.seq == seq && !r.awaiting.is_empty())
                );
                if failed {
                    self.group_failed_at_root(cx, ov, id, None, NotifyReason::RepairFailed);
                }
            }
            FuseTimer::RepairKick { id } => {
                self.start_repair_round(cx, id);
            }
        }
    }

    /// Handles a transport-level broken connection (direct messages).
    pub(crate) fn on_link_broken(
        &mut self,
        cx: &mut CoreCx<'_>,
        ov: &mut OverlayNode,
        peer: PeerAddr,
    ) {
        // Creation attempts waiting on this peer fail immediately.
        let failed_creates: Vec<FuseId> = self
            .creating
            .iter()
            .filter(|(_, a)| a.awaiting.contains(&peer))
            .map(|(&id, _)| id)
            .collect();
        for id in failed_creates {
            self.create_failed(cx, id, CreateError::ConnectionBroken);
        }
        // Repair rounds waiting on this peer fail the group.
        let failed_repairs: Vec<FuseId> = self
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
        for id in failed_repairs {
            self.group_failed_at_root(cx, ov, id, None, NotifyReason::ConnectionBroken);
        }
        // §3.4 fail-on-send: groups whose data path to this peer just broke
        // are declared failed, exactly as if the sender had signalled.
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
        // Liveness-tree links to this peer are gone.
        self.peer_links_failed(cx, ov, peer);
    }

    // ---- Failure machinery ------------------------------------------------------

    /// The peer's `LinkExpired` timer fired. No deadline on the peer comes
    /// before its last agreement's, so while agreements keep coming the
    /// timer follows them and no link is looked at. Once the peer has been
    /// silent for a whole timeout, the links whose deadline has come fail,
    /// in `FuseId` order, and the timer follows the earliest one left (a
    /// link installed or reconciled since).
    fn on_peer_expiry(&mut self, cx: &mut CoreCx<'_>, ov: &mut OverlayNode, peer: PeerAddr) {
        let Some(rec) = self.expiry.get_mut(&peer) else {
            return;
        };
        let (now, timeout) = (cx.now(), self.cfg.link_failure_timeout);
        let mut due = Vec::new();
        let floor = rec.agreed_at + timeout;
        let mut next = (floor > now).then_some(floor);
        if next.is_none() {
            for &id in self.subs.subscribers(peer) {
                let link = &self.groups[&id].links[&peer];
                let deadline = link.refreshed_at.max(rec.agreed_at) + timeout;
                if deadline <= now {
                    due.push(id);
                } else {
                    next = Some(next.map_or(deadline, |n| n.min(deadline)));
                }
            }
        }
        // With nothing ahead every link is due, and the last unsubscribe
        // below drops the record.
        if let Some(at) = next {
            rec.timer = cx.set_fuse_timer(at.since(now), FuseTimer::LinkExpired { peer });
        }
        for id in due {
            self.obs.record(Event::LinkExpired);
            self.local_link_failed(cx, ov, id, peer);
        }
    }

    /// Fails every (group, link) monitoring `peer`, in `FuseId` order.
    fn peer_links_failed(&mut self, cx: &mut CoreCx<'_>, ov: &mut OverlayNode, peer: PeerAddr) {
        for id in self.subs.subscribers(peer).to_vec() {
            self.local_link_failed(cx, ov, id, peer);
        }
    }

    fn local_link_failed(
        &mut self,
        cx: &mut CoreCx<'_>,
        ov: &mut OverlayNode,
        id: FuseId,
        peer: PeerAddr,
    ) {
        let Some(g) = self.groups.get_mut(&id) else {
            return;
        };
        if g.links.remove(&peer).is_none() {
            return;
        }
        let seq = g.seq;
        let others: Vec<PeerAddr> = g.links.keys().copied().collect();
        self.unindex_link(cx, ov, id, peer);
        for p in others {
            self.obs.record(Event::SoftSent);
            cx.send_fuse(p, FuseMsg::SoftNotification { id, seq });
        }
        match &self.groups.get(&id).expect("group present").role {
            RoleState::Delegate => {
                if self.groups.get(&id).expect("present").links.is_empty() {
                    self.groups.remove(&id);
                }
            }
            RoleState::Member(_) => self.initiate_member_repair(cx, id),
            RoleState::Root(_) => self.request_repair(cx, id),
        }
    }

    fn initiate_member_repair(&mut self, cx: &mut CoreCx<'_>, id: FuseId) {
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

    fn request_repair(&mut self, cx: &mut CoreCx<'_>, id: FuseId) {
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

    fn start_repair_round(&mut self, cx: &mut CoreCx<'_>, id: FuseId) {
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

    fn group_failed_at_root(
        &mut self,
        cx: &mut CoreCx<'_>,
        ov: &mut OverlayNode,
        id: FuseId,
        except: Option<PeerAddr>,
        reason: NotifyReason,
    ) {
        self.obs.record(Event::RepairFailed);
        if let Some(Group {
            role: RoleState::Root(rs),
            ..
        }) = self.groups.get(&id)
        {
            let seq = self.groups.get(&id).expect("present").seq;
            let mut sent = 0u64;
            for m in &rs.members {
                if Some(m.proc) != except {
                    cx.send_fuse(m.proc, FuseMsg::HardNotification { id, seq, reason });
                    sent += 1;
                }
            }
            self.obs.record(Event::HardSent { n: sent });
        }
        self.fail_locally(cx, ov, id, reason);
    }

    /// Tears down all local state for `id` and invokes the application
    /// handler when this node is a participant. Exactly-once: state presence
    /// gates the upcall.
    fn fail_locally(
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
        let created_at = g.created_at;
        let role = match g.role {
            RoleState::Root(_) => Some(Role::Root),
            RoleState::Member(_) => Some(Role::Member),
            RoleState::Delegate => None,
        };
        // Clean the liveness tree below us.
        let peers: Vec<PeerAddr> = g.links.keys().copied().collect();
        for p in &peers {
            self.obs.record(Event::SoftSent);
            cx.send_fuse(*p, FuseMsg::SoftNotification { id, seq });
        }
        self.clear_links(cx, ov, id);
        let g = self.groups.remove(&id).expect("group present");
        match g.role {
            RoleState::Root(rs) => {
                if let Some(h) = rs.install_timer {
                    cx.cancel_fuse_timer(h);
                }
                if let Some(h) = rs.kick {
                    cx.cancel_fuse_timer(h);
                }
                if let Some(r) = rs.repair {
                    cx.cancel_fuse_timer(r.timer);
                }
            }
            RoleState::Member(ms) => {
                if let Some(h) = ms.repair_wait {
                    cx.cancel_fuse_timer(h);
                }
            }
            RoleState::Delegate => {}
        }
        let ctx = self.handlers.remove(&id);
        self.send_bound.remove(&id);
        if let Some(role) = role {
            self.obs.record(Event::Notified {
                reason: reason.kind(),
                at_nanos: cx.now().nanos(),
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

    // ---- Link bookkeeping -------------------------------------------------------

    fn add_link(&mut self, cx: &mut CoreCx<'_>, ov: &mut OverlayNode, id: FuseId, peer: PeerAddr) {
        debug_assert_ne!(peer, self.me.proc);
        let now = cx.now();
        let Some(g) = self.groups.get_mut(&id) else {
            return;
        };
        match g.links.get_mut(&peer) {
            Some(link) => link.refreshed_at = now,
            None => {
                g.links.insert(
                    peer,
                    Link {
                        installed_at: now,
                        refreshed_at: now,
                    },
                );
                if self.subs.subscribe(peer, id) {
                    // First subscription on the peer: start watching it. A
                    // later link's deadline can only be later than this one.
                    let timeout = self.cfg.link_failure_timeout;
                    let timer = cx.set_fuse_timer(timeout, FuseTimer::LinkExpired { peer });
                    let rec = PeerExpiry {
                        agreed_at: now,
                        timer,
                        hash_dirty: true,
                    };
                    self.expiry.insert(peer, rec);
                }
                self.link_set_changed(ov, peer);
            }
        }
    }

    fn unindex_link(
        &mut self,
        cx: &mut CoreCx<'_>,
        ov: &mut OverlayNode,
        id: FuseId,
        peer: PeerAddr,
    ) {
        if self.subs.unsubscribe(peer, id) {
            // Last subscription gone: stop watching the peer.
            let rec = self
                .expiry
                .remove(&peer)
                .expect("a watched peer has a record");
            cx.cancel_fuse_timer(rec.timer);
        }
        self.link_set_changed(ov, peer);
    }

    fn clear_links(&mut self, cx: &mut CoreCx<'_>, ov: &mut OverlayNode, id: FuseId) {
        let Some(g) = self.groups.get_mut(&id) else {
            return;
        };
        let peers: Vec<PeerAddr> = g.links.drain().map(|(peer, _)| peer).collect();
        for peer in peers {
            self.unindex_link(cx, ov, id, peer);
        }
    }

    /// The monitored set on the link to `peer` changed. A peer still
    /// watched has its digest recomputed when a ping or ack next reads it
    /// ([`refresh_link_hash`]); a peer no longer watched piggybacks none.
    ///
    /// [`refresh_link_hash`]: FuseLayer::refresh_link_hash
    fn link_set_changed(&mut self, ov: &mut OverlayNode, peer: PeerAddr) {
        match self.expiry.get_mut(&peer) {
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
        let ids = self.subs.subscribers(peer);
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
    /// hook): every subscribed peer has its expiry record and, unless its
    /// digest is marked stale, a digest equal to a fresh recomputation;
    /// no other peer has a record or a digest.
    pub fn hash_cache_consistent(&self, ov: &OverlayNode) -> bool {
        let peers = self.subs.peers();
        let hashed = peers.iter().filter(|&&p| ov.link_hash(p).is_some());
        peers.iter().all(|&p| {
            self.expiry.get(&p).is_some_and(|rec| {
                rec.hash_dirty || ov.link_hash(p) == Some(self.recompute_hash(p))
            })
        }) && self.expiry.len() == peers.len()
            && ov.link_hash_count() == hashed.count()
    }

    fn links_with(&self, peer: PeerAddr) -> Vec<(FuseId, u64)> {
        self.subs
            .subscribers(peer)
            .iter()
            .filter_map(|&id| self.groups.get(&id).map(|g| (id, g.seq)))
            .collect()
    }
}

fn new_backoff() -> Backoff {
    Backoff::new(REPAIR_BACKOFF_BASE.nanos(), REPAIR_BACKOFF_CAP.nanos())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_record_keeps_root_state_out_of_line() {
        // One record per (group, node), and few of them are roots: the
        // root's state must not widen the member and delegate records.
        assert!(
            std::mem::size_of::<Group>() <= 112,
            "Group is {} bytes",
            std::mem::size_of::<Group>()
        );
    }
}
