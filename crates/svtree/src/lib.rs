//! Subscriber/Volunteer multicast trees built on FUSE groups (paper §4).
//!
//! SV trees deliver events to subscribers over **content-forwarding links**
//! that route around non-interested overlay nodes: a subscriber's join
//! request walks the reverse-path-forwarding (RPF) route toward the tree
//! root, and the first on-tree node it meets becomes its content parent.
//! The RPF nodes *bypassed* by that content link join a per-link **FUSE
//! group** together with the link's endpoints, so that any failure or
//! overlay route change invalidating the link garbage-collects all of its
//! distributed state at once — the paper's "simple design pattern: garbage
//! collect out-of-date state using FUSE and retry".
//!
//! Version stamps on subscriptions handle the races FUSE does not eliminate
//! (§3.3): a late failure notification can never tear down a newer link.
//!
//! The crate implements the application as a [`fuse_core::FuseApp`], plus
//! the group-size census behind the §4 table (avg 2.9 members, max 13 for a
//! 2000-subscriber tree on a 16,000-node overlay).

pub mod census;

use bytes::Bytes;

use fuse_core::{CreateTicket, FuseApi, FuseApp, FuseEvent, FuseId, Notification};
use fuse_overlay::{NodeInfo, NodeName};
use fuse_sim::{ProcId, SimDuration, SimTime};
use fuse_util::DetHashSet;
use fuse_wire::{Decode, DecodeError, Encode, Reader, Writer};

/// SV-tree application messages (carried as opaque app payloads).
#[derive(Debug, Clone, PartialEq)]
pub enum SvMsg {
    /// Join request walking the RPF path toward the tree root.
    Subscribe {
        /// The joining node.
        subscriber: NodeInfo,
        /// Subscription version (bumped on every (re-)join).
        version: u64,
        /// RPF nodes traversed so far (the prospective bypass set).
        path: Vec<NodeInfo>,
    },
    /// An on-tree node offers to become the subscriber's content parent.
    LinkAccept {
        /// The prospective parent.
        parent: NodeInfo,
        /// Echoed subscription version.
        version: u64,
        /// The bypassed RPF nodes between subscriber and parent.
        path: Vec<NodeInfo>,
    },
    /// The subscriber confirms the link, carrying its guarding FUSE group.
    LinkConfirm {
        /// The confirmed child.
        subscriber: NodeInfo,
        /// Echoed subscription version.
        version: u64,
        /// The FUSE group guarding this content link.
        id: FuseId,
    },
    /// Content flowing down the tree.
    Publish {
        /// Event identifier.
        event: u64,
    },
}

const TAG_SUBSCRIBE: u8 = 1;
const TAG_ACCEPT: u8 = 2;
const TAG_CONFIRM: u8 = 3;
const TAG_PUBLISH: u8 = 4;

impl Encode for SvMsg {
    fn encode(&self, w: &mut dyn Writer) {
        match self {
            SvMsg::Subscribe {
                subscriber,
                version,
                path,
            } => {
                TAG_SUBSCRIBE.encode(w);
                subscriber.encode(w);
                version.encode(w);
                path.encode(w);
            }
            SvMsg::LinkAccept {
                parent,
                version,
                path,
            } => {
                TAG_ACCEPT.encode(w);
                parent.encode(w);
                version.encode(w);
                path.encode(w);
            }
            SvMsg::LinkConfirm {
                subscriber,
                version,
                id,
            } => {
                TAG_CONFIRM.encode(w);
                subscriber.encode(w);
                version.encode(w);
                id.encode(w);
            }
            SvMsg::Publish { event } => {
                TAG_PUBLISH.encode(w);
                event.encode(w);
            }
        }
    }

    fn size_hint(&self) -> usize {
        1 + match self {
            SvMsg::Subscribe {
                subscriber,
                version,
                path,
            } => subscriber.size_hint() + version.size_hint() + path.size_hint(),
            SvMsg::LinkAccept {
                parent,
                version,
                path,
            } => parent.size_hint() + version.size_hint() + path.size_hint(),
            SvMsg::LinkConfirm {
                subscriber,
                version,
                id,
            } => subscriber.size_hint() + version.size_hint() + id.size_hint(),
            SvMsg::Publish { event } => event.size_hint(),
        }
    }
}

impl Decode for SvMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            TAG_SUBSCRIBE => Ok(SvMsg::Subscribe {
                subscriber: NodeInfo::decode(r)?,
                version: u64::decode(r)?,
                path: Vec::decode(r)?,
            }),
            TAG_ACCEPT => Ok(SvMsg::LinkAccept {
                parent: NodeInfo::decode(r)?,
                version: u64::decode(r)?,
                path: Vec::decode(r)?,
            }),
            TAG_CONFIRM => Ok(SvMsg::LinkConfirm {
                subscriber: NodeInfo::decode(r)?,
                version: u64::decode(r)?,
                id: FuseId::decode(r)?,
            }),
            TAG_PUBLISH => Ok(SvMsg::Publish {
                event: u64::decode(r)?,
            }),
            _ => Err(DecodeError::Invalid("sv message tag")),
        }
    }
}

/// SV-tree node configuration.
#[derive(Debug, Clone)]
pub struct SvConfig {
    /// The multicast topic; its owner in name space is the tree root.
    pub topic: NodeName,
    /// Whether this node wants the content (subscribes at boot).
    pub subscribe: bool,
    /// Whether this node volunteers to forward content it does not want
    /// (the "V" of SV trees): a volunteer hit by a join request grafts
    /// itself onto the tree instead of being bypassed.
    pub volunteer: bool,
}

/// Delay before a failed or invalidated join is retried.
pub(crate) const REJOIN_DELAY: SimDuration = SimDuration::from_secs(1);

/// Watchdog: if a join request goes unanswered this long (lost to a stale
/// route or a dying hop), it is retried with a fresh version.
pub(crate) const JOIN_RETRY: SimDuration = SimDuration::from_secs(10);

impl SvConfig {
    /// A non-subscribing node (potential bypass or volunteer).
    pub fn bystander(topic: NodeName) -> Self {
        SvConfig {
            topic,
            subscribe: false,
            volunteer: false,
        }
    }
}

struct Uplink {
    parent: NodeInfo,
    group: FuseId,
}

struct PendingJoin {
    parent: NodeInfo,
    version: u64,
    ticket: CreateTicket,
}

struct Child {
    info: NodeInfo,
    group: FuseId,
}

/// The Subscriber/Volunteer tree application.
pub struct SvApp {
    cfg: SvConfig,
    version: u64,
    /// Whether this node is on the content tree (root, linked subscriber,
    /// or grafted volunteer).
    on_tree: bool,
    is_root: bool,
    uplink: Option<Uplink>,
    pending: Option<PendingJoin>,
    children: Vec<Child>,
    /// A volunteer that accepted a child while off-tree must climb onto the
    /// tree even though it neither subscribes nor has confirmed children
    /// yet.
    grafting: bool,
    seen_events: DetHashSet<u64>,
    /// Events delivered to this (subscribing) node.
    pub deliveries: Vec<(SimTime, u64)>,
    /// Sizes (member count incl. creator) of every link group this node
    /// created — the raw data of the §4 census.
    pub link_group_sizes: Vec<usize>,
    /// Join attempts made (including retries after failures).
    pub join_attempts: u64,
}

const TIMER_REJOIN: u64 = 1;

impl SvApp {
    /// Creates the application with the given configuration.
    pub fn new(cfg: SvConfig) -> Self {
        SvApp {
            cfg,
            version: 0,
            on_tree: false,
            is_root: false,
            uplink: None,
            pending: None,
            children: Vec::new(),
            grafting: false,
            seen_events: DetHashSet::default(),
            deliveries: Vec::new(),
            link_group_sizes: Vec::new(),
            join_attempts: 0,
        }
    }

    /// Whether this node currently forwards content (root or linked).
    pub fn on_tree(&self) -> bool {
        self.on_tree
    }

    /// Whether this node is the tree root (owner of the topic name).
    pub fn is_root(&self) -> bool {
        self.is_root
    }

    /// Number of active content children.
    pub fn child_count(&self) -> usize {
        self.children.len()
    }

    /// The current content parent, if linked.
    pub fn parent(&self) -> Option<ProcId> {
        self.uplink.as_ref().map(|u| u.parent.proc)
    }

    /// Publishes an event from this node (meaningful on the root).
    pub fn publish(&mut self, api: &mut FuseApi<'_>, event: u64) {
        self.accept_event(api, event);
    }

    /// Turns a bystander into a subscriber and joins the tree now. Trees in
    /// practice grow incrementally; workloads use this to stagger joins
    /// instead of stampeding at boot.
    pub fn subscribe_now(&mut self, api: &mut FuseApi<'_>) {
        self.cfg.subscribe = true;
        self.start_join(api);
    }

    /// Leaves the tree voluntarily: signals the groups that would have been
    /// signalled had this node failed (§4's non-failure use of FUSE).
    pub fn leave(&mut self, api: &mut FuseApi<'_>) {
        self.cfg.subscribe = false;
        self.grafting = false;
        if let Some(up) = self.uplink.take() {
            api.signal_failure(up.group);
        }
        let children = std::mem::take(&mut self.children);
        for c in children {
            api.signal_failure(c.group);
        }
        self.on_tree = self.is_root;
    }

    fn start_join(&mut self, api: &mut FuseApi<'_>) {
        if self.on_tree || self.pending.is_some() || !self.wants_tree() {
            return;
        }
        self.version += 1;
        self.join_attempts += 1;
        let me = api.me();
        match api.overlay().next_hop(&self.cfg.topic) {
            None => {
                // We own the topic name: we are the root.
                self.is_root = true;
                self.on_tree = true;
            }
            Some(next) => {
                let msg = SvMsg::Subscribe {
                    subscriber: me,
                    version: self.version,
                    path: Vec::new(),
                };
                api.send_app(next, msg.to_bytes());
                // Watchdog: joins can vanish into stale routes while the
                // overlay is still repairing; retry until linked.
                api.set_app_timer(JOIN_RETRY, TIMER_REJOIN);
            }
        }
    }

    fn schedule_rejoin(&mut self, api: &mut FuseApi<'_>) {
        if self.wants_tree() && !self.on_tree && self.pending.is_none() {
            api.set_app_timer(REJOIN_DELAY, TIMER_REJOIN);
        }
    }

    /// Whether this node needs to be on the tree (subscriber, grafting
    /// volunteer, or forwarder with children).
    fn wants_tree(&self) -> bool {
        self.cfg.subscribe || self.grafting || !self.children.is_empty()
    }

    fn accept_event(&mut self, api: &mut FuseApi<'_>, event: u64) {
        if !self.seen_events.insert(event) {
            return;
        }
        if self.cfg.subscribe {
            self.deliveries.push((api.now(), event));
        }
        let msg = SvMsg::Publish { event };
        let payload = msg.to_bytes();
        for c in &self.children {
            // Content flows under the link group's fate-sharing contract
            // (§3.4 fail-on-send): a broken delivery burns the group and
            // garbage-collects the link on every party.
            api.group_send(c.group, c.info.proc, payload.clone());
        }
    }

    fn on_subscribe(
        &mut self,
        api: &mut FuseApi<'_>,
        subscriber: NodeInfo,
        version: u64,
        mut path: Vec<NodeInfo>,
    ) {
        let me = api.me();
        if api.overlay().next_hop(&self.cfg.topic).is_none() {
            self.is_root = true;
            self.on_tree = true;
        }
        if self.on_tree {
            // Offer to become the parent.
            let msg = SvMsg::LinkAccept {
                parent: me,
                version,
                path,
            };
            api.send_app(subscriber.proc, msg.to_bytes());
            return;
        }
        if self.cfg.volunteer {
            // Graft: accept the child and climb onto the tree ourselves.
            let msg = SvMsg::LinkAccept {
                parent: me,
                version,
                path,
            };
            api.send_app(subscriber.proc, msg.to_bytes());
            self.grafting = true;
            self.start_join(api);
            return;
        }
        // Bypassed RPF node: record ourselves and pass the request along.
        path.push(me);
        match api.overlay().next_hop(&self.cfg.topic) {
            Some(next) => {
                let msg = SvMsg::Subscribe {
                    subscriber,
                    version,
                    path,
                };
                api.send_app(next, msg.to_bytes());
            }
            None => unreachable!("ownership checked above"),
        }
    }

    fn on_link_accept(
        &mut self,
        api: &mut FuseApi<'_>,
        parent: NodeInfo,
        version: u64,
        path: Vec<NodeInfo>,
    ) {
        if version != self.version || self.on_tree || self.pending.is_some() {
            return; // Stale offer (version-stamp race handling, §4).
        }
        // The link's fate-sharing set: parent + bypassed RPF nodes, with the
        // subscriber as creator.
        let mut others: Vec<NodeInfo> = vec![parent];
        others.extend(path.into_iter().filter(|p| p.proc != parent.proc));
        self.link_group_sizes.push(others.len() + 1);
        let ticket = api.create_group(others);
        self.pending = Some(PendingJoin {
            parent,
            version,
            ticket,
        });
    }

    fn on_link_confirm(
        &mut self,
        api: &mut FuseApi<'_>,
        subscriber: NodeInfo,
        version: u64,
        id: FuseId,
    ) {
        api.register_handler(id, version);
        self.children.push(Child {
            info: subscriber,
            group: id,
        });
    }

    fn on_created(
        &mut self,
        api: &mut FuseApi<'_>,
        ticket: CreateTicket,
        result: Result<fuse_core::GroupHandle, fuse_core::CreateError>,
    ) {
        let Some(p) = &self.pending else {
            return;
        };
        if p.ticket != ticket {
            return;
        }
        let pending = self.pending.take().expect("pending present");
        match result {
            Ok(handle) => {
                let id = handle.id;
                debug_assert_eq!(id, pending.ticket.id());
                api.register_handler(id, pending.version);
                let msg = SvMsg::LinkConfirm {
                    subscriber: api.me(),
                    version: pending.version,
                    id,
                };
                api.send_app(pending.parent.proc, msg.to_bytes());
                self.uplink = Some(Uplink {
                    parent: pending.parent,
                    group: id,
                });
                self.on_tree = true;
            }
            Err(_) => {
                // Some party died mid-join; retry along fresh routes.
                self.schedule_rejoin(api);
            }
        }
    }

    fn on_failure(&mut self, api: &mut FuseApi<'_>, n: Notification) {
        let id = n.id;
        // Uplink gone: garbage-collect and rejoin (we are the link creator).
        if self.uplink.as_ref().map(|u| u.group) == Some(id) {
            self.uplink = None;
            self.on_tree = self.is_root;
            self.schedule_rejoin(api);
        }
        // A child link gone: the child re-creates it if still alive.
        self.children.retain(|c| c.group != id);
        // Pending join invalidated before creation completed.
        if self.pending.as_ref().map(|p| p.ticket.id()) == Some(id) {
            self.pending = None;
            self.schedule_rejoin(api);
        }
    }
}

impl FuseApp for SvApp {
    fn on_boot(&mut self, api: &mut FuseApi<'_>) {
        if api.overlay().next_hop(&self.cfg.topic).is_none() {
            self.is_root = true;
            self.on_tree = true;
        }
        if self.cfg.subscribe && !self.on_tree {
            self.start_join(api);
        }
    }

    fn on_fuse_event(&mut self, api: &mut FuseApi<'_>, ev: FuseEvent) {
        match ev {
            FuseEvent::Created { ticket, result } => self.on_created(api, ticket, result),
            FuseEvent::Notified(n) => self.on_failure(api, n),
        }
    }

    fn on_app_message(&mut self, api: &mut FuseApi<'_>, _from: ProcId, payload: Bytes) {
        let Ok(msg) = SvMsg::from_bytes(&payload) else {
            return;
        };
        match msg {
            SvMsg::Subscribe {
                subscriber,
                version,
                path,
            } => self.on_subscribe(api, subscriber, version, path),
            SvMsg::LinkAccept {
                parent,
                version,
                path,
            } => self.on_link_accept(api, parent, version, path),
            SvMsg::LinkConfirm {
                subscriber,
                version,
                id,
            } => self.on_link_confirm(api, subscriber, version, id),
            SvMsg::Publish { event } => self.accept_event(api, event),
        }
    }

    fn on_app_timer(&mut self, api: &mut FuseApi<'_>, tag: u64) {
        if tag == TIMER_REJOIN {
            self.start_join(api);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_roundtrip() {
        let info = NodeInfo::new(7, NodeName::numbered(7));
        for m in [
            SvMsg::Subscribe {
                subscriber: info,
                version: 3,
                path: vec![info],
            },
            SvMsg::LinkAccept {
                parent: info,
                version: 3,
                path: vec![],
            },
            SvMsg::LinkConfirm {
                subscriber: info,
                version: 3,
                id: FuseId(9),
            },
            SvMsg::Publish { event: 11 },
        ] {
            let b = m.to_bytes();
            assert_eq!(SvMsg::from_bytes(&b).unwrap(), m);
            // Single-pass contract: exact hint, bit-identical to the
            // two-pass reference (every SvMsg variant is covered above).
            assert_eq!(m.size_hint(), b.len(), "size_hint must be exact");
            assert_eq!(&b[..], &fuse_wire::codec::twopass::to_bytes(&m)[..]);
            assert_eq!(m.wire_size(), fuse_wire::codec::twopass::counted_size(&m));
        }
    }

    #[test]
    fn bad_tag_rejected() {
        assert!(SvMsg::from_bytes(&[77]).is_err());
    }
}
