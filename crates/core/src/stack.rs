//! The sans-io node stack: overlay ↔ FUSE composed as one pure state
//! machine.
//!
//! [`FuseStack`] is the driver-facing surface of this crate. It owns the
//! overlay, the FUSE layer and an output queue — and nothing else. A
//! driver feeds it `(now, rng, `[`Input`]`)` and drains [`Output`]s; the
//! stack never touches a socket, a clock or an event queue. The same stack
//! runs unchanged under the deterministic simulation kernel
//! (`fuse_simdriver`) and over real TCP sockets (the `fuse-node` binary):
//! only the driver differs.
//!
//! Timers are hints. The overlay and the FUSE layer each arm one wake-up
//! for the deadlines they store, and the application arms its own tags; a
//! [`TimerKey`] names which (encoded and decoded only here), so the stack
//! keeps no table of armed keys and nothing is ever cancelled. A layer
//! woken acts on whatever of its deadlines has come and asks for its next
//! wake-up, so a driver may deliver every key it was given, late or twice.
//!
//! Application code hangs off the driver, not the stack: when the driver
//! pops [`Output::App`], it invokes its application callback with a
//! [`FuseApi`] built over the stack ([`FuseStack::api`]). Outputs the
//! callback generates append to the tail of the same queue, which preserves
//! the overlay → FUSE → application ordering the deterministic traces rely
//! on.
//!
//! # Example: a full group lifecycle with no driver at all
//!
//! ```
//! use fuse_core::{AppCall, FuseConfig, FuseEvent, FuseStack, Input, Output};
//! use fuse_overlay::{NodeInfo, NodeName, OverlayConfig};
//! use fuse_util::Time;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let me = NodeInfo::new(1, NodeName::numbered(1));
//! let mut stack = FuseStack::new(me, None, OverlayConfig::default(), FuseConfig::default());
//! let mut rng = StdRng::seed_from_u64(7);
//! let now = Time::ZERO;
//!
//! stack.handle(now, &mut rng, Input::Boot);
//! let mut result = None;
//! while let Some(out) = stack.poll_output() {
//!     match out {
//!         Output::App(AppCall::Boot) => {
//!             // Driver-side application code runs against the API.
//!             let mut api = stack.api(now, &mut rng);
//!             api.create_group(Vec::new()); // singleton group: root-only
//!         }
//!         Output::App(AppCall::Event(ev)) => result = Some(ev),
//!         _ => {} // Send / SetTimer go to the transport
//!     }
//! }
//! assert!(matches!(result, Some(FuseEvent::Created { result: Ok(_), .. })));
//! ```

use std::collections::VecDeque;

use bytes::Bytes;

use fuse_overlay::{NodeInfo, OverlayConfig, OverlayCx, OverlayMsg, OverlayNode, OverlayUpcall};
use fuse_util::{Duration, PeerAddr, Time, TimerKey};
use fuse_wire::{Decode, DecodeError, Encode, Reader, Writer};
use rand::rngs::StdRng;

use crate::layer::{Alarm, CoreCx, FuseLayer};
use crate::messages::FuseMsg;
use crate::types::{CreateTicket, FuseConfig, FuseEvent, FuseId};

/// Timer-key namespace of the overlay's wake-up.
pub const NS_OVERLAY: u8 = 0;
/// Timer-key namespace of the FUSE layer's wake-up.
pub const NS_FUSE: u8 = 1;
/// Reserved timer-key namespace: nothing arms keys in it, so a key
/// carrying it does nothing.
pub const NS_LIVENESS: u8 = 2;
/// Timer-key namespace of application timers.
pub const NS_APP: u8 = 3;

/// The key of a timer in namespace `ns`: a layer's wake-up carries no
/// argument, an application timer its tag. [`FuseStack::handle`] decodes
/// keys; together they are the stack's one codec.
pub(crate) const fn timer_key(ns: u8, arg: u64) -> TimerKey {
    TimerKey { ns, kind: 0, arg }
}

/// Slots each of a stack's hand-off queues (the output queue and the
/// overlay-upcall pair) keeps once drained. A burst beyond them — a join
/// reply announcing the node to every new neighbour, a root's wide
/// create — is given back, so a quiet node holds a few hundred bytes of
/// queue, not kilobytes.
pub const WARM_SLOTS: usize = 8;

/// Union message type carried between node stacks.
#[derive(Debug, Clone)]
pub enum StackMsg {
    /// Overlay maintenance and routed envelopes.
    Overlay(OverlayMsg),
    /// FUSE protocol messages.
    Fuse(FuseMsg),
    /// Opaque application payloads.
    App(Bytes),
}

impl fuse_util::Payload for StackMsg {
    #[inline]
    fn size_bytes(&self) -> usize {
        // One tag byte plus the exact encoded size of the inner message.
        // `wire_size` is single-pass arithmetic (the codec's exact size
        // hints), so per-send byte accounting costs no counting encode.
        1 + match self {
            StackMsg::Overlay(m) => m.wire_size(),
            StackMsg::Fuse(m) => m.wire_size(),
            StackMsg::App(b) => b.len(),
        }
    }

    #[inline]
    fn class(&self) -> &'static str {
        match self {
            StackMsg::Overlay(m) => m.class_label(),
            StackMsg::Fuse(m) => m.class_label(),
            StackMsg::App(_) => "app",
        }
    }
}

const STACK_OVERLAY: u8 = 0;
const STACK_FUSE: u8 = 1;
const STACK_APP: u8 = 2;

impl Encode for StackMsg {
    fn encode(&self, w: &mut dyn Writer) {
        match self {
            StackMsg::Overlay(m) => {
                STACK_OVERLAY.encode(w);
                m.encode(w);
            }
            StackMsg::Fuse(m) => {
                STACK_FUSE.encode(w);
                m.encode(w);
            }
            StackMsg::App(b) => {
                STACK_APP.encode(w);
                b.encode(w);
            }
        }
    }

    fn size_hint(&self) -> usize {
        1 + match self {
            StackMsg::Overlay(m) => m.size_hint(),
            StackMsg::Fuse(m) => m.size_hint(),
            StackMsg::App(b) => b.size_hint(),
        }
    }
}

impl Decode for StackMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            STACK_OVERLAY => Ok(StackMsg::Overlay(OverlayMsg::decode(r)?)),
            STACK_FUSE => Ok(StackMsg::Fuse(FuseMsg::decode(r)?)),
            STACK_APP => Ok(StackMsg::App(Bytes::decode(r)?)),
            _ => Err(DecodeError::Invalid("stack message tag")),
        }
    }
}

/// One event a driver feeds into the stack.
#[derive(Debug, Clone)]
pub enum Input {
    /// The node just started; fires exactly once, first.
    Boot,
    /// A message arrived from a peer.
    Message {
        /// Sending peer.
        from: PeerAddr,
        /// The message.
        msg: StackMsg,
    },
    /// A previously requested timer expired. The key is a hint: a layer's
    /// wake-up acts only on deadlines that have come, so one fed early or
    /// twice, or a key no layer arms, does nothing, and drivers keep no
    /// bookkeeping.
    Timer(TimerKey),
    /// The transport declared the connection to `peer` broken (e.g. TCP
    /// gave up). Feeds overlay eviction and the §3.4 fail-on-send path.
    LinkBroken {
        /// The unreachable peer.
        peer: PeerAddr,
    },
}

/// One command the stack asks its driver to perform, in queue order.
#[derive(Debug, Clone)]
pub enum Output {
    /// Transmit `msg` to `to`.
    Send {
        /// Destination peer.
        to: PeerAddr,
        /// The message.
        msg: StackMsg,
    },
    /// Schedule `key` to be fed back as [`Input::Timer`] `after` from now.
    SetTimer {
        /// The timer's identity.
        key: TimerKey,
        /// Relative deadline.
        after: Duration,
    },
    /// Drop a scheduled wakeup. The stack never emits it: no timer is
    /// cancelled, and every key is checked when it fires. The variant
    /// stays because the benchmark's in-process replay matches on it.
    CancelTimer {
        /// The cancelled timer.
        key: TimerKey,
    },
    /// Invoke the driver-side application callback. Outputs produced by
    /// the callback (through [`FuseApi`]) append behind everything already
    /// queued.
    App(AppCall),
}

/// Which application callback [`Output::App`] asks the driver to run.
#[derive(Debug, Clone)]
pub enum AppCall {
    /// The node booted (`FuseApp::on_boot` in the drivers).
    Boot,
    /// A FUSE event: creation completed or a failure notification.
    Event(FuseEvent),
    /// An opaque application payload from a peer.
    Message {
        /// Sending peer.
        from: PeerAddr,
        /// The payload.
        payload: Bytes,
    },
    /// An application timer (armed via [`FuseApi::set_app_timer`]) fired.
    Timer(u64),
}

/// The composed sans-io protocol stack: overlay + FUSE, one per node.
///
/// `Clone` copies the whole node state, so a copy fed the same inputs
/// emits the same outputs as the original.
#[derive(Clone)]
pub struct FuseStack {
    /// The overlay layer.
    pub overlay: OverlayNode,
    /// The FUSE layer.
    pub fuse: FuseLayer,
    /// Overlay upcalls awaiting the FUSE layer.
    ov_upcalls: Vec<OverlayUpcall>,
    /// The batch `drain_upcalls` is replaying; empty between entry points,
    /// kept for up to [`WARM_SLOTS`] of its capacity.
    ov_batch: Vec<OverlayUpcall>,
    /// The one queue between the layers and the host: FUSE, the overlay
    /// (through its sink) and the application API all append to it.
    out: VecDeque<Output>,
    /// The FUSE layer's one wake-up and the queue of its groups'
    /// deadlines; only the layer touches them, through its `CoreCx`.
    alarm: Alarm,
}

impl FuseStack {
    /// Builds a stack for `me`, joining through `bootstrap` (or starting a
    /// fresh ring when `None`).
    pub fn new(
        me: NodeInfo,
        bootstrap: Option<PeerAddr>,
        ov_cfg: OverlayConfig,
        fuse_cfg: FuseConfig,
    ) -> Self {
        FuseStack {
            overlay: OverlayNode::new(me, bootstrap, ov_cfg),
            fuse: FuseLayer::new(me, fuse_cfg),
            ov_upcalls: Vec::new(),
            ov_batch: Vec::new(),
            out: VecDeque::new(),
            alarm: Alarm::default(),
        }
    }

    /// This node's overlay identity.
    pub fn me(&self) -> &NodeInfo {
        self.overlay.info()
    }

    /// Processes one input. All resulting commands land on the output
    /// queue; drain it with [`poll_output`](FuseStack::poll_output).
    #[inline]
    pub fn handle(&mut self, now: Time, rng: &mut StdRng, input: Input) {
        // What the application hears of the input, after the layers' own
        // effects.
        let mut app = None;
        match input {
            Input::Boot => {
                self.fuse.boot(now);
                self.with_overlay(now, rng, |ov, ocx| ov.boot(ocx));
                app = Some(AppCall::Boot);
            }
            Input::Message { from, msg } => match msg {
                StackMsg::Overlay(m) => {
                    self.with_overlay(now, rng, |ov, ocx| ov.on_message(ocx, from, m));
                }
                StackMsg::Fuse(m) => {
                    self.with_core(now, rng, |fuse, ov, cx| fuse.on_message(cx, ov, from, m));
                }
                StackMsg::App(payload) => app = Some(AppCall::Message { from, payload }),
            },
            Input::Timer(key) => match (key.ns, key.kind, key.arg) {
                (NS_OVERLAY, 0, 0) => self.with_overlay(now, rng, |ov, ocx| ov.on_wake(ocx)),
                (NS_FUSE, 0, 0) => self.with_core(now, rng, |fuse, _, cx| fuse.on_wake(cx)),
                (NS_APP, 0, tag) => app = Some(AppCall::Timer(tag)),
                _ => {}
            },
            Input::LinkBroken { peer } => {
                self.with_overlay(now, rng, |ov, ocx| ov.on_link_broken(ocx, peer));
                self.with_core(now, rng, |fuse, _, cx| fuse.on_link_broken(cx, peer));
            }
        }
        self.drain_upcalls(now, rng);
        if let Some(call) = app {
            self.out.push_back(Output::App(call));
        }
    }

    /// Pops the oldest queued command. Single-pop (rather than a drain
    /// iterator) so the driver can reborrow the stack between commands —
    /// which is exactly what [`Output::App`] callbacks need. Finding the
    /// queue empty rewinds it and gives back all but [`WARM_SLOTS`] slots.
    #[inline]
    pub fn poll_output(&mut self) -> Option<Output> {
        let out = self.out.pop_front();
        if out.is_none() {
            // `pop_front` never moves the head back; rewinding it keeps
            // the next input's outputs on the same few warm slots instead
            // of walking the whole ring.
            self.out.clear();
            self.out.shrink_to(WARM_SLOTS);
        }
        out
    }

    /// The most slots any hand-off queue holds (test hook: once the host
    /// has drained the stack, at most [`WARM_SLOTS`]).
    pub fn retained_slots(&self) -> usize {
        let upcalls = self.ov_upcalls.capacity().max(self.ov_batch.capacity());
        self.out.capacity().max(upcalls)
    }

    /// Builds the application-facing API over this stack. Drivers call
    /// this when an [`Output::App`] pops, and for scripted calls from
    /// experiments.
    pub fn api<'a>(&'a mut self, now: Time, rng: &'a mut StdRng) -> FuseApi<'a> {
        FuseApi {
            stack: self,
            now,
            rng,
        }
    }

    /// Runs `f` against the overlay, its effects landing on the output
    /// queue and its digest reads answered by the FUSE layer.
    #[inline]
    fn with_overlay<R>(
        &mut self,
        now: Time,
        rng: &mut StdRng,
        f: impl FnOnce(&mut OverlayNode, &mut OverlayCx<'_>) -> R,
    ) -> R {
        self.with_core(now, rng, |fuse, ov, cx| cx.ov(ov, Some(fuse), f))
    }

    /// Runs `f` against the FUSE layer through a [`CoreCx`] over this
    /// stack's state.
    #[inline]
    fn with_core<R>(
        &mut self,
        now: Time,
        rng: &mut StdRng,
        f: impl FnOnce(&mut FuseLayer, &mut OverlayNode, &mut CoreCx<'_>) -> R,
    ) -> R {
        let mut cx = CoreCx {
            now,
            rng,
            ov_upcalls: &mut self.ov_upcalls,
            out: &mut self.out,
            alarm: &mut self.alarm,
        };
        f(&mut self.fuse, &mut self.overlay, &mut cx)
    }

    /// Replays buffered overlay upcalls through the FUSE layer until
    /// quiescent (processing one batch may produce another).
    #[inline]
    fn drain_upcalls(&mut self, now: Time, rng: &mut StdRng) {
        while !self.ov_upcalls.is_empty() {
            let spare = std::mem::take(&mut self.ov_batch);
            let mut batch = std::mem::replace(&mut self.ov_upcalls, spare);
            for up in batch.drain(..) {
                self.with_core(now, rng, |fuse, _, cx| fuse.on_overlay_upcall(cx, up));
            }
            self.ov_batch = batch;
        }
        self.ov_upcalls.shrink_to(WARM_SLOTS);
        self.ov_batch.shrink_to(WARM_SLOTS);
    }
}

/// What the application sees: the FUSE API of the paper's Figure 1, plus
/// app-level messaging and timers. Built by [`FuseStack::api`]; everything
/// it does lands on the stack's output queue behind the commands already
/// there.
pub struct FuseApi<'a> {
    stack: &'a mut FuseStack,
    now: Time,
    rng: &'a mut StdRng,
}

impl FuseApi<'_> {
    /// Current time (driver-provided).
    pub fn now(&self) -> Time {
        self.now
    }

    /// This node's overlay identity.
    pub fn me(&self) -> NodeInfo {
        *self.stack.overlay.info()
    }

    /// `CreateGroup` (Figure 1): asynchronous-blocking creation. The
    /// returned [`CreateTicket`] is echoed by the completion event,
    /// [`FuseEvent::Created`].
    pub fn create_group(&mut self, others: Vec<NodeInfo>) -> CreateTicket {
        let t = self.stack.with_core(self.now, self.rng, |fuse, _, cx| {
            fuse.create_group(cx, others)
        });
        self.stack.drain_upcalls(self.now, self.rng);
        t
    }

    /// `RegisterFailureHandler` (Figure 1): attaches `ctx` to the group's
    /// failure handler; it comes back inside the
    /// [`Notification`](crate::types::Notification). Unknown groups fire
    /// immediately (§3.1).
    pub fn register_handler(&mut self, id: FuseId, ctx: u64) {
        self.stack.with_core(self.now, self.rng, |fuse, _, cx| {
            fuse.register_handler(cx, id, ctx);
        });
        self.stack.drain_upcalls(self.now, self.rng);
    }

    /// `SignalFailure` (Figure 1).
    pub fn signal_failure(&mut self, id: FuseId) {
        self.stack.with_core(self.now, self.rng, |fuse, _, cx| {
            fuse.signal_failure(cx, id);
        });
        self.stack.drain_upcalls(self.now, self.rng);
    }

    /// Sends `payload` to `to` under group `id`'s fate-sharing contract —
    /// the §3.4 fail-on-send idiom as a first-class API. If the transport
    /// later reports the connection to `to` broken, the group is declared
    /// failed (reason `ConnectionBroken`) without any application-level
    /// plumbing. Returns `false` and drops the payload when this node no
    /// longer holds live participant state for `id` (the group already
    /// failed here; the handler has already run).
    pub fn group_send(&mut self, id: FuseId, to: PeerAddr, payload: Bytes) -> bool {
        if !self.stack.fuse.bind_fail_on_send(id, to) {
            return false;
        }
        self.stack.out.push_back(Output::Send {
            to,
            msg: StackMsg::App(payload),
        });
        true
    }

    /// Sends an opaque application payload to a peer (no fate sharing; see
    /// [`group_send`](FuseApi::group_send) for the fail-on-send variant).
    pub fn send_app(&mut self, to: PeerAddr, payload: Bytes) {
        self.stack.out.push_back(Output::Send {
            to,
            msg: StackMsg::App(payload),
        });
    }

    /// Arms an application timer; it comes back as
    /// [`AppCall::Timer`]`(tag)`, once per arm. Nothing cancels it: an
    /// application that no longer wants it ignores the tag.
    pub fn set_app_timer(&mut self, after: Duration, tag: u64) {
        let key = timer_key(NS_APP, tag);
        self.stack.out.push_back(Output::SetTimer { key, after });
    }

    /// Deterministic randomness (driver-provided).
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Read access to the FUSE layer (state introspection).
    pub fn fuse(&self) -> &FuseLayer {
        &self.stack.fuse
    }

    /// Read access to the overlay (routing-table visibility, §6.1).
    pub fn overlay(&self) -> &OverlayNode {
        &self.stack.overlay
    }
}

/// A FUSE application: receives the API plus FUSE events. Drivers (the sim
/// kernel's `NodeStack`, the `fuse-node` binary) dispatch [`AppCall`]s to
/// these methods.
pub trait FuseApp: Sized {
    /// Called once at process start.
    fn on_boot(&mut self, api: &mut FuseApi<'_>) {
        let _ = api;
    }

    /// A FUSE event (creation completed, or a failure notification).
    fn on_fuse_event(&mut self, api: &mut FuseApi<'_>, ev: FuseEvent);

    /// An application payload from a peer.
    fn on_app_message(&mut self, api: &mut FuseApi<'_>, from: PeerAddr, payload: Bytes) {
        let _ = (api, from, payload);
    }

    /// An application timer fired.
    fn on_app_timer(&mut self, api: &mut FuseApi<'_>, tag: u64) {
        let _ = (api, tag);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{
        CreateError, GroupHandle, Notification, NotifyReason, Role, CREATE_TIMEOUT, INSTALL_WAIT,
        REPAIR_BACKOFF_BASE, REPAIR_BACKOFF_CAP,
    };
    use fuse_overlay::NodeName;
    use rand::{Rng, SeedableRng};

    fn stack(i: usize) -> FuseStack {
        FuseStack::new(
            NodeInfo::new(i as PeerAddr, NodeName::numbered(i)),
            None,
            OverlayConfig::default(),
            FuseConfig::default(),
        )
    }

    #[test]
    fn boot_emits_app_boot_last() {
        let mut s = stack(1);
        let mut rng = StdRng::seed_from_u64(1);
        s.handle(Time::ZERO, &mut rng, Input::Boot);
        let mut outs = Vec::new();
        while let Some(o) = s.poll_output() {
            outs.push(o);
        }
        assert!(
            matches!(outs.last(), Some(Output::App(AppCall::Boot))),
            "boot callback must trail the overlay's own boot effects"
        );
    }

    fn drain(s: &mut FuseStack) -> Vec<Output> {
        std::iter::from_fn(|| s.poll_output()).collect()
    }

    /// Feeds `key` at `at` and again 5 s late, and checks it did nothing
    /// but, at most, ask for its own layer's next wake-up: no send, no
    /// event, no RNG draw.
    fn assert_stale(s: &mut FuseStack, rng: &mut StdRng, at: Time, key: TimerKey) {
        for now in [at, at + Duration::from_secs(5)] {
            let mut untouched = rng.clone();
            s.handle(now, rng, Input::Timer(key));
            let outs = drain(s);
            let rearm = |o: &Output| matches!(o, Output::SetTimer { key: k, .. } if *k == key);
            assert!(outs.iter().all(rearm), "stale {key:?} produced {outs:?}");
            assert_eq!(
                rng.gen::<u64>(),
                untouched.gen::<u64>(),
                "stale {key:?} drew from the RNG"
            );
        }
    }

    fn msg(s: &mut FuseStack, rng: &mut StdRng, now: Time, from: PeerAddr, m: StackMsg) {
        s.handle(now, rng, Input::Message { from, msg: m });
    }

    /// Nothing is cancelled, so drivers deliver wake-ups whose deadline
    /// moved or whose work is done, and keys no layer arms (the simulation
    /// kernel delivers every key it was given; a socket driver delivers
    /// them late). Each must find nothing due, at the deadline it was
    /// asked for and 5 s after.
    #[test]
    fn stale_timer_keys_are_inert() {
        let secs = |s: u64| Time::ZERO + Duration::from_secs(s);
        let (n1, n2) = (
            NodeInfo::new(1, NodeName::numbered(1)),
            NodeInfo::new(2, NodeName::numbered(2)),
        );
        let fuse = |m: FuseMsg| StackMsg::Fuse(m);
        let (overlay, fuse_wake) = (timer_key(NS_OVERLAY, 0), timer_key(NS_FUSE, 0));

        // Keys no layer arms, the retired per-peer and per-group ones
        // among them.
        let mut s = stack(1);
        let mut rng = StdRng::seed_from_u64(1);
        s.handle(Time::ZERO, &mut rng, Input::Boot);
        drain(&mut s);
        for (ns, kind, arg) in [
            (NS_LIVENESS, 0, 0),
            (9, 0, 0),
            (NS_FUSE, 7, 0),
            (NS_FUSE, 1, 7),
            (NS_OVERLAY, 0, 2),
            (NS_OVERLAY, 1, 0),
            (NS_APP, 1, 0),
        ] {
            assert_stale(&mut s, &mut rng, Time(1), TimerKey { ns, kind, arg });
        }

        // The sweep of a round whose one ping went to a neighbour since
        // dropped and re-admitted: the re-admitted neighbour owes nothing,
        // and the link carries a group.
        let timeout = OverlayConfig::default().ping_timeout;
        let mut s = stack(1);
        s.overlay.preload_tables(vec![n2], Vec::new(), Vec::new());
        let mut rng = StdRng::seed_from_u64(3);
        s.handle(Time::ZERO, &mut rng, Input::Boot);
        drain(&mut s);
        let round = s.overlay.next_round().expect("boot draws the round");
        s.handle(round, &mut rng, Input::Timer(overlay));
        let pinged = drain(&mut s).iter().any(|o| {
            matches!(
                o,
                Output::Send {
                    to: 2,
                    msg: StackMsg::Overlay(OverlayMsg::Ping { .. })
                }
            )
        });
        assert!(pinged, "the round pings 2");
        let broken = round + Duration::from_secs(1);
        s.handle(broken, &mut rng, Input::LinkBroken { peer: 2 });
        drain(&mut s);
        let back = round + Duration::from_secs(2);
        let announce = OverlayMsg::Announce {
            info: n2,
            want_reply: false,
        };
        msg(&mut s, &mut rng, back, 2, StackMsg::Overlay(announce));
        drain(&mut s);
        assert!(s.overlay.is_neighbor(2), "the announce re-admits 2");
        let request = FuseMsg::GroupCreateRequest {
            id: FuseId(7),
            root: n2,
            members: vec![n1],
        };
        msg(&mut s, &mut rng, back, 2, fuse(request));
        drain(&mut s);
        assert_eq!(s.fuse.tree_links(FuseId(7)), [2], "the member links to 2");
        assert_stale(&mut s, &mut rng, round + timeout, overlay);

        // The join retry's deadline after the reply.
        let mut s = FuseStack::new(n1, Some(2), OverlayConfig::default(), FuseConfig::default());
        let mut rng = StdRng::seed_from_u64(1);
        s.handle(Time::ZERO, &mut rng, Input::Boot);
        drain(&mut s);
        // The overlay's 10 s join timeout.
        let due = secs(10);
        let reply = OverlayMsg::JoinReply {
            candidates: vec![n2],
        };
        msg(&mut s, &mut rng, Time(1), 2, StackMsg::Overlay(reply));
        drain(&mut s);
        let ping = s.overlay.next_round().expect("the reply admits 2");
        assert!(
            ping > due + Duration::from_secs(5),
            "the seed pings 2 at {ping}, within 5 s of the retry"
        );
        assert_stale(&mut s, &mut rng, due, overlay);

        // The ping's ack deadline after the ack. An ack emits no timer
        // command.
        let mut s = stack(1);
        s.overlay.preload_tables(vec![n2], Vec::new(), Vec::new());
        s.handle(Time::ZERO, &mut rng, Input::Boot);
        drain(&mut s);
        let due = s.overlay.next_round().expect("boot draws the round");
        s.handle(due, &mut rng, Input::Timer(overlay));
        let fired = drain(&mut s);
        let nonce = fired
            .iter()
            .find_map(|o| match o {
                Output::Send {
                    msg: StackMsg::Overlay(OverlayMsg::Ping { nonce, .. }),
                    ..
                } => Some(*nonce),
                _ => None,
            })
            .expect("the ping is sent");
        let ack = OverlayMsg::PingAck { nonce, hash: None };
        msg(&mut s, &mut rng, due, 2, StackMsg::Overlay(ack));
        let acked = drain(&mut s);
        assert!(
            !acked
                .iter()
                .any(|o| matches!(o, Output::SetTimer { .. } | Output::CancelTimer { .. })),
            "an acked ping emits no timer command: {acked:?}"
        );
        assert_stale(&mut s, &mut rng, due + timeout, overlay);

        // A root's round: while it awaits replies (the group being
        // created), after it ended (the reply deadline and the install
        // wait, both left behind), and after it moved to INSTALL_WAIT.
        for install in [true, false] {
            let mut root = Root::new();
            root.now = secs(1);
            let ticket = root.s.api(root.now, &mut root.rng).create_group(vec![n2]);
            root.collect();
            let id = ticket.id();
            assert_stale(&mut root.s, &mut root.rng, secs(2), fuse_wake);
            let replies_due = secs(1) + CREATE_TIMEOUT;
            root.now = secs(2);
            root.fuse(2, FuseMsg::GroupCreateReply { id, ok: true });
            let installs_due = secs(2) + INSTALL_WAIT;
            if install {
                root.install(n2, id, 0);
                assert!(root.s.fuse.handle(id).is_some(), "the group was created");
                assert_stale(&mut root.s, &mut root.rng, replies_due, fuse_wake);
                assert_stale(&mut root.s, &mut root.rng, installs_due, fuse_wake);
            } else {
                assert_stale(&mut root.s, &mut root.rng, replies_due, fuse_wake);
                root.s
                    .handle(installs_due, &mut root.rng, Input::Timer(fuse_wake));
                // It asks for a repair round after the base backoff.
                let outs = drain(&mut root.s);
                let kick = |o: &Output| matches!(o, Output::SetTimer { after, .. } if *after == REPAIR_BACKOFF_BASE);
                assert!(matches!(&outs[..], [o] if kick(o)), "{outs:?}");
            }
        }

        // A member's repair wait after its repair.
        let mut s = stack(1);
        s.overlay.preload_tables(vec![n2], Vec::new(), Vec::new());
        let mut rng = StdRng::seed_from_u64(1);
        s.handle(Time::ZERO, &mut rng, Input::Boot);
        drain(&mut s);
        let id = FuseId(7);
        let request = FuseMsg::GroupCreateRequest {
            id,
            root: n2,
            members: vec![n1],
        };
        msg(&mut s, &mut rng, secs(1), 2, fuse(request));
        drain(&mut s);
        msg(
            &mut s,
            &mut rng,
            secs(2),
            2,
            fuse(FuseMsg::SoftNotification { id, seq: 0 }),
        );
        drain(&mut s);
        let due = secs(2) + FuseConfig::default().member_repair_timeout;
        let repair = FuseMsg::GroupRepairRequest {
            id,
            seq: 1,
            root: n2,
        };
        msg(&mut s, &mut rng, secs(3), 2, fuse(repair));
        drain(&mut s);
        assert_stale(&mut s, &mut rng, due, fuse_wake);
        assert!(s.fuse.handle(id).is_some(), "the repaired member stands");

        // A root's kick superseded: each kick starts a round whose install is
        // still out when the next request comes, so the backoff doubles;
        // after the third, a wake-up at its deadline and 5 s later finds
        // the fourth, 8 s away, not due.
        let mut root = Root::new();
        root.now = secs(1);
        let id = root
            .s
            .api(root.now, &mut root.rng)
            .create_group(vec![n2])
            .id();
        root.collect();
        root.fuse(2, FuseMsg::GroupCreateReply { id, ok: true });
        root.install(n2, id, 0);
        for seq in 0..3 {
            let armed_before = root.due.len();
            root.fuse(2, FuseMsg::NeedRepair { id, seq });
            let delay = root
                .kick_delay(armed_before)
                .expect("the request arms a kick");
            root.run_until(root.now + delay);
            let seq = seq + 1;
            root.fuse(2, FuseMsg::GroupRepairReply { id, seq, ok: true });
        }
        assert_eq!(root.repair_requests(3), 1, "the third kick started round 3");
        let fired = root.now;
        let armed_before = root.due.len();
        root.fuse(2, FuseMsg::NeedRepair { id, seq: 3 });
        let next = root.kick_delay(armed_before).expect("a fourth kick");
        assert_eq!(next, Duration(8 * REPAIR_BACKOFF_BASE.nanos()));
        assert_stale(&mut root.s, &mut root.rng, fired, fuse_wake);
    }

    /// A root that creates and signals groups faster than their deadlines
    /// come leaves two stale entries a group (the reply deadline and the
    /// install wait) on the layer's deadline queue; it drops them once
    /// they outnumber the records' own, so 1,000 cycles within one
    /// `CREATE_TIMEOUT` hold at most 68 entries (four for the one record a
    /// cycle holds, plus 64), not 2,000.
    #[test]
    fn create_signal_churn_keeps_the_deadline_queue_bounded() {
        let n2 = NodeInfo::new(2, NodeName::numbered(2));
        let mut s = stack(1);
        let mut rng = StdRng::seed_from_u64(1);
        s.handle(Time::ZERO, &mut rng, Input::Boot);
        drain(&mut s);
        let mut most = 0;
        for ms in 0..1_000 {
            let now = Time::ZERO + Duration::from_millis(ms);
            let id = s.api(now, &mut rng).create_group(vec![n2]).id();
            let reply = FuseMsg::GroupCreateReply { id, ok: true };
            msg(&mut s, &mut rng, now, 2, StackMsg::Fuse(reply));
            s.api(now, &mut rng).signal_failure(id);
            drain(&mut s);
            assert!(!s.fuse.knows_group(id), "the signal ends the group");
            most = most.max(s.alarm.queued());
        }
        assert!(most <= 68, "{most} entries queued at once");
    }

    /// Drains `s` after an input that queued more than [`WARM_SLOTS`]
    /// outputs matching `kind`, and checks the burst was given back.
    fn give_back(s: &mut FuseStack, what: &str, kind: fn(&Output) -> bool) {
        assert!(s.retained_slots() > WARM_SLOTS, "{what} grew no queue");
        let outs = drain(s);
        let burst = outs.iter().filter(|o| kind(o)).count();
        assert!(burst > WARM_SLOTS, "{what}: {burst} of {outs:?}");
        let kept = s.retained_slots();
        assert!(kept <= WARM_SLOTS, "{what} left {kept} slots");
    }

    /// One input whose outputs or upcalls overflow [`WARM_SLOTS`] — a join
    /// reply that announces the node to every new neighbour, a root's
    /// 32-member create — leaves no more than that many slots behind once
    /// the host drains it.
    #[test]
    fn drained_queues_give_back_bursts() {
        let infos: Vec<NodeInfo> = (0..32)
            .map(|i| NodeInfo::new(i as PeerAddr, NodeName::numbered(i)))
            .collect();
        let tables = fuse_overlay::build_oracle_tables(&infos, &OverlayConfig::default());
        let (cw, ccw, rt) = tables.into_iter().next().expect("one per node");
        let mut rng = StdRng::seed_from_u64(1);
        let announce = |o: &Output| {
            matches!(
                o,
                Output::Send {
                    msg: StackMsg::Overlay(OverlayMsg::Announce { .. }),
                    ..
                }
            )
        };

        let mut s = stack(0);
        s.overlay.preload_tables(cw, ccw, rt);
        s.handle(Time::ZERO, &mut rng, Input::Boot);
        drain(&mut s);

        let (ov, cfg) = (OverlayConfig::default(), FuseConfig::default());
        let mut joiner = FuseStack::new(infos[0], Some(1), ov, cfg);
        joiner.handle(Time::ZERO, &mut rng, Input::Boot);
        drain(&mut joiner);
        let candidates = infos[1..].to_vec();
        let msg = StackMsg::Overlay(OverlayMsg::JoinReply { candidates });
        joiner.handle(Time(1), &mut rng, Input::Message { from: 1, msg });
        give_back(&mut joiner, "join reply", announce);

        s.api(Time(1), &mut rng).create_group(infos[1..].to_vec());
        give_back(&mut s, "32-member create", |o| {
            matches!(
                o,
                Output::Send {
                    msg: StackMsg::Fuse(FuseMsg::GroupCreateRequest { .. }),
                    ..
                }
            )
        });
    }

    /// A node that holds no record of a group answers a member's
    /// `NeedRepair` with a hard notification, and counts it as sent.
    #[test]
    fn need_repair_for_an_unknown_group_burns_back_and_is_counted() {
        let mut s = stack(1);
        let mut rng = StdRng::seed_from_u64(1);
        s.handle(Time::ZERO, &mut rng, Input::Boot);
        drain(&mut s);
        let before = s.fuse.obs().hard_sent;
        let (id, seq) = (FuseId(42), 3);
        let msg = StackMsg::Fuse(FuseMsg::NeedRepair { id, seq });
        s.handle(Time(1), &mut rng, Input::Message { from: 2, msg });
        let outs = drain(&mut s);
        let hard = outs.iter().filter(|o| match o {
            Output::Send { to: 2, msg } => matches!(
                msg,
                StackMsg::Fuse(FuseMsg::HardNotification { id: got, .. }) if *got == id
            ),
            _ => false,
        });
        assert_eq!(hard.count(), 1, "{outs:?}");
        assert_eq!(s.fuse.obs().hard_sent, before + 1);
    }

    /// A root driven by hand: its clock, every FUSE timer it armed by due
    /// time, every FUSE message it sent and every FUSE event it reported.
    /// Overlay timers are not fired, so no ping times out and the overlay
    /// stays still.
    #[derive(Clone)]
    struct Root {
        s: FuseStack,
        rng: StdRng,
        now: Time,
        due: Vec<(Time, TimerKey)>,
        sent: Vec<(PeerAddr, FuseMsg)>,
        events: Vec<FuseEvent>,
    }

    impl Root {
        /// A booted root at time zero.
        fn new() -> Root {
            let mut root = Root {
                s: stack(1),
                rng: StdRng::seed_from_u64(1),
                now: Time::ZERO,
                due: Vec::new(),
                sent: Vec::new(),
                events: Vec::new(),
            };
            root.input(Input::Boot);
            root
        }

        fn input(&mut self, input: Input) {
            self.s.handle(self.now, &mut self.rng, input);
            self.collect();
        }

        fn collect(&mut self) {
            for o in drain(&mut self.s) {
                match o {
                    Output::SetTimer { key, after } if key.ns == NS_FUSE => {
                        self.due.push((self.now + after, key))
                    }
                    Output::Send {
                        to,
                        msg: StackMsg::Fuse(m),
                    } => self.sent.push((to, m)),
                    Output::App(AppCall::Event(ev)) => self.events.push(ev),
                    _ => {}
                }
            }
        }

        fn fuse(&mut self, from: PeerAddr, msg: FuseMsg) {
            let msg = StackMsg::Fuse(msg);
            self.input(Input::Message { from, msg });
        }

        /// `member`'s `InstallChecking` at `seq`, arriving in one hop.
        fn install(&mut self, member: NodeInfo, id: FuseId, seq: u64) {
            let root = *self.s.me();
            let ic = crate::messages::InstallChecking {
                id,
                seq,
                member,
                root,
            };
            let msg = StackMsg::Overlay(OverlayMsg::Routed {
                src: member,
                target: root.name,
                ttl: 64,
                class: fuse_overlay::messages::RoutedClass::Client as u8,
                payload: ic.to_bytes(),
                path: Vec::new(),
            });
            self.input(Input::Message {
                from: member.proc,
                msg,
            });
        }

        /// Fires, in due order, every FUSE timer armed and due by `until`.
        fn run_until(&mut self, until: Time) {
            self.due.sort_by_key(|&(at, _)| std::cmp::Reverse(at));
            while self.due.last().is_some_and(|&(at, _)| at <= until) {
                let (at, key) = self.due.pop().expect("checked");
                self.now = at;
                self.input(Input::Timer(key));
                self.due.sort_by_key(|&(at, _)| std::cmp::Reverse(at));
            }
            self.now = until;
        }

        /// The delay of the first wake-up asked for after the first
        /// `armed_before`: a repair kick, where it comes before every other
        /// deadline the root holds.
        fn kick_delay(&self, armed_before: usize) -> Option<Duration> {
            let (at, _) = self.due.get(armed_before)?;
            Some(at.since(self.now))
        }

        /// Every outcome reported for the creation of `id`.
        fn created(&self, id: FuseId) -> Vec<Result<GroupHandle, CreateError>> {
            let of = |ev: &FuseEvent| match *ev {
                FuseEvent::Created { ticket, result } if ticket.id() == id => Some(result),
                _ => None,
            };
            self.events.iter().filter_map(of).collect()
        }

        /// Every notification reported for `id`.
        fn notified(&self, id: FuseId) -> Vec<Notification> {
            let of = |ev: &FuseEvent| ev.notification().filter(|n| n.id == id).copied();
            self.events.iter().filter_map(of).collect()
        }

        fn repair_requests(&self, seq: u64) -> usize {
            let at =
                |m: &FuseMsg| matches!(m, FuseMsg::GroupRepairRequest { seq: s, .. } if *s == seq);
            self.sent.iter().filter(|(_, m)| at(m)).count()
        }
    }

    fn members() -> (NodeInfo, NodeInfo) {
        (
            NodeInfo::new(2, NodeName::numbered(2)),
            NodeInfo::new(3, NodeName::numbered(3)),
        )
    }

    /// A root that asked `members` to create a group at 1 s, and the id.
    fn creating(members: Vec<NodeInfo>) -> (Root, FuseId) {
        let mut root = Root::new();
        root.now = Time::ZERO + Duration::from_secs(1);
        let ticket = root.s.api(root.now, &mut root.rng).create_group(members);
        root.collect();
        (root, ticket.id())
    }

    /// A member's `InstallChecking` may reach the root before its creation
    /// or repair reply. The round counts it whenever it comes, and the
    /// root links its hop at once: once the last reply and the last
    /// install are in, the round ends, and no install wait fires a second
    /// round. The backoff resets only then. A creation that times out
    /// after an early install leaves nothing of the group behind.
    #[test]
    fn an_install_ahead_of_its_reply_still_counts() {
        let (m1, m2) = members();
        let (mut root, id) = creating(vec![m1, m2]);
        root.install(m1, id, 0);
        assert_eq!(root.s.fuse.tree_links(id), [m1.proc], "the hop is linked");
        assert!(
            root.s.fuse.handle(id).is_none(),
            "the group is being created"
        );

        // Were m2 never to answer, the creation would time out, and take
        // the record, its link and the link's subscription with it.
        let mut lost = root.clone();
        lost.fuse(m1.proc, FuseMsg::GroupCreateReply { id, ok: true });
        lost.run_until(lost.now + CREATE_TIMEOUT);
        let unreachable = Err(CreateError::MemberUnreachable);
        assert_eq!(lost.created(id), [unreachable]);
        assert!(!lost.s.fuse.knows_group(id), "the record is left");
        assert!(lost.s.fuse.watched_peers().is_empty(), "a link is left");
        assert!(lost.s.fuse.hash_cache_consistent());

        for m in [m1, m2] {
            root.fuse(m.proc, FuseMsg::GroupCreateReply { id, ok: true });
        }
        root.install(m2, id, 0);
        assert!(root.s.fuse.handle(id).is_some(), "the group was created");
        assert_eq!(root.s.fuse.tree_links(id), [m1.proc, m2.proc]);

        // m1 asks for repair: the kick comes after the base delay.
        root.fuse(m1.proc, FuseMsg::NeedRepair { id, seq: 0 });
        root.run_until(Time::ZERO + Duration::from_secs(3));
        assert_eq!(root.repair_requests(1), 2, "round 1 contacts both");

        // m2's install overtakes its reply; then the replies; then m1's
        // install.
        root.install(m2, id, 1);
        for m in [m1, m2] {
            root.fuse(
                m.proc,
                FuseMsg::GroupRepairReply {
                    id,
                    seq: 1,
                    ok: true,
                },
            );
        }
        // Replies in, m1's install missing: the round has not ended, so a
        // request now backs off past the base delay.
        let mut waiting = root.clone();
        let armed = waiting.due.len();
        waiting.fuse(m1.proc, FuseMsg::NeedRepair { id, seq: 1 });
        assert_eq!(
            waiting.kick_delay(armed),
            Some(Duration(2 * REPAIR_BACKOFF_BASE.nanos())),
            "the backoff reset before m1's install arrived"
        );

        root.install(m1, id, 1);
        let quiet = root.now + INSTALL_WAIT + REPAIR_BACKOFF_CAP;
        root.run_until(quiet);
        assert_eq!(
            root.repair_requests(2),
            0,
            "an install that came before its reply was forgotten"
        );
        assert!(root.s.fuse.handle(id).is_some(), "the group still stands");

        // The round ended with both sets empty: the backoff is back at base.
        let armed = root.due.len();
        root.fuse(m1.proc, FuseMsg::NeedRepair { id, seq: 1 });
        assert_eq!(root.kick_delay(armed), Some(REPAIR_BACKOFF_BASE));
    }

    /// A repair asked for while the group is being created is not dropped:
    /// round 0 is marked `dirty`, as any round with replies out, and its
    /// last reply starts the backoff, so the repair round follows within
    /// the base delay.
    #[test]
    fn a_repair_asked_for_during_creation_follows_the_last_reply() {
        let (m1, m2) = members();
        let (mut root, id) = creating(vec![m1, m2]);
        root.fuse(m1.proc, FuseMsg::GroupCreateReply { id, ok: true });
        root.install(m1, id, 0);
        let armed = root.due.len();
        root.fuse(m1.proc, FuseMsg::NeedRepair { id, seq: 0 });
        assert_eq!(root.due.len(), armed, "a kick while replies are out");

        let last = Time::ZERO + Duration::from_secs(2);
        root.now = last;
        root.fuse(m2.proc, FuseMsg::GroupCreateReply { id, ok: true });
        assert!(matches!(root.created(id)[..], [Ok(_)]), "{:?}", root.events);
        root.run_until(last + REPAIR_BACKOFF_BASE);
        assert_eq!(root.repair_requests(1), 2, "round 1 contacts both");
    }

    /// Until its group is created the root is no participant: a handler
    /// registered on the ticket's id is answered at once with
    /// `UnknownGroup`, a `group_send` is refused and sends nothing, and
    /// `signal_failure` does nothing, so exactly one `Created` follows.
    /// Once created, the handler and the signal take.
    #[test]
    fn a_creating_root_is_not_yet_a_participant() {
        let (m1, _) = members();
        let (mut root, id) = creating(vec![m1]);
        let mut api = root.s.api(root.now, &mut root.rng);
        api.register_handler(id, 5);
        assert!(!api.group_send(id, m1.proc, Bytes::from_static(b"data")));
        api.signal_failure(id);
        let outs = drain(&mut root.s);
        let unknown = |n: &Notification| {
            (n.reason, n.role, n.ctx) == (NotifyReason::UnknownGroup, Role::Observer, Some(5))
        };
        assert!(
            matches!(&outs[..], [Output::App(AppCall::Event(FuseEvent::Notified(n)))] if unknown(n)),
            "{outs:?}"
        );
        assert!(!root.s.fuse.is_participant(id) && root.s.fuse.handle(id).is_none());

        root.fuse(m1.proc, FuseMsg::GroupCreateReply { id, ok: true });
        root.install(m1, id, 0);
        let handle = root.s.fuse.handle(id).expect("created");
        assert_eq!(root.created(id), [Ok(handle)]);
        let mut api = root.s.api(root.now, &mut root.rng);
        api.register_handler(id, 6);
        api.signal_failure(id);
        root.collect();
        let notified = root.notified(id);
        let signalled =
            |n: &Notification| (n.reason, n.ctx) == (NotifyReason::ExplicitSignal, Some(6));
        assert!(matches!(&notified[..], [n] if signalled(n)), "{notified:?}");
        assert_eq!(root.created(id).len(), 1);
    }

    /// A creation reports exactly one `Created` — on success, on a refusal
    /// and on a broken connection — whatever answers, breaks and deadlines
    /// come after.
    #[test]
    fn a_creation_reports_exactly_one_created() {
        let (m1, m2) = members();
        let outcomes = [
            Ok(()),
            Err(CreateError::Refused),
            Err(CreateError::ConnectionBroken),
        ];
        for outcome in outcomes {
            let (mut root, id) = creating(vec![m1, m2]);
            let reply = |ok| FuseMsg::GroupCreateReply { id, ok };
            root.fuse(m1.proc, reply(true));
            match outcome {
                Ok(()) => root.fuse(m2.proc, reply(true)),
                Err(CreateError::Refused) => root.fuse(m2.proc, reply(false)),
                Err(_) => root.input(Input::LinkBroken { peer: m2.proc }),
            }
            root.fuse(m2.proc, reply(true));
            root.fuse(m1.proc, reply(false));
            root.input(Input::LinkBroken { peer: m1.proc });
            root.run_until(root.now + CREATE_TIMEOUT + INSTALL_WAIT);
            let created: Vec<_> = root.created(id).iter().map(|r| r.map(|_| ())).collect();
            assert_eq!(created, [outcome]);
        }
    }

    /// Each layer's wake-up and each application tag has a key of its own,
    /// and a key reaches only what it names: an application key comes back
    /// as its tag, and a layer's wake-up with nothing due does nothing.
    #[test]
    fn timer_keys_name_their_tags() {
        let tags = [
            (NS_OVERLAY, 0),
            (NS_FUSE, 0),
            (NS_APP, 0),
            (NS_APP, u64::MAX),
        ];
        let keys: std::collections::BTreeSet<TimerKey> =
            tags.iter().map(|&(ns, arg)| timer_key(ns, arg)).collect();
        assert_eq!(keys.len(), tags.len());
        let mut s = stack(1);
        let mut rng = StdRng::seed_from_u64(1);
        s.handle(Time::ZERO, &mut rng, Input::Boot);
        drain(&mut s);
        for (ns, arg) in tags {
            s.handle(Time(1), &mut rng, Input::Timer(timer_key(ns, arg)));
            let outs = drain(&mut s);
            let app = |o: &Output| matches!(o, Output::App(AppCall::Timer(t)) if *t == arg);
            let expect = usize::from(ns == NS_APP);
            assert!(outs.len() == expect && outs.iter().all(app), "{outs:?}");
        }
    }

    #[test]
    fn app_timer_roundtrip() {
        let mut s = stack(1);
        let mut rng = StdRng::seed_from_u64(1);
        s.handle(Time::ZERO, &mut rng, Input::Boot);
        while s.poll_output().is_some() {}
        s.api(Time(1), &mut rng).set_app_timer(Duration(5), 42);
        let key = match s.poll_output() {
            Some(Output::SetTimer {
                key,
                after: Duration(5),
            }) => key,
            other => panic!("expected the app timer's arm, got {other:?}"),
        };
        assert_eq!(key.ns, NS_APP);
        s.handle(Time(6), &mut rng, Input::Timer(key));
        assert!(matches!(
            s.poll_output(),
            Some(Output::App(AppCall::Timer(42)))
        ));
        assert!(s.poll_output().is_none());
    }

    #[test]
    fn app_payloads_surface_as_app_calls() {
        let mut s = stack(1);
        let mut rng = StdRng::seed_from_u64(1);
        s.handle(Time::ZERO, &mut rng, Input::Boot);
        while s.poll_output().is_some() {}
        s.handle(
            Time(1),
            &mut rng,
            Input::Message {
                from: 9,
                msg: StackMsg::App(Bytes::from_static(b"hi")),
            },
        );
        match s.poll_output() {
            Some(Output::App(AppCall::Message { from, payload })) => {
                assert_eq!(from, 9);
                assert_eq!(&payload[..], b"hi");
            }
            other => panic!("expected app message, got {other:?}"),
        }
    }

    #[test]
    fn stack_msg_roundtrips_on_the_wire() {
        let msgs = [
            StackMsg::Fuse(FuseMsg::SoftNotification {
                id: FuseId(7),
                seq: 3,
            }),
            StackMsg::App(Bytes::from_static(b"payload")),
        ];
        for m in msgs {
            let bytes = m.to_bytes();
            assert_eq!(bytes.len(), m.size_hint());
            let back = StackMsg::from_bytes(&bytes).expect("decodes");
            match (&m, &back) {
                (StackMsg::Fuse(_), StackMsg::Fuse(_)) => {}
                (StackMsg::App(a), StackMsg::App(b)) => assert_eq!(a, b),
                _ => panic!("variant changed across the wire"),
            }
        }
        assert!(StackMsg::from_bytes(&[9]).is_err());
    }
}
