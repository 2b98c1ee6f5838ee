//! The sans-io node stack: overlay ↔ FUSE composed as one pure state
//! machine.
//!
//! [`FuseStack`] is the driver-facing surface of this crate. It owns the
//! overlay, the FUSE layer, their timer tables and an output queue — and
//! nothing else. A driver feeds it `(now, rng, `[`Input`]`)` and drains
//! [`Output`]s; the stack never touches a socket, a clock or an event
//! queue. The same stack runs unchanged under the deterministic simulation
//! kernel (`fuse_simdriver`) and over real TCP sockets (the `fuse-node`
//! binary): only the driver differs.
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
//!         _ => {} // Send / SetTimer / CancelTimer go to the transport
//!     }
//! }
//! assert!(matches!(result, Some(FuseEvent::Created { result: Ok(_), .. })));
//! ```

use std::collections::VecDeque;

use bytes::Bytes;

use fuse_overlay::{
    NodeInfo, OverlayConfig, OverlayCx, OverlayMsg, OverlayNode, OverlayTimer, OverlayUpcall,
};
use fuse_util::{Duration, KeyedTimers, PeerAddr, Time, TimerKey};
use fuse_wire::{Decode, DecodeError, Encode, Reader, Writer};
use rand::rngs::StdRng;

use crate::layer::{CoreCx, FuseLayer};
use crate::messages::FuseMsg;
use crate::types::{CreateTicket, FuseConfig, FuseEvent, FuseId, FuseTimer};

/// Timer-key namespace of the overlay's table.
pub const NS_OVERLAY: u8 = 0;
/// Timer-key namespace of the FUSE layer's table.
pub const NS_FUSE: u8 = 1;
/// Reserved timer-key namespace: no table arms keys in it, so a key
/// carrying it resolves to nothing.
pub const NS_LIVENESS: u8 = 2;
/// Timer-key namespace of application timers.
pub const NS_APP: u8 = 3;

/// Slots each of a stack's hand-off queues (the output queue and the
/// overlay-upcall pair) keeps once drained. A burst beyond them — a boot
/// that arms a ping per neighbour, a root's wide create — is given back,
/// so a quiet node holds a few hundred bytes of queue, not kilobytes.
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
    /// A previously requested timer expired. Feeding a stale key
    /// (cancelled or superseded) is harmless: it resolves to nothing, so
    /// lazy-cancel drivers need no bookkeeping.
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
    /// Drop a scheduled wakeup. Optional: drivers that deliver the expiry
    /// anyway stay correct (stale keys resolve to nothing), this is purely
    /// a scheduling-load optimization.
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
    ov_timers: KeyedTimers<OverlayTimer>,
    fuse_timers: KeyedTimers<FuseTimer>,
    app_timers: KeyedTimers<u64>,
    /// Overlay upcalls awaiting the FUSE layer.
    ov_upcalls: Vec<OverlayUpcall>,
    /// The batch `drain_upcalls` is replaying; empty between entry points,
    /// kept for up to [`WARM_SLOTS`] of its capacity.
    ov_batch: Vec<OverlayUpcall>,
    /// The one queue between the layers and the host: FUSE, the overlay
    /// (through its sink) and the application API all append to it.
    out: VecDeque<Output>,
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
            ov_timers: KeyedTimers::new(NS_OVERLAY),
            fuse_timers: KeyedTimers::new(NS_FUSE),
            app_timers: KeyedTimers::new(NS_APP),
            ov_upcalls: Vec::new(),
            ov_batch: Vec::new(),
            out: VecDeque::new(),
        }
    }

    /// This node's overlay identity.
    pub fn me(&self) -> &NodeInfo {
        self.overlay.info()
    }

    /// Processes one input. All resulting commands land on the output
    /// queue; drain it with [`poll_output`](FuseStack::poll_output).
    pub fn handle(&mut self, now: Time, rng: &mut StdRng, input: Input) {
        match input {
            Input::Boot => {
                self.with_overlay(now, rng, |ov, ocx| ov.boot(ocx));
                self.drain_upcalls(now, rng);
                self.out.push_back(Output::App(AppCall::Boot));
            }
            Input::Message { from, msg } => match msg {
                StackMsg::Overlay(m) => {
                    if let OverlayMsg::Ping { .. } = m {
                        // The overlay answers with our digest for the link.
                        self.fuse.refresh_link_hash(&mut self.overlay, from);
                    }
                    self.with_overlay(now, rng, |ov, ocx| ov.on_message(ocx, from, m));
                    self.drain_upcalls(now, rng);
                }
                StackMsg::Fuse(m) => {
                    self.with_core(now, rng, |fuse, ov, cx| fuse.on_message(cx, ov, from, m));
                    self.drain_upcalls(now, rng);
                }
                StackMsg::App(payload) => {
                    self.out
                        .push_back(Output::App(AppCall::Message { from, payload }));
                }
            },
            Input::Timer(key) => match key.ns {
                NS_OVERLAY => {
                    if let Some(t) = self.ov_timers.fire(key) {
                        if let OverlayTimer::PingDue(peer) = t {
                            // The ping carries our digest for the link.
                            self.fuse.refresh_link_hash(&mut self.overlay, peer);
                        }
                        self.with_overlay(now, rng, |ov, ocx| ov.on_timer(ocx, t));
                        self.drain_upcalls(now, rng);
                    }
                }
                NS_FUSE => {
                    if let Some(t) = self.fuse_timers.fire(key) {
                        self.with_core(now, rng, |fuse, ov, cx| fuse.on_timer(cx, ov, t));
                        self.drain_upcalls(now, rng);
                    }
                }
                NS_APP => {
                    if let Some(tag) = self.app_timers.fire(key) {
                        self.out.push_back(Output::App(AppCall::Timer(tag)));
                    }
                }
                _ => {}
            },
            Input::LinkBroken { peer } => {
                self.with_overlay(now, rng, |ov, ocx| ov.on_link_broken(ocx, peer));
                self.with_core(now, rng, |fuse, ov, cx| fuse.on_link_broken(cx, ov, peer));
                self.drain_upcalls(now, rng);
            }
        }
    }

    /// Pops the oldest queued command. Single-pop (rather than a drain
    /// iterator) so the driver can reborrow the stack between commands —
    /// which is exactly what [`Output::App`] callbacks need. Finding the
    /// queue empty rewinds it and gives back all but [`WARM_SLOTS`] slots.
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
    /// queue.
    fn with_overlay<R>(
        &mut self,
        now: Time,
        rng: &mut StdRng,
        f: impl FnOnce(&mut OverlayNode, &mut OverlayCx<'_>) -> R,
    ) -> R {
        self.with_core(now, rng, |_, ov, cx| cx.ov(ov, f))
    }

    /// Runs `f` against the FUSE layer through a [`CoreCx`] over this
    /// stack's state.
    fn with_core<R>(
        &mut self,
        now: Time,
        rng: &mut StdRng,
        f: impl FnOnce(&mut FuseLayer, &mut OverlayNode, &mut CoreCx<'_>) -> R,
    ) -> R {
        let mut cx = CoreCx {
            now,
            rng,
            fuse_timers: &mut self.fuse_timers,
            ov_timers: &mut self.ov_timers,
            ov_upcalls: &mut self.ov_upcalls,
            out: &mut self.out,
        };
        f(&mut self.fuse, &mut self.overlay, &mut cx)
    }

    /// Replays buffered overlay upcalls through the FUSE layer until
    /// quiescent (processing one batch may produce another).
    fn drain_upcalls(&mut self, now: Time, rng: &mut StdRng) {
        while !self.ov_upcalls.is_empty() {
            let spare = std::mem::take(&mut self.ov_batch);
            let mut batch = std::mem::replace(&mut self.ov_upcalls, spare);
            for up in batch.drain(..) {
                self.with_core(now, rng, |fuse, ov, cx| fuse.on_overlay_upcall(cx, ov, up));
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
        let t = self.stack.with_core(self.now, self.rng, |fuse, _ov, cx| {
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
        self.stack.with_core(self.now, self.rng, |fuse, _ov, cx| {
            fuse.register_handler(cx, id, ctx);
        });
        self.stack.drain_upcalls(self.now, self.rng);
    }

    /// `SignalFailure` (Figure 1).
    pub fn signal_failure(&mut self, id: FuseId) {
        self.stack.with_core(self.now, self.rng, |fuse, ov, cx| {
            fuse.signal_failure(cx, ov, id);
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
    /// [`AppCall::Timer`]`(tag)`.
    pub fn set_app_timer(&mut self, after: Duration, tag: u64) -> TimerKey {
        let key = self.stack.app_timers.arm(tag);
        self.stack.out.push_back(Output::SetTimer { key, after });
        key
    }

    /// Cancels any timer key (whatever namespace it belongs to).
    pub fn cancel_timer(&mut self, key: TimerKey) {
        let live = match key.ns {
            NS_OVERLAY => self.stack.ov_timers.cancel(key),
            NS_FUSE => self.stack.fuse_timers.cancel(key),
            NS_APP => self.stack.app_timers.cancel(key),
            _ => false,
        };
        if live {
            self.stack.out.push_back(Output::CancelTimer { key });
        }
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

    /// Feeds `key` and checks it did nothing: no output, no RNG draw.
    fn assert_inert(s: &mut FuseStack, rng: &mut StdRng, now: Time, key: TimerKey) {
        let mut untouched = rng.clone();
        s.handle(now, rng, Input::Timer(key));
        assert!(s.poll_output().is_none(), "stale {key:?} produced output");
        assert_eq!(
            rng.gen::<u64>(),
            untouched.gen::<u64>(),
            "stale {key:?} drew from the RNG"
        );
    }

    /// Drivers may deliver cancelled and already-fired keys (the simulation
    /// kernel delivers every key it was given): each namespace must
    /// discard them.
    #[test]
    fn stale_timer_keys_are_inert() {
        let peer = NodeInfo::new(2, NodeName::numbered(2));
        let mut s = stack(1);
        s.overlay.preload_tables(vec![peer], Vec::new(), Vec::new());
        let mut rng = StdRng::seed_from_u64(1);
        s.handle(Time::ZERO, &mut rng, Input::Boot);
        let boot = drain(&mut s);

        // A key that was never armed (wrong generation) does nothing.
        let bogus = TimerKey {
            ns: NS_FUSE,
            slot: 0,
            gen: 99,
        };
        assert_inert(&mut s, &mut rng, Time(1), bogus);

        // Overlay: an ack timeout after its ack arrived. Boot arms the
        // peer's ping first; firing it sends the ping and arms the wait.
        let ping_due = boot
            .iter()
            .find_map(|o| match o {
                Output::SetTimer { key, .. } => Some(*key),
                _ => None,
            })
            .expect("boot arms the peer's ping");
        s.handle(Time(2), &mut rng, Input::Timer(ping_due));
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
        let ack_wait = fired
            .iter()
            .find_map(|o| match o {
                Output::SetTimer { key, after }
                    if *after == OverlayConfig::default().ping_timeout =>
                {
                    Some(*key)
                }
                _ => None,
            })
            .expect("the ack wait is armed");
        let msg = StackMsg::Overlay(OverlayMsg::PingAck { nonce, hash: None });
        s.handle(Time(3), &mut rng, Input::Message { from: 2, msg });
        assert!(
            drain(&mut s)
                .iter()
                .any(|o| matches!(o, Output::CancelTimer { key } if *key == ack_wait)),
            "the ack cancels its wait"
        );
        assert_inert(&mut s, &mut rng, Time(4), ack_wait);

        // FUSE: a creation timeout fed a second time after it fired.
        s.api(Time(5), &mut rng).create_group(vec![peer]);
        let create_timeout = drain(&mut s)
            .iter()
            .find_map(|o| match o {
                Output::SetTimer { key, .. }
                    if matches!(
                        s.fuse_timers.get(*key),
                        Some(FuseTimer::CreateTimeout { .. })
                    ) =>
                {
                    Some(*key)
                }
                _ => None,
            })
            .expect("creation arms its timeout");
        s.handle(Time(6), &mut rng, Input::Timer(create_timeout));
        assert!(
            !drain(&mut s).is_empty(),
            "the first firing fails the creation"
        );
        assert_inert(&mut s, &mut rng, Time(7), create_timeout);

        // Application: a timer after `cancel_timer`.
        let app = s.api(Time(8), &mut rng).set_app_timer(Duration(5), 42);
        s.api(Time(8), &mut rng).cancel_timer(app);
        drain(&mut s);
        assert_inert(&mut s, &mut rng, Time(13), app);
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

    /// One input whose outputs or upcalls overflow [`WARM_SLOTS`] — a boot
    /// that arms a ping per neighbour, a join reply that brings a LinkUp
    /// upcall per neighbour, a root's 32-member create — leaves no more
    /// than that many slots behind once the host drains it.
    #[test]
    fn drained_queues_give_back_bursts() {
        let infos: Vec<NodeInfo> = (0..32)
            .map(|i| NodeInfo::new(i as PeerAddr, NodeName::numbered(i)))
            .collect();
        let tables = fuse_overlay::build_oracle_tables(&infos, &OverlayConfig::default());
        let (cw, ccw, rt) = tables.into_iter().next().expect("one per node");
        let mut rng = StdRng::seed_from_u64(1);
        let timer = |o: &Output| matches!(o, Output::SetTimer { .. });

        let mut s = stack(0);
        s.overlay.preload_tables(cw, ccw, rt);
        s.handle(Time::ZERO, &mut rng, Input::Boot);
        give_back(&mut s, "boot", timer);

        let (ov, cfg) = (OverlayConfig::default(), FuseConfig::default());
        let mut joiner = FuseStack::new(infos[0], Some(1), ov, cfg);
        joiner.handle(Time::ZERO, &mut rng, Input::Boot);
        drain(&mut joiner);
        let candidates = infos[1..].to_vec();
        let msg = StackMsg::Overlay(OverlayMsg::JoinReply { candidates });
        joiner.handle(Time(1), &mut rng, Input::Message { from: 1, msg });
        give_back(&mut joiner, "join reply", timer);

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

    #[test]
    fn app_timer_roundtrip() {
        let mut s = stack(1);
        let mut rng = StdRng::seed_from_u64(1);
        s.handle(Time::ZERO, &mut rng, Input::Boot);
        while s.poll_output().is_some() {}
        let key = s.api(Time(1), &mut rng).set_app_timer(Duration(5), 42);
        assert!(matches!(
            s.poll_output(),
            Some(Output::SetTimer { key: k, after: Duration(5) }) if k == key
        ));
        s.handle(Time(6), &mut rng, Input::Timer(key));
        assert!(matches!(
            s.poll_output(),
            Some(Output::App(AppCall::Timer(42)))
        ));
        // Firing consumed the key; replaying it is inert.
        s.handle(Time(7), &mut rng, Input::Timer(key));
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
