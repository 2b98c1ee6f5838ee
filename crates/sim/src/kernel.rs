//! The event loop: deliveries, timers, link-break notices and scheduled
//! crashes and restarts, executed deterministically in `(time, sequence)`
//! order.
//!
//! # Scheduler structure (the hot path)
//!
//! Every event is a compact token in one hierarchical [`TimingWheel`]:
//! amortized O(1) insert and expiry, no allocation in steady state, and
//! storage bounded by the peak number of events pending at once (one arena
//! of entries, each slot a list through it). The wheel orders by the
//! global `(time, seq)` pair — earliest first, FIFO among equal
//! timestamps, bit-for-bit deterministic for a fixed seed.
//!
//! * A **delivery** token is a slab index: the potentially large `P::Msg`
//!   payload is parked in a generation-checked slab, so payloads are
//!   neither cloned nor reallocated between send and delivery.
//! * A **timer** token carries its tag and the incarnation of the process
//!   that armed it, and fires only into that process while it is up with
//!   the same incarnation: a restarted process never sees its
//!   predecessor's timers. The kernel keeps no timer table and offers no
//!   cancel; cancelling is the process's job (`FuseStack` discards the
//!   stale keys it is fed).
//! * A **link-break notice** carries the incarnation of the process whose
//!   send broke, under the timer rule: a process restarted before the
//!   notice fires never hears of its predecessor's broken sends.
//! * Scheduled **crashes** and **restarts** are tokens too. A restart
//!   carries its fresh state boxed: one allocation beside the many a fresh
//!   process makes, and the token stays as small as a timer's.
//!
//! `baseline::BaselineSim` preserves the original single-heap scheduler;
//! differential tests in `tests/kernel_equivalence.rs` hold the two to
//! identical traces.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::medium::{Medium, Verdict};
use crate::process::{Ctx, Payload, ProcId, Process};
use crate::time::{SimDuration, SimTime};
use crate::trace::{NullTrace, TraceSink};
use crate::wheel::{TimingWheel, WheelEntry};

/// What a wheel entry means when it surfaces: `T` is the timer tag, `P`
/// the process type.
enum Pending<T, P> {
    Timer {
        proc: ProcId,
        incarnation: u32,
        tag: T,
    },
    Deliver {
        idx: u32,
        gen: u32,
    },
    LinkBroken {
        proc: ProcId,
        incarnation: u32,
        peer: ProcId,
    },
    Crash(ProcId),
    Restart {
        id: ProcId,
        state: Box<P>,
    },
}

/// Generation-checked slab: values stay put between schedule and
/// consumption, queue entries refer to them by index, and slots recycle
/// through a free list — steady-state insert/take never allocates.
/// Generations catch (programming) errors where a stale index would
/// resurrect a consumed slot. Holds the in-flight message payloads.
struct Slab<T> {
    slots: Vec<(u32, Option<T>)>,
    free: Vec<u32>,
}

impl<T> Slab<T> {
    fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    fn insert(&mut self, value: T) -> (u32, u32) {
        if let Some(idx) = self.free.pop() {
            let slot = &mut self.slots[idx as usize];
            slot.0 = slot.0.wrapping_add(1);
            debug_assert!(slot.1.is_none(), "free-list slot still occupied");
            slot.1 = Some(value);
            (idx, slot.0)
        } else {
            let idx = u32::try_from(self.slots.len()).expect("more than 2^32 slab entries");
            self.slots.push((0, Some(value)));
            (idx, 0)
        }
    }

    fn take(&mut self, idx: u32, gen: u32) -> T {
        let slot = &mut self.slots[idx as usize];
        assert_eq!(slot.0, gen, "stale slab reference");
        let payload = slot.1.take().expect("slab slot consumed twice");
        self.free.push(idx);
        payload
    }
}

struct ProcSlot<P> {
    proc: Option<P>,
    /// Bumped by every crash; timers armed and link-break notices earned
    /// under an older value are dead.
    incarnation: u32,
}

/// The simulation world: processes, medium, clock and event queue.
///
/// # Examples
///
/// ```
/// use fuse_sim::{PerfectMedium, Payload, Process, ProcId, Sim, SimDuration};
///
/// #[derive(Clone)]
/// struct Hello;
/// impl Payload for Hello {
///     fn size_bytes(&self) -> usize { 5 }
/// }
///
/// struct Greeter { got: u32 }
/// impl Process for Greeter {
///     type Msg = Hello;
///     type Timer = ();
///     fn on_boot(&mut self, ctx: &mut fuse_sim::process::Ctx<'_, Hello, ()>) {
///         if ctx.self_id == 0 { ctx.send(1, Hello); }
///     }
///     fn on_message(&mut self, _ctx: &mut fuse_sim::process::Ctx<'_, Hello, ()>, _from: ProcId, _m: Hello) {
///         self.got += 1;
///     }
///     fn on_timer(&mut self, _ctx: &mut fuse_sim::process::Ctx<'_, Hello, ()>, _t: ()) {}
/// }
///
/// let medium = PerfectMedium::new(SimDuration::from_millis(10));
/// let mut sim = Sim::new(42, medium);
/// sim.add_process(Greeter { got: 0 });
/// sim.add_process(Greeter { got: 0 });
/// sim.run_for(SimDuration::from_secs(1));
/// assert_eq!(sim.proc(1).unwrap().got, 1);
/// ```
pub struct Sim<P: Process, Md, S = NullTrace> {
    clock: SimTime,
    seq: u64,
    wheel: TimingWheel<Pending<P::Timer, P>>,
    msgs: Slab<(ProcId, ProcId, P::Msg)>,
    procs: Vec<ProcSlot<P>>,
    rng: StdRng,
    medium: Md,
    trace: S,
    scratch_sends: Vec<(ProcId, P::Msg)>,
    scratch_timers: Vec<(SimTime, P::Timer)>,
    events_executed: u64,
}

impl<P: Process, Md: Medium> Sim<P, Md, NullTrace> {
    /// Creates a simulation with the default (no-op) trace sink.
    pub fn new(seed: u64, medium: Md) -> Self {
        Sim::with_trace(seed, medium, NullTrace)
    }
}

impl<P: Process, Md: Medium, S: TraceSink<P::Msg>> Sim<P, Md, S> {
    /// Creates a simulation observing events through `trace`.
    pub fn with_trace(seed: u64, medium: Md, trace: S) -> Self {
        Sim {
            clock: SimTime::ZERO,
            seq: 0,
            wheel: TimingWheel::new(),
            msgs: Slab::new(),
            procs: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            medium,
            trace,
            scratch_sends: Vec::new(),
            scratch_timers: Vec::new(),
            events_executed: 0,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Number of processes ever added (including crashed ones).
    pub fn process_count(&self) -> usize {
        self.procs.len()
    }

    /// Total events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.events_executed
    }

    /// Events still queued (including timers whose process has since
    /// crashed or no longer wants them; they surface and are discarded).
    pub fn pending_events(&self) -> usize {
        self.wheel.len()
    }

    /// Whether process `id` is currently alive.
    pub fn is_up(&self, id: ProcId) -> bool {
        self.proc(id).is_some()
    }

    /// Immutable view of a live process's state.
    pub fn proc(&self, id: ProcId) -> Option<&P> {
        self.procs.get(id as usize).and_then(|s| s.proc.as_ref())
    }

    /// The medium, for fault injection.
    pub fn medium_mut(&mut self) -> &mut Md {
        &mut self.medium
    }

    /// Immutable medium access.
    pub fn medium(&self) -> &Md {
        &self.medium
    }

    /// The trace sink, for metrics extraction.
    pub fn trace(&self) -> &S {
        &self.trace
    }

    /// Kernel RNG; scripts may draw from it (deterministically).
    pub fn rng_mut(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Adds a process, boots it, and returns its id.
    pub fn add_process(&mut self, p: P) -> ProcId {
        let id = self.procs.len() as ProcId;
        self.procs.push(ProcSlot {
            proc: None,
            incarnation: 0,
        });
        self.restart(id, p);
        id
    }

    /// Crashes process `id`: state dropped, timers voided, medium informed.
    ///
    /// In-flight messages *to* the process are discarded on arrival; messages
    /// it already sent still propagate (packets in flight survive a sender
    /// crash).
    pub fn crash(&mut self, id: ProcId) {
        let slot = &mut self.procs[id as usize];
        if slot.proc.take().is_none() {
            return;
        }
        slot.incarnation = slot.incarnation.wrapping_add(1);
        self.medium.node_down(id);
        self.trace.on_lifecycle(self.clock, id, false);
    }

    /// Restarts a crashed process with fresh state `p` (same id).
    pub fn restart(&mut self, id: ProcId, p: P) {
        let slot = &mut self.procs[id as usize];
        assert!(slot.proc.is_none(), "restart of a live process");
        slot.proc = Some(p);
        self.medium.node_up(id);
        self.trace.on_lifecycle(self.clock, id, true);
        self.dispatch(id, |p, ctx| p.on_boot(ctx));
    }

    /// Runs `f` against live process `id` with a full handler context; the
    /// entry point for scripted API calls (e.g. `CreateGroup`).
    ///
    /// Returns `None` if the process is down.
    pub fn with_proc<R>(
        &mut self,
        id: ProcId,
        f: impl FnOnce(&mut P, &mut Ctx<'_, P::Msg, P::Timer>) -> R,
    ) -> Option<R> {
        let mut out = None;
        self.dispatch(id, |p, ctx| out = Some(f(p, ctx)));
        out
    }

    /// Schedules a crash of process `id` at absolute time `at` without
    /// allocating. Idempotent at fire time (crashing a dead process is a
    /// no-op), exactly like calling [`crash`] then.
    ///
    /// [`crash`]: Sim::crash
    pub fn schedule_crash(&mut self, at: SimTime, id: ProcId) {
        assert!(at >= self.clock, "cannot schedule in the past");
        self.push(at, Pending::Crash(id));
    }

    /// Schedules a restart of process `id` with `state` at absolute time
    /// `at`. The state rides the event boxed until it fires. If the process
    /// is still up at fire time the restart is dropped (the state is
    /// discarded), so alternating crash/restart schedules compose safely
    /// with other failure injection.
    pub fn schedule_restart(&mut self, at: SimTime, id: ProcId, state: P) {
        assert!(at >= self.clock, "cannot schedule in the past");
        let state = Box::new(state);
        self.push(at, Pending::Restart { id, state });
    }

    /// Executes the next event if it is due at or before `t`; returns
    /// whether an event ran. The clock is not advanced past the last
    /// executed event — the building block for event-driven waits
    /// (evaluate a predicate after every event instead of polling on a
    /// fixed interval).
    pub fn step_until(&mut self, t: SimTime) -> bool {
        match self.wheel.peek() {
            Some((at, _)) if at <= t => {}
            _ => return false,
        }
        let WheelEntry { at, token, .. } = self.wheel.pop().expect("peeked wheel entry exists");
        debug_assert!(at >= self.clock, "time went backwards");
        self.clock = at;
        self.events_executed += 1;
        match token {
            Pending::Timer {
                proc,
                incarnation,
                tag,
            } => {
                if self.procs[proc as usize].incarnation == incarnation {
                    self.dispatch(proc, |p, ctx| p.on_timer(ctx, tag));
                }
            }
            Pending::Deliver { idx, gen } => {
                let (from, to, msg) = self.msgs.take(idx, gen);
                if self.is_up(to) {
                    self.trace.on_deliver(self.clock, from, to, &msg);
                    self.dispatch(to, |p, ctx| p.on_message(ctx, from, msg));
                }
            }
            Pending::LinkBroken {
                proc,
                incarnation,
                peer,
            } => {
                if self.procs[proc as usize].incarnation == incarnation {
                    self.dispatch(proc, |p, ctx| p.on_link_broken(ctx, peer));
                }
            }
            Pending::Crash(id) => self.crash(id),
            Pending::Restart { id, state } => {
                if !self.is_up(id) {
                    self.restart(id, *state);
                }
            }
        }
        true
    }

    /// Runs all events up to and including time `t`, then sets the clock to
    /// `t`.
    pub fn run_until(&mut self, t: SimTime) {
        while self.step_until(t) {}
        if t > self.clock {
            self.clock = t;
        }
    }

    /// Runs for a span of simulated time.
    pub fn run_for(&mut self, d: SimDuration) {
        let t = self.clock + d;
        self.run_until(t);
    }

    fn push(&mut self, at: SimTime, token: Pending<P::Timer, P>) {
        self.seq += 1;
        self.wheel.insert(WheelEntry {
            at,
            seq: self.seq,
            token,
        });
    }

    /// Runs a handler against live process `id` and flushes its effects;
    /// does nothing if the process is down.
    fn dispatch(&mut self, id: ProcId, f: impl FnOnce(&mut P, &mut Ctx<'_, P::Msg, P::Timer>)) {
        let Some(ProcSlot {
            proc: Some(p),
            incarnation,
        }) = self.procs.get_mut(id as usize)
        else {
            return;
        };
        let incarnation = *incarnation;
        let mut sends = std::mem::take(&mut self.scratch_sends);
        let mut new_timers = std::mem::take(&mut self.scratch_timers);
        f(
            p,
            &mut Ctx {
                now: self.clock,
                self_id: id,
                rng: &mut self.rng,
                sends: &mut sends,
                new_timers: &mut new_timers,
            },
        );
        // Timers before sends: sequence numbers must be allocated in the
        // same order as the single-heap kernel, or same-instant tie-breaks
        // would diverge from the baseline.
        for (at, tag) in new_timers.drain(..) {
            self.push(
                at,
                Pending::Timer {
                    proc: id,
                    incarnation,
                    tag,
                },
            );
        }
        for (to, msg) in sends.drain(..) {
            self.perform_send(id, incarnation, to, msg);
        }
        self.scratch_sends = sends;
        self.scratch_timers = new_timers;
    }

    fn perform_send(&mut self, from: ProcId, incarnation: u32, to: ProcId, msg: P::Msg) {
        let size = msg.size_bytes();
        let class = msg.class();
        let verdict = self
            .medium
            .unicast(self.clock, &mut self.rng, from, to, size, class);
        self.trace
            .on_send(self.clock, from, to, &msg, size, &verdict);
        match verdict {
            Verdict::Deliver { at } => {
                debug_assert!(at >= self.clock);
                let (idx, gen) = self.msgs.insert((from, to, msg));
                self.push(at, Pending::Deliver { idx, gen });
            }
            Verdict::Break { sender_notice } => {
                self.push(
                    sender_notice,
                    Pending::LinkBroken {
                        proc: from,
                        incarnation,
                        peer: to,
                    },
                );
            }
            Verdict::Drop => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::medium::PerfectMedium;
    use crate::process::Payload;

    #[derive(Clone, Debug, PartialEq)]
    enum Msg {
        Ping(u64),
        Pong(u64),
    }

    impl Payload for Msg {
        fn size_bytes(&self) -> usize {
            9
        }

        fn class(&self) -> &'static str {
            match self {
                Msg::Ping(_) => "ping",
                Msg::Pong(_) => "pong",
            }
        }
    }

    #[derive(Clone, Debug, PartialEq)]
    enum Tag {
        Tick,
        Once,
    }

    struct Node {
        peer: ProcId,
        initiator: bool,
        pings_seen: u64,
        pongs_seen: u64,
        ticks: u64,
        broken_links: Vec<ProcId>,
    }

    impl Node {
        fn new(peer: ProcId, initiator: bool) -> Self {
            Node {
                peer,
                initiator,
                pings_seen: 0,
                pongs_seen: 0,
                ticks: 0,
                broken_links: Vec::new(),
            }
        }
    }

    impl Process for Node {
        type Msg = Msg;
        type Timer = Tag;

        fn on_boot(&mut self, ctx: &mut Ctx<'_, Msg, Tag>) {
            if self.initiator {
                ctx.send(self.peer, Msg::Ping(0));
                ctx.set_timer(SimDuration::from_secs(1), Tag::Tick);
            }
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_, Msg, Tag>, from: ProcId, msg: Msg) {
            match msg {
                Msg::Ping(n) => {
                    self.pings_seen += 1;
                    ctx.send(from, Msg::Pong(n));
                }
                Msg::Pong(_) => self.pongs_seen += 1,
            }
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg, Tag>, tag: Tag) {
            match tag {
                Tag::Tick => {
                    self.ticks += 1;
                    if self.ticks < 3 {
                        ctx.set_timer(SimDuration::from_secs(1), Tag::Tick);
                    }
                }
                Tag::Once => panic!("a predecessor's timer fired"),
            }
        }

        fn on_link_broken(&mut self, _ctx: &mut Ctx<'_, Msg, Tag>, peer: ProcId) {
            self.broken_links.push(peer);
        }
    }

    fn two_nodes(seed: u64) -> Sim<Node, PerfectMedium> {
        let mut sim = Sim::new(seed, PerfectMedium::new(SimDuration::from_millis(50)));
        sim.add_process(Node::new(1, true));
        sim.add_process(Node::new(0, false));
        sim
    }

    #[test]
    fn ping_pong_round_trip() {
        let mut sim = two_nodes(1);
        sim.run_for(SimDuration::from_secs(10));
        assert_eq!(sim.proc(1).unwrap().pings_seen, 1);
        assert_eq!(sim.proc(0).unwrap().pongs_seen, 1);
        assert_eq!(sim.proc(0).unwrap().ticks, 3);
    }

    #[test]
    fn clock_advances_to_run_until_target() {
        let mut sim = two_nodes(1);
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(30));
        assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_secs(30));
    }

    #[test]
    fn crash_drops_in_flight_and_breaks_future_sends() {
        let mut sim = two_nodes(2);
        sim.crash(1);
        sim.run_for(SimDuration::from_secs(60));
        // The initial ping was in flight at crash time; dropped on arrival.
        assert_eq!(sim.proc(0).unwrap().pongs_seen, 0);
        assert!(!sim.is_up(1));
        // Sending again to the dead node breaks the link.
        sim.with_proc(0, |_n, ctx| ctx.send(1, Msg::Ping(9)));
        sim.run_for(SimDuration::from_secs(60));
        assert_eq!(sim.proc(0).unwrap().broken_links, vec![1]);
    }

    #[test]
    fn restarted_process_does_not_hear_predecessors_link_breaks() {
        let mut sim = two_nodes(4);
        sim.crash(1);
        // The notice for this send is due 20 s later, after 0 has restarted.
        sim.with_proc(0, |_n, ctx| ctx.send(1, Msg::Ping(9)));
        sim.run_for(SimDuration::from_secs(5));
        sim.crash(0);
        sim.restart(0, Node::new(1, false));
        sim.run_for(SimDuration::from_secs(60));
        assert_eq!(sim.proc(0).unwrap().broken_links, Vec::<ProcId>::new());
        // The new incarnation still hears the breaks of its own sends.
        sim.with_proc(0, |_n, ctx| ctx.send(1, Msg::Ping(10)));
        sim.run_for(SimDuration::from_secs(60));
        assert_eq!(sim.proc(0).unwrap().broken_links, vec![1]);
    }

    #[test]
    fn restart_reboots_with_fresh_state() {
        let mut sim = two_nodes(3);
        sim.run_for(SimDuration::from_secs(5));
        sim.crash(0);
        sim.restart(0, Node::new(1, true));
        sim.run_for(SimDuration::from_secs(5));
        // Rebooted initiator pings again.
        assert_eq!(sim.proc(1).unwrap().pings_seen, 2);
    }

    #[test]
    fn crash_clears_timers() {
        let mut sim = two_nodes(5);
        sim.with_proc(1, |_n, ctx| {
            ctx.set_timer(SimDuration::from_secs(1), Tag::Once);
        });
        sim.crash(1);
        // The timer died with its incarnation; a restarted node must not
        // receive it.
        sim.restart(1, Node::new(0, false));
        sim.run_for(SimDuration::from_secs(10));
    }

    #[test]
    fn equal_time_events_fifo() {
        // Two messages sent in one handler with identical latency must be
        // delivered in send order.
        struct Seq {
            seen: Vec<u64>,
        }
        #[derive(Clone)]
        struct N(u64);
        impl Payload for N {
            fn size_bytes(&self) -> usize {
                8
            }
        }
        impl Process for Seq {
            type Msg = N;
            type Timer = ();
            fn on_boot(&mut self, ctx: &mut Ctx<'_, N, ()>) {
                if ctx.self_id == 0 {
                    for i in 0..16 {
                        ctx.send(1, N(i));
                    }
                }
            }
            fn on_message(&mut self, _c: &mut Ctx<'_, N, ()>, _f: ProcId, m: N) {
                self.seen.push(m.0);
            }
            fn on_timer(&mut self, _c: &mut Ctx<'_, N, ()>, _t: ()) {}
        }
        let mut sim: Sim<Seq, PerfectMedium> =
            Sim::new(7, PerfectMedium::new(SimDuration::from_millis(5)));
        sim.add_process(Seq { seen: vec![] });
        sim.add_process(Seq { seen: vec![] });
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(sim.proc(1).unwrap().seen, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn timer_and_message_at_same_instant_interleave_by_seq() {
        // A timer armed before a send, both landing at the same instant,
        // must fire before the delivery (smaller sequence number).
        struct Race {
            order: Vec<&'static str>,
        }
        #[derive(Clone)]
        struct M;
        impl Payload for M {
            fn size_bytes(&self) -> usize {
                1
            }
        }
        impl Process for Race {
            type Msg = M;
            type Timer = ();
            fn on_boot(&mut self, ctx: &mut Ctx<'_, M, ()>) {
                if ctx.self_id == 1 {
                    // Timer first (seq k), send second (seq k+1); the
                    // medium latency makes the delivery land exactly when
                    // the timer fires.
                    ctx.set_timer(SimDuration::from_millis(5), ());
                    ctx.send(1, M);
                }
            }
            fn on_message(&mut self, _c: &mut Ctx<'_, M, ()>, _f: ProcId, _m: M) {
                self.order.push("msg");
            }
            fn on_timer(&mut self, _c: &mut Ctx<'_, M, ()>, _t: ()) {
                self.order.push("timer");
            }
        }
        let mut sim: Sim<Race, PerfectMedium> =
            Sim::new(7, PerfectMedium::new(SimDuration::from_millis(5)));
        sim.add_process(Race { order: vec![] });
        sim.add_process(Race { order: vec![] });
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(sim.proc(1).unwrap().order, vec!["timer", "msg"]);
    }

    #[test]
    fn scheduled_crash_and_restart_fire_unboxed() {
        // Scripted crash and restart are kernel tokens, not boxed closures
        // (the restart's state rides in its token).
        let mut sim = two_nodes(11);
        sim.schedule_crash(SimTime::ZERO + SimDuration::from_secs(2), 1);
        sim.schedule_restart(
            SimTime::ZERO + SimDuration::from_secs(4),
            1,
            Node::new(0, false),
        );
        sim.run_for(SimDuration::from_secs(3));
        assert!(!sim.is_up(1));
        sim.run_for(SimDuration::from_secs(3));
        assert!(sim.is_up(1));
        // Restarted node has fresh state.
        assert_eq!(sim.proc(1).unwrap().pings_seen, 0);
    }

    #[test]
    fn scheduled_restart_of_live_process_is_dropped() {
        let mut sim = two_nodes(12);
        sim.schedule_restart(
            SimTime::ZERO + SimDuration::from_secs(1),
            0,
            Node::new(1, true),
        );
        sim.run_for(SimDuration::from_secs(5));
        // Process 0 was never down: the scheduled state must be discarded,
        // not rebooted over live state (a reboot would re-ping).
        assert_eq!(sim.proc(1).unwrap().pings_seen, 1);
        // Scheduled crash of an already-dead process is a no-op too.
        sim.crash(0);
        sim.schedule_crash(sim.now() + SimDuration::from_secs(1), 0);
        sim.run_for(SimDuration::from_secs(5));
        assert!(!sim.is_up(0));
    }

    #[test]
    fn deterministic_event_counts_across_runs() {
        let mut a = two_nodes(42);
        let mut b = two_nodes(42);
        a.run_for(SimDuration::from_secs(100));
        b.run_for(SimDuration::from_secs(100));
        assert_eq!(a.events_executed(), b.events_executed());
        assert_eq!(a.proc(0).unwrap().ticks, b.proc(0).unwrap().ticks);
    }

    #[test]
    fn a_boxed_restart_keeps_the_wheel_token_small() {
        // No larger than with the state parked in a slab by index (32 and
        // 16 bytes): a box is no larger than `FuseStack`'s timer key, nor
        // than the slab's index and generation beside a unit tag.
        use std::mem::size_of;
        assert!(size_of::<Pending<fuse_util::timer::TimerKey, Node>>() <= 32);
        assert!(size_of::<Pending<(), Node>>() <= 16);
    }

    #[test]
    fn with_proc_on_dead_process_returns_none() {
        let mut sim = two_nodes(8);
        sim.crash(1);
        assert!(sim.with_proc(1, |_n, _c| 42).is_none());
        assert_eq!(sim.with_proc(0, |_n, _c| 42), Some(42));
    }
}
