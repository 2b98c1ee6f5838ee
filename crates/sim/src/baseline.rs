//! The original single-heap scheduler, preserved as a reference
//! implementation.
//!
//! Before the timing-wheel rewrite, every event — deliveries (payload
//! inline), timers, and boxed scripted calls — went through one
//! `BinaryHeap`, paying an O(log n) sift per push/pop, moving whole
//! `P::Msg` payloads during sifts, and allocating a box per scripted call.
//! [`BaselineSim`] keeps that scheduler verbatim for differential
//! testing: `tests/kernel_equivalence.rs` drives identical scripts through
//! [`BaselineSim`] and [`crate::Sim`] and requires bit-identical traces;
//! any divergence in the wheel's merge logic fails loudly.
//!
//! The public API mirrors [`crate::Sim`]'s subset that scripts use. New
//! experiments should always use [`crate::Sim`].

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::medium::{Medium, Verdict};
use crate::process::{Action, Ctx, Payload, ProcId, Process};
use crate::time::{SimDuration, SimTime};
use crate::timer::{TimerHandle, TimerTable};
use crate::trace::{NullTrace, TraceSink};

enum Event<P: Process, Md, S> {
    Deliver {
        from: ProcId,
        to: ProcId,
        msg: P::Msg,
    },
    Timer(TimerHandle),
    LinkBroken {
        proc: ProcId,
        peer: ProcId,
    },
    Crash(ProcId),
    Restart(ProcId, Box<P>),
    Call(Box<dyn FnOnce(&mut BaselineSim<P, Md, S>)>),
}

struct HeapEntry<P: Process, Md, S> {
    at: SimTime,
    seq: u64,
    ev: Event<P, Md, S>,
}

impl<P: Process, Md, S> PartialEq for HeapEntry<P, Md, S> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<P: Process, Md, S> Eq for HeapEntry<P, Md, S> {}

impl<P: Process, Md, S> PartialOrd for HeapEntry<P, Md, S> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<P: Process, Md, S> Ord for HeapEntry<P, Md, S> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first, and
        // FIFO (smallest sequence number) among equal timestamps.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

struct ProcSlot<P: Process> {
    proc: Option<P>,
    timers: TimerTable<P::Timer>,
}

/// Pre-rewrite simulation kernel; see the module docs.
pub struct BaselineSim<P: Process, Md, S = NullTrace> {
    clock: SimTime,
    seq: u64,
    heap: BinaryHeap<HeapEntry<P, Md, S>>,
    procs: Vec<ProcSlot<P>>,
    rng: StdRng,
    medium: Md,
    trace: S,
    scratch_actions: Vec<Action<P::Msg>>,
    scratch_timers: Vec<(TimerHandle, SimTime)>,
    events_executed: u64,
}

impl<P: Process, Md: Medium> BaselineSim<P, Md, NullTrace> {
    /// Creates a baseline simulation with the default (no-op) trace sink.
    pub fn new(seed: u64, medium: Md) -> Self {
        BaselineSim::with_trace(seed, medium, NullTrace)
    }
}

impl<P: Process, Md: Medium, S: TraceSink<P::Msg>> BaselineSim<P, Md, S> {
    /// Creates a baseline simulation observing events through `trace`.
    pub fn with_trace(seed: u64, medium: Md, trace: S) -> Self {
        BaselineSim {
            clock: SimTime::ZERO,
            seq: 0,
            heap: BinaryHeap::new(),
            procs: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            medium,
            trace,
            scratch_actions: Vec::new(),
            scratch_timers: Vec::new(),
            events_executed: 0,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Total events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.events_executed
    }

    /// Events still queued.
    pub fn pending_events(&self) -> usize {
        self.heap.len()
    }

    /// Whether process `id` is currently alive.
    pub fn is_up(&self, id: ProcId) -> bool {
        self.procs
            .get(id as usize)
            .map(|s| s.proc.is_some())
            .unwrap_or(false)
    }

    /// Immutable view of a live process's state.
    pub fn proc(&self, id: ProcId) -> Option<&P> {
        self.procs.get(id as usize).and_then(|s| s.proc.as_ref())
    }

    /// The medium, for fault injection.
    pub fn medium_mut(&mut self) -> &mut Md {
        &mut self.medium
    }

    /// The trace sink, for metrics extraction.
    pub fn trace_mut(&mut self) -> &mut S {
        &mut self.trace
    }

    /// Immutable trace access.
    pub fn trace(&self) -> &S {
        &self.trace
    }

    /// Adds a process, boots it, and returns its id.
    pub fn add_process(&mut self, p: P) -> ProcId {
        let id = self.procs.len() as ProcId;
        self.procs.push(ProcSlot {
            proc: Some(p),
            timers: TimerTable::new(),
        });
        self.medium.node_up(id);
        self.trace.on_lifecycle(self.clock, id, true);
        self.dispatch(id, |p, ctx| p.on_boot(ctx));
        id
    }

    /// Crashes process `id`: state dropped, timers cleared, medium informed.
    pub fn crash(&mut self, id: ProcId) {
        let slot = &mut self.procs[id as usize];
        if slot.proc.take().is_none() {
            return;
        }
        slot.timers.clear();
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

    /// Runs `f` against live process `id`; `None` if it is down.
    pub fn with_proc<R>(
        &mut self,
        id: ProcId,
        f: impl FnOnce(&mut P, &mut Ctx<'_, P::Msg, P::Timer>) -> R,
    ) -> Option<R> {
        let mut out = None;
        let ran = self.dispatch_inner(id, |p, ctx| {
            out = Some(f(p, ctx));
        });
        if ran {
            out
        } else {
            None
        }
    }

    /// Schedules `f(&mut BaselineSim)` to run at absolute time `at`.
    pub fn schedule_call(&mut self, at: SimTime, f: impl FnOnce(&mut Self) + 'static) {
        assert!(at >= self.clock, "cannot schedule in the past");
        self.push(at, Event::Call(Box::new(f)));
    }

    /// Schedules a crash of `id` at `at` (mirrors [`crate::Sim::schedule_crash`]
    /// for the differential tests; this kernel still boxes per restart).
    pub fn schedule_crash(&mut self, at: SimTime, id: ProcId) {
        assert!(at >= self.clock, "cannot schedule in the past");
        self.push(at, Event::Crash(id));
    }

    /// Schedules a restart of `id` with `state` at `at`; dropped if the
    /// process is still up at fire time (mirrors
    /// [`crate::Sim::schedule_restart`]).
    pub fn schedule_restart(&mut self, at: SimTime, id: ProcId, state: P) {
        assert!(at >= self.clock, "cannot schedule in the past");
        self.push(at, Event::Restart(id, Box::new(state)));
    }

    /// Executes a single event; returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(entry) = self.heap.pop() else {
            return false;
        };
        debug_assert!(entry.at >= self.clock, "time went backwards");
        self.clock = entry.at;
        self.events_executed += 1;
        match entry.ev {
            Event::Deliver { from, to, msg } => {
                if self.is_up(to) {
                    self.trace.on_deliver(self.clock, from, to, &msg);
                    self.dispatch(to, |p, ctx| p.on_message(ctx, from, msg));
                }
            }
            Event::Timer(h) => {
                let slot = &mut self.procs[h.proc as usize];
                if slot.proc.is_none() {
                    return true;
                }
                if let Some(tag) = slot.timers.fire(h) {
                    self.dispatch(h.proc, |p, ctx| p.on_timer(ctx, tag));
                }
            }
            Event::LinkBroken { proc, peer } => {
                self.dispatch(proc, |p, ctx| p.on_link_broken(ctx, peer));
            }
            Event::Crash(id) => self.crash(id),
            Event::Restart(id, state) => {
                if !self.is_up(id) {
                    self.restart(id, *state);
                }
            }
            Event::Call(f) => f(self),
        }
        true
    }

    /// Runs all events up to and including time `t`, then sets the clock to
    /// `t`.
    pub fn run_until(&mut self, t: SimTime) {
        while let Some(entry) = self.heap.peek() {
            if entry.at > t {
                break;
            }
            self.step();
        }
        if t > self.clock {
            self.clock = t;
        }
    }

    /// Runs for a span of simulated time.
    pub fn run_for(&mut self, d: SimDuration) {
        let t = self.clock + d;
        self.run_until(t);
    }

    fn push(&mut self, at: SimTime, ev: Event<P, Md, S>) {
        self.seq += 1;
        self.heap.push(HeapEntry {
            at,
            seq: self.seq,
            ev,
        });
    }

    fn dispatch(&mut self, id: ProcId, f: impl FnOnce(&mut P, &mut Ctx<'_, P::Msg, P::Timer>)) {
        self.dispatch_inner(id, f);
    }

    fn dispatch_inner(
        &mut self,
        id: ProcId,
        f: impl FnOnce(&mut P, &mut Ctx<'_, P::Msg, P::Timer>),
    ) -> bool {
        let mut actions = std::mem::take(&mut self.scratch_actions);
        let mut new_timers = std::mem::take(&mut self.scratch_timers);
        let ran = {
            let slot = match self.procs.get_mut(id as usize) {
                Some(s) => s,
                None => return false,
            };
            let ProcSlot { proc, timers } = slot;
            match proc.as_mut() {
                Some(p) => {
                    let mut ctx = Ctx {
                        now: self.clock,
                        self_id: id,
                        rng: &mut self.rng,
                        timers,
                        actions: &mut actions,
                        new_timers: &mut new_timers,
                    };
                    f(p, &mut ctx);
                    true
                }
                None => false,
            }
        };
        for (handle, at) in new_timers.drain(..) {
            self.push(at, Event::Timer(handle));
        }
        for action in actions.drain(..) {
            match action {
                Action::Send { to, msg } => self.perform_send(id, to, msg),
            }
        }
        self.scratch_actions = actions;
        self.scratch_timers = new_timers;
        ran
    }

    fn perform_send(&mut self, from: ProcId, to: ProcId, msg: P::Msg) {
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
                self.push(at, Event::Deliver { from, to, msg });
            }
            Verdict::Break { sender_notice } => {
                self.push(
                    sender_notice,
                    Event::LinkBroken {
                        proc: from,
                        peer: to,
                    },
                );
            }
            Verdict::Drop => {}
        }
    }
}
