//! The original single-heap scheduler, preserved as a reference
//! implementation.
//!
//! Before the timing-wheel rewrite, every event — deliveries (payload
//! inline), timers, link-break notices, scheduled crashes and restarts —
//! went through one `BinaryHeap`, paying an O(log n) sift per push/pop and
//! moving whole `P::Msg` payloads during sifts. [`BaselineSim`] keeps that
//! scheduler for differential testing, with the same incarnation rule as
//! [`crate::Sim`] (a timer fires, and a link-break notice arrives, only in
//! the incarnation that armed the timer or made the send):
//! `tests/kernel_equivalence.rs` drives identical scripts through
//! [`BaselineSim`] and [`crate::Sim`] and requires bit-identical traces;
//! any ordering divergence in the wheel fails loudly.
//!
//! Its public API is the part of [`crate::Sim`]'s that the differential
//! tests drive. New experiments should always use [`crate::Sim`].

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::medium::{Medium, Verdict};
use crate::process::{Ctx, Payload, ProcId, Process};
use crate::time::{SimDuration, SimTime};
use crate::trace::TraceSink;

enum Event<P: Process> {
    Deliver {
        from: ProcId,
        to: ProcId,
        msg: P::Msg,
    },
    Timer {
        proc: ProcId,
        incarnation: u32,
        tag: P::Timer,
    },
    LinkBroken {
        proc: ProcId,
        incarnation: u32,
        peer: ProcId,
    },
    Crash(ProcId),
    Restart(ProcId, Box<P>),
}

struct HeapEntry<P: Process> {
    at: SimTime,
    seq: u64,
    ev: Event<P>,
}

impl<P: Process> PartialEq for HeapEntry<P> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<P: Process> Eq for HeapEntry<P> {}

impl<P: Process> PartialOrd for HeapEntry<P> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<P: Process> Ord for HeapEntry<P> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first, and
        // FIFO (smallest sequence number) among equal timestamps.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

struct ProcSlot<P> {
    proc: Option<P>,
    incarnation: u32,
}

/// Pre-rewrite simulation kernel; see the module docs.
pub struct BaselineSim<P: Process, Md, S> {
    clock: SimTime,
    seq: u64,
    heap: BinaryHeap<HeapEntry<P>>,
    procs: Vec<ProcSlot<P>>,
    rng: StdRng,
    medium: Md,
    trace: S,
    scratch_sends: Vec<(ProcId, P::Msg)>,
    scratch_timers: Vec<(SimTime, P::Timer)>,
    events_executed: u64,
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
            scratch_sends: Vec::new(),
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

    /// Whether process `id` is currently alive.
    pub fn is_up(&self, id: ProcId) -> bool {
        self.proc(id).is_some()
    }

    /// Immutable view of a live process's state.
    pub fn proc(&self, id: ProcId) -> Option<&P> {
        self.procs.get(id as usize).and_then(|s| s.proc.as_ref())
    }

    /// The trace sink.
    pub fn trace(&self) -> &S {
        &self.trace
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

    /// Runs `f` against live process `id`; `None` if it is down.
    pub fn with_proc<R>(
        &mut self,
        id: ProcId,
        f: impl FnOnce(&mut P, &mut Ctx<'_, P::Msg, P::Timer>) -> R,
    ) -> Option<R> {
        let mut out = None;
        self.dispatch(id, |p, ctx| out = Some(f(p, ctx)));
        out
    }

    /// Schedules a crash of `id` at `at` (mirrors [`crate::Sim::schedule_crash`]
    /// for the differential tests).
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

    /// Executes the earliest event; the queue must not be empty.
    fn step(&mut self) {
        let entry = self.heap.pop().expect("step on an empty queue");
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
            Event::Timer {
                proc,
                incarnation,
                tag,
            } => {
                if self.procs[proc as usize].incarnation == incarnation {
                    self.dispatch(proc, |p, ctx| p.on_timer(ctx, tag));
                }
            }
            Event::LinkBroken {
                proc,
                incarnation,
                peer,
            } => {
                if self.procs[proc as usize].incarnation == incarnation {
                    self.dispatch(proc, |p, ctx| p.on_link_broken(ctx, peer));
                }
            }
            Event::Crash(id) => self.crash(id),
            Event::Restart(id, state) => {
                if !self.is_up(id) {
                    self.restart(id, *state);
                }
            }
        }
    }

    /// Runs all events due within `d` from now, then advances the clock by
    /// `d`.
    pub fn run_for(&mut self, d: SimDuration) {
        let t = self.clock + d;
        while self.heap.peek().is_some_and(|e| e.at <= t) {
            self.step();
        }
        self.clock = t;
    }

    fn push(&mut self, at: SimTime, ev: Event<P>) {
        self.seq += 1;
        self.heap.push(HeapEntry {
            at,
            seq: self.seq,
            ev,
        });
    }

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
        for (at, tag) in new_timers.drain(..) {
            self.push(
                at,
                Event::Timer {
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
                self.push(at, Event::Deliver { from, to, msg });
            }
            Verdict::Break { sender_notice } => {
                self.push(
                    sender_notice,
                    Event::LinkBroken {
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
