//! Differential tests: the kernel ([`Sim`]) on its timing wheel against
//! the same kernel on a reference queue ([`HeapQueue`]), one binary heap
//! ordered by `(time, seq)`.
//!
//! A run is one totally ordered sequence of events, and the kernel's rules
//! (incarnations, crash and restart, payload handling) are shared code, so
//! what the reference has to pin is that order. Random interleavings of
//! sends, timer arms, cancels, crashes and restarts are driven through the
//! kernel on both queues; every observable — the full send/deliver/
//! lifecycle trace with timestamps, the executed-event count, the clock,
//! and final per-process state — must be bit-identical: earliest first and
//! FIFO among equal timestamps, however the wheel buckets and cascades its
//! entries. The kernel cannot cancel a timer, so cancelling is
//! [`TestProc`]'s job, exactly as it is `FuseStack`'s.
//!
//! Delays reach the horizons FUSE uses (up to 300 s, wheel levels 1–3), and
//! the run drains long enough for `PerfectMedium`'s 20 s dead-peer notice to
//! fire. A process answers each link-break notice with a send, so every
//! notice is in the trace, including the ones a restart must swallow.

use fuse_sim::medium::Verdict;
use fuse_sim::process::{Ctx, Payload, ProcId, Process};
use fuse_sim::trace::TraceSink;
use fuse_sim::wheel::{EventQueue, Scheduler, Wheel, WheelEntry};
use fuse_sim::{PerfectMedium, Sim, SimDuration, SimTime};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::{BTreeSet, BinaryHeap};

/// The reference scheduler: every event in one binary heap, earliest
/// `(at, seq)` first.
enum HeapQueue {}

impl Scheduler for HeapQueue {
    type Queue<T> = RefHeap<T>;
}

struct RefHeap<T>(BinaryHeap<Timed<T>>);

/// Heap entry ordered by `(at, seq)` alone, reversed for the max-heap.
struct Timed<T>(WheelEntry<T>);

impl<T> Ord for Timed<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.0.at, other.0.seq).cmp(&(self.0.at, self.0.seq))
    }
}

impl<T> PartialOrd for Timed<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> PartialEq for Timed<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<T> Eq for Timed<T> {}

impl<T> Default for RefHeap<T> {
    fn default() -> Self {
        RefHeap(BinaryHeap::new())
    }
}

impl<T> EventQueue<T> for RefHeap<T> {
    fn insert(&mut self, entry: WheelEntry<T>) {
        self.0.push(Timed(entry));
    }

    fn peek(&mut self) -> Option<(SimTime, u64)> {
        self.0.peek().map(|e| (e.0.at, e.0.seq))
    }

    fn pop(&mut self) -> Option<WheelEntry<T>> {
        self.0.pop().map(|e| e.0)
    }

    fn len(&self) -> usize {
        self.0.len()
    }
}

/// The kernel under test on queue `Q`.
type TestSim<Q> = Sim<TestProc, PerfectMedium, Recorder, Q>;

fn test_sim<Q: Scheduler>(seed: u64, latency_ms: u64, n: u32) -> TestSim<Q> {
    let medium = PerfectMedium::new(SimDuration::from_millis(latency_ms));
    let mut sim = Sim::with_scheduler(seed, medium, Recorder::default());
    for _ in 0..n {
        sim.add_process(TestProc::new(n));
    }
    sim
}

/// Trace recorder: every kernel-visible event, exactly timestamped.
#[derive(Default, Clone, PartialEq, Eq, Debug)]
struct Recorder {
    events: Vec<(u64, u8, u32, u32)>,
}

impl<M> TraceSink<M> for Recorder {
    fn on_send(
        &mut self,
        now: SimTime,
        from: ProcId,
        to: ProcId,
        _msg: &M,
        _size: usize,
        verdict: &Verdict,
    ) {
        let kind = match verdict {
            Verdict::Deliver { .. } => 0,
            Verdict::Break { .. } => 1,
            Verdict::Drop => 2,
        };
        self.events.push((now.nanos(), kind, from, to));
    }

    fn on_deliver(&mut self, now: SimTime, from: ProcId, to: ProcId, _msg: &M) {
        self.events.push((now.nanos(), 3, from, to));
    }

    fn on_lifecycle(&mut self, now: SimTime, id: ProcId, up: bool) {
        self.events.push((now.nanos(), 4, id, u32::from(up)));
    }
}

/// Message that fans out a bounded number of additional hops, creating
/// bursts of same-instant deliveries (constant medium latency).
#[derive(Clone, Debug)]
struct Packet {
    hops_left: u8,
    stride: u8,
}

impl Payload for Packet {
    fn size_bytes(&self) -> usize {
        2
    }
}

/// Timer tag: re-arms `remaining` more times, pinging a neighbor each fire.
/// `id` names the timer to its process, which may cancel it.
#[derive(Clone, Debug)]
struct Tick {
    id: u64,
    remaining: u8,
    period_ms: u32,
}

struct TestProc {
    n: u32,
    received: u64,
    fired: u64,
    broken: u64,
    next_timer: u64,
    last_timer: Option<u64>,
    /// Timers cancelled before they fired: they return without effect.
    cancelled: BTreeSet<u64>,
}

impl TestProc {
    fn new(n: u32) -> Self {
        TestProc {
            n,
            received: 0,
            fired: 0,
            broken: 0,
            next_timer: 0,
            last_timer: None,
            cancelled: BTreeSet::new(),
        }
    }

    /// Arms a timer and returns its id. Ids restart at 0 in a restarted
    /// process, so a predecessor's timer reaching it would be mistaken for
    /// its own: the kernels' incarnation check is what prevents that.
    fn arm(&mut self, ctx: &mut Ctx<'_, Packet, Tick>, period_ms: u32, remaining: u8) -> u64 {
        let id = self.next_timer;
        self.next_timer += 1;
        ctx.set_timer(
            SimDuration::from_millis(u64::from(period_ms)),
            Tick {
                id,
                remaining,
                period_ms,
            },
        );
        self.last_timer = Some(id);
        id
    }

    fn fingerprint(&self) -> (u64, u64, u64) {
        (self.received, self.fired, self.broken)
    }
}

impl Process for TestProc {
    type Msg = Packet;
    type Timer = Tick;

    fn on_boot(&mut self, _ctx: &mut Ctx<'_, Packet, Tick>) {}

    fn on_message(&mut self, ctx: &mut Ctx<'_, Packet, Tick>, _from: ProcId, msg: Packet) {
        self.received += 1;
        if msg.hops_left > 0 {
            let to = (ctx.self_id + u32::from(msg.stride)) % self.n;
            ctx.send(
                to,
                Packet {
                    hops_left: msg.hops_left - 1,
                    stride: msg.stride,
                },
            );
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Packet, Tick>, tag: Tick) {
        if self.cancelled.remove(&tag.id) {
            return;
        }
        self.fired += 1;
        let to = (ctx.self_id + 1) % self.n;
        ctx.send(
            to,
            Packet {
                hops_left: 1,
                stride: 1,
            },
        );
        if tag.remaining > 0 {
            self.arm(ctx, tag.period_ms, tag.remaining - 1);
        }
    }

    fn on_link_broken(&mut self, ctx: &mut Ctx<'_, Packet, Tick>, peer: ProcId) {
        let _ = peer;
        self.broken += 1;
        // A note to self puts the notice in the trace (as a send and a
        // delivery) without starting a chain of further breaks.
        ctx.send(
            ctx.self_id,
            Packet {
                hops_left: 0,
                stride: 1,
            },
        );
    }
}

/// One scripted action against the pair of kernels.
#[derive(Clone, Debug)]
enum Op {
    /// Inject a message via a handler context.
    Send { from: u8, to: u8, hops: u8 },
    /// Arm a (possibly periodic) timer.
    Arm {
        proc: u8,
        period_ms: u32,
        repeats: u8,
    },
    /// Arm then immediately cancel — must fire without effect, and still
    /// cost one executed event in both kernels.
    ArmCancel { proc: u8, period_ms: u32 },
    /// Cancel whatever timer the process armed last (may have fired).
    CancelLast { proc: u8 },
    /// Crash a process (idempotent).
    Crash { proc: u8 },
    /// Restart a process if it is down.
    Restart { proc: u8 },
    /// Schedule a crash (an event in the queue).
    ScheduleCrash { proc: u8, delay_ms: u32 },
    /// Schedule a restart (state parked until the event fires).
    ScheduleRestart { proc: u8, delay_ms: u32 },
    /// Crash `to`, send to it from `from`, and after `after_ms` (less than
    /// the dead-peer notice) crash and restart `from`: the notice must not
    /// reach the new incarnation.
    SendToDownThenRestart { from: u8, to: u8, after_ms: u32 },
    /// Let simulated time pass.
    Run { millis: u32 },
}

/// A delay in milliseconds: sub-second (wheel levels 0–1) or 1–300 s, the
/// span of FUSE's ping, link-expiry and repair timers (levels 1–3).
fn delay_ms() -> impl Strategy<Value = u32> {
    prop_oneof![0u32..500, 1_000u32..300_000]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<u8>(), 0u8..4).prop_map(|(from, to, hops)| Op::Send { from, to, hops }),
        (any::<u8>(), delay_ms(), 0u8..5).prop_map(|(proc, period_ms, repeats)| Op::Arm {
            proc,
            period_ms: period_ms.max(1),
            repeats
        }),
        (any::<u8>(), delay_ms()).prop_map(|(proc, period_ms)| Op::ArmCancel {
            proc,
            period_ms: period_ms.max(1)
        }),
        any::<u8>().prop_map(|proc| Op::CancelLast { proc }),
        any::<u8>().prop_map(|proc| Op::Crash { proc }),
        any::<u8>().prop_map(|proc| Op::Restart { proc }),
        (any::<u8>(), delay_ms()).prop_map(|(proc, delay_ms)| Op::ScheduleCrash { proc, delay_ms }),
        (any::<u8>(), delay_ms())
            .prop_map(|(proc, delay_ms)| Op::ScheduleRestart { proc, delay_ms }),
        (any::<u8>(), any::<u8>(), 0u32..20_000)
            .prop_map(|(from, to, after_ms)| { Op::SendToDownThenRestart { from, to, after_ms } }),
        delay_ms().prop_map(|millis| Op::Run { millis }),
    ]
}

/// Applies one op to the kernel through its scripting surface.
fn apply_op<Q: Scheduler>(sim: &mut TestSim<Q>, n: u32, op: &Op) {
    match *op {
        Op::Send { from, to, hops } => {
            let from = u32::from(from) % n;
            let to = u32::from(to) % n;
            sim.with_proc(from, |_p, ctx| {
                ctx.send(
                    to,
                    Packet {
                        hops_left: hops,
                        stride: (to % 250 + 1) as u8,
                    },
                )
            });
        }
        Op::Arm {
            proc,
            period_ms,
            repeats,
        } => {
            let proc = u32::from(proc) % n;
            sim.with_proc(proc, |p, ctx| p.arm(ctx, period_ms, repeats));
        }
        Op::ArmCancel { proc, period_ms } => {
            let proc = u32::from(proc) % n;
            sim.with_proc(proc, |p, ctx| {
                let id = p.arm(ctx, period_ms, 3);
                p.cancelled.insert(id);
            });
        }
        Op::CancelLast { proc } => {
            let proc = u32::from(proc) % n;
            sim.with_proc(proc, |p, _ctx| {
                if let Some(id) = p.last_timer.take() {
                    p.cancelled.insert(id);
                }
            });
        }
        Op::Crash { proc } => {
            sim.crash(u32::from(proc) % n);
        }
        Op::Restart { proc } => {
            let proc = u32::from(proc) % n;
            if !sim.is_up(proc) {
                sim.restart(proc, TestProc::new(n));
            }
        }
        Op::ScheduleCrash { proc, delay_ms } => {
            let at = sim.now() + SimDuration::from_millis(u64::from(delay_ms));
            sim.schedule_crash(at, u32::from(proc) % n);
        }
        Op::ScheduleRestart { proc, delay_ms } => {
            let at = sim.now() + SimDuration::from_millis(u64::from(delay_ms));
            sim.schedule_restart(at, u32::from(proc) % n, TestProc::new(n));
        }
        Op::SendToDownThenRestart { from, to, after_ms } => {
            let from = u32::from(from) % n;
            // Any process but `from`.
            let to = (from + 1 + u32::from(to) % (n - 1)) % n;
            sim.crash(to);
            sim.with_proc(from, |_p, ctx| {
                ctx.send(
                    to,
                    Packet {
                        hops_left: 0,
                        stride: 1,
                    },
                )
            });
            sim.run_for(SimDuration::from_millis(u64::from(after_ms)));
            sim.crash(from);
            sim.restart(from, TestProc::new(n));
        }
        Op::Run { millis } => {
            sim.run_for(SimDuration::from_millis(u64::from(millis)));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The core differential property: for arbitrary op scripts, the
    /// kernel on the wheel and on the reference heap produces identical
    /// traces, event counts, clocks and final states.
    #[test]
    fn wheel_and_heap_kernels_are_trace_identical(
        seed in any::<u64>(),
        n in 2u32..8,
        ops in prop::collection::vec(op_strategy(), 1..40),
    ) {
        let mut wheel = test_sim::<Wheel>(seed, 5, n);
        let mut heap = test_sim::<HeapQueue>(seed, 5, n);
        for op in &ops {
            apply_op(&mut wheel, n, op);
            apply_op(&mut heap, n, op);
        }
        // Drain the aftermath so late timers, deliveries and link-break
        // notices are compared too: the longest chain is five re-arms of a
        // 300 s timer, plus a 20 s notice.
        wheel.run_for(SimDuration::from_secs(2_000));
        heap.run_for(SimDuration::from_secs(2_000));

        prop_assert_eq!(wheel.now(), heap.now());
        prop_assert_eq!(wheel.events_executed(), heap.events_executed(),
            "executed-event counts diverged");
        for id in 0..n {
            prop_assert_eq!(wheel.is_up(id), heap.is_up(id), "liveness of {}", id);
            let wf = wheel.proc(id).map(TestProc::fingerprint);
            let hf = heap.proc(id).map(TestProc::fingerprint);
            prop_assert_eq!(wf, hf, "state of process {}", id);
        }
        prop_assert_eq!(wheel.trace(), heap.trace(),
            "event traces diverged (ordering or timing)");
    }
}

/// Same-instant FIFO across event kinds, deterministically:
/// messages and timers strictly interleave by arm/send order when all land
/// on one instant.
#[test]
fn same_instant_fifo_across_structures() {
    fn run<Q: Scheduler>() -> (Recorder, u64) {
        let mut sim = test_sim::<Q>(7, 10, 4);
        // Alternate arms and sends that all mature at t = 10 ms.
        for k in 0..10u32 {
            let target = k % 4;
            sim.with_proc(0, |p, ctx| {
                p.arm(ctx, 10, 0);
                ctx.send(
                    target,
                    Packet {
                        hops_left: 0,
                        stride: 1,
                    },
                );
            });
        }
        sim.run_for(SimDuration::from_secs(1));
        (sim.trace().clone(), sim.events_executed())
    }
    assert_eq!(run::<Wheel>(), run::<HeapQueue>());
}
