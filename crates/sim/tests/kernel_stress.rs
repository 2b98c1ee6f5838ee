//! Kernel stress: 1 000 processes arming periodic liveness-ping timers —
//! the paper's dominant simulation workload — checked for determinism and
//! for sane behavior at scale.

use fuse_sim::process::{Ctx, Payload, ProcId, Process};
use fuse_sim::{PerfectMedium, Sim, SimDuration};
use rand::Rng;

#[derive(Clone)]
struct Ping;

impl Payload for Ping {
    fn size_bytes(&self) -> usize {
        16
    }

    fn class(&self) -> &'static str {
        "ping"
    }
}

/// Liveness-ping shape from the paper: every node pings a neighbor each
/// period (with deterministic jitter so arms spread over the period, as the
/// real protocol does) and re-arms.
struct Pinger {
    n: u32,
    period: SimDuration,
    sent: u64,
    got: u64,
}

impl Pinger {
    fn new(n: u32, period: SimDuration) -> Self {
        Pinger {
            n,
            period,
            sent: 0,
            got: 0,
        }
    }
}

impl Process for Pinger {
    type Msg = Ping;
    type Timer = ();

    fn on_boot(&mut self, ctx: &mut Ctx<'_, Ping, ()>) {
        let jitter = SimDuration(ctx.rng().gen_range(0..=self.period.nanos()));
        ctx.set_timer(jitter, ());
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_, Ping, ()>, _from: ProcId, _m: Ping) {
        self.got += 1;
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Ping, ()>, _t: ()) {
        let to = (ctx.self_id + 1) % self.n;
        ctx.send(to, Ping);
        self.sent += 1;
        ctx.set_timer(self.period, ());
    }
}

fn run(seed: u64, n: u32, secs: u64) -> Sim<Pinger, PerfectMedium> {
    let mut sim = Sim::new(seed, PerfectMedium::new(SimDuration::from_millis(50)));
    let period = SimDuration::from_secs(1);
    for _ in 0..n {
        sim.add_process(Pinger::new(n, period));
    }
    sim.run_for(SimDuration::from_secs(secs));
    sim
}

/// The acceptance-criteria determinism check at 1k-process scale: same
/// seed ⇒ identical executed-event counts and identical per-process state;
/// different seeds ⇒ same totals differently phased.
#[test]
fn thousand_process_periodic_timers_are_deterministic() {
    const N: u32 = 1_000;
    const SECS: u64 = 30;
    for seed in [1u64, 42, 12345] {
        let a = run(seed, N, SECS);
        let b = run(seed, N, SECS);
        assert_eq!(
            a.events_executed(),
            b.events_executed(),
            "seed {seed}: executed-event counts diverged between runs"
        );
        for id in 0..N {
            let (pa, pb) = (a.proc(id).unwrap(), b.proc(id).unwrap());
            assert_eq!(
                (pa.sent, pa.got),
                (pb.sent, pb.got),
                "seed {seed} proc {id}"
            );
        }
    }
    // Cross-seed sanity: jitter phases differ, steady-state totals match.
    let x = run(7, N, SECS);
    let y = run(8, N, SECS);
    let sent_x: u64 = (0..N).map(|i| x.proc(i).unwrap().sent).sum();
    let sent_y: u64 = (0..N).map(|i| y.proc(i).unwrap().sent).sum();
    // Each node sends ~SECS pings; boot jitter shifts each by <1 period.
    let lo = N as u64 * (SECS - 1);
    let hi = N as u64 * (SECS + 1);
    assert!((lo..=hi).contains(&sent_x), "seed 7 total {sent_x}");
    assert!((lo..=hi).contains(&sent_y), "seed 8 total {sent_y}");
}

/// Every armed ping round-trips: with a loss-free medium, total received
/// equals total sent once deliveries settle.
#[test]
fn no_pings_are_lost_or_duplicated_at_scale() {
    let mut sim = run(3, 500, 20);
    // Let in-flight deliveries land (latency 50 ms).
    sim.run_for(SimDuration::from_secs(2));
    let sent: u64 = (0..500).map(|i| sim.proc(i).unwrap().sent).sum();
    let got: u64 = (0..500).map(|i| sim.proc(i).unwrap().got).sum();
    // Pings sent in the final latency window may still be in flight.
    assert!(sent - got <= 500, "sent {sent} vs got {got}");
    assert!(sent > 0);
}

/// Crashing half the fleet mid-run neither wedges the scheduler nor breaks
/// determinism.
#[test]
fn mass_crash_and_restart_stays_deterministic() {
    let run_with_churn = |seed: u64| {
        let mut sim = run(seed, 200, 5);
        for id in 0..100u32 {
            sim.crash(id);
        }
        sim.run_for(SimDuration::from_secs(5));
        for id in 0..100u32 {
            sim.restart(id, Pinger::new(200, SimDuration::from_secs(1)));
        }
        sim.run_for(SimDuration::from_secs(5));
        sim
    };
    let a = run_with_churn(11);
    let b = run_with_churn(11);
    assert_eq!(a.events_executed(), b.events_executed());
    let totals = |s: &Sim<Pinger, PerfectMedium>| -> (u64, u64) {
        (0..200).fold((0, 0), |(sent, got), i| {
            let p = s.proc(i).unwrap();
            (sent + p.sent, got + p.got)
        })
    };
    assert_eq!(totals(&a), totals(&b));
}
