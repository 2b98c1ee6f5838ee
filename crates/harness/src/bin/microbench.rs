//! Wall-clock microbenchmarks for the hot paths no `BENCHMARK.json`
//! per-layer metric isolates: the sim kernel's event queue under the ping
//! shape, the route oracle's hit/miss latency (its miss at Mercator scale
//! too) and one agreeing ping through
//! a node stack by the number of groups on the link, and the same ping
//! taken round-robin over 400 booted stacks, where each input finds its
//! stack's lines cold. Prints a table and
//! asserts what it measures (the event count, hits hit, misses miss, a
//! ping's cost does not grow with the groups, a cold ping queues what a hot
//! one does); regressions are judged against `benchmark/`, not here.
//!
//! ```text
//! cargo run --release -p fuse_harness --bin microbench
//! ```

use std::hint::black_box;
use std::time::Instant;

use fuse_core::{
    FuseConfig, FuseMsg, FuseStack, Input, InstallChecking, Output, StackMsg, NS_FUSE,
};
use fuse_net::{RouteOracle, Topology, TopologyConfig};
use fuse_overlay::{build_oracle_tables, NodeInfo, NodeName, OverlayConfig, OverlayMsg};
use fuse_sim::process::Ctx;
use fuse_sim::{Payload, PerfectMedium, ProcId, Process, Sim, SimDuration};
use fuse_util::{PeerAddr, Time};
use fuse_wire::{Digest, Encode};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Timed passes per figure; the median is shown.
const REPS: usize = 5;

/// Median ns per call of `query` over `REPS` samples of `calls` calls.
fn median_ns(calls: usize, mut query: impl FnMut() -> u64) -> f64 {
    let mut samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            let mut acc = 0u64;
            for _ in 0..calls {
                acc ^= query();
            }
            black_box(acc);
            t0.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[REPS / 2]
}

/// Processes in the kernel-queue row.
const PINGERS: u32 = 1_000;
/// Their ping period.
const PERIOD: SimDuration = SimDuration::from_secs(60);
/// Ping periods per timed sample of the kernel-queue row.
const PERIODS_PER_SAMPLE: u64 = 20;

/// A process with only the timers of an overlay node's ping: a periodic
/// timer and, each period, a one-shot timeout that fires unwanted.
struct Pinger {
    /// Boot offset of the first period, so arms spread over the period.
    offset: SimDuration,
}

#[derive(Clone)]
enum PingTimer {
    Period,
    Timeout,
}

#[derive(Clone)]
struct NoMsg;

impl Payload for NoMsg {
    fn size_bytes(&self) -> usize {
        0
    }
}

impl Process for Pinger {
    type Msg = NoMsg;
    type Timer = PingTimer;

    fn on_boot(&mut self, ctx: &mut Ctx<'_, NoMsg, PingTimer>) {
        ctx.set_timer(self.offset, PingTimer::Period);
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_, NoMsg, PingTimer>, _from: ProcId, _m: NoMsg) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_, NoMsg, PingTimer>, tag: PingTimer) {
        if let PingTimer::Period = tag {
            ctx.set_timer(PERIOD, PingTimer::Period);
            ctx.set_timer(SimDuration::from_secs(20), PingTimer::Timeout);
        }
    }
}

/// This process's resident set in kB, from `/proc/self/status` (0 where
/// there is none).
fn vm_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// ns per event of the kernel's queue under [`PINGERS`] processes with the
/// ping's two timers, through `Sim`'s public API, and how far the resident
/// set grows once the first period has armed everything.
fn kernel_queue() {
    let mut sim = Sim::new(0xF0D2, PerfectMedium::new(SimDuration::from_millis(1)));
    for i in 0..u64::from(PINGERS) {
        let offset = SimDuration(PERIOD.nanos() * i / u64::from(PINGERS));
        sim.add_process(Pinger { offset });
    }
    sim.run_for(PERIOD);
    // Over [0 s, 60 s]: every first period, process 0's second (its offset
    // is 0), and the timeouts of the 667 processes whose offset is at most
    // 40 s.
    assert_eq!(sim.events_executed(), 1_668, "first-period event count");
    let rss_after_first = vm_rss_kb();
    // Each later period fires both timers of every process once.
    let per_sample = 2 * u64::from(PINGERS) * PERIODS_PER_SAMPLE;
    let ns = median_ns(1, || {
        let before = sim.events_executed();
        sim.run_for(SimDuration(PERIOD.nanos() * PERIODS_PER_SAMPLE));
        let events = sim.events_executed() - before;
        assert_eq!(
            events, per_sample,
            "events per {PERIODS_PER_SAMPLE} periods"
        );
        events
    }) / per_sample as f64;
    let grown = vm_rss_kb().saturating_sub(rss_after_first);
    println!(
        "kernel queue ({PINGERS} processes, 60 s period + 20 s timeout): {ns:.0} ns per event   \
         VmRSS +{grown} kB over {} periods after the first",
        REPS as u64 * PERIODS_PER_SAMPLE
    );
}

/// Median ns per miss of an oracle over `topo` and `endpoints` (sorted and
/// distinct) asked about disjoint pairs (the samples share the `n / 2`
/// there are), so neither end of a query has a row and each computes one.
fn cold_miss_ns(topo: Topology, endpoints: &[u32]) -> f64 {
    let mut cold = RouteOracle::new(topo, endpoints);
    let mut next = 0;
    let ns = median_ns(endpoints.len() / (2 * REPS), || {
        next += 2;
        cold.route_by_index(next - 2, next - 1).latency.nanos()
    });
    assert_eq!(cold.stats().hits, 0, "a miss query was served from a row");
    ns
}

/// Distinct attachment routers of `topo`, `n` drawn, sorted.
fn endpoints_of(topo: &Topology, n: usize, rng: &mut StdRng) -> Vec<u32> {
    let mut endpoints = topo.sample_attachments(n, rng);
    endpoints.sort_unstable();
    endpoints.dedup();
    endpoints
}

/// Hit, reverse-row hit and miss latency for 400 endpoints on the default
/// topology, as in the paper's 400-node worlds, plus the bytes resident
/// with as many rows computed as queries can cause; then the miss latency
/// for 500 endpoints at Mercator scale. Each names the size of the core a
/// miss sweeps.
fn route_table() {
    const SEED: u64 = 0xF0D0;
    let mut rng = StdRng::seed_from_u64(SEED);
    let topo = Topology::generate(&TopologyConfig::default(), &mut rng);
    let endpoints = endpoints_of(&topo, 400, &mut rng);
    let (n, routers, core) = (endpoints.len(), topo.n_routers(), topo.core_len());
    let mut oracle = RouteOracle::new(topo, &endpoints);

    // Hits: two computed rows queried alternately. Forward hits name the
    // computed row's endpoint as the source; reverse-row hits name it as
    // the destination, from a source whose own row is not computed. Both
    // take endpoint positions, as a `Network` send does.
    let (s0, s1, far) = (0, 1, 2);
    oracle.route_by_index(s0, far);
    oracle.route_by_index(s1, far);
    let mut i = 0usize;
    let hit_ns = median_ns(4096, || {
        i += 1;
        let src = if i & 1 == 0 { s0 } else { s1 };
        oracle.route_by_index(src, far).latency.nanos()
    });
    let reverse_ns = median_ns(4096, || {
        i += 1;
        let dst = if i & 1 == 0 { s0 } else { s1 };
        oracle.route_by_index(far, dst).latency.nanos()
    });
    assert_eq!(oracle.stats().misses, 2, "the hit loops computed a row");

    // The same seed draws the same graph again for the cold oracle.
    let again = Topology::generate(&TopologyConfig::default(), &mut StdRng::seed_from_u64(SEED));
    let miss_ns = cold_miss_ns(again, &endpoints);

    // Fill the oracle as far as it goes: a row is only computed when
    // neither end has one, so every endpoint asks about the last one,
    // whose own row is then never needed.
    let last = n as u32 - 1;
    for src in 0..last {
        oracle.route_by_index(src, last);
    }
    let stats = oracle.stats();
    println!(
        "route oracle ({routers} routers, core {core}, {n} endpoints): hit {hit_ns:.1} ns   \
         reverse-row hit {reverse_ns:.1} ns   miss {miss_ns:.0} ns   resident {} rows / {} bytes",
        stats.resident_rows, stats.resident_bytes
    );

    let topo = Topology::generate(&TopologyConfig::mercator_scale(), &mut rng);
    let endpoints = endpoints_of(&topo, 500, &mut rng);
    let (routers, core) = (topo.n_routers(), topo.core_len());
    println!(
        "route oracle, Mercator scale ({routers} routers, core {core}, {} endpoints): miss {:.0} ns",
        endpoints.len(),
        cold_miss_ns(topo, &endpoints)
    );
}

/// The one neighbour of the stack the ping table times.
const PEER: PeerAddr = 2;

/// Feeds `msg` from [`PEER`] and hands what the stack queued to `each`.
fn deliver(stack: &mut FuseStack, rng: &mut StdRng, msg: StackMsg, mut each: impl FnMut(Output)) {
    stack.handle(Time::ZERO, rng, Input::Message { from: PEER, msg });
    while let Some(out) = stack.poll_output() {
        each(out);
    }
}

/// Median ns for a root stack to take one agreeing ping (and queue its
/// ack) with `groups` groups monitored on the pinging link.
fn agreeing_ping_ns(groups: usize) -> f64 {
    let info = |p: PeerAddr| NodeInfo::new(p, NodeName::numbered(p as usize));
    let (ov_cfg, cfg) = (OverlayConfig::default(), FuseConfig::default());
    let mut stack = FuseStack::new(info(1), None, ov_cfg, cfg);
    let mut rng = StdRng::seed_from_u64(0xF0D1);
    stack.handle(Time::ZERO, &mut rng, Input::Boot);
    for _ in 0..groups {
        let mut api = stack.api(Time::ZERO, &mut rng);
        let id = api.create_group(vec![info(PEER)]).id();
        let reply = StackMsg::Fuse(FuseMsg::GroupCreateReply { id, ok: true });
        deliver(&mut stack, &mut rng, reply, |_| {});
        // The member's liveness-tree branch arrives: the root monitors the
        // link from here on.
        let (seq, member, root) = (0, info(PEER), info(1));
        let branch = InstallChecking {
            id,
            seq,
            member,
            root,
        };
        let routed = OverlayMsg::Routed {
            src: info(PEER),
            target: NodeName::numbered(1),
            ttl: 8,
            class: 0,
            payload: branch.to_bytes(),
            path: Vec::new(),
        };
        deliver(&mut stack, &mut rng, StackMsg::Overlay(routed), |_| {});
    }
    assert_eq!(stack.fuse.subscriptions().subscribers(PEER).len(), groups);
    // The stack's own digest for the link, read off its first ack.
    let ping = |hash| StackMsg::Overlay(OverlayMsg::Ping { nonce: 1, hash });
    let mut hash = None;
    deliver(&mut stack, &mut rng, ping(None), |out| {
        if let Output::Send {
            msg: StackMsg::Overlay(OverlayMsg::PingAck { hash: mine, .. }),
            ..
        } = out
        {
            hash = mine;
        }
    });
    let reconciles = stack.fuse.obs().reconciles;
    let mut fuse_timer_cmds = 0u64;
    let ns = median_ns(1 << 16, || {
        deliver(&mut stack, &mut rng, ping(hash), |out| {
            fuse_timer_cmds += u64::from(matches!(
                out,
                Output::SetTimer { key, .. } if key.ns == NS_FUSE
            ));
        });
        fuse_timer_cmds
    });
    let disagreed = stack.fuse.obs().reconciles - reconciles;
    assert_eq!(disagreed, 0, "a timed ping did not agree");
    assert_eq!(fuse_timer_cmds, 0, "an agreeing ping touched a FUSE timer");
    ns
}

/// An agreeing ping is one store whatever the link carries (DESIGN.md §9).
fn ping_table() {
    let [bare, few, many] = [0, 8, 64].map(agreeing_ping_ns);
    println!(
        "agreeing ping input: {bare:.0} ns with 0 groups on the link   {few:.0} ns with 8   \
         {many:.0} ns with 64"
    );
    assert!(
        many <= bare * 1.5,
        "an agreeing ping costs {many:.0} ns under 64 groups, {bare:.0} ns under none"
    );
}

/// Stacks the cold ping row takes its pings round-robin over: the
/// benchmark's world size.
const COLD_STACKS: usize = 400;

/// What `out` acks, as `(to, nonce, digest)`; `None` for any other output.
fn ack_of(out: &Output) -> Option<(PeerAddr, u64, Option<Digest>)> {
    match out {
        Output::Send {
            to,
            msg: StackMsg::Overlay(OverlayMsg::PingAck { nonce, hash }),
        } => Some((*to, *nonce, *hash)),
        _ => None,
    }
}

/// Median ns per agreeing ping on a group-free link, taken on one of
/// [`COLD_STACKS`] booted stacks with converged tables (hot) and on each in
/// turn (cold, so every input meets lines the other stacks have evicted:
/// what a node's footprint costs per input). Every timed ping must queue
/// exactly the ack its stack's first ping queued.
fn cold_ping_table() {
    let infos: Vec<NodeInfo> = (0..COLD_STACKS)
        .map(|i| NodeInfo::new(i as PeerAddr, NodeName::numbered(i)))
        .collect();
    let tables = build_oracle_tables(&infos, &OverlayConfig::default());
    let mut rng = StdRng::seed_from_u64(0xF0D4);
    let ping = || {
        StackMsg::Overlay(OverlayMsg::Ping {
            nonce: 1,
            hash: None,
        })
    };
    // Each stack, the neighbour that pings it, and the ack it queues.
    let mut stacks: Vec<(FuseStack, PeerAddr, _)> = infos
        .iter()
        .zip(tables)
        .map(|(me, (cw, ccw, rt))| {
            let (ov_cfg, cfg) = (OverlayConfig::default(), FuseConfig::default());
            let mut stack = FuseStack::new(*me, None, ov_cfg, cfg);
            stack.overlay.preload_tables(cw, ccw, rt);
            stack.handle(Time::ZERO, &mut rng, Input::Boot);
            while stack.poll_output().is_some() {}
            let from = stack.overlay.neighbors()[0];
            let mut acks = Vec::new();
            stack.handle(Time::ZERO, &mut rng, Input::Message { from, msg: ping() });
            while let Some(out) = stack.poll_output() {
                acks.push(ack_of(&out));
            }
            let [Some(ack)] = acks[..] else {
                panic!("a ping queued {acks:?}, not one ack");
            };
            (stack, from, ack)
        })
        .collect();
    let mut timed = |pick: &mut dyn FnMut() -> usize| {
        let mut unequal = 0u64;
        let ns = median_ns(1 << 14, || {
            let (stack, from, ack) = &mut stacks[pick()];
            let input = Input::Message {
                from: *from,
                msg: ping(),
            };
            stack.handle(Time::ZERO, &mut rng, input);
            let mut queued = 0;
            while let Some(out) = stack.poll_output() {
                unequal += u64::from(ack_of(&out) != Some(*ack));
                queued += 1;
            }
            unequal += u64::from(queued != 1);
            unequal
        });
        assert_eq!(
            unequal, 0,
            "a timed ping queued other outputs than the first"
        );
        ns
    };
    let hot = timed(&mut || 0);
    let mut next = 0;
    let cold = timed(&mut || {
        next = (next + 1) % COLD_STACKS;
        next
    });
    println!(
        "agreeing ping input over {COLD_STACKS} booted stacks: {hot:.0} ns on one (hot)   \
         {cold:.0} ns round-robin (cold)"
    );
}

fn main() {
    kernel_queue();
    println!();
    route_table();
    println!();
    ping_table();
    cold_ping_table();
}
