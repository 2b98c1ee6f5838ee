//! Steady-state allocation floors: once warm, the single-pass encode of
//! the common messages, a route-oracle hit, a network send between
//! connected processes and a detector probe round must not touch the
//! allocator. This binary installs a counting global
//! allocator; counts are per thread, so the tests run in parallel without
//! seeing each other (or the test harness).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use bytes::Bytes;
use fuse_core::{FuseId, FuseMsg};
use fuse_liveness::{Detector, LivenessConfig, LivenessCx, LivenessEffect, LivenessTimer};
use fuse_net::{NetConfig, Network, RouteOracle, Topology, TopologyConfig};
use fuse_overlay::{NodeInfo, NodeName, OverlayMsg};
use fuse_sim::{Medium, ProcId, SimTime, Verdict};
use fuse_util::{KeyedTimers, PeerAddr, Time, TimerKey};
use fuse_wire::{sha1, EncodeBuf};
use rand::rngs::StdRng;
use rand::SeedableRng;

thread_local! {
    // `const` init: no lazy-init bookkeeping and no destructor, so the
    // allocator hook cannot recurse into itself.
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn count_one() {
    // `try_with`: a thread mid-teardown has already dropped its TLS block.
    let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain thread-local
// integer and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocator calls the current thread makes while running `f`.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOC_CALLS.with(Cell::get);
    f();
    ALLOC_CALLS.with(Cell::get) - before
}

#[test]
fn the_counter_sees_allocations() {
    assert!(allocs_during(|| drop(std::hint::black_box(vec![0u8; 64]))) >= 1);
}

#[test]
fn warm_encode_buf_does_not_allocate() {
    // The steady-state ping exactly as the overlay sends it: nonce plus
    // the 20-byte piggyback digest (paper §7.5).
    let ping = OverlayMsg::Ping {
        nonce: 0x1234_5678,
        hash: Some(sha1(b"piggyback")),
    };
    // A reconcile request over 16 monitored links (§6.3).
    let reconcile = FuseMsg::ReconcileRequest {
        links: (0..16u64).map(|i| (FuseId(i * 7919), i)).collect(),
    };
    // A routed client envelope: 48-byte payload plus one recorded hop.
    let routed = OverlayMsg::Routed {
        src: NodeInfo::new(7, NodeName::numbered(7)),
        target: NodeName::numbered(99),
        ttl: 64,
        class: 0,
        payload: Bytes::copy_from_slice(&[0u8; 48]),
        path: vec![NodeInfo::new(1, NodeName::numbered(1))],
    };
    let mut buf = EncodeBuf::new();
    let warm = buf.encode(&routed).len().max(buf.encode(&reconcile).len());
    assert!(warm > buf.encode(&ping).len());
    let allocs = allocs_during(|| {
        for _ in 0..1000 {
            std::hint::black_box(buf.encode(std::hint::black_box(&ping)));
            std::hint::black_box(buf.encode(std::hint::black_box(&reconcile)));
            std::hint::black_box(buf.encode(std::hint::black_box(&routed)));
        }
    });
    assert_eq!(allocs, 0, "encoding into a warm EncodeBuf allocated");
}

/// The small topology the route and network cases run over.
fn small_topology() -> TopologyConfig {
    TopologyConfig {
        n_as: 8,
        core_per_as: 2,
        chains_per_as: 1,
        chain_len: (2, 3),
        ..TopologyConfig::default()
    }
}

#[test]
fn route_oracle_hit_does_not_allocate() {
    let mut rng = StdRng::seed_from_u64(0xF0D0);
    let topo = Topology::generate(&small_topology(), &mut rng);
    let mut routers = topo.sample_attachments(16, &mut rng);
    routers.sort_unstable();
    routers.dedup();
    let (s0, s1, far) = (routers[0], routers[1], routers[2]);
    let oracle = RouteOracle::new(&routers, 4);
    oracle.route(&topo, s0, far);
    oracle.route(&topo, s1, far);
    let misses = oracle.stats().misses;
    let allocs = allocs_during(|| {
        for i in 0..1000 {
            // Alternate rows so every hit also pays the LRU splice, and
            // directions so half are served from the destination's row.
            let near = if i & 1 == 0 { s0 } else { s1 };
            let (src, dst) = if i & 2 == 0 { (near, far) } else { (far, near) };
            std::hint::black_box(oracle.route(&topo, src, dst));
        }
    });
    assert_eq!(oracle.stats().misses, misses, "the loop must only hit");
    assert!(
        !oracle.row_resident(far),
        "reverse hits must not build a row"
    );
    assert_eq!(allocs, 0, "a route-oracle hit allocated");
}

#[test]
fn warm_unicast_does_not_allocate() {
    const PROCS: ProcId = 16;
    let mut rng = StdRng::seed_from_u64(0xF0D1);
    let mut net = Network::generate(
        &small_topology(),
        PROCS as usize,
        NetConfig::cluster(),
        &mut rng,
    );
    let mut send = |net: &mut Network, from, to| {
        let verdict = net.unicast(SimTime::ZERO, &mut rng, from, to, 64, "overlay.ping");
        assert!(matches!(verdict, Verdict::Deliver { .. }));
    };
    // First contact, one direction per pair: opens the connection and
    // computes whichever route row the pair needs.
    for a in 0..PROCS {
        for b in a + 1..PROCS {
            send(&mut net, a, b);
        }
    }
    let misses = net.route_oracle_stats().misses;
    let allocs = allocs_during(|| {
        // 1,000 sends that walk every ordered pair, so both directions.
        for i in 0..1000 {
            let from = i % PROCS;
            let to = (from + 1 + i / PROCS % (PROCS - 1)) % PROCS;
            send(&mut net, from, to);
        }
    });
    assert_eq!(net.route_oracle_stats().misses, misses);
    assert_eq!(allocs, 0, "a send between connected processes allocated");
}

/// Manual-clock host for the sans-io detector: armed timers sit in a heap
/// by deadline (stale keys resolve to nothing when popped) and every direct
/// probe is acked at once, so tracked peers cycle idle → awaiting → idle.
struct InstantAckHost {
    now: Time,
    rng: StdRng,
    timers: KeyedTimers<LivenessTimer>,
    heap: BinaryHeap<Reverse<(Time, TimerKey)>>,
    effects: VecDeque<LivenessEffect>,
    acks: Vec<(PeerAddr, u64)>,
    probes: u64,
}

impl InstantAckHost {
    fn drive(&mut self, det: &mut Detector, f: impl FnOnce(&mut Detector, &mut LivenessCx<'_>)) {
        let mut cx = LivenessCx::new(
            self.now,
            &mut self.rng,
            &mut self.timers,
            &[],
            &mut self.effects,
        );
        f(det, &mut cx);
        while let Some(effect) = self.effects.pop_front() {
            match effect {
                LivenessEffect::Probe { to, nonce } => {
                    self.probes += 1;
                    self.acks.push((to, nonce));
                }
                LivenessEffect::SetTimer { key, after } => {
                    self.heap.push(Reverse((self.now + after, key)));
                }
                LivenessEffect::CancelTimer { .. } => {}
                other => panic!("healthy instant-ack peers produced {other:?}"),
            }
        }
    }

    /// Runs every timer due by `until`, acking each probe it provokes.
    fn run_until(&mut self, det: &mut Detector, until: Time) {
        while let Some(&Reverse((at, key))) = self.heap.peek() {
            if at > until {
                return;
            }
            self.heap.pop();
            let Some(tag) = self.timers.fire(key) else {
                continue;
            };
            self.now = at;
            self.drive(det, |det, cx| det.on_timer(cx, tag));
            while let Some((peer, nonce)) = self.acks.pop() {
                self.drive(det, |det, cx| det.on_ack(cx, peer, nonce));
            }
        }
    }
}

#[test]
fn steady_state_probe_rounds_do_not_allocate() {
    const PEERS: u64 = 32;
    let cfg = LivenessConfig::default();
    let period = cfg.probe_period;
    let mut det = Detector::new(cfg);
    let mut host = InstantAckHost {
        now: Time::ZERO,
        rng: StdRng::seed_from_u64(0xF05E),
        timers: KeyedTimers::new(0),
        heap: BinaryHeap::new(),
        effects: VecDeque::new(),
        acks: Vec::new(),
        probes: 0,
    };
    for peer in 1..=PEERS as PeerAddr {
        host.drive(&mut det, |det, cx| det.add_peer(cx, peer));
    }
    // Warm-up: the host's queues and the timer table reach their working
    // size within the first few periods.
    host.run_until(&mut det, Time::ZERO + period.saturating_mul(10));
    let warm = host.probes;
    let allocs = allocs_during(|| {
        host.run_until(&mut det, Time::ZERO + period.saturating_mul(60));
    });
    let rounds = host.probes - warm;
    assert!(rounds >= 49 * PEERS, "only {rounds} probe rounds ran");
    assert_eq!(allocs, 0, "{rounds} steady-state probe rounds allocated");
}
