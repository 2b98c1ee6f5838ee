//! Steady-state allocation floors: once warm, the single-pass encode of
//! the common messages, a route-oracle hit, a network send between
//! connected processes, decoding a hostile ring name, a forwarded
//! `InstallChecking` hop and the overlay ping exchange that refreshes
//! standing FUSE groups must not touch the allocator, a maintenance probe
//! allocates only its hop path and integrating its reply allocates
//! nothing. This binary installs a counting
//! global allocator; counts are per thread, so the tests run in parallel
//! without seeing each other (or the test harness).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use bytes::Bytes;
use fuse_core::{
    FuseConfig, FuseId, FuseMsg, FuseStack, Input, InstallChecking, Output, StackMsg, NS_FUSE,
};
use fuse_net::{NetConfig, Network, RouteOracle, Topology, TopologyConfig};
use fuse_overlay::oracle::OracleTables;
use fuse_overlay::{
    build_oracle_tables, NodeInfo, NodeName, OverlayConfig, OverlayCx, OverlayMsg, OverlayNode,
    OverlaySink,
};
use fuse_sim::{Medium, ProcId, SimTime, Verdict};
use fuse_util::{Duration, PeerAddr, Time, TimerKey};
use fuse_wire::{sha1, Decode, Digest, Encode, EncodeBuf};
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

#[test]
fn hostile_name_decodes_do_not_allocate() {
    let mut frames: Vec<Vec<u8>> = vec![
        vec![24; 25],
        u64::MAX.to_bytes().to_vec(),
        vec![5, b'a', b'b'],
        vec![2, 0xff, 0xfe],
    ];
    // An oversize length, two varint bytes long, inside a node identity.
    let mut info = NodeInfo::new(3, NodeName::numbered(3)).to_bytes().to_vec();
    info[1] = 200;
    frames.push(info);
    let allocs = allocs_during(|| {
        for f in &frames {
            assert!(std::hint::black_box(NodeName::from_bytes(f)).is_err());
            assert!(std::hint::black_box(NodeInfo::from_bytes(f)).is_err());
        }
    });
    assert_eq!(allocs, 0, "a hostile name decode allocated");
}

/// Nodes `0..16` of a numbered ring, and node `at`'s oracle tables.
fn ring_tables(at: usize) -> (Vec<NodeInfo>, OracleTables) {
    let infos: Vec<NodeInfo> = (0..16)
        .map(|i| NodeInfo::new(i as PeerAddr, NodeName::numbered(i)))
        .collect();
    let tables = build_oracle_tables(&infos, &OverlayConfig::default()).swap_remove(at);
    (infos, tables)
}

/// An overlay sink that keeps only the last wake-up the overlay asks for.
struct Armed(Duration);

impl OverlaySink for Armed {
    fn send(&mut self, _to: PeerAddr, _msg: OverlayMsg) {}

    fn wake(&mut self, after: Duration) {
        self.0 = after;
    }

    fn link_digest(&mut self, _peer: PeerAddr) -> Option<Digest> {
        None
    }
}

#[test]
fn warm_maintenance_probe_allocates_only_its_path_and_reply_sets() {
    const PROBES: u64 = 200;
    let (infos, (cw, ccw, rt)) = ring_tables(3);
    // Pings come due years from now, so every wake-up below is maintenance.
    let cfg = OverlayConfig {
        ping_period: Duration::from_secs(1 << 30),
        ..OverlayConfig::default()
    };
    let mut node = OverlayNode::new(infos[3], None, cfg);
    node.preload_tables(cw, ccw, rt);
    let mut rng = StdRng::seed_from_u64(0xF0D2);
    let mut armed = Armed(Duration::ZERO);
    let mut upcalls = Vec::new();
    // Each call runs at the wake-up the last one asked for.
    let mut now = Time::ZERO;
    let mut run = |node: &mut OverlayNode, f: &mut dyn FnMut(&mut OverlayNode, &mut OverlayCx)| {
        now += std::mem::replace(&mut armed.0, Duration::ZERO);
        let mut cx = OverlayCx::new(now, &mut rng, &mut armed, &mut upcalls);
        f(node, &mut cx);
    };
    run(&mut node, &mut |n, cx| n.boot(cx));
    let mut probe = |n: &mut OverlayNode, cx: &mut OverlayCx| n.on_wake(cx);
    for _ in 0..8 {
        run(&mut node, &mut probe);
    }
    let sent = node.stats.probes_sent;
    let allocs = allocs_during(|| {
        for _ in 0..PROBES {
            run(&mut node, &mut probe);
        }
    });
    assert_eq!(node.stats.probes_sent - sent, PROBES);
    assert_eq!(node.stats.pings_sent, 0, "a ping came due");
    // The one allocation per probe is its hop path, reserved once; the
    // target name and every identity in the message are inline.
    assert_eq!(allocs, PROBES, "a warm maintenance probe allocated a name");
    // A reply naming nodes already in the tables changes nothing, and the
    // neighbour sets before and after integrating it live in reused
    // buffers.
    let reply = || OverlayMsg::ProbeReply {
        path: infos[4..8].to_vec(),
    };
    let mut replies: Vec<Option<OverlayMsg>> = (0..PROBES + 8).map(|_| Some(reply())).collect();
    let mut integrate = |node: &mut OverlayNode, msg: &mut Option<OverlayMsg>| {
        run(node, &mut |n, cx| {
            n.on_message(cx, 4, msg.take().expect("fed once"))
        });
    };
    for msg in &mut replies[..8] {
        integrate(&mut node, msg);
    }
    let allocs = allocs_during(|| {
        for msg in &mut replies[8..] {
            integrate(&mut node, msg);
        }
    });
    assert!(upcalls.is_empty(), "a known path changed the neighbour set");
    assert_eq!(allocs, 0, "integrating a known probe reply allocated");
}

/// A booted stack on the ring between a member and a root, so that every
/// `InstallChecking` the member routes to the root passes through it.
fn install_hop() -> (FuseStack, NodeInfo, NodeInfo) {
    let (infos, (cw, ccw, rt)) = ring_tables(5);
    let (member, hop, root) = (infos[2], infos[5], infos[11]);
    let mut stack = FuseStack::new(hop, None, OverlayConfig::default(), FuseConfig::default());
    stack.overlay.preload_tables(cw, ccw, rt);
    (stack, member, root)
}

/// `member`'s routed `InstallChecking` for group `id`, arriving at the hop.
fn routed_install(member: NodeInfo, root: NodeInfo, id: FuseId) -> Input {
    let ic = InstallChecking {
        id,
        seq: 0,
        member,
        root,
    };
    Input::Message {
        from: member.proc,
        msg: StackMsg::Overlay(OverlayMsg::Routed {
            src: member,
            target: root.name,
            ttl: 64,
            class: 0,
            payload: ic.to_bytes(),
            path: Vec::new(),
        }),
    }
}

/// Feeds one input and drains the outputs; returns how many routed
/// envelopes the stack forwarded.
fn feed_hop(stack: &mut FuseStack, rng: &mut StdRng, input: Input) -> u64 {
    stack.handle(Time::ZERO, rng, input);
    let mut forwarded = 0;
    while let Some(out) = stack.poll_output() {
        forwarded += u64::from(matches!(
            out,
            Output::Send {
                msg: StackMsg::Overlay(OverlayMsg::Routed { .. }),
                ..
            }
        ));
    }
    forwarded
}

#[test]
fn warm_forwarded_install_checking_hop_does_not_allocate() {
    let (mut stack, member, root) = install_hop();
    let mut rng = StdRng::seed_from_u64(0xF0D3);
    feed_hop(&mut stack, &mut rng, Input::Boot);
    let id = FuseId(77);
    let routed = routed_install(member, root, id);
    // The first hop installs the delegate branch and the second fills the
    // stack's second upcall buffer; the rest refresh the branch.
    for _ in 0..2 {
        assert_eq!(feed_hop(&mut stack, &mut rng, routed.clone()), 1);
    }
    assert_eq!(stack.fuse.tree_links(id).len(), 2);
    const HOPS: u64 = 100;
    let inputs: Vec<Input> = (0..HOPS).map(|_| routed.clone()).collect();
    let mut forwarded = 0;
    let allocs = allocs_during(|| {
        for input in inputs {
            forwarded += feed_hop(&mut stack, &mut rng, input);
        }
    });
    assert_eq!(forwarded, HOPS);
    assert_eq!(
        allocs, 0,
        "{HOPS} warm forwarded InstallChecking hops allocated"
    );
}

#[test]
fn new_delegate_records_allocate_only_table_growth() {
    // A thousand groups relayed through one hop: each new delegate record
    // holds its two links inline, so what allocates is the growth of the
    // layer's tables, amortized over the thousand.
    let (mut stack, member, root) = install_hop();
    let mut rng = StdRng::seed_from_u64(0xF0D3);
    feed_hop(&mut stack, &mut rng, Input::Boot);
    for _ in 0..2 {
        let warm = routed_install(member, root, FuseId(u64::MAX));
        assert_eq!(feed_hop(&mut stack, &mut rng, warm), 1);
    }
    const GROUPS: u64 = 1_000;
    let inputs: Vec<Input> = (0..GROUPS)
        .map(|i| routed_install(member, root, FuseId(i)))
        .collect();
    let mut forwarded = 0;
    let allocs = allocs_during(|| {
        for input in inputs {
            forwarded += feed_hop(&mut stack, &mut rng, input);
        }
    });
    assert_eq!(forwarded, GROUPS);
    assert_eq!(stack.fuse.group_count(), GROUPS as usize + 1);
    assert_eq!(stack.fuse.tree_links(FuseId(GROUPS - 1)).len(), 2);
    assert!(
        allocs <= 64,
        "{GROUPS} new delegate records made {allocs} allocations"
    );
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
    // Two endpoints hang from one anchor when a fresh oracle over the same
    // topology routes between them without a sweep (by their tree path).
    let one_anchor = |a: u32, b: u32| {
        let same = Topology::generate(&small_topology(), &mut StdRng::seed_from_u64(0xF0D0));
        let mut probe = RouteOracle::new(same, &routers);
        probe.route_by_index(a, b);
        probe.stats().misses == 0
    };
    // Endpoint positions (`routers` is sorted and distinct) on three
    // distinct anchors, so every query below reads the anchor table.
    let n = routers.len() as u32;
    let s0 = 0;
    let s1 = (1..n)
        .find(|&j| !one_anchor(s0, j))
        .expect("a second anchor");
    let far = (1..n)
        .find(|&j| !one_anchor(s0, j) && !one_anchor(s1, j))
        .expect("a third anchor");
    let mut oracle = RouteOracle::new(topo, &routers);
    oracle.route_by_index(s0, far);
    oracle.route_by_index(s1, far);
    let misses = oracle.stats().misses;
    assert_eq!(misses, 2, "each warm-up sweeps its source's anchor");
    let allocs = allocs_during(|| {
        for i in 0..1000 {
            // Alternate rows, and directions so half are served from the
            // destination's row.
            let near = if i & 1 == 0 { s0 } else { s1 };
            let (src, dst) = if i & 2 == 0 { (near, far) } else { (far, near) };
            std::hint::black_box(oracle.route_by_index(src, dst));
        }
    });
    assert_eq!(oracle.stats().misses, misses, "the loop must only hit");
    assert!(
        !oracle.row_resident(routers[far as usize]),
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

/// Two node stacks wired back to back on a manual clock: messages arrive
/// at once, timers sit in a heap by deadline and every key is fed back
/// (one whose deadline moved finds nothing due).
struct Pair {
    stacks: [FuseStack; 2],
    rngs: [StdRng; 2],
    now: Time,
    timers: BinaryHeap<Reverse<(Time, u64, usize, TimerKey)>>,
    armed: u64,
    inbox: VecDeque<(usize, Input)>,
    /// Timer inputs fed to the FUSE layer.
    fuse_timer_inputs: u64,
    /// `NS_FUSE` timer commands any other input produced.
    fuse_timer_cmds: u64,
}

impl Pair {
    /// Stack `i` has overlay address `i + 1`.
    fn addr(i: usize) -> PeerAddr {
        i as PeerAddr + 1
    }

    fn drain(&mut self, i: usize, fuse_timer_input: bool) {
        while let Some(out) = self.stacks[i].poll_output() {
            match out {
                Output::Send { to, msg } => {
                    let from = Pair::addr(i);
                    self.inbox
                        .push_back((to as usize - 1, Input::Message { from, msg }));
                }
                Output::SetTimer { key, after } => {
                    self.armed += 1;
                    self.timers
                        .push(Reverse((self.now + after, self.armed, i, key)));
                    self.fuse_timer_cmds += u64::from(key.ns == NS_FUSE && !fuse_timer_input);
                }
                Output::CancelTimer { .. } | Output::App(_) => {}
            }
        }
    }

    fn feed(&mut self, i: usize, input: Input) {
        let fuse_timer = matches!(input, Input::Timer(key) if key.ns == NS_FUSE);
        self.fuse_timer_inputs += u64::from(fuse_timer);
        self.stacks[i].handle(self.now, &mut self.rngs[i], input);
        self.drain(i, fuse_timer);
        self.deliver();
    }

    /// Delivers queued messages until none is in flight.
    fn deliver(&mut self) {
        while let Some((to, input)) = self.inbox.pop_front() {
            self.stacks[to].handle(self.now, &mut self.rngs[to], input);
            self.drain(to, false);
        }
    }

    fn run_until(&mut self, until: Time) {
        while let Some(&Reverse((at, _, i, key))) = self.timers.peek() {
            if at > until {
                break;
            }
            self.timers.pop();
            self.now = at;
            self.feed(i, Input::Timer(key));
        }
        self.now = until;
    }
}

/// Every ping and ack on this path first checks whether the link's digest
/// is stale; with the groups standing it never is, and the check is free.
#[test]
fn agreeing_ping_exchange_does_not_allocate_or_touch_fuse_timers() {
    const GROUPS: usize = 8;
    let ov_cfg = OverlayConfig::default();
    let period = ov_cfg.ping_period;
    let info = |i: usize| NodeInfo::new(Pair::addr(i), NodeName::numbered(i + 1));
    let stack = |i: usize, bootstrap| {
        FuseStack::new(info(i), bootstrap, ov_cfg.clone(), FuseConfig::default())
    };
    let mut pair = Pair {
        stacks: [stack(0, None), stack(1, Some(Pair::addr(0)))],
        rngs: [StdRng::seed_from_u64(0xF05F), StdRng::seed_from_u64(0xF060)],
        now: Time::ZERO,
        timers: BinaryHeap::with_capacity(256),
        armed: 0,
        inbox: VecDeque::with_capacity(64),
        fuse_timer_inputs: 0,
        fuse_timer_cmds: 0,
    };
    pair.feed(0, Input::Boot);
    pair.feed(1, Input::Boot);
    pair.run_until(Time::ZERO + Duration::from_secs(5));
    for _ in 0..GROUPS {
        let now = pair.now;
        pair.stacks[0]
            .api(now, &mut pair.rngs[0])
            .create_group(vec![info(1)]);
        pair.drain(0, false);
        pair.deliver();
    }
    for (i, other) in [(0, 1), (1, 0)] {
        let groups = pair.stacks[i].fuse.link_groups(Pair::addr(other));
        assert_eq!(groups.len(), GROUPS);
    }
    // Warm-up: queues, timer tables and the heap reach their working size.
    pair.run_until(Time::ZERO + period.saturating_mul(10));
    let acks = |p: &Pair| {
        p.stacks
            .iter()
            .map(|s| s.overlay.stats.acks_received)
            .sum::<u64>()
    };
    let probes = |p: &Pair| {
        p.stacks
            .iter()
            .map(|s| s.overlay.stats.probes_sent)
            .sum::<u64>()
    };
    let (acks_before, probes_before) = (acks(&pair), probes(&pair));
    pair.fuse_timer_inputs = 0;
    pair.fuse_timer_cmds = 0;
    let allocs = allocs_during(|| pair.run_until(Time::ZERO + period.saturating_mul(60)));
    let exchanges = acks(&pair) - acks_before;
    // Maintenance probes run alongside; each allocates its hop path once
    // (see `warm_maintenance_probe_allocates_only_its_path_and_reply_sets`).
    let probes_sent = probes(&pair) - probes_before;
    assert!(probes_sent > 0, "no maintenance probe ran in the window");
    assert!(exchanges >= 2 * 49, "only {exchanges} pings were acked");
    assert!(pair.fuse_timer_inputs > 0, "the peer timers never came due");
    assert_eq!(pair.stacks[0].fuse.obs().links_expired, 0);
    assert_eq!(pair.stacks[0].fuse.group_count(), GROUPS);
    assert_eq!(
        pair.fuse_timer_cmds, 0,
        "a ping, an ack or an overlay timer armed or cancelled a FUSE timer"
    );
    assert_eq!(
        allocs, probes_sent,
        "{exchanges} agreeing ping exchanges allocated beyond the probe paths"
    );
}
