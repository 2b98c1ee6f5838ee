//! The world's resident bytes, held as counts on any host. A 400-node
//! world (seed 1, the benchmark's cluster profile) is built and run for 90
//! simulated seconds — the benchmark's set-up before any group exists.
//! Afterwards every stack keeps at most [`WARM_SLOTS`] slots in its
//! hand-off queues, and the world's live heap stays under a committed
//! stake. A second world then follows `steady_ping`'s set-up to its end,
//! 400 standing groups of ten, and its live heap and live block count stay
//! under stakes of their own. Allocation sizes repeat exactly under the
//! seed, so the heap is asserted as counts, not sampled from `/proc`.
//!
//! This binary installs a counting global allocator that tracks live
//! bytes and live blocks per thread; each world is built, run and measured
//! on its test's own thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fuse_core::WARM_SLOTS;
use fuse_harness::world::pick_nodes;
use fuse_harness::{World, WorldParams};
use fuse_net::NetConfig;
use fuse_sim::{ProcId, SimDuration};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The world's live heap after the run, in bytes: 3,733,424 measured on
/// x86-64 Linux, plus 5 %. It was 3,770,288 while the overlay kept a copy
/// of each link's digest beside core's subscription index and expiry
/// records, 4,766,888 while the route oracle kept a
/// 400-word row per attachment router and the topology its full-graph
/// adjacency, 5,138,344 when the stacks' queues were first bounded, and
/// 7,484,328 while every stack kept its boot burst's 32-slot output and
/// overlay-effect queues.
const STAKE_BYTES: isize = 3_920_095;

/// The world's live heap after `steady_ping`'s set-up, in bytes and in
/// blocks: 8,068,307 B in 16,100 blocks measured on x86-64 Linux, plus 5 %.
/// While each monitored peer's groups, liveness floor and digest sat in
/// three maps (core's subscription index and expiry records, the
/// overlay's digests) it was 8,247,007 B in 16,900 blocks; while the route
/// oracle kept a row per attachment router and the
/// topology its full-graph adjacency it was 9,269,207 B in 17,284 blocks;
/// while a layer kept its creation attempts, handler contexts and
/// fail-on-send peers in three tables beside its group records,
/// 9,424,723 B in 17,535 blocks; while every delegate kept the root's
/// address, its creation time and a hash table of links, 12,087,427 B in
/// 30,157 blocks.
const STANDING_STAKE_BYTES: isize = 8_471_722;
const STANDING_STAKE_BLOCKS: isize = 16_905;

thread_local! {
    // `const` init: no lazy-init bookkeeping and no destructor, so the
    // allocator hook cannot recurse into itself.
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
    static LIVE_BLOCKS: Cell<isize> = const { Cell::new(0) };
}

fn add(bytes: isize, blocks: isize) {
    // `try_with`: a thread mid-teardown has already dropped its TLS block.
    let _ = LIVE_BYTES.try_with(|c| c.set(c.get() + bytes));
    let _ = LIVE_BLOCKS.try_with(|c| c.set(c.get() + blocks));
}

struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain thread-local
// integer and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            add(layout.size() as isize, 1);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(-(layout.size() as isize), -1);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            add(new_size as isize - layout.size() as isize, 0);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn live_bytes() -> isize {
    LIVE_BYTES.with(Cell::get)
}

fn live_blocks() -> isize {
    LIVE_BLOCKS.with(Cell::get)
}

#[test]
fn quiet_world_keeps_small_queues_and_a_staked_heap() {
    const NODES: usize = 400;
    let before = live_bytes();
    let mut world = World::build(&WorldParams::new(NODES, 1, NetConfig::cluster()));
    world.run(SimDuration::from_secs(90));
    let heap = live_bytes() - before;
    for p in 0..NODES as ProcId {
        let slots = world.sim.proc(p).expect("up").retained_slots();
        assert!(slots <= WARM_SLOTS, "node {p} keeps {slots} queue slots");
    }
    assert!(
        heap <= STAKE_BYTES,
        "the quiet world holds {heap} live bytes, above the stake of {STAKE_BYTES}"
    );
}

#[test]
fn standing_groups_hold_a_staked_heap() {
    // `steady_ping`'s set-up: 90 s of quiet, 400 groups of ten created 100
    // at a time with 6 s for each batch, then 120 s for the trees to settle.
    const NODES: usize = 400;
    const GROUPS: usize = 400;
    const BATCH: usize = 100;
    let (bytes, blocks) = (live_bytes(), live_blocks());
    let mut world = World::build(&WorldParams::new(NODES, 1, NetConfig::cluster()));
    world.run(SimDuration::from_secs(90));
    // The benchmark's workload generator, seeded as it is for seed 1; it
    // draws the unplug order of `crash_repair` before any group.
    let mut rng = StdRng::seed_from_u64(1 ^ 0x6275_656e_6368);
    let mut machines: Vec<usize> = (0..NODES / 10).collect();
    machines.shuffle(&mut rng);
    let mut tickets = Vec::with_capacity(GROUPS);
    for _ in 0..GROUPS / BATCH {
        for _ in 0..BATCH {
            let root = rng.gen_range(0..NODES) as ProcId;
            let members = pick_nodes(&mut rng, NODES, 9, &[root]);
            tickets.push((root, world.start_create(root, &members)));
        }
        world.run(SimDuration::from_secs(6));
    }
    world.run(SimDuration::from_secs(120));
    let (heap, live) = (live_bytes() - bytes, live_blocks() - blocks);
    let created = tickets
        .iter()
        .filter(|&&(root, t)| {
            let app = &world.sim.proc(root).expect("up").app;
            matches!(app.created_result(t), Some(Ok(_)))
        })
        .count();
    assert_eq!(created, GROUPS, "every group stands");
    assert!(
        heap <= STANDING_STAKE_BYTES,
        "{GROUPS} standing groups hold {heap} live bytes, above the stake of {STANDING_STAKE_BYTES}"
    );
    assert!(
        live <= STANDING_STAKE_BLOCKS,
        "{GROUPS} standing groups hold {live} live blocks, above the stake of {STANDING_STAKE_BLOCKS}"
    );
}
