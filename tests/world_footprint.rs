//! The quiet world's resident bytes, held as a count on any host. A
//! 400-node world (seed 1, the benchmark's cluster profile) is built and
//! run for 90 simulated seconds — the benchmark's set-up before any group
//! exists. Afterwards every stack keeps at most [`WARM_SLOTS`] slots in
//! its hand-off queues, and the world's live heap stays under a committed
//! stake. Allocation sizes repeat exactly under the seed, so the heap is
//! asserted as a byte count, not sampled from `/proc`.
//!
//! This binary installs a counting global allocator that tracks live
//! bytes per thread; the world is built, run and measured on the test's
//! own thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fuse_core::WARM_SLOTS;
use fuse_harness::{World, WorldParams};
use fuse_net::NetConfig;
use fuse_sim::{ProcId, SimDuration};

/// The world's live heap after the run, in bytes: 5,138,344 measured on
/// x86-64 Linux once the stacks' queues were bounded, plus 5 %. While every
/// stack kept its boot burst's 32-slot output and overlay-effect queues it
/// was 7,484,328.
const STAKE_BYTES: isize = 5_395_261;

thread_local! {
    // `const` init: no lazy-init bookkeeping and no destructor, so the
    // allocator hook cannot recurse into itself.
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
}

fn add(bytes: isize) {
    // `try_with`: a thread mid-teardown has already dropped its TLS block.
    let _ = LIVE_BYTES.try_with(|c| c.set(c.get() + bytes));
}

struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain thread-local
// integer and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            add(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            add(new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn live_bytes() -> isize {
    LIVE_BYTES.with(Cell::get)
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
