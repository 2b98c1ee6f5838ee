//! A counting allocator, so the traced run can report allocations per
//! kernel event and per cycle. It counts only while armed; the untraced run
//! never arms it and pays one relaxed load per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The system allocator, counting `alloc` and `realloc` calls while armed.
pub struct CountingAlloc;

// Statistics only: neither value publishes other data, so `Relaxed` is
// enough, and the benchmark allocates from one thread.
static ARMED: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);

fn count() {
    if ARMED.load(Ordering::Relaxed) {
        CALLS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches two atomics only and
// cannot allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

/// Starts counting.
pub fn arm() {
    ARMED.store(true, Ordering::Relaxed);
}

/// Stops counting.
pub fn disarm() {
    ARMED.store(false, Ordering::Relaxed);
}

/// Allocation calls counted so far.
pub fn calls() -> u64 {
    CALLS.load(Ordering::Relaxed)
}

/// Stops counting for the tracer's own work; returns whether it was armed,
/// for [`resume`].
pub fn pause() -> bool {
    ARMED.swap(false, Ordering::Relaxed)
}

/// Restores what [`pause`] found.
pub fn resume(was_armed: bool) {
    ARMED.store(was_armed, Ordering::Relaxed);
}
