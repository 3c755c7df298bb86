//! A counting global allocator. Counting is off unless a traced run turns
//! it on, so untraced runs pay one relaxed load per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Counts `alloc`, `alloc_zeroed` and `realloc` calls process-wide while
/// counting is enabled; frees are not counted.
pub struct Counting;

impl Counting {
    #[inline]
    fn note(&self) {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a plain
// atomic and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Turns counting on or off.
fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations counted so far.
fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Runs `f` with counting on and returns its result with the number of
/// allocations made meanwhile (by any thread).
pub fn count<R>(f: impl FnOnce() -> R) -> (R, u64) {
    set_counting(true);
    let before = allocs();
    let r = f();
    let n = allocs() - before;
    set_counting(false);
    (r, n)
}
