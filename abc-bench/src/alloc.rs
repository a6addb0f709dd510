//! An allocation-counting `#[global_allocator]`, installed **only** by
//! the traced binary (`src/bin/abc-bench-traced.rs`) and the contract
//! test. The end-to-end binary never links it in as its allocator, so
//! end-to-end numbers are taken under the plain system allocator and
//! [`allocs`] reads 0 there.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocations (`alloc` + `realloc` calls) since process start. A
/// statistic that publishes no other data, hence `Relaxed`.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus one relaxed counter increment per call.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`,
        // as the caller's contract with this allocator requires.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same block, layout and size the caller vouched for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations so far; constant 0 when [`Counting`] is not installed.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}
