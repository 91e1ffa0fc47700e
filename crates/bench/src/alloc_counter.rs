//! A counting wrapper around the system allocator, for the machine-independent
//! allocation bounds in `tests/scan_allocations.rs` and
//! `tests/sparql_allocations.rs`. A binary opts in with
//! `#[global_allocator] static ALLOC: CountingAllocator = CountingAllocator;`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Counts every allocation call; frees are not subtracted (the metric is
/// allocation churn, not peak residency).
pub struct CountingAllocator;

// SAFETY: delegates every call unchanged to `System`; the only addition is
// a relaxed atomic counter on the allocation paths, which touches no
// allocator state.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this wrapper with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Total allocation calls so far (`alloc` and `realloc`), by every thread.
/// Zero unless the binary installed [`CountingAllocator`].
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}
