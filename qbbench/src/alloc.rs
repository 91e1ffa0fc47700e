//! A counting wrapper around the system allocator (lifted from the one
//! private to `repro.rs`), off by default: while off, every allocation pays
//! one relaxed load, so both sides of any comparison of untraced runs pay the
//! same. Only the traced run turns it on, around the calls it attributes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

pub struct CountingAllocator;

fn count(bytes: usize) {
    // Relaxed throughout: these are statistics and publish no other data.
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: delegates every call unchanged to `System`; the only addition is
// the atomic bookkeeping in `count`, which touches no allocator state.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` through this wrapper with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `f` with counting on and returns its result with the number of
/// allocations and the bytes requested meanwhile (frees are not subtracted:
/// the metric is churn, not residency). Counts every thread, so the traced
/// run calls it only while nothing else runs.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = (
        ALLOCATIONS.load(Ordering::Relaxed),
        ALLOCATED_BYTES.load(Ordering::Relaxed),
    );
    COUNTING.store(true, Ordering::Relaxed);
    let value = f();
    COUNTING.store(false, Ordering::Relaxed);
    (
        value,
        ALLOCATIONS.load(Ordering::Relaxed) - before.0,
        ALLOCATED_BYTES.load(Ordering::Relaxed) - before.1,
    )
}
