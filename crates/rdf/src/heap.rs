//! The process's heap policy once it holds a store.
//!
//! A store and everything derived from it (query tables, a materialized
//! cube, a background fold's copy) are built, dropped and rebuilt in the
//! tens to hundreds of MB. glibc's `malloc` by default hands freed memory
//! straight back to the kernel — it unmaps every block above a threshold
//! and trims the top of the heap — so each rebuild faults the same pages in
//! again, zeroed one by one. On the benchmark's `cold-build` workload that
//! was 5 000 page faults per 0.3 s iteration and 0.75 s of a 13 s run in
//! the kernel, the one part of a run whose cost the program does not
//! control: in a virtual machine whose balloon reports free pages to the
//! host, a page the process gets back costs a host-side fault or not,
//! depending on whether the host has dropped it in between (EXPERIMENTS.md
//! §E21, "Steadiness").
//!
//! [`keep_freed_memory`] tells glibc to keep what the process has grown
//! into: blocks up to 32 MB come from the heap instead of their own
//! mapping, and the heap is not trimmed. The peak is what it was; memory is
//! reused instead of returned in between. It is a no-op on other C
//! libraries, and steps aside when the environment already sets glibc's own
//! `MALLOC_TRIM_THRESHOLD_` or `MALLOC_MMAP_THRESHOLD_`.

/// Applies the heap policy described in the [module docs](self), once per
/// process. [`crate::Store`] calls this when a store is created.
pub fn keep_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        use std::sync::Once;

        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        /// The largest mmap threshold glibc accepts on 64-bit targets.
        const MMAP_THRESHOLD_MAX: i32 = 32 << 20;

        static ONCE: Once = Once::new();
        ONCE.call_once(|| {
            let chosen = |name| std::env::var_os(name).is_some();
            if chosen("MALLOC_TRIM_THRESHOLD_") || chosen("MALLOC_MMAP_THRESHOLD_") {
                return;
            }
            // SAFETY: `mallopt` only stores two tunables of glibc's
            // allocator; it is thread-safe and valid at any time. A custom
            // global allocator simply never reads them.
            unsafe {
                mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_MAX);
                mallopt(M_TRIM_THRESHOLD, i32::MAX);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn applying_the_policy_twice_is_harmless() {
        super::keep_freed_memory();
        super::keep_freed_memory();
        // Allocation still works on either side of the mmap threshold.
        let small = vec![1u8; 1 << 20];
        let large = vec![1u8; 40 << 20];
        assert_eq!(small.len() + large.len(), 41 << 20);
    }
}
