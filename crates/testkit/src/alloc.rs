//! A counting global allocator for allocation budgets and peak memory.
//!
//! The repository benchmark (`perfbench/`) records a peak-RSS proxy and
//! per-workload allocation counts, and the pinned sweep test
//! (`crates/bench/tests/engine_equivalence.rs`) gates the serial sweep's
//! allocation count against a recorded budget; the portable, hermetic way
//! to get either is to count allocations ourselves. A binary opts in with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: svm_testkit::alloc::CountingAlloc = svm_testkit::alloc::CountingAlloc::new();
//! ```
//!
//! and reads [`CountingAlloc::stats`] (or the free functions, which reach
//! the same process-wide counters) at stage boundaries. Counting uses
//! relaxed atomics — a handful of nanoseconds per allocation — and tracks
//! *live* and *peak live* heap bytes plus cumulative totals.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATED_TOTAL: AtomicU64 = AtomicU64::new(0);
static ALLOCATION_COUNT: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the process-wide allocation counters.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Cumulative bytes ever allocated.
    pub allocated_total: u64,
    /// Cumulative number of allocations.
    pub allocation_count: u64,
    /// Bytes currently live.
    pub live_bytes: u64,
    /// High-water mark of live bytes (the RSS proxy).
    pub peak_live_bytes: u64,
}

/// Read the counters. All zeros unless a binary installed
/// [`CountingAlloc`] as its `#[global_allocator]`.
pub fn stats() -> AllocStats {
    AllocStats {
        allocated_total: ALLOCATED_TOTAL.load(Ordering::Relaxed),
        allocation_count: ALLOCATION_COUNT.load(Ordering::Relaxed),
        live_bytes: LIVE_BYTES.load(Ordering::Relaxed),
        peak_live_bytes: PEAK_LIVE_BYTES.load(Ordering::Relaxed),
    }
}

/// Reset the cumulative counters and re-seed the peak from the current
/// live bytes, so per-stage deltas can be measured.
pub fn reset_peak() {
    let live = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_LIVE_BYTES.store(live, Ordering::Relaxed);
}

fn on_alloc(size: u64) {
    ALLOCATED_TOTAL.fetch_add(size, Ordering::Relaxed);
    ALLOCATION_COUNT.fetch_add(1, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(size, Ordering::Relaxed) + size;
    PEAK_LIVE_BYTES.fetch_max(live, Ordering::Relaxed);
}

fn on_dealloc(size: u64) {
    LIVE_BYTES.fetch_sub(size, Ordering::Relaxed);
}

/// The system allocator wrapped with relaxed-atomic byte counting.
pub struct CountingAlloc;

impl CountingAlloc {
    /// The allocator value for a `#[global_allocator]` static.
    pub const fn new() -> Self {
        CountingAlloc
    }

    /// Read the counters (same as the module-level [`stats`]).
    pub fn stats(&self) -> AllocStats {
        stats()
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: delegates every operation to `System`, which upholds the
// `GlobalAlloc` contract; the added counter updates never touch the
// returned memory and are themselves allocation-free (relaxed atomics),
// so no reentrancy into the allocator can occur.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: caller contract forwarded verbatim to `System`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: caller contract forwarded verbatim to `System`.
        unsafe { System.dealloc(ptr, layout) };
        on_dealloc(layout.size() as u64);
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: caller contract forwarded verbatim to `System`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            on_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: caller contract forwarded verbatim to `System`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            on_dealloc(layout.size() as u64);
            on_alloc(new_size as u64);
        }
        p
    }
}
