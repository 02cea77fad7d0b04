//! Counting global allocator — the memory side of the bench gates.
//!
//! [`CountingAlloc`] wraps the system allocator and maintains four global
//! atomics: live bytes, the high-water mark of live bytes (**peak**),
//! total allocations, and total allocated bytes. Binaries that want memory
//! accounting install it once:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: qlb_obs::mem::CountingAlloc = qlb_obs::mem::CountingAlloc;
//! ```
//!
//! The bench harness uses it two ways:
//!
//! * **zero-alloc proofs** — [`MemMark::allocs_since`] across a steady-state
//!   pooled round must be 0 (the PR 4 proof, extended to the pooled
//!   round view);
//! * **bytes-per-user gates** — [`MemMark::peak_since`] around a measured
//!   region bounds the region's peak allocation, committed to
//!   `BENCH_mem.json` and re-measured by `qlb-bench-check`.
//!
//! The counters are process-global: concurrent measurements interleave.
//! The workspace only measures from single measurement threads (worker
//! pools are quiesced at mark points), which is all the gates need.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static TOTAL: AtomicU64 = AtomicU64::new(0);

/// A [`GlobalAlloc`] that counts every allocation through the system
/// allocator. Zero-sized; install with `#[global_allocator]`.
pub struct CountingAlloc;

#[inline]
fn on_alloc(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    TOTAL.fetch_add(size as u64, Ordering::Relaxed);
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    // lock-free max: only ever raises PEAK
    let mut peak = PEAK.load(Ordering::Relaxed);
    while live > peak {
        match PEAK.compare_exchange_weak(peak, live, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(p) => peak = p,
        }
    }
}

// SAFETY: delegates every operation to `System`; the bookkeeping never
// allocates and touches only atomics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            // count a realloc as one allocation of the new size replacing
            // the old: live moves by the delta, peak sees the new block
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            TOTAL.fetch_add(new_size as u64, Ordering::Relaxed);
            if new_size >= layout.size() {
                let grow = new_size - layout.size();
                let live = LIVE.fetch_add(grow, Ordering::Relaxed) + grow;
                let mut peak = PEAK.load(Ordering::Relaxed);
                while live > peak {
                    match PEAK.compare_exchange_weak(
                        peak,
                        live,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => break,
                        Err(q) => peak = q,
                    }
                }
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

/// Bytes currently allocated (live).
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// High-water mark of live bytes since process start (or the last
/// [`reset_peak`]).
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Total number of allocations (allocs + reallocs) since process start.
pub fn total_allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Total bytes ever allocated (monotone; frees don't subtract).
pub fn total_alloc_bytes() -> u64 {
    TOTAL.load(Ordering::Relaxed)
}

/// Whether a [`CountingAlloc`] is installed as the global allocator. Any
/// Rust program allocates before `main`, so a zero allocation count means
/// the counting hooks are not in the loop.
pub fn counting() -> bool {
    total_allocs() > 0
}

/// Lower the peak to the current live level, so a following measured
/// region reports its own high-water mark instead of setup's.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// A point-in-time mark for measuring a region: allocation count and live
/// bytes at the mark, for deltas at the end of the region.
#[derive(Debug, Clone, Copy)]
pub struct MemMark {
    allocs: u64,
    live: usize,
}

impl MemMark {
    /// Mark now, and reset the peak to the current live level so
    /// [`MemMark::peak_since`] measures only this region.
    pub fn here() -> Self {
        reset_peak();
        Self {
            allocs: total_allocs(),
            live: live_bytes(),
        }
    }

    /// Allocations performed since the mark.
    pub fn allocs_since(&self) -> u64 {
        total_allocs() - self.allocs
    }

    /// Net live-byte growth since the mark (0 if the region freed more
    /// than it allocated).
    pub fn live_since(&self) -> usize {
        live_bytes().saturating_sub(self.live)
    }

    /// Peak bytes the region held **above** the mark's live level: the
    /// high-water mark since the mark, minus the baseline.
    pub fn peak_since(&self) -> usize {
        peak_bytes().saturating_sub(self.live)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Without the allocator installed (unit tests run under the default
    // global allocator), the counters stay zero — exercise the arithmetic
    // directly instead.
    #[test]
    fn mark_deltas_are_saturating() {
        let m = MemMark {
            allocs: total_allocs(),
            live: live_bytes() + 1024,
        };
        assert_eq!(m.live_since(), 0);
        assert_eq!(m.peak_since(), peak_bytes().saturating_sub(m.live));
    }

    #[test]
    fn on_alloc_raises_peak_monotonically() {
        let before = peak_bytes();
        on_alloc(0); // size-0: counters move, live unchanged
        assert!(peak_bytes() >= before);
        assert!(total_allocs() > 0);
    }
}
