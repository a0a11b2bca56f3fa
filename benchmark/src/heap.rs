//! Live and peak heap bytes of this process, counted at the allocator.
//!
//! `peak_heap_mb` is the memory metric in place of the process's peak
//! resident set (`VmHWM`, still reported as `bench.peak_rss_mb`): at the
//! gated scale a run needs 8–17 MB, and what the resident set adds on top
//! of the live bytes is the C allocator's retention, which follows its
//! moving `mmap` threshold. `mut-volatile` read 13.6 MB or 17.0 MB
//! depending on whether `CARGO_TARGET_DIR` was set (one more early
//! allocation) and, with it set, on the seed: seven seeds of ten high, three
//! low. The live bytes are the same in all of those runs.
//!
//! The counters cost two relaxed read-modify-writes per allocation; `bfs`,
//! the job with the most allocations per second, read 1–2 % slower with
//! them, inside its run-to-run spread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator with every size counted.
pub struct Counting;

fn grew(by: usize) {
    let now = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters only observe the sizes passed along.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed on as it came.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed on as it came.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` came from this allocator, that is from `System`, with
        // this `layout`.
        unsafe { System.dealloc(p, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `p` came from `System` with this `layout`, and the caller
        // vouches for `new_size`.
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        q
    }
}

/// Forget the peak so far: from here on it is the peak of what follows.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Run `f` without its allocations counting towards the peak (they must be
/// freed again by the time it returns).
pub fn outside_peak<T>(f: impl FnOnce() -> T) -> T {
    let peak = PEAK.load(Ordering::Relaxed);
    let out = f();
    PEAK.store(peak, Ordering::Relaxed);
    out
}

/// Most bytes that were live at once since the last `reset_peak`, in MB.
pub fn peak_heap_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}
