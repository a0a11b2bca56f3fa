//! Shared utilities for the engines: atomic value arrays, a chunked
//! parallel-for, and the simulated-cost accumulator.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Dynamic chunk size for the engines' parallel loops.
const CHUNK: usize = 512;

/// A shared array of `u64` values (bit-cast `f64` where needed).
pub(crate) fn atomic_vec(n: usize, init: u64) -> Vec<AtomicU64> {
    (0..n).map(|_| AtomicU64::new(init)).collect()
}

/// Atomically lower `cell` to `val`; returns `true` if it changed.
#[inline]
pub(crate) fn atomic_min(cell: &AtomicU64, val: u64) -> bool {
    let mut cur = cell.load(Ordering::Relaxed);
    while val < cur {
        match cell.compare_exchange_weak(cur, val, Ordering::AcqRel, Ordering::Relaxed) {
            Ok(_) => return true,
            Err(seen) => cur = seen,
        }
    }
    false
}

/// Chunked parallel loop over `0..n`.
pub(crate) fn par_for(threads: usize, n: usize, f: impl Fn(usize) + Sync) {
    let threads = threads.max(1).min(n.max(1));
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            let cursor = &cursor;
            let f = &f;
            s.spawn(move || loop {
                let start = cursor.fetch_add(CHUNK, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                for i in start..(start + CHUNK).min(n) {
                    f(i);
                }
            });
        }
    });
}

/// Chunked parallel loop over a slice.
pub(crate) fn par_for_slice<T: Sync>(threads: usize, items: &[T], f: impl Fn(&T) + Sync) {
    par_for(threads, items.len(), |i| f(&items[i]));
}

/// Cost report of a simulated engine run: real compute time plus
/// analytically charged communication or I/O (DESIGN.md §4.5).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimCost {
    /// Wall-clock compute seconds actually measured.
    pub compute_s: f64,
    /// Seconds charged by the network model (distributed engines).
    pub network_s: f64,
    /// Seconds charged by the disk model (out-of-core engines).
    pub disk_s: f64,
    /// BSP rounds / supersteps / full passes executed.
    pub rounds: u64,
    /// Messages exchanged (distributed) across all rounds.
    pub messages: u64,
    /// Bytes moved by the modelled slow medium.
    pub bytes_moved: u64,
}

impl SimCost {
    /// Total simulated seconds.
    pub fn total_s(&self) -> f64 {
        self.compute_s + self.network_s + self.disk_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_min_lowers_only() {
        let c = AtomicU64::new(10);
        assert!(atomic_min(&c, 5));
        assert!(!atomic_min(&c, 7));
        assert_eq!(c.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn par_for_covers_range_exactly_once() {
        let hits = atomic_vec(10_000, 0);
        par_for(8, 10_000, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn sim_cost_totals() {
        let c = SimCost {
            compute_s: 1.0,
            network_s: 2.0,
            disk_s: 3.0,
            ..Default::default()
        };
        assert!((c.total_s() - 6.0).abs() < 1e-12);
    }
}
