//! Cache-line padding for hot shared atomics.
//!
//! Every word two threads hammer from different cores should live on its
//! own cache line, or the coherence protocol turns logically independent
//! counters into one contended line (false sharing). `CachePadded<T>`
//! aligns and pads its payload to 128 bytes — two 64-byte lines, matching
//! crossbeam's choice, because modern prefetchers pull line pairs and
//! adjacent-line false sharing is as real as same-line.

/// Aligns `T` to its own (pair of) cache line(s).
///
/// Used for the health board's heartbeat slots, the work-stealing deque
/// ends (the bucket pool's chunks among them), the striped in-flight
/// counter cells and the `parallel_for` cursor — every atomic the
/// scalability analysis in DESIGN.md §7 calls "hot".
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wrap `value` on its own cache line.
    pub const fn new(value: T) -> Self {
        CachePadded { value }
    }

    /// Consume the wrapper.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn padded_atomics_occupy_distinct_lines() {
        let cells: Vec<CachePadded<AtomicU64>> = (0..4)
            .map(|_| CachePadded::new(AtomicU64::new(0)))
            .collect();
        for (i, c) in cells.iter().enumerate() {
            c.store(i as u64, Ordering::Relaxed);
        }
        let a0 = &*cells[0] as *const AtomicU64 as usize;
        let a1 = &*cells[1] as *const AtomicU64 as usize;
        assert!(a1 - a0 >= 128, "cells share a line pair: {a0:#x} {a1:#x}");
        assert_eq!(std::mem::align_of::<CachePadded<AtomicU64>>(), 128);
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), i as u64);
        }
    }

    #[test]
    fn deref_and_into_inner() {
        let mut p = CachePadded::new(41u64);
        *p += 1;
        assert_eq!(*p, 42);
        assert_eq!(p.into_inner(), 42);
    }
}
