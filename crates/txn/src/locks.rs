//! Per-vertex versioned reader–writer lock words.
//!
//! One 64-bit word per vertex, *stored inside the transactional memory* so
//! that hardware transactions can subscribe to lock state simply by reading
//! the word transactionally — the mechanism behind the paper's Algorithm 1
//! ("Try lock L\[v\] … if fails then ABORT").
//!
//! Word layout:
//!
//! ```text
//!  63..32     31..16            15..0
//! +---------+-----------------+---------------+
//! | version | writer (id + 1) | reader count  |
//! +---------+-----------------+---------------+
//! ```
//!
//! The version field counts *exclusive unlocks that followed a write* (plus
//! transactional bumps by TuFast's H mode) — it is the per-vertex commit
//! version that OCC-style validation checks.
//!
//! Acquisitions and single releases go through [`TxMemory`]'s
//! strongly-isolated direct read-modify-write, which also bumps the
//! underlying cache-line version — so acquiring any vertex lock aborts
//! hardware transactions subscribed to it, exactly like the cache-line
//! invalidation on real TSX. The commit batches in [`crate::commit`] change
//! many words under their line locks and publish them at one version.

use tufast_htm::{Addr, MemRegion, MemoryLayout, TxMemory};

use crate::VertexId;

const READERS_MASK: u64 = 0xFFFF;
const WRITER_SHIFT: u32 = 16;
const WRITER_MASK: u64 = 0xFFFF;
const VERSION_SHIFT: u32 = 32;

/// Decoded view of a vertex lock word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LockWord(pub u64);

impl LockWord {
    /// Number of shared holders.
    #[inline]
    pub fn readers(self) -> u32 {
        (self.0 & READERS_MASK) as u32
    }

    /// Exclusive holder's worker id, if any.
    #[inline]
    pub fn writer(self) -> Option<u32> {
        let w = ((self.0 >> WRITER_SHIFT) & WRITER_MASK) as u32;
        (w != 0).then(|| w - 1)
    }

    /// Per-vertex commit version.
    #[inline]
    pub fn version(self) -> u32 {
        (self.0 >> VERSION_SHIFT) as u32
    }

    /// Whether no one holds the lock in any mode.
    #[inline]
    pub fn is_free(self) -> bool {
        self.0 & (READERS_MASK | (WRITER_MASK << WRITER_SHIFT)) == 0
    }

    /// Whether a shared acquisition would succeed.
    #[inline]
    pub fn shared_compatible(self) -> bool {
        self.writer().is_none()
    }

    #[inline]
    pub(crate) fn with_readers(self, r: u32) -> LockWord {
        debug_assert!(u64::from(r) <= READERS_MASK, "reader count overflow");
        LockWord((self.0 & !READERS_MASK) | u64::from(r))
    }

    #[inline]
    pub(crate) fn with_writer(self, w: Option<u32>) -> LockWord {
        let enc = w.map_or(0, |id| u64::from(id) + 1);
        debug_assert!(enc <= WRITER_MASK, "worker id overflow");
        LockWord((self.0 & !(WRITER_MASK << WRITER_SHIFT)) | (enc << WRITER_SHIFT))
    }

    /// The same word with the commit version advanced by one — used by
    /// TuFast's H mode, which bumps versions *transactionally*.
    #[inline]
    pub fn bumped(self) -> LockWord {
        LockWord(self.0.wrapping_add(1 << VERSION_SHIFT))
    }

    /// The word after its exclusive holder lets go; `wrote` advances the
    /// commit version so optimistic validators notice the update.
    #[inline]
    pub(crate) fn released(self, wrote: bool) -> LockWord {
        let free = self.with_writer(None);
        if wrote {
            free.bumped()
        } else {
            free
        }
    }
}

/// The per-vertex lock array, living at a region of the shared memory.
///
/// *Packed* (a region of its own, eight lock words per line) unless the
/// algorithm allocated its value region *paired*
/// ([`MemoryLayout::alloc_paired`]): then the lock words are that region's
/// other slots, `{lock[v], value[v]}` on one line, and a vertex costs a
/// hardware transaction one line instead of two.
#[derive(Clone, Copy, Debug)]
pub struct VertexLocks {
    storage: Storage,
}

#[derive(Clone, Copy, Debug)]
enum Storage {
    Packed(MemRegion),
    Paired(MemRegion<2>),
}

impl VertexLocks {
    /// Allocate a packed lock array for `n` vertices in `layout`.
    pub fn alloc(layout: &mut MemoryLayout, n: usize) -> Self {
        VertexLocks {
            storage: Storage::Packed(layout.alloc("vertex-locks", n as u64)),
        }
    }

    /// The lock slots of a paired region
    /// ([`MemoryLayout::paired_locks`]).
    pub fn paired(slots: MemRegion<2>) -> Self {
        VertexLocks {
            storage: Storage::Paired(slots),
        }
    }

    /// Address of vertex `v`'s lock word.
    #[inline]
    pub fn addr(&self, v: VertexId) -> Addr {
        match self.storage {
            Storage::Packed(r) => r.addr(u64::from(v)),
            Storage::Paired(r) => r.addr(u64::from(v)),
        }
    }

    /// Number of vertices covered.
    pub fn len(&self) -> u64 {
        match self.storage {
            Storage::Packed(r) => r.len(),
            Storage::Paired(r) => r.len(),
        }
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot the lock word of `v`.
    #[inline]
    pub fn peek(&self, mem: &TxMemory, v: VertexId) -> LockWord {
        LockWord(mem.load_direct(self.addr(v)))
    }

    /// Try to acquire `v` in shared mode. Returns the pre-acquisition word;
    /// success iff it was [`shared_compatible`](LockWord::shared_compatible).
    #[inline]
    pub fn try_shared(&self, mem: &TxMemory, v: VertexId) -> Result<LockWord, LockWord> {
        let pre = LockWord(mem.rmw_direct(self.addr(v), |w| {
            let lw = LockWord(w);
            lw.shared_compatible()
                .then(|| lw.with_readers(lw.readers() + 1).0)
        }));
        if pre.shared_compatible() {
            Ok(pre)
        } else {
            Err(pre)
        }
    }

    /// Try to acquire `v` exclusively for `owner`. Success iff the lock was
    /// completely free.
    #[inline]
    pub fn try_exclusive(
        &self,
        mem: &TxMemory,
        v: VertexId,
        owner: u32,
    ) -> Result<LockWord, LockWord> {
        let pre = LockWord(mem.rmw_direct(self.addr(v), |w| {
            let lw = LockWord(w);
            lw.is_free().then(|| lw.with_writer(Some(owner)).0)
        }));
        if pre.is_free() {
            Ok(pre)
        } else {
            Err(pre)
        }
    }

    /// Try to upgrade a shared hold to exclusive. Succeeds only when the
    /// caller is the sole reader (otherwise upgrading can deadlock — the
    /// caller must release and restart).
    #[inline]
    pub fn try_upgrade(&self, mem: &TxMemory, v: VertexId, owner: u32) -> bool {
        let pre = LockWord(mem.rmw_direct(self.addr(v), |w| {
            let lw = LockWord(w);
            (lw.readers() == 1 && lw.writer().is_none())
                .then(|| lw.with_readers(0).with_writer(Some(owner)).0)
        }));
        pre.readers() == 1 && pre.writer().is_none()
    }

    /// Release a shared hold.
    #[inline]
    pub fn unlock_shared(&self, mem: &TxMemory, v: VertexId) {
        mem.rmw_direct(self.addr(v), |w| {
            let lw = LockWord(w);
            debug_assert!(
                lw.readers() > 0,
                "unlock_shared without a shared hold on {v}"
            );
            Some(lw.with_readers(lw.readers().saturating_sub(1)).0)
        });
    }

    /// Release an exclusive hold; `wrote` bumps the vertex commit version so
    /// optimistic validators notice the update.
    #[inline]
    pub fn unlock_exclusive(&self, mem: &TxMemory, v: VertexId, owner: u32, wrote: bool) {
        mem.rmw_direct(self.addr(v), |w| {
            let lw = LockWord(w);
            debug_assert_eq!(
                lw.writer(),
                Some(owner),
                "unlock_exclusive by non-owner on {v}"
            );
            Some(lw.released(wrote).0)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn setup(n: usize) -> (Arc<TxMemory>, VertexLocks) {
        let mut layout = MemoryLayout::new();
        let locks = VertexLocks::alloc(&mut layout, n);
        (Arc::new(TxMemory::new(&layout)), locks)
    }

    #[test]
    fn word_encoding_roundtrip() {
        let w = LockWord(0).with_readers(3).with_writer(Some(9));
        assert_eq!(w.readers(), 3);
        assert_eq!(w.writer(), Some(9));
        assert_eq!(w.version(), 0);
        let b = w.bumped();
        assert_eq!(b.version(), 1);
        assert_eq!(b.readers(), 3);
    }

    #[test]
    fn shared_excludes_exclusive() {
        let (mem, locks) = setup(4);
        assert!(locks.try_shared(&mem, 0).is_ok());
        assert!(locks.try_shared(&mem, 0).is_ok());
        assert!(locks.try_exclusive(&mem, 0, 1).is_err());
        locks.unlock_shared(&mem, 0);
        locks.unlock_shared(&mem, 0);
        assert!(locks.try_exclusive(&mem, 0, 1).is_ok());
    }

    #[test]
    fn exclusive_excludes_everything() {
        let (mem, locks) = setup(4);
        assert!(locks.try_exclusive(&mem, 2, 5).is_ok());
        assert!(locks.try_shared(&mem, 2).is_err());
        assert!(locks.try_exclusive(&mem, 2, 6).is_err());
        assert_eq!(locks.peek(&mem, 2).writer(), Some(5));
        locks.unlock_exclusive(&mem, 2, 5, false);
        assert!(locks.peek(&mem, 2).is_free());
    }

    #[test]
    fn version_bumps_only_on_writing_unlock() {
        let (mem, locks) = setup(1);
        locks.try_exclusive(&mem, 0, 1).unwrap();
        locks.unlock_exclusive(&mem, 0, 1, false);
        assert_eq!(locks.peek(&mem, 0).version(), 0);
        locks.try_exclusive(&mem, 0, 1).unwrap();
        locks.unlock_exclusive(&mem, 0, 1, true);
        assert_eq!(locks.peek(&mem, 0).version(), 1);
    }

    #[test]
    fn upgrade_requires_sole_reader() {
        let (mem, locks) = setup(1);
        locks.try_shared(&mem, 0).unwrap();
        locks.try_shared(&mem, 0).unwrap();
        assert!(!locks.try_upgrade(&mem, 0, 3));
        locks.unlock_shared(&mem, 0);
        assert!(locks.try_upgrade(&mem, 0, 3));
        assert_eq!(locks.peek(&mem, 0).writer(), Some(3));
        assert_eq!(locks.peek(&mem, 0).readers(), 0);
    }

    #[test]
    fn locks_are_independent_per_vertex() {
        let (mem, locks) = setup(16);
        assert!(locks.try_exclusive(&mem, 3, 1).is_ok());
        assert!(locks.try_exclusive(&mem, 4, 2).is_ok());
        assert!(locks.try_shared(&mem, 5).is_ok());
    }

    #[test]
    fn paired_layout_one_line_per_vertex() {
        let mut layout = MemoryLayout::new();
        let values = layout.alloc_paired("values", 8);
        let locks = VertexLocks::paired(layout.paired_locks().unwrap());
        let mem = TxMemory::new(&layout);
        assert_eq!(locks.len(), 8);
        for v in 0..8 {
            assert_eq!(locks.addr(v).line(), values.addr(u64::from(v)).line());
            assert_eq!(locks.addr(v).line(), u64::from(v) / 4, "four per line");
        }
        assert!(locks.try_exclusive(&mem, 1, 0).is_ok());
        assert!(locks.try_exclusive(&mem, 2, 0).is_ok());
        mem.store_direct(values.addr(1), 7);
        assert_eq!(
            locks.peek(&mem, 1).writer(),
            Some(0),
            "the value is beside it"
        );
    }

    #[test]
    fn concurrent_exclusive_acquisition_is_mutual() {
        let (mem, locks) = setup(1);
        let acquired = std::sync::atomic::AtomicU32::new(0);
        std::thread::scope(|s| {
            for t in 0..8 {
                let mem = &mem;
                let locks = &locks;
                let acquired = &acquired;
                s.spawn(move || {
                    for _ in 0..1000 {
                        if locks.try_exclusive(mem, 0, t).is_ok() {
                            let now = acquired.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                            assert_eq!(now, 0, "two writers inside the critical section");
                            acquired.fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
                            locks.unlock_exclusive(mem, 0, t, false);
                        }
                    }
                });
            }
        });
        assert!(locks.peek(&mem, 0).is_free());
    }
}
