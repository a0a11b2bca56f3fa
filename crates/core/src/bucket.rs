//! Delta-stepping / OBIM-style bucketed priority pool.
//!
//! The centralized [`PriorityPool`](crate::par::PriorityPool) serializes
//! every push and pop through one `Mutex<BinaryHeap>` — `O(log n)` work
//! under a global lock, on the hottest path of SSSP. But SSSP does not
//! need a total order: delta-stepping (Meyer & Sanders) and Galois' OBIM
//! show that *approximate* priority — process anything whose key lies in
//! the current lowest occupied band — preserves the work-efficiency win
//! while admitting an almost contention-free implementation.
//!
//! [`BucketPool`] maps a key to band `key / delta` in a fixed,
//! preallocated array of cache-line-padded mutexed queues, so pushes
//! with different bands never touch the same line and no op ever takes a
//! structure-wide lock. Keys beyond the last band share it (approximate
//! ordering degrades gracefully for outliers instead of ballooning
//! memory). A lazy cursor tracks the lowest possibly-non-empty band:
//! pops scan from the cursor and CAS it forward past drained bands
//! (counted as `bucket_advances`); pushes drag it back down. The cursor
//! and the high-water mark are *hints* — correctness comes from the
//! wrap-around full scan in [`WorkPool::pop`], which tolerates any
//! staleness the races can produce.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use tufast_htm::witness::{LockClass, Mutex};

use crate::pad::CachePadded;
use crate::par::{lock, PoolCounters, WorkPool};
use crate::steal::IdleGate;

/// Fixed band count; keys beyond `delta * NUM_BANDS` clamp into the last
/// band. 4096 padded bands is ~512 KiB, allocated with each pool (SSSP
/// builds one per job), and far beyond the band range any clamped-delta
/// SSSP run touches.
const NUM_BANDS: usize = 4096;

/// One priority band: its items plus a racy occupancy count that lets
/// the pop scan skip empty bands with a load instead of a lock.
struct Band {
    /// FIFO within the band: delta-stepping leaves same-band keys
    /// unordered, but draining them oldest-first still approximates the
    /// global relaxation order better than LIFO and measurably cuts
    /// re-relaxations (same effect as the FIFO self-drain in `steal.rs`).
    items: Mutex<VecDeque<(u32, u64)>>,
    /// Updated under the item lock, read without it. Racy by design: a
    /// scan that skips a band whose update is not yet visible just fails
    /// this pop — the `pending` counter keeps the drain loop retrying,
    /// so staleness costs a rescan, never an item.
    occupancy: AtomicUsize,
}

impl Default for Band {
    fn default() -> Self {
        Band {
            items: Mutex::new(LockClass::PoolQueue, VecDeque::new()),
            occupancy: AtomicUsize::new(0),
        }
    }
}

impl Band {
    fn push(&self, v: u32, key: u64) {
        let mut items = lock(&self.items);
        items.push_back((v, key));
        self.occupancy.store(items.len(), Ordering::Release);
    }

    fn pop(&self) -> Option<u32> {
        if self.occupancy.load(Ordering::Acquire) == 0 {
            return None;
        }
        let mut items = lock(&self.items);
        let out = items.pop_front();
        self.occupancy.store(items.len(), Ordering::Release);
        out.map(|(v, _key)| v)
    }
}

/// Lock-striped, cache-line-padded approximate priority pool
/// (delta-stepping buckets with lazy advancement).
///
/// Smaller keys pop sooner, band-granular: two keys within the same
/// `delta` band are unordered relative to each other. For SSSP that is
/// exactly the delta-stepping trade — a few extra re-relaxations bought
/// with near-zero scheduler synchronization.
pub struct BucketPool {
    /// Band width: keys `[i*delta, (i+1)*delta)` share band `i`.
    delta: u64,
    /// The fixed band array; no structure-wide lock on any op.
    bands: Box<[CachePadded<Band>]>,
    /// Lazy lower-bound hint: no band below this is *likely* non-empty.
    /// Advanced by CAS in `pop`, dragged down by pushes.
    cur: CachePadded<AtomicU64>,
    /// Lazy upper-bound hint: no band above this was ever pushed to.
    /// Bounds the pop scan so empty-pool probes don't walk all
    /// `NUM_BANDS` bands.
    hi: CachePadded<AtomicU64>,
    /// In-flight + queued items. All increments and decrements hit this
    /// single word, so its coherence order alone makes `pending() == 0`
    /// a sound termination check (see DESIGN.md §7): an in-flight item's
    /// `-1` is ordered after any `+1` it re-pushed, hence a zero read
    /// proves nothing queued *and* nothing in flight. `Release`/`Acquire`
    /// suffices — no cross-variable ordering is consumed.
    pending: CachePadded<AtomicUsize>,
    /// Times the cursor was CAS-advanced past drained buckets.
    advances: AtomicU64,
    /// Monotonic keys for keyless [`WorkPool::push`] calls.
    default_key: AtomicU64,
    idle: IdleGate,
}

impl BucketPool {
    /// A pool with bucket width `delta` (clamped to ≥ 1).
    ///
    /// For SSSP the classic choice is `delta ≈ mean edge weight / mean
    /// degree` — wide enough that a band holds a useful batch, narrow
    /// enough that in-band disorder does not blow up re-relaxations.
    pub fn new(delta: u64) -> Self {
        BucketPool {
            delta: delta.max(1),
            bands: (0..NUM_BANDS)
                .map(|_| CachePadded::new(Band::default()))
                .collect(),
            cur: CachePadded::new(AtomicU64::new(0)),
            hi: CachePadded::new(AtomicU64::new(0)),
            pending: CachePadded::new(AtomicUsize::new(0)),
            advances: AtomicU64::new(0),
            default_key: AtomicU64::new(0),
            idle: IdleGate::new(),
        }
    }

    /// The configured bucket width.
    pub fn delta(&self) -> u64 {
        self.delta
    }

    /// The band index for `key`, clamped to the fixed array.
    fn index(&self, key: u64) -> usize {
        usize::try_from(key / self.delta)
            .unwrap_or(NUM_BANDS - 1)
            .min(NUM_BANDS - 1)
    }

    /// Add work with an explicit priority key (smaller = sooner).
    pub fn push_with_key(&self, v: u32, key: u64) {
        self.pending.fetch_add(1, Ordering::Release);
        let idx = self.index(key);
        self.bands[idx].push(v, key);
        // Hint maintenance is conditional: a load-and-branch is cheaper
        // than an unconditional RMW on a line every pusher shares, and
        // the common push lands between the two hints, touching neither.
        // Either `fetch_min`/`fetch_max` can race a concurrent update
        // and lose — the wrap-around scan in `pop` makes that a
        // performance blip, not a bug.
        let idx = idx as u64;
        if idx < self.cur.load(Ordering::Relaxed) {
            self.cur.fetch_min(idx, Ordering::Release);
        }
        if idx > self.hi.load(Ordering::Relaxed) {
            self.hi.fetch_max(idx, Ordering::Release);
        }
        self.idle.wake_one();
    }
}

impl WorkPool for BucketPool {
    fn push(&self, v: u32) {
        // Keyless pushes get monotonically increasing keys (FIFO-ish),
        // matching `PriorityPool`'s behaviour.
        let key = self.default_key.fetch_add(1, Ordering::Relaxed);
        self.push_with_key(v, key);
    }

    fn push_keyed(&self, v: u32, key: u64) {
        self.push_with_key(v, key);
    }

    fn pop(&self) -> Option<u32> {
        // `hi` only ever grows, so a stale read can at worst hide bands
        // pushed after this pop began — the retrying drain loop absorbs
        // that exactly like any other push/pop race.
        let len = (usize::try_from(self.hi.load(Ordering::Acquire)).unwrap_or(NUM_BANDS - 1) + 1)
            .min(NUM_BANDS);
        let start = usize::try_from(self.cur.load(Ordering::Acquire))
            .unwrap_or(len - 1)
            .min(len - 1);
        // Scan [start, len), then wrap to [0, start): the wrap leg covers
        // items a racing cursor update hasn't made visible in the hint
        // yet. Empty bands cost one occupancy load each, no lock.
        for step in 0..len {
            let i = (start + step) % len;
            if let Some(v) = self.bands[i].pop() {
                if i > start
                    && self
                        .cur
                        .compare_exchange(
                            start as u64,
                            i as u64,
                            Ordering::Relaxed,
                            Ordering::Relaxed,
                        )
                        .is_ok()
                {
                    self.advances.fetch_add(1, Ordering::Relaxed);
                }
                return Some(v);
            }
        }
        None
    }

    fn pending(&self) -> usize {
        self.pending.load(Ordering::Acquire)
    }

    fn done(&self) {
        self.pending.fetch_sub(1, Ordering::Release);
        if self.idle.parked() > 0 && self.pending() == 0 {
            self.idle.wake_all();
        }
    }

    fn park_idle(&self) {
        self.idle.park();
    }

    fn interrupt(&self) {
        self.idle.wake_all();
    }

    fn pending_items(&self) -> Vec<(u32, u64)> {
        let hi = usize::try_from(self.hi.load(Ordering::Acquire))
            .unwrap_or(NUM_BANDS - 1)
            .min(NUM_BANDS - 1);
        let mut items = Vec::new();
        for band in &self.bands[..=hi] {
            items.extend(lock(&band.items).iter().copied());
        }
        items
    }

    fn counters(&self) -> PoolCounters {
        PoolCounters {
            bucket_advances: self.advances.load(Ordering::Relaxed),
            parked_wakeups: self.idle.wakeups(),
            ..PoolCounters::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_bucket_order() {
        let pool = BucketPool::new(10);
        pool.push_with_key(3, 35); // bucket 3
        pool.push_with_key(1, 12); // bucket 1
        pool.push_with_key(2, 27); // bucket 2
        assert_eq!(pool.pop(), Some(1));
        pool.done();
        assert_eq!(pool.pop(), Some(2));
        pool.done();
        assert_eq!(pool.pop(), Some(3));
        pool.done();
        assert_eq!(pool.pop(), None);
        assert_eq!(pool.pending(), 0);
    }

    #[test]
    fn same_bucket_keys_pop_fifo_and_all_delivered() {
        let pool = BucketPool::new(100);
        for v in 0..50u32 {
            pool.push_with_key(v, u64::from(v)); // all band 0
        }
        let mut got = Vec::new();
        while let Some(v) = pool.pop() {
            got.push(v);
            pool.done();
        }
        assert_eq!(
            got,
            (0..50).collect::<Vec<_>>(),
            "within a band, items drain oldest-first"
        );
    }

    #[test]
    fn lower_push_after_advance_still_pops_first_eventually() {
        let pool = BucketPool::new(10);
        pool.push_with_key(9, 90);
        assert_eq!(pool.pop(), Some(9)); // cursor advances toward band 9
        pool.done();
        pool.push_with_key(1, 5); // undercuts the cursor
        assert_eq!(pool.pop(), Some(1), "fetch_min / wrap scan must find it");
        pool.done();
        assert!(pool.quiescent());
    }

    #[test]
    fn clamps_outlier_keys_into_last_band() {
        let pool = BucketPool::new(1);
        pool.push_with_key(7, (NUM_BANDS as u64) * 4); // past the cap
        pool.push_with_key(8, u64::MAX); // way past the cap
        let mut got = vec![pool.pop().unwrap(), pool.pop().unwrap()];
        pool.done();
        pool.done();
        got.sort_unstable();
        assert_eq!(got, vec![7, 8]);
    }

    #[test]
    fn pending_items_round_trips_keys() {
        let pool = BucketPool::new(10);
        pool.push_with_key(4, 41);
        pool.push_with_key(6, 63);
        pool.push_with_key(5, 5);
        let mut snap = pool.pending_items();
        snap.sort_unstable();
        assert_eq!(snap, vec![(4, 41), (5, 5), (6, 63)]);
        assert_eq!(pool.pending(), 3, "snapshot must not consume items");
        // Re-seed a fresh pool from the snapshot, as recovery does.
        let fresh = BucketPool::new(10);
        for &(v, k) in &snap {
            fresh.push_with_key(v, k);
        }
        assert_eq!(fresh.pop(), Some(5), "lowest key must still pop first");
    }

    #[test]
    fn counts_bucket_advances() {
        let pool = BucketPool::new(1);
        for i in 0..8u32 {
            pool.push_with_key(i, u64::from(i) * 2);
        }
        while let Some(_v) = pool.pop() {
            pool.done();
        }
        assert!(pool.counters().bucket_advances > 0);
    }

    #[test]
    fn keyless_push_behaves_fifoish() {
        let pool = BucketPool::new(1);
        pool.push(10);
        pool.push(11);
        assert_eq!(pool.pop(), Some(10));
        assert_eq!(pool.pop(), Some(11));
    }
}
