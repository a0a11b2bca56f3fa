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
//! [`BucketPool`] maps a key to band `key / delta`; keys beyond the last
//! of 4 096 bands share it (approximate ordering degrades gracefully for
//! outliers instead of ballooning memory). Like OBIM, it gives each
//! worker its own per-band chunks:
//!
//! * **Lanes.** A registered worker owns a lane: one FIFO chain per band,
//!   made of 64-slot chunks. A chunk is a [`StealDeque`] of [`KeyedSlot`]s
//!   held inline, so a key travels with its item; a lane makes its chunks
//!   32 at a time, in one allocation. Only the owner
//!   pushes, into its band's tail chunk: plain stores and a `Release`
//!   store of `bottom`, no lock and no RMW. A full tail links a fresh
//!   chunk. The owner pops its lowest occupied band oldest-first through
//!   the fence-free `pop_own` (one uncontended CAS on `top`); an idle peer
//!   steals a lane's lowest band through the fenced `steal`. A drained
//!   chunk with a successor goes on the lane's free list and is reused by
//!   any band, so the list is touched once per 64 items at most. A thief
//!   holding a recycled chunk takes each item at most once: `top` and
//!   `bottom` never go backwards, and the CAS on `top` decides every take.
//!   An occupancy bitmap, written by the owner only, finds the lowest
//!   band; a thief drains a band without clearing its bit, and the owner
//!   clears it when it finds the band empty. A lane holds a million items
//!   at most; a push past that goes to the shared side.
//! * **The shared side.** Pushes from a thread without a lane — the
//!   driver's seeds, a recovery's frontier, a thread past the lanes — go
//!   to one mutex-guarded band map. Its lowest occupied band is mirrored
//!   in one atomic word, so a pop that finds it empty pays one load.
//!
//! A pop takes the lowest band among its own lane and the shared side,
//! the shared side first on a tie (its items are older); only with both
//! empty does it steal. At one thread that is band order, FIFO within a
//! band — the order of a single queue per band. Across workers the order
//! is approximate, as in OBIM: a worker drains its own lowest band while a
//! peer's lane may hold a lower one.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::OnceLock;

use tufast_htm::witness::{LockClass, Mutex};

use crate::par::{lock, PoolCounters, WorkPool};
use crate::steal::{IdleGate, KeyedSlot, SlotRegistry, Steal, StealDeque, StripedPending};

/// Worker slots of a pool's striped pending counter, and its lanes;
/// threads past them count on the counter's shared spill cell and push to
/// the shared side. `BucketPool::new` is not told the thread count; a lane
/// is made by the first pop of the thread that registers for it.
const PENDING_SLOTS: usize = 32;

/// Band count; keys beyond `delta * NUM_BANDS` clamp into the last band.
/// Far beyond the band range any clamped-delta SSSP run touches, and one
/// bit of a lane's occupancy bitmap each.
const NUM_BANDS: usize = 4096;

/// Slots of one chunk of a lane's band chain.
const CHUNK_SLOTS: usize = 64;

/// One chunk: a Chase–Lev ring of keyed slots, inline.
type Chunk = StealDeque<KeyedSlot, [KeyedSlot; CHUNK_SLOTS]>;

/// No chunk: the end of a chain or of the free list.
const NIL: u32 = u32::MAX;

/// The shared side's lowest band while it is empty.
const NO_BAND: u64 = u64::MAX;

/// Steal attempts on one band that lost a race before a thief moves on.
const STEAL_RETRIES: usize = 4;

/// Chunks a thief walks along one chain. A thief that read a chunk just
/// before its owner recycled it follows links into another chain or the
/// free list; every chunk it reaches is a real one and every take is
/// decided by a CAS, so the walk is safe — the bound only keeps a walk of
/// stale links finite. The owner pops the band anyway.
const MAX_HOPS: usize = 1024;

/// Chunks a lane makes at a time, in one allocation.
const GROUP: usize = 32;

/// Chunk groups a lane can make: 16 384 chunks, a million items. A push
/// that finds every chunk of its lane in use goes to the shared side.
const GROUPS: usize = 512;

/// One band's chain of chunks in a lane, oldest first.
struct Chain {
    /// The oldest chunk: where pops and steals take. Stored by the owner
    /// only, `Release`, after the chunk it names was made and linked.
    head: AtomicU32,
    /// The newest chunk: where the owner pushes. Owner only.
    tail: AtomicU32,
}

impl Default for Chain {
    fn default() -> Self {
        Chain {
            head: AtomicU32::new(NIL),
            tail: AtomicU32::new(NIL),
        }
    }
}

/// One chunk of a lane and its link, kept for the pool's life.
struct ChunkCell {
    ring: Chunk,
    /// The next chunk of its chain, or of the free list; [`NIL`] at the
    /// end. Stored by the owner only.
    next: AtomicU32,
}

impl Default for ChunkCell {
    fn default() -> Self {
        ChunkCell {
            ring: StealDeque::inline(),
            next: AtomicU32::new(NIL),
        }
    }
}

/// A worker's own band chains. Every field is written by the owner only
/// (a load and a store, no RMW); thieves read `occupied`, the chain heads,
/// the links and the rings.
struct Lane {
    /// Band `b`'s chain is entry `b % 64` of group `b / 64`, made on the
    /// first push to one of its bands.
    chains: [OnceLock<Box<[Chain; 64]>>; NUM_BANDS / 64],
    /// Chunk `c` is entry `c % GROUP` of group `c / GROUP`.
    cells: [OnceLock<Box<[ChunkCell; GROUP]>>; GROUPS],
    /// Chunks made so far.
    made: AtomicU32,
    /// The first free chunk, linked through `next`.
    free: AtomicU32,
    /// Bit `b % 64` of word `b / 64` is set while band `b` may hold an
    /// item: set by a push, cleared when the owner finds the band empty.
    occupied: [AtomicU64; NUM_BANDS / 64],
    /// Bit `w` is set while word `w` of `occupied` may be non-zero.
    summary: AtomicU64,
    /// The lowest-band hint: the band of the owner's last pop.
    cursor: AtomicU64,
    /// Pops that moved `cursor` up.
    advances: AtomicU64,
}

/// Store `f(old)` into an atomic only the calling thread writes.
#[inline]
fn update(word: &AtomicU64, f: impl FnOnce(u64) -> u64) {
    word.store(f(word.load(Ordering::Relaxed)), Ordering::Release);
}

impl Lane {
    fn new() -> Self {
        Lane {
            chains: std::array::from_fn(|_| OnceLock::new()),
            cells: std::array::from_fn(|_| OnceLock::new()),
            made: AtomicU32::new(0),
            free: AtomicU32::new(NIL),
            occupied: std::array::from_fn(|_| AtomicU64::new(0)),
            summary: AtomicU64::new(0),
            cursor: AtomicU64::new(0),
            advances: AtomicU64::new(0),
        }
    }

    /// Band `band`'s chain, if a push made it.
    #[inline]
    fn chain(&self, band: usize) -> Option<&Chain> {
        Some(&self.chains[band / 64].get()?[band % 64])
    }

    /// Chunk `c`, if its group was made.
    #[inline]
    fn get_cell(&self, c: u32) -> Option<&ChunkCell> {
        let c = c as usize;
        Some(&self.cells.get(c / GROUP)?.get()?[c % GROUP])
    }

    /// A chunk the owner made.
    #[inline]
    fn cell(&self, c: u32) -> &ChunkCell {
        self.get_cell(c).expect("a lane links only chunks it made")
    }

    /// Owner: an empty chunk that ends its chain, from the free list or
    /// newly made; `None` if the lane made all it can and all are in use.
    fn take_chunk(&self) -> Option<u32> {
        let c = self.free.load(Ordering::Relaxed);
        if c != NIL {
            let cell = self.cell(c);
            self.free
                .store(cell.next.load(Ordering::Relaxed), Ordering::Relaxed);
            cell.next.store(NIL, Ordering::Release);
            return Some(c);
        }
        let c = self.made.load(Ordering::Relaxed);
        let group = self.cells.get(c as usize / GROUP)?;
        group.get_or_init(|| {
            let cells: Box<[ChunkCell]> = (0..GROUP).map(|_| ChunkCell::default()).collect();
            cells
                .try_into()
                .map_err(drop)
                .expect("a group has GROUP cells")
        });
        self.made.store(c + 1, Ordering::Relaxed);
        Some(c)
    }

    /// Owner: append `item` to `band`'s chain; `Err` if the chain needs
    /// a chunk and the lane has none left.
    #[inline]
    fn push(&self, band: usize, item: (u32, u64)) -> Result<(), ()> {
        let chain = &self.chains[band / 64]
            .get_or_init(|| Box::new(std::array::from_fn(|_| Chain::default())))[band % 64];
        let mut tail = chain.tail.load(Ordering::Relaxed);
        if tail == NIL {
            tail = self.take_chunk().ok_or(())?;
            chain.tail.store(tail, Ordering::Relaxed);
            chain.head.store(tail, Ordering::Release);
        }
        let mut cell = self.cell(tail);
        while cell.ring.push(item).is_err() {
            // Full: link a fresh tail. A chunk from the free list is
            // empty, so the retry lands.
            let fresh = self.take_chunk().ok_or(())?;
            cell.next.store(fresh, Ordering::Release);
            chain.tail.store(fresh, Ordering::Relaxed);
            cell = self.cell(fresh);
        }
        let (w, bit) = (band / 64, 1u64 << (band % 64));
        if self.occupied[w].load(Ordering::Relaxed) & bit == 0 {
            update(&self.occupied[w], |word| word | bit);
            update(&self.summary, |s| s | 1 << w);
        }
        Ok(())
    }

    /// Owner: band `band` is empty.
    fn clear(&self, band: usize) {
        let w = band / 64;
        update(&self.occupied[w], |word| word & !(1 << (band % 64)));
        if self.occupied[w].load(Ordering::Relaxed) == 0 {
            update(&self.summary, |s| s & !(1 << w));
        }
    }

    /// The lowest band whose bit is set. Exact for the owner, up to
    /// bands thieves drained since; a hint for anyone else.
    #[inline]
    fn lowest(&self) -> Option<usize> {
        let s = self.summary.load(Ordering::Acquire);
        if s == 0 {
            return None;
        }
        let w = s.trailing_zeros() as usize;
        let word = self.occupied[w].load(Ordering::Acquire);
        (word != 0).then(|| w * 64 + word.trailing_zeros() as usize)
    }

    /// Owner: take `band`'s oldest item, retiring the chunks it drained;
    /// `None` (and the band's bit cleared) if the band is empty.
    fn pop_band(&self, band: usize) -> Option<(u32, u64)> {
        if let Some(chain) = self.chain(band) {
            loop {
                let head = chain.head.load(Ordering::Relaxed);
                if head == NIL {
                    break;
                }
                let cell = self.cell(head);
                if let Some(item) = cell.ring.pop_own() {
                    return Some(item);
                }
                // Only the owner pushes, so an empty chunk stays empty:
                // move past it if a successor is linked, else the band is
                // empty.
                let next = cell.next.load(Ordering::Relaxed);
                if next == NIL {
                    break;
                }
                chain.head.store(next, Ordering::Release);
                cell.next
                    .store(self.free.load(Ordering::Relaxed), Ordering::Relaxed);
                self.free.store(head, Ordering::Relaxed);
            }
        }
        self.clear(band);
        None
    }

    /// Count a pop from `band` by the owner: an upward move of the
    /// lowest-band hint is one advance.
    #[inline]
    fn note_pop(&self, band: usize) {
        let band = band as u64;
        let cursor = self.cursor.load(Ordering::Relaxed);
        if band > cursor {
            update(&self.advances, |n| n + 1);
        }
        if band != cursor {
            self.cursor.store(band, Ordering::Relaxed);
        }
    }

    /// One steal from `band`'s chain: its oldest chunk that has an item.
    fn steal_band(&self, band: usize) -> Steal<(u32, u64)> {
        let Some(chain) = self.chain(band) else {
            return Steal::Empty;
        };
        let mut c = chain.head.load(Ordering::Acquire);
        for _ in 0..MAX_HOPS {
            if c == NIL {
                break;
            }
            let Some(cell) = self.get_cell(c) else {
                break;
            };
            match cell.ring.steal() {
                Steal::Empty => c = cell.next.load(Ordering::Acquire),
                got => return got,
            }
        }
        Steal::Empty
    }

    /// A thief's take: the lowest band it finds an item in. A band's bit
    /// may be stale, so it goes on up the set bits.
    fn steal_lowest(&self) -> Option<(u32, u64)> {
        let mut summary = self.summary.load(Ordering::Acquire);
        while summary != 0 {
            let w = summary.trailing_zeros() as usize;
            summary &= summary - 1;
            let mut word = self.occupied[w].load(Ordering::Acquire);
            while word != 0 {
                let band = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                for _ in 0..STEAL_RETRIES {
                    match self.steal_band(band) {
                        Steal::Success(item) => return Some(item),
                        Steal::Empty => break,
                        Steal::Retry => std::hint::spin_loop(),
                    }
                }
            }
        }
        None
    }

    /// Quiescence only: append every item to its band's list, in the
    /// order the owner would pop them.
    fn peek_into(&self, by_band: &mut BTreeMap<usize, Vec<(u32, u64)>>) {
        for (w, word) in self.occupied.iter().enumerate() {
            let mut word = word.load(Ordering::Acquire);
            while word != 0 {
                let band = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                let Some(chain) = self.chain(band) else {
                    continue;
                };
                let items = by_band.entry(band).or_default();
                let mut c = chain.head.load(Ordering::Acquire);
                while c != NIL {
                    let cell = self.cell(c);
                    cell.ring.peek_into(items);
                    c = cell.next.load(Ordering::Acquire);
                }
            }
        }
    }
}

/// Approximate priority pool: delta-stepping bands in per-worker chunk
/// chains (OBIM-style), with a shared side for threads without a lane.
///
/// Smaller keys pop sooner, band-granular: two keys within the same
/// `delta` band are unordered relative to each other. For SSSP that is
/// exactly the delta-stepping trade — a few extra re-relaxations bought
/// with near-zero scheduler synchronization.
pub struct BucketPool {
    /// Band width: keys `[i*delta, (i+1)*delta)` share band `i`.
    delta: u64,
    /// One lane per worker slot, made when its thread registers.
    lanes: Box<[OnceLock<Box<Lane>>]>,
    /// The shared side: band → items, oldest first.
    shared: Mutex<BTreeMap<usize, VecDeque<(u32, u64)>>>,
    /// The shared side's lowest band, [`NO_BAND`] when it is empty.
    /// Stored under `shared`'s lock, read without it.
    shared_lo: AtomicU64,
    /// The worker slots of `pending` and `lanes`: a thread registers on
    /// its first pop.
    slots: SlotRegistry,
    /// In-flight + queued items, one cell per worker that only it writes
    /// (a load and a store per count, no line every worker shares);
    /// termination asks its double fold (DESIGN.md §7).
    pending: StripedPending,
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
            lanes: (0..PENDING_SLOTS).map(|_| OnceLock::new()).collect(),
            shared: Mutex::new(LockClass::PoolQueue, BTreeMap::new()),
            shared_lo: AtomicU64::new(NO_BAND),
            slots: SlotRegistry::new(PENDING_SLOTS),
            pending: StripedPending::new(PENDING_SLOTS),
            default_key: AtomicU64::new(0),
            idle: IdleGate::new(),
        }
    }

    /// The configured bucket width.
    pub fn delta(&self) -> u64 {
        self.delta
    }

    /// The band index for `key`, clamped to the last band.
    fn index(&self, key: u64) -> usize {
        usize::try_from(key / self.delta)
            .unwrap_or(NUM_BANDS - 1)
            .min(NUM_BANDS - 1)
    }

    /// Add work with an explicit priority key (smaller = sooner).
    pub fn push_with_key(&self, v: u32, key: u64) {
        let slot = self.slots.get();
        self.pending.inc(slot);
        let band = self.index(key);
        let item = (v, key);
        match slot.and_then(|s| self.lanes[s].get()) {
            Some(lane) if lane.push(band, item).is_ok() => {}
            _ => {
                let mut shared = lock(&self.shared);
                shared.entry(band).or_default().push_back(item);
                if (band as u64) < self.shared_lo.load(Ordering::Relaxed) {
                    self.shared_lo.store(band as u64, Ordering::Release);
                }
            }
        }
        self.idle.wake_one();
    }

    /// Take the shared side's oldest item of its lowest band, with that
    /// band.
    fn pop_shared(&self) -> Option<(u32, usize)> {
        let mut shared = lock(&self.shared);
        let mut first = shared.first_entry()?;
        let band = *first.key();
        let item = first.get_mut().pop_front();
        if first.get().is_empty() {
            first.remove();
        }
        let lo = shared.keys().next().map_or(NO_BAND, |&b| b as u64);
        self.shared_lo.store(lo, Ordering::Release);
        item.map(|(v, _key)| (v, band))
    }

    /// An idle worker's steal: a peer lane's lowest band, trying the
    /// lanes after its own first.
    fn steal_from_peers(&self, me: Option<usize>) -> Option<u32> {
        let n = self.lanes.len();
        let start = me.map_or(0, |s| s + 1);
        (0..n)
            .map(|i| (start + i) % n)
            .filter(|&victim| Some(victim) != me)
            .filter_map(|victim| self.lanes[victim].get())
            .find_map(|lane| lane.steal_lowest())
            .map(|(v, _key)| v)
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
        let slot = self.slots.get_or_register();
        let Some(lane) = slot.map(|s| &**self.lanes[s].get_or_init(|| Box::new(Lane::new())))
        else {
            return self
                .pop_shared()
                .map(|(v, _band)| v)
                .or_else(|| self.steal_from_peers(None));
        };
        loop {
            let own = lane.lowest();
            let shared = self.shared_lo.load(Ordering::Acquire);
            if shared != NO_BAND && own.is_none_or(|b| shared <= b as u64) {
                // The shared side's items are older: it goes first on a
                // tie. If a racing pop emptied it, look again.
                if let Some((v, band)) = self.pop_shared() {
                    lane.note_pop(band);
                    return Some(v);
                }
                continue;
            }
            let Some(band) = own else {
                break;
            };
            if let Some((v, _key)) = lane.pop_band(band) {
                lane.note_pop(band);
                return Some(v);
            }
        }
        self.steal_from_peers(slot)
    }

    fn pending(&self) -> usize {
        self.pending.pending()
    }

    fn done(&self) {
        self.pending.dec(self.slots.get());
        if self.idle.parked() > 0 && self.pending() == 0 {
            self.idle.wake_all();
        }
    }

    fn quiescent(&self) -> bool {
        self.pending.quiescent()
    }

    fn park_idle(&self) {
        self.idle.park();
    }

    fn interrupt(&self) {
        self.idle.wake_all();
    }

    fn pending_items(&self) -> Vec<(u32, u64)> {
        // Band by band; within a band the shared side, then each lane in
        // slot order — the order their pops would take them.
        let mut by_band: BTreeMap<usize, Vec<(u32, u64)>> = lock(&self.shared)
            .iter()
            .map(|(&band, items)| (band, items.iter().copied().collect()))
            .collect();
        for lane in self.lanes.iter().filter_map(OnceLock::get) {
            lane.peek_into(&mut by_band);
        }
        by_band.into_values().flatten().collect()
    }

    fn counters(&self) -> PoolCounters {
        PoolCounters {
            bucket_advances: self
                .lanes
                .iter()
                .filter_map(OnceLock::get)
                .map(|lane| lane.advances.load(Ordering::Relaxed))
                .sum(),
            parked_wakeups: self.idle.wakeups(),
            ..PoolCounters::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

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

    #[test]
    fn striped_count_quiesces_once_four_threads_drain_every_band() {
        // Item `v` pushes `2v + 8` and `2v + 9`, keyed by value, so the
        // work climbs the bands and every `v < N` is pushed exactly once.
        // Each child is pushed before its parent is done, so the pool is
        // quiescent only after the last item: a `quiescent()` that reads
        // true earlier is a counting fault.
        const N: u32 = 20_000;
        let pool = BucketPool::new(64);
        for v in 0..8u32 {
            pool.push_with_key(v, u64::from(v));
        }
        let dones = AtomicU64::new(0);
        let mut popped: Vec<u32> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        let mut got = Vec::new();
                        let mut last = Instant::now();
                        loop {
                            let Some(v) = pool.pop() else {
                                if pool.quiescent() {
                                    break;
                                }
                                assert!(
                                    last.elapsed() < Duration::from_secs(20),
                                    "items pending that no pop finds"
                                );
                                std::thread::yield_now();
                                continue;
                            };
                            last = Instant::now();
                            got.push(v);
                            for child in [2 * v + 8, 2 * v + 9] {
                                if child < N {
                                    pool.push_with_key(child, u64::from(child));
                                }
                            }
                            // Counted before `done`, so a quiescent pool
                            // has every item of `dones`.
                            dones.fetch_add(1, Ordering::SeqCst);
                            pool.done();
                            assert!(
                                !(pool.quiescent() && dones.load(Ordering::SeqCst) < u64::from(N)),
                                "quiescent with items in flight"
                            );
                        }
                        got
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap())
                .collect()
        });
        popped.sort_unstable();
        assert_eq!(
            popped,
            (0..N).collect::<Vec<_>>(),
            "items lost or duplicated"
        );
        assert_eq!(pool.pending(), 0);
        assert!(pool.quiescent());
    }

    /// The one-thread pop order: bands ascending; within a band the shared
    /// side's items, then the lane's, each oldest first.
    #[derive(Default)]
    struct ModelPool {
        bands: BTreeMap<u64, (VecDeque<u32>, VecDeque<u32>)>,
    }

    impl ModelPool {
        fn push(&mut self, band: u64, v: u32, shared: bool) {
            let (outside, lane) = self.bands.entry(band).or_default();
            if shared { outside } else { lane }.push_back(v);
        }

        fn pop(&mut self) -> Option<u32> {
            let mut first = self.bands.first_entry()?;
            let (outside, lane) = first.get_mut();
            let v = outside.pop_front().or_else(|| lane.pop_front());
            if outside.is_empty() && lane.is_empty() {
                first.remove();
            }
            v
        }
    }

    /// Run `f` with a pusher on a thread that never pops, so holds no
    /// lane: each of its pushes lands on the shared side, and returns once
    /// it is in.
    fn with_outsider(pool: &BucketPool, f: impl FnOnce(&dyn Fn(u32, u64))) {
        std::thread::scope(|s| {
            let (tx, rx) = mpsc::channel::<(u32, u64)>();
            let (ack_tx, ack_rx) = mpsc::channel();
            s.spawn(move || {
                for (v, key) in rx {
                    pool.push_with_key(v, key);
                    ack_tx.send(()).unwrap();
                }
            });
            f(&|v, key| {
                tx.send((v, key)).unwrap();
                ack_rx.recv().unwrap();
            });
        });
    }

    /// One step of a xorshift generator.
    fn next(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    #[test]
    fn one_thread_pops_match_the_band_fifo_model() {
        const DELTA: u64 = 10;
        let pool = BucketPool::new(DELTA);
        let mut model = ModelPool::default();
        let band = |key: u64| (key / DELTA).min(NUM_BANDS as u64 - 1);
        let mut pops = 0;
        let mut pop = |pool: &BucketPool, model: &mut ModelPool| {
            let got = pool.pop();
            assert_eq!(got, model.pop(), "pop {pops}");
            if got.is_some() {
                pool.done();
            }
            pops += 1;
            got
        };
        // The first pop registers the lane. A band of 200 items spans
        // four chunks; draining it retires the first three, and the next
        // band's chain is made of them.
        assert_eq!(pop(&pool, &mut model), None);
        for v in 0..200 {
            pool.push_with_key(v, 5);
            model.push(0, v, false);
        }
        while pop(&pool, &mut model).is_some() {}
        for v in 200..400 {
            pool.push_with_key(v, 15);
            model.push(1, v, false);
        }
        let lane = pool.lanes[0].get().unwrap();
        assert_eq!(
            lane.made.load(Ordering::Relaxed),
            5,
            "band 1 must reuse band 0's three drained chunks"
        );
        // Random pushes from the worker and from an outsider, with pops
        // between them: bursts longer than a chunk, few bands so chunks
        // move between them, and outlier keys in the clamped last band.
        let mut x = 0x2545_F491_4F6C_DD1D_u64;
        let mut v = 400u32;
        with_outsider(&pool, |outside| {
            for _ in 0..20_000 {
                let r = next(&mut x);
                let key = match r % 64 {
                    0 => u64::MAX - (r >> 8) % 5,
                    _ => (r >> 8) % 60,
                };
                match r % 16 {
                    0..=5 => {
                        let burst = if r.is_multiple_of(97) { 150 } else { 1 };
                        for _ in 0..burst {
                            pool.push_with_key(v, key);
                            model.push(band(key), v, false);
                            v += 1;
                        }
                    }
                    6 | 7 => {
                        outside(v, key);
                        model.push(band(key), v, true);
                        v += 1;
                    }
                    _ => {
                        pop(&pool, &mut model);
                    }
                }
            }
        });
        while pop(&pool, &mut model).is_some() {}
        assert!(pool.quiescent());
        assert!(
            lane.made.load(Ordering::Relaxed) < v / CHUNK_SLOTS as u32,
            "drained chunks must be reused"
        );
    }

    #[test]
    fn a_full_lane_spills_to_the_shared_side() {
        let pool = BucketPool::new(1);
        assert_eq!(pool.pop(), None); // registers the lane
        let room = (GROUPS * GROUP * CHUNK_SLOTS) as u32;
        for v in 0..room + 10 {
            pool.push_with_key(v, 0);
        }
        let lane = pool.lanes[0].get().unwrap();
        assert_eq!(lane.made.load(Ordering::Relaxed) as usize, GROUPS * GROUP);
        assert_eq!(lock(&pool.shared)[&0].len(), 10);
        // The shared side goes first on a tie.
        let mut got = Vec::with_capacity(room as usize + 10);
        while let Some(v) = pool.pop() {
            got.push(v);
            pool.done();
        }
        let expect: Vec<u32> = (room..room + 10).chain(0..room).collect();
        assert!(got == expect, "items lost, duplicated or out of order");
        assert!(pool.quiescent());
    }

    #[test]
    fn pending_items_lists_lane_items_with_keys_in_pop_order() {
        let pool = BucketPool::new(10);
        pool.push_with_key(900, 25);
        // The pop registers the lane. The worker's pushes, item 900 still
        // in flight: band 2 spans two chunks, band 0 and band 5 one each.
        assert_eq!(pool.pop(), Some(900));
        for v in 0..100u32 {
            pool.push_with_key(v, 20 + u64::from(v % 10));
        }
        for v in 100..103u32 {
            pool.push_with_key(v, u64::from(v - 100));
        }
        pool.push_with_key(200, 57);
        // An outsider's band-2 item pops before the lane's band-2 items.
        with_outsider(&pool, |outside| outside(300, 29));
        pool.done();
        let expect: Vec<(u32, u64)> = (100..103u32)
            .map(|v| (v, u64::from(v - 100)))
            .chain([(300, 29)])
            .chain((0..100u32).map(|v| (v, 20 + u64::from(v % 10))))
            .chain([(200, 57)])
            .collect();
        let snap = pool.pending_items();
        assert_eq!(snap, expect);
        assert_eq!(pool.pending(), 105, "snapshot must not consume items");
        let drain = |pool: &BucketPool| {
            let mut got = Vec::new();
            while let Some(v) = pool.pop() {
                got.push(v);
                pool.done();
            }
            assert!(pool.quiescent());
            got
        };
        let order: Vec<u32> = expect.iter().map(|&(v, _)| v).collect();
        assert_eq!(drain(&pool), order);
        // Re-seed a fresh pool from the snapshot, as recovery does.
        let fresh = BucketPool::new(10);
        fresh.push_all(snap.iter().copied());
        assert_eq!(drain(&fresh), order);
    }

    #[test]
    fn owner_recycles_chunks_while_three_thieves_steal() {
        // Fresh threads each round, so one unlucky placement of them on
        // the cores does not decide the whole test.
        for _round in 0..4 {
            recycle_round();
        }
    }

    /// The owner holds the seed in flight while it pushes bursts longer
    /// than a chunk into a few bands and pops half of each burst back —
    /// retiring drained chunks and reusing them — as three thieves steal
    /// from its chains. Every item comes out exactly once, and the pool is
    /// never quiescent before the last `done`.
    fn recycle_round() {
        const SEED: u32 = u32::MAX;
        const BURSTS: u32 = 300;
        const BURST: u32 = 150;
        let total = u64::from(BURSTS * BURST) + 1;
        let pool = BucketPool::new(4);
        pool.push_with_key(SEED, 0);
        let started = AtomicBool::new(false);
        let dones = AtomicU64::new(0);
        let finish = |pool: &BucketPool, got: &mut Vec<u32>, v: u32| {
            got.push(v);
            // Counted before `done`, so a quiescent pool has every item
            // of `dones`.
            dones.fetch_add(1, Ordering::SeqCst);
            pool.done();
            assert!(
                !(pool.quiescent() && dones.load(Ordering::SeqCst) < total),
                "quiescent with items in flight"
            );
        };
        let drain = |pool: &BucketPool, got: &mut Vec<u32>| {
            let mut last = Instant::now();
            loop {
                if let Some(v) = pool.pop() {
                    finish(pool, got, v);
                    last = Instant::now();
                } else if pool.quiescent() {
                    break;
                } else {
                    assert!(
                        last.elapsed() < Duration::from_secs(20),
                        "items pending that no pop finds"
                    );
                    std::thread::yield_now();
                }
            }
        };
        let mut popped: Vec<u32> = std::thread::scope(|s| {
            let thieves: Vec<_> = (0..3)
                .map(|_| {
                    s.spawn(|| {
                        while !started.load(Ordering::SeqCst) {
                            std::thread::yield_now();
                        }
                        let mut got = Vec::new();
                        drain(&pool, &mut got);
                        got
                    })
                })
                .collect();
            let mut got = Vec::new();
            assert_eq!(pool.pop(), Some(SEED)); // the owner's lane is slot 0
            started.store(true, Ordering::SeqCst);
            for b in 0..BURSTS {
                for i in 0..BURST {
                    pool.push_with_key(b * BURST + i, u64::from(b % 5 * 4 + i % 4));
                }
                for _ in 0..BURST / 2 {
                    if let Some(v) = pool.pop() {
                        finish(&pool, &mut got, v);
                    }
                }
            }
            finish(&pool, &mut got, SEED);
            drain(&pool, &mut got);
            thieves
                .into_iter()
                .flat_map(|t| t.join().unwrap())
                .chain(got)
                .collect()
        });
        popped.sort_unstable();
        let expect: Vec<u32> = (0..BURSTS * BURST).chain([SEED]).collect();
        assert_eq!(popped, expect, "items lost or duplicated");
        assert!(pool.quiescent());
    }
}
