//! Work-stealing work distribution: per-worker Chase–Lev deques with a
//! shared injector, striped quiescence counting, and parked idle workers.
//!
//! The centralized pools in [`par`](crate::par) funnel every push and pop
//! of every worker through one shared structure — one mutex-guarded queue
//! plus one `SeqCst` in-flight counter — which serializes the scheduler
//! exactly where the HyTM is supposed to scale. This module replaces that
//! with the layout Galois-style runtimes use:
//!
//! * **[`StealDeque`]** — a bounded Chase–Lev deque per worker. The owner
//!   pushes at the bottom; everyone, the owner included, takes from the
//!   top (FIFO: the oldest, coldest work migrates) — thieves through the
//!   fenced [`StealDeque::steal`], the owner through the fence-free
//!   `pop_own`. Implemented in-repo on plain atomics: every slot is an
//!   atomic [`Slot`] (an `AtomicU32` vertex id here, a [`KeyedSlot`]
//!   vertex and key in the bucket pool's chunks), so the whole structure
//!   stays within `#![forbid(unsafe_code)]`. The
//!   shared injector (overflow and seeds) is a mutex-guarded `VecDeque`;
//!   a worker takes it in batches into a second, per-worker *reserve*
//!   deque. There is no LIFO owner pop: frontier algorithms re-relax
//!   heavily under LIFO (depth-first) order, and the wavefront order is
//!   worth far more than the saved CAS (see DESIGN.md §7).
//! * **[`StripedPending`]** — per-worker `(pushed, completed)` monotonic
//!   counter cells, each written by its own worker only (a load and a
//!   store, no RMW), folded only on the idle path. Replaces the single
//!   `SeqCst` hot word the old pools bumped twice per item. The
//!   double-fold termination argument is spelled out on
//!   [`StripedPending::quiescent`] and in DESIGN.md §7. The worker slots
//!   come from a [`SlotRegistry`], which the bucket pool shares.
//! * **[`IdleGate`]** — exponential backoff ending in a *parked* wait
//!   with wakeup on push, so idle workers stop burning the cores the
//!   busy workers need (the old idle loop spun/yielded forever).
//! * **[`StealPool`]** — ties the three together behind the unchanged
//!   [`WorkPool`] trait, so `parallel_drain`, the epoch barrier, and the
//!   crash-recovery matrix all run over it unmodified.

use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicI64, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Condvar;
use std::time::Duration;

use tufast_htm::witness::{LockClass, Mutex, MutexGuard};

use crate::pad::CachePadded;
use crate::par::{lock, PoolCounters, WorkPool};

/// Result of one steal attempt on a [`StealDeque`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Steal<T = u32> {
    /// The deque had nothing to steal.
    Empty,
    /// Lost a race with the owner or another thief; worth retrying.
    Retry,
    /// Stole one item.
    Success(T),
}

/// One slot of a [`StealDeque`]'s ring. Slots are atomics, so the benign
/// owner/thief race on a slot about to be recycled is well-defined. Their
/// loads and stores are `Relaxed`: `bottom`'s `Release` store publishes a
/// slot, and the `top` CAS rejects every stale read.
pub trait Slot: Default + Send + Sync {
    /// What one slot carries.
    type Item: Copy;
    /// The slot's item.
    fn load(&self) -> Self::Item;
    /// Overwrite the slot's item.
    fn store(&self, item: Self::Item);
}

impl Slot for AtomicU32 {
    type Item = u32;

    #[inline]
    fn load(&self) -> u32 {
        AtomicU32::load(self, Ordering::Relaxed)
    }

    #[inline]
    fn store(&self, v: u32) {
        AtomicU32::store(self, v, Ordering::Relaxed);
    }
}

/// A slot carrying a vertex and its priority key, so the key travels with
/// its item (the bucket pool's chunks). A thief reads the two halves from
/// two different pushes only while the owner overwrites the slot, which
/// the owner does only after `top` has passed it: that thief's CAS fails,
/// and the torn pair is never returned.
#[derive(Debug, Default)]
pub struct KeyedSlot {
    v: AtomicU32,
    key: AtomicU64,
}

impl Slot for KeyedSlot {
    type Item = (u32, u64);

    #[inline]
    fn load(&self) -> (u32, u64) {
        (
            self.v.load(Ordering::Relaxed),
            self.key.load(Ordering::Relaxed),
        )
    }

    #[inline]
    fn store(&self, (v, key): (u32, u64)) {
        self.v.store(v, Ordering::Relaxed);
        self.key.store(key, Ordering::Relaxed);
    }
}

/// A bounded Chase–Lev work-stealing deque over `u32` items, or over any
/// other [`Slot`].
///
/// Single owner, many thieves. The owner calls [`push`](Self::push)
/// (bottom end) and `pop_own` (top end, FIFO); any thread may call
/// [`steal`](Self::steal) (top end, FIFO). The buffer is fixed-capacity:
/// a full deque rejects the push and the caller overflows elsewhere
/// instead of growing (growth is the one part of Chase–Lev that genuinely
/// needs `unsafe`): `StealPool` spills into its shared injector (a mutex
/// hit only in the rare case a worker is 8K items ahead of every thief),
/// the bucket pool links a fresh chunk. `top` and
/// `bottom` never go backwards, so an owner may refill a deque that
/// drained, and a thief still holding it takes each item at most once.
///
/// Memory-ordering discipline follows Lê/Pop/Cohen/Nardelli, "Correct and
/// Efficient Work-Stealing for Weak Memory Models" (PPoPP '13).
#[derive(Debug)]
pub struct StealDeque<S = AtomicU32, B = Box<[S]>> {
    /// Thieves' end: advanced only by successful CAS.
    top: CachePadded<AtomicI64>,
    /// Owner's end: stored only by the owner.
    bottom: CachePadded<AtomicI64>,
    /// Power-of-two ring of item slots: boxed, or an array inline in the
    /// deque.
    buf: B,
    mask: i64,
    slot: PhantomData<S>,
}

impl StealDeque {
    /// An empty deque of `u32` items with capacity `cap` rounded up to a
    /// power of two.
    pub fn with_capacity(cap: usize) -> Self {
        let cap = cap.next_power_of_two().max(2);
        StealDeque {
            top: CachePadded::new(AtomicI64::new(0)),
            bottom: CachePadded::new(AtomicI64::new(0)),
            buf: (0..cap).map(|_| AtomicU32::new(0)).collect(),
            mask: cap as i64 - 1,
            slot: PhantomData,
        }
    }
}

impl<S: Slot, const N: usize> StealDeque<S, [S; N]> {
    /// An empty deque whose `N` slots (a power of two) sit inline, so a
    /// deque is one allocation and its slots are one hop from its ends.
    pub fn inline() -> Self {
        assert!(N.is_power_of_two(), "a ring's size is a power of two");
        StealDeque {
            top: CachePadded::new(AtomicI64::new(0)),
            bottom: CachePadded::new(AtomicI64::new(0)),
            buf: std::array::from_fn(|_| S::default()),
            mask: N as i64 - 1,
            slot: PhantomData,
        }
    }
}

impl<S: Slot, B: AsRef<[S]>> StealDeque<S, B> {
    /// Items currently in the deque (racy snapshot).
    pub fn len(&self) -> usize {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Relaxed);
        usize::try_from(b - t).unwrap_or(0)
    }

    /// Whether the deque is empty (racy snapshot).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Owner: push `v` at the bottom. `Err(v)` when the ring is full — the
    /// caller routes the item elsewhere.
    pub fn push(&self, v: S::Item) -> Result<(), S::Item> {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Acquire);
        if b - t > self.mask {
            return Err(v); // full
        }
        self.buf.as_ref()[(b & self.mask) as usize].store(v);
        // Publish the slot before the new bottom becomes visible to
        // thieves reading `bottom` with Acquire.
        self.bottom.store(b + 1, Ordering::Release);
        Ok(())
    }

    /// Owner only: take the oldest item (FIFO), as [`Self::steal`] does,
    /// without its fence.
    ///
    /// Only the owner stores `bottom` and the slots, so it reads both in
    /// its own program order, and its reads of `top` never go backwards.
    /// So if it reads `t < b`, slot `t` still holds the item pushed at
    /// index `t`: a later push into that slot (index `t + cap`) would have
    /// needed an earlier read of `top` above `t`. The `SeqCst` CAS on
    /// `top` is what orders the owner against thieves, as in `steal`; it
    /// fails exactly when another taker consumed index `t`, and the owner
    /// then retries at the new top. Called by another thread this could
    /// read a slot before the owner's store to it, so thieves keep
    /// `steal`.
    #[inline]
    pub(crate) fn pop_own(&self) -> Option<S::Item> {
        loop {
            let t = self.top.load(Ordering::Acquire);
            // The owner's own store: no other thread writes `bottom`.
            let b = self.bottom.load(Ordering::Relaxed);
            if t >= b {
                return None;
            }
            let v = self.buf.as_ref()[(t & self.mask) as usize].load();
            if self
                .top
                // tufast-lint: allow(memory-ordering) -- the linearization point of the owner's pop against thieves; takers of one index must be totally ordered
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
            {
                return Some(v);
            }
            std::hint::spin_loop();
        }
    }

    /// Take the oldest item (FIFO — cold work migrates): the thieves' way
    /// out of the deque, and any thread's but the owner's.
    pub fn steal(&self) -> Steal<S::Item> {
        let t = self.top.load(Ordering::Acquire);
        // Order the top read before the bottom read. In Chase–Lev this
        // pairs with the fence of the LIFO owner pop, which this deque no
        // longer has (the owner's FIFO pop, `pop_own`, needs none); the
        // orderings stay as proven until a weak-memory check (ROADMAP item
        // 11(a)) shows what push / steal alone needs.
        // tufast-lint: allow(memory-ordering) -- the Chase-Lev steal fence, kept until a weak-memory check proves the downgrade
        std::sync::atomic::fence(Ordering::SeqCst);
        let b = self.bottom.load(Ordering::Acquire);
        if t >= b {
            return Steal::Empty;
        }
        let v = self.buf.as_ref()[(t & self.mask) as usize].load();
        // The CAS is the linearization point: it fails whenever another
        // taker consumed index `t` first, which also rejects
        // any stale slot read (the slot can only be recycled after `top`
        // has moved past `t`).
        if self
            .top
            // tufast-lint: allow(memory-ordering) -- the linearization point of steal; takers of one index must be totally ordered
            .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
            .is_ok()
        {
            Steal::Success(v)
        } else {
            Steal::Retry
        }
    }

    /// Quiescence only (no concurrent push or take): append the deque's
    /// items to `into`, oldest first, without taking them.
    pub(crate) fn peek_into(&self, into: &mut Vec<S::Item>) {
        let b = self.bottom.load(Ordering::Acquire);
        let t = self.top.load(Ordering::Acquire);
        into.extend((t..b).map(|i| self.buf.as_ref()[(i & self.mask) as usize].load()));
    }
}

/// Pool-instance ids for the thread-local slot cache.
static NEXT_POOL_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// `(pool id, slot)` of the pool this thread last registered with;
    /// `usize::MAX` for a thread the pool had no slot left for. One cell
    /// serves both pool kinds: a worker thread serves exactly one drain
    /// (hence one pool) at a time, and re-registration after a pool
    /// switch is a single fetch_add.
    static SLOT_CACHE: Cell<(u64, usize)> = const { Cell::new((0, usize::MAX)) };

    /// This thread's xorshift state for picking the first victim of a
    /// steal sweep; 0 until its first sweep.
    static VICTIM_WALK: Cell<u64> = const { Cell::new(0) };
}

/// Which worker slot of a pool the calling thread holds.
///
/// A thread registers on its first pop (so the [`WorkPool`] trait and
/// every driver stay unchanged) and keeps its slot in a thread-local
/// cache keyed by the pool's id, so a later pool never reads a stale
/// slot. Slots are handed out once and never reused: slot `s` belongs to
/// one thread for the pool's whole life, which is what lets that thread
/// write slot `s`'s [`StripedPending`] cell without an RMW. Threads
/// beyond `len` get no slot.
#[derive(Debug)]
pub(crate) struct SlotRegistry {
    id: u64,
    next: AtomicUsize,
    len: usize,
}

impl SlotRegistry {
    /// A registry of `len` slots.
    pub(crate) fn new(len: usize) -> Self {
        SlotRegistry {
            id: NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed),
            next: AtomicUsize::new(0),
            len,
        }
    }

    /// The calling thread's slot, if it registered and got one.
    #[inline]
    pub(crate) fn get(&self) -> Option<usize> {
        let (pool, slot) = SLOT_CACHE.with(Cell::get);
        (pool == self.id && slot < self.len).then_some(slot)
    }

    /// The calling thread's slot, registering it first if it has not
    /// registered with this pool (a thread that got no slot does not ask
    /// again).
    #[inline]
    pub(crate) fn get_or_register(&self) -> Option<usize> {
        let (pool, slot) = SLOT_CACHE.with(Cell::get);
        if pool == self.id {
            return (slot < self.len).then_some(slot);
        }
        let slot = self.next.fetch_add(1, Ordering::Relaxed);
        SLOT_CACHE.with(|c| c.set((self.id, slot)));
        (slot < self.len).then_some(slot)
    }
}

/// One `(pushed, completed)` cell of a [`StripedPending`] counter.
#[derive(Debug, Default)]
pub struct PendingCell {
    pushed: AtomicU64,
    completed: AtomicU64,
}

/// Add one to a counter only the calling thread writes: a load and a
/// `Release` store, no RMW. Its own last store is what the load reads.
#[inline]
fn bump(counter: &AtomicU64) {
    counter.store(counter.load(Ordering::Relaxed) + 1, Ordering::Release);
}

/// A striped in-flight counter: per-worker monotonic `(pushed,
/// completed)` pairs on their own cache lines, folded only on the idle
/// path.
///
/// The old pools bumped one shared `SeqCst` word twice per item — a
/// guaranteed coherence miss per bump on every core. Here each registered
/// worker counts on its *own* cell, which no other thread writes, so the
/// hot path is a load and a store; threads without a slot share one spill
/// cell through `fetch_add`. Only idle workers pay the O(workers) fold.
#[derive(Debug)]
pub struct StripedPending {
    cells: Vec<CachePadded<PendingCell>>,
}

impl StripedPending {
    /// A counter with `slots` worker cells plus one shared spill cell.
    pub fn new(slots: usize) -> Self {
        StripedPending {
            cells: (0..slots + 1).map(|_| CachePadded::default()).collect(),
        }
    }

    /// The shared spill cell, for threads without a slot.
    fn spill(&self) -> &PendingCell {
        &self.cells[self.cells.len() - 1]
    }

    /// Count one push. `slot` must be the calling thread's own slot from
    /// its pool's [`SlotRegistry`] (its cell has no other writer), or
    /// `None` for the spill cell. `Release` so the increment is visible to
    /// any fold that observes a later effect of this worker (see
    /// `quiescent`).
    #[inline]
    pub(crate) fn inc(&self, slot: Option<usize>) {
        match slot {
            Some(s) => bump(&self.cells[s].pushed),
            None => self.add_spilled(1),
        }
    }

    /// Count `n` pushes by threads without a slot.
    pub(crate) fn add_spilled(&self, n: u64) {
        self.spill().pushed.fetch_add(n, Ordering::Release);
    }

    /// Count one completed item; `slot` as for [`Self::inc`].
    #[inline]
    pub(crate) fn dec(&self, slot: Option<usize>) {
        match slot {
            Some(s) => bump(&self.cells[s].completed),
            None => {
                self.spill().completed.fetch_add(1, Ordering::Release);
            }
        }
    }

    /// One fold over the cells: `(total pushed, total completed)`.
    fn fold(&self) -> (u64, u64) {
        self.cells.iter().fold((0, 0), |(p, d), c| {
            (
                p + c.pushed.load(Ordering::Acquire),
                d + c.completed.load(Ordering::Acquire),
            )
        })
    }

    /// Racy pending estimate (single fold). Good enough for progress
    /// reporting and the epoch barrier's frontier sanity checks; the
    /// *termination* decision must use [`Self::quiescent`].
    pub fn pending(&self) -> usize {
        let (pushed, completed) = self.fold();
        usize::try_from(pushed.saturating_sub(completed)).unwrap_or(usize::MAX)
    }

    /// Sound quiescence check: two folds must observe the *identical*
    /// per-cell snapshot with `pushed == completed`.
    ///
    /// Why the double fold: with one fold, a reader can see an item's
    /// `completed` increment on cell B while having read cell A *before*
    /// the matching `pushed` increment landed there, so sums can falsely
    /// match. Because both counters are monotonic and the second fold's
    /// reads happen after every first-fold read, any increment that was
    /// half-visible to the first fold is fully visible to the second —
    /// forcing a snapshot mismatch and a retry. In a stable snapshot,
    /// therefore, `completed visible ⇒ its push visible`; walking any
    /// pending item's re-push chain up to the (always visible) initial
    /// seeds yields an ancestor counted in `pushed` but not in
    /// `completed`, so `pushed == completed` genuinely means nothing
    /// queued and nothing in flight. Comparing the two folds' sums is
    /// comparing their cells: a cell's second read is never below its
    /// first, so equal sums mean no cell moved. Full argument in
    /// DESIGN.md §7.
    pub fn quiescent(&self) -> bool {
        let first = self.fold();
        first.0 == first.1 && self.fold() == first
    }
}

/// Parked-idle coordination: backoff's terminal state.
///
/// Idle workers that exhausted their spin/yield budget block here on a
/// condvar with a bounded timeout; pushes wake one parker, termination
/// wakes all. The timeout (not the wakeups) carries the liveness
/// argument — a missed wakeup costs at most [`PARK_TIMEOUT`], never a
/// hang — so the wake paths can stay cheap (a single relaxed load when
/// nobody is parked).
#[derive(Debug)]
pub struct IdleGate {
    lock: Mutex<()>,
    cond: Condvar,
    parked: AtomicUsize,
    wakeups: AtomicU64,
}

impl Default for IdleGate {
    fn default() -> Self {
        Self::new()
    }
}

/// Upper bound on one parked wait; see [`IdleGate`].
pub const PARK_TIMEOUT: Duration = Duration::from_micros(500);

impl IdleGate {
    /// A gate with nobody parked.
    pub fn new() -> Self {
        IdleGate {
            lock: Mutex::new(LockClass::IdleGate, ()),
            cond: Condvar::new(),
            parked: AtomicUsize::new(0),
            wakeups: AtomicU64::new(0),
        }
    }

    /// Park the calling worker until a wake or the timeout.
    pub fn park(&self) {
        // tufast-lint: allow(memory-ordering) -- Dekker with wake_one: the count increment must be totally ordered against the waker's read
        self.parked.fetch_add(1, Ordering::SeqCst);
        let guard = self
            .lock
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let (_guard, _timeout) = guard
            .wait_timeout(&self.cond, PARK_TIMEOUT)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // tufast-lint: allow(memory-ordering) -- Dekker with wake_one; keeps the parked count conservatively high for wakers
        self.parked.fetch_sub(1, Ordering::SeqCst);
        self.wakeups.fetch_add(1, Ordering::Relaxed);
    }

    /// Wake one parked worker, if any (called after a push).
    pub fn wake_one(&self) {
        // tufast-lint: allow(memory-ordering) -- Dekker with park: must observe any increment ordered before this wake
        if self.parked.load(Ordering::SeqCst) > 0 {
            // Taking the lock orders this wake after a concurrent parker's
            // registration, so the notify cannot slip between its check
            // and its wait.
            drop(
                self.lock
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner),
            );
            self.cond.notify_one();
        }
    }

    /// Wake every parked worker (termination broadcast).
    pub fn wake_all(&self) {
        // tufast-lint: allow(memory-ordering) -- Dekker with park, as in wake_one; missing a parker here would strand it until the timeout
        if self.parked.load(Ordering::SeqCst) > 0 {
            drop(
                self.lock
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner),
            );
            self.cond.notify_all();
        }
    }

    /// Workers currently parked (racy snapshot).
    pub fn parked(&self) -> usize {
        // A monitoring snapshot orders nothing; Relaxed is enough.
        self.parked.load(Ordering::Relaxed)
    }

    /// Total parked waits that have completed.
    pub fn wakeups(&self) -> u64 {
        self.wakeups.load(Ordering::Relaxed)
    }
}

/// Per-worker state of a [`StealPool`].
#[derive(Debug)]
struct WorkerCell {
    /// The items this worker pushed.
    deque: StealDeque,
    /// Injector items this worker took in one batch, in injector order:
    /// popped after `deque`, stolen after it too.
    reserve: StealDeque,
    steals: AtomicU64,
    steal_fails: AtomicU64,
}

/// Bounded steal retries across one sweep of the victims before the
/// caller concludes the pool is (momentarily) dry.
const STEAL_RETRIES: usize = 4;

/// Extra items a registered thief migrates from the same victim into its
/// own deque after a successful steal. Amortizes victim selection and
/// keeps a thief off the steal path for the next few pops; kept small so
/// one thief cannot strip a victim's whole wavefront.
const STEAL_BATCH: usize = 8;

/// Capacity of each worker's deque; overflow spills to the injector.
const DEQUE_CAPACITY: usize = 8192;

/// Injector items a worker whose deque and reserve ran dry takes under
/// one lock: one to run now, the rest into its reserve. One lock per 64
/// seeds instead of one per seed; the items stay stealable in the
/// reserve, so a batch does not strand work on one worker.
const RESERVE_BATCH: usize = 64;

/// The next step of the calling thread's victim walk: one xorshift step
/// per sweep, so consecutive sweeps start at different victims and
/// thieves do not convoy on one. A thread's first state comes from the
/// address of its own cell, so no two live threads share a walk.
fn next_victim_draw() -> u64 {
    VICTIM_WALK.with(|walk| {
        let mut x = match walk.get() {
            0 => (walk as *const Cell<u64> as u64) ^ 0x9E37_79B9_7F4A_7C15,
            x => x,
        };
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        walk.set(x);
        x
    })
}

/// Work-stealing [`WorkPool`]: per-worker Chase–Lev deques, a shared
/// overflow/seed injector, striped quiescence counting, and parked idle
/// workers.
///
/// Worker threads register themselves on first `pop` (a [`SlotRegistry`],
/// so the `WorkPool` trait and every existing driver stay unchanged);
/// their pushes go to their own deque bottom. A pop takes, oldest first
/// (wavefront order — see the module docs): the own deque, then the own
/// reserve, then a batch of the injector, then randomized bounded
/// stealing. Pushes from unregistered threads (the driver seeding the
/// frontier, a recovery loading a snapshot) land in the injector. At one
/// thread the reserve holds a prefix of the injector in injector order,
/// so the pop order is that of a pool without it.
pub struct StealPool {
    slots: SlotRegistry,
    cells: Vec<CachePadded<WorkerCell>>,
    injector: Mutex<VecDeque<u32>>,
    pending: StripedPending,
    idle: IdleGate,
}

impl StealPool {
    /// A pool sized for `threads` workers.
    pub fn new(threads: usize) -> Self {
        let slots = threads.max(1);
        StealPool {
            slots: SlotRegistry::new(slots),
            cells: (0..slots)
                .map(|_| {
                    CachePadded::new(WorkerCell {
                        deque: StealDeque::with_capacity(DEQUE_CAPACITY),
                        reserve: StealDeque::with_capacity(RESERVE_BATCH),
                        steals: AtomicU64::new(0),
                        steal_fails: AtomicU64::new(0),
                    })
                })
                .collect(),
            injector: Mutex::new(LockClass::PoolQueue, VecDeque::new()),
            pending: StripedPending::new(slots),
            idle: IdleGate::new(),
        }
    }

    /// Take the injector's oldest item, and move up to
    /// [`RESERVE_BATCH`]` - 1` more behind it into `reserve`, under one
    /// lock. The reserve is empty: only its owner fills it, and only
    /// after finding it so.
    fn refill(&self, reserve: &StealDeque) -> Option<u32> {
        let mut injector = lock(&self.injector);
        let first = injector.pop_front()?;
        for _ in 1..RESERVE_BATCH {
            let Some(v) = injector.pop_front() else { break };
            if let Err(v) = reserve.push(v) {
                injector.push_front(v);
                break;
            }
        }
        Some(first)
    }

    /// One steal from `victim`: its deque first, then its reserve.
    fn steal_one(&self, victim: usize) -> Steal {
        let cell = &self.cells[victim];
        match cell.deque.steal() {
            Steal::Empty => cell.reserve.steal(),
            got => got,
        }
    }

    /// Randomized bounded stealing sweep from `thief`'s perspective.
    fn steal_from_peers(&self, thief: Option<usize>) -> Option<u32> {
        let n = self.cells.len();
        if n == 0 {
            return None;
        }
        let start = (next_victim_draw() % n as u64) as usize;
        let me = thief.unwrap_or(usize::MAX);
        let mut retries = STEAL_RETRIES;
        let (steals, fails) = match thief {
            Some(s) => (&self.cells[s].steals, &self.cells[s].steal_fails),
            None => (
                &self.cells[start].steals, // unregistered thieves borrow a cell
                &self.cells[start].steal_fails,
            ),
        };
        loop {
            let mut saw_retry = false;
            for i in 0..n {
                let victim = (start + i) % n;
                if victim == me {
                    continue;
                }
                loop {
                    match self.steal_one(victim) {
                        Steal::Success(v) => {
                            steals.fetch_add(1, Ordering::Relaxed);
                            if let Some(s) = thief {
                                self.migrate_batch(victim, s, steals);
                            }
                            return Some(v);
                        }
                        Steal::Empty => break,
                        Steal::Retry => {
                            fails.fetch_add(1, Ordering::Relaxed);
                            saw_retry = true;
                            if retries == 0 {
                                break;
                            }
                            retries -= 1;
                            std::hint::spin_loop();
                        }
                    }
                }
            }
            if !saw_retry || retries == 0 {
                return None;
            }
        }
    }

    /// After a successful steal, migrate up to [`STEAL_BATCH`] more items
    /// from the same victim into the thief's own deque. FIFO order is
    /// preserved end to end: the items leave the victim oldest-first and
    /// the thief drains its own deque oldest-first too.
    fn migrate_batch(&self, victim: usize, thief: usize, steals: &AtomicU64) {
        for _ in 0..STEAL_BATCH {
            match self.steal_one(victim) {
                Steal::Success(v) => {
                    steals.fetch_add(1, Ordering::Relaxed);
                    if let Err(v) = self.cells[thief].deque.push(v) {
                        lock(&self.injector).push_back(v);
                    }
                }
                Steal::Empty | Steal::Retry => break,
            }
        }
    }
}

/// Take every item out of `deque` from any thread, oldest first.
fn drain_deque(deque: &StealDeque, into: &mut Vec<u32>) {
    loop {
        match deque.steal() {
            Steal::Success(v) => into.push(v),
            Steal::Empty => break,
            Steal::Retry => std::hint::spin_loop(),
        }
    }
}

/// An injector batch being added: counts what it added when it drops,
/// before its guard unlocks the injector — also if the caller's iterator
/// panics half way.
struct InjectorBatch<'a> {
    pending: &'a StripedPending,
    injector: MutexGuard<'a, VecDeque<u32>>,
    before: usize,
}

impl Drop for InjectorBatch<'_> {
    fn drop(&mut self) {
        let added = self.injector.len() - self.before;
        self.pending.add_spilled(added as u64);
    }
}

impl WorkPool for StealPool {
    fn push(&self, v: u32) {
        let slot = self.slots.get();
        self.pending.inc(slot);
        match slot {
            Some(s) => {
                if let Err(v) = self.cells[s].deque.push(v) {
                    lock(&self.injector).push_back(v); // deque full: spill
                }
            }
            None => lock(&self.injector).push_back(v),
        }
        self.idle.wake_one();
    }

    fn push_all<I: IntoIterator<Item = (u32, u64)>>(&self, items: I) {
        if self.slots.get().is_some() {
            // A worker's batch goes where its single pushes go.
            for (v, _key) in items {
                self.push(v);
            }
            return;
        }
        // One lock and one count for the batch. The count lands before
        // the unlock: an item is poppable only after the unlock, so no
        // popper can complete an item the count does not hold yet, which
        // would let `quiescent` read true while the batch is queued.
        let injector = lock(&self.injector);
        let mut batch = InjectorBatch {
            pending: &self.pending,
            before: injector.len(),
            injector,
        };
        batch.injector.extend(items.into_iter().map(|(v, _key)| v));
        drop(batch);
        self.idle.wake_all();
    }

    fn pop(&self) -> Option<u32> {
        let slot = self.slots.get_or_register();
        match slot {
            Some(s) => {
                // The worker consumes its *own* deque from the FIFO end.
                // The frontiers drained here belong to monotone relaxation
                // algorithms, where LIFO order degenerates into
                // depth-first exploration: vertices get settled through
                // bad tentative values first and re-relaxed over and over
                // (measured ~7× extra relaxations on small-world graphs).
                // Oldest-first keeps each worker's queue a wavefront, at
                // the cost of one CAS per pop — which is contended only
                // when a thief is racing this worker's last items.
                let cell = &self.cells[s];
                if let Some(v) = cell.deque.pop_own() {
                    return Some(v);
                }
                if let Some(v) = cell.reserve.pop_own() {
                    return Some(v);
                }
                if let Some(v) = self.refill(&cell.reserve) {
                    return Some(v);
                }
            }
            None => {
                if let Some(v) = lock(&self.injector).pop_front() {
                    return Some(v);
                }
            }
        }
        self.steal_from_peers(slot)
    }

    fn pending(&self) -> usize {
        self.pending.pending()
    }

    fn done(&self) {
        self.pending.dec(self.slots.get());
        // Termination broadcast: the last completion wakes every parked
        // worker so they can observe quiescence instead of sleeping out
        // their timeout.
        if self.idle.parked() > 0 && self.pending.pending() == 0 {
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
        // Quiescence only (the epoch barrier guarantees it): drain every
        // deque and then its reserve, the order their owner pops them,
        // onto the front of the injector, bypassing the pending counter —
        // the items never stopped being pending — and list the injector.
        let mut drained = Vec::new();
        for cell in &self.cells {
            drain_deque(&cell.deque, &mut drained);
            drain_deque(&cell.reserve, &mut drained);
        }
        let mut injector = lock(&self.injector);
        for &v in drained.iter().rev() {
            injector.push_front(v);
        }
        injector
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as u64))
            .collect()
    }

    fn counters(&self) -> PoolCounters {
        let mut c = PoolCounters {
            parked_wakeups: self.idle.wakeups(),
            ..PoolCounters::default()
        };
        for cell in &self.cells {
            c.steals += cell.steals.load(Ordering::Relaxed);
            c.steal_fails += cell.steal_fails.load(Ordering::Relaxed);
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn consecutive_steal_sweeps_start_at_different_victims() {
        // Every deque holds one item, so an unregistered thief takes the
        // item of the victim its sweep starts at; putting it back keeps
        // all four non-empty for the next sweep.
        let pool = StealPool::new(4);
        for (slot, cell) in pool.cells.iter().enumerate() {
            cell.deque.push(slot as u32).unwrap();
        }
        let starts: Vec<u32> = (0..32)
            .map(|_| {
                let v = pool
                    .steal_from_peers(None)
                    .expect("every deque holds an item");
                pool.cells[v as usize].deque.push(v).unwrap();
                v
            })
            .collect();
        assert!(
            starts.iter().any(|&v| v != starts[0]),
            "32 sweeps all started at victim {}",
            starts[0]
        );
    }

    #[test]
    fn deque_is_fifo_for_owner_and_thief_alike() {
        let d = StealDeque::with_capacity(8);
        for v in [1, 2, 3] {
            d.push(v).unwrap();
        }
        assert_eq!(d.len(), 3);
        assert_eq!(d.steal(), Steal::Success(1));
        assert_eq!(d.steal(), Steal::Success(2));
        d.push(4).unwrap();
        assert_eq!(d.steal(), Steal::Success(3));
        assert_eq!(d.steal(), Steal::Success(4));
        assert_eq!(d.steal(), Steal::Empty);
        assert!(d.is_empty());
    }

    #[test]
    fn deque_rejects_push_when_full() {
        let d = StealDeque::with_capacity(4);
        for v in 0..4 {
            d.push(v).unwrap();
        }
        assert_eq!(d.push(99), Err(99));
        assert_eq!(d.steal(), Steal::Success(0));
        d.push(99).unwrap(); // space again after the steal
    }

    #[test]
    fn deque_concurrent_steals_lose_nothing() {
        // The owner pushes and takes from the same end as three thieves,
        // through its fence-free `pop_own`: every index is raced for, the
        // last item included.
        let d = Arc::new(StealDeque::with_capacity(1024));
        let total: u32 = 10_000;
        let taken = std::thread::scope(|s| {
            let thieves: Vec<_> = (0..3)
                .map(|_| {
                    let d = Arc::clone(&d);
                    s.spawn(move || {
                        let mut got = Vec::new();
                        let mut dry = 0;
                        while dry < 10_000 {
                            match d.steal() {
                                Steal::Success(v) => {
                                    got.push(v);
                                    dry = 0;
                                }
                                _ => dry += 1,
                            }
                        }
                        got
                    })
                })
                .collect();
            let mut own = Vec::new();
            let take = |own: &mut Vec<u32>| {
                if let Some(x) = d.pop_own() {
                    own.push(x);
                }
            };
            for v in 0..total {
                while d.push(v).is_err() {
                    take(&mut own);
                }
                if v % 3 == 0 {
                    take(&mut own);
                }
            }
            while !d.is_empty() {
                take(&mut own);
            }
            for t in thieves {
                own.extend(t.join().unwrap());
            }
            own
        });
        let mut all = taken;
        all.sort_unstable();
        let expect: Vec<u32> = (0..total).collect();
        assert_eq!(all, expect, "items lost or duplicated");
    }

    /// The owner pushes `items` and takes through its fence-free
    /// `pop_own` — every `pop_stride`-th push, and whenever the ring is
    /// full — racing `thieves` thieves; then it takes what is left. Returns
    /// every item taken, by the owner and the thieves combined.
    fn owner_races_thieves<S: Slot, B: AsRef<[S]> + Sync>(
        d: &StealDeque<S, B>,
        items: &[S::Item],
        thieves: usize,
        pop_stride: u32,
    ) -> Vec<S::Item>
    where
        S::Item: Send,
    {
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..thieves)
                .map(|_| {
                    s.spawn(|| {
                        let mut got = Vec::new();
                        loop {
                            match d.steal() {
                                Steal::Success(v) => got.push(v),
                                Steal::Retry => std::hint::spin_loop(),
                                Steal::Empty => {
                                    if stop.load(Ordering::Acquire) {
                                        break;
                                    }
                                    std::thread::yield_now();
                                }
                            }
                        }
                        got
                    })
                })
                .collect();
            let mut own = Vec::new();
            for (i, &v) in items.iter().enumerate() {
                // A full ring spills nothing here: the owner takes
                // instead, where a pool would overflow.
                while d.push(v).is_err() {
                    own.extend(d.pop_own());
                }
                if (i as u32).is_multiple_of(pop_stride) {
                    own.extend(d.pop_own());
                }
            }
            while let Some(v) = d.pop_own() {
                own.push(v);
            }
            // Thieves only exit on Empty *after* seeing the stop flag, so
            // anything still in the deque at this point gets stolen.
            stop.store(true, Ordering::Release);
            for h in handles {
                own.extend(h.join().unwrap());
            }
            own
        })
    }

    proptest! {
        /// The owner pushes and takes through `pop_own`, racing
        /// concurrent thieves: every pushed item comes out exactly once,
        /// across the owner's takes and the thieves' combined.
        #[test]
        fn deque_never_loses_or_duplicates(
            total in 1usize..2000,
            thieves in 1usize..4,
            pop_stride in 1u32..7,
            cap in 4usize..512,
        ) {
            let d = StealDeque::with_capacity(cap);
            let items: Vec<u32> = (0..total as u32).collect();
            let mut collected = owner_races_thieves(&d, &items, thieves, pop_stride);
            collected.sort_unstable();
            prop_assert_eq!(collected, items);
        }

        /// The same race on the bucket pool's chunk, 64 keyed slots
        /// inline: every item comes out exactly once, with the key it was
        /// pushed with.
        #[test]
        fn keyed_deque_never_loses_or_duplicates(
            total in 1usize..2000,
            thieves in 1usize..4,
            pop_stride in 1u32..7,
        ) {
            let d = StealDeque::<KeyedSlot, [KeyedSlot; 64]>::inline();
            let items: Vec<(u32, u64)> = (0..total as u32)
                .map(|v| (v, u64::from(v).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
                .collect();
            let mut collected = owner_races_thieves(&d, &items, thieves, pop_stride);
            collected.sort_unstable();
            prop_assert_eq!(collected, items);
        }
    }

    #[test]
    fn striped_pending_counts_and_quiesces() {
        let p = StripedPending::new(4);
        assert!(p.quiescent());
        p.inc(Some(0));
        p.inc(Some(1));
        p.add_spilled(2);
        assert_eq!(p.pending(), 4);
        assert!(!p.quiescent());
        p.dec(Some(2)); // done on a different cell than the push
        p.dec(None);
        p.dec(None);
        assert_eq!(p.pending(), 1);
        assert!(!p.quiescent());
        p.dec(Some(0));
        assert_eq!(p.pending(), 0);
        assert!(p.quiescent());
    }

    #[test]
    fn idle_gate_parks_with_timeout_and_wakes() {
        let gate = IdleGate::new();
        let t0 = std::time::Instant::now();
        gate.park(); // nobody wakes us: the timeout must release us
        assert!(t0.elapsed() < Duration::from_secs(5));
        assert_eq!(gate.wakeups(), 1);
        gate.wake_one(); // no parker: must be a cheap no-op
        gate.wake_all();
    }

    #[test]
    fn steal_pool_roundtrips_items() {
        let pool = StealPool::new(2);
        for v in 0..100u32 {
            pool.push(v); // unregistered → injector
        }
        assert_eq!(pool.pending(), 100);
        let mut got = Vec::new();
        while let Some(v) = pool.pop() {
            got.push(v);
            pool.done();
        }
        got.sort_unstable();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        assert_eq!(pool.pending(), 0);
        assert!(pool.quiescent());
    }

    #[test]
    fn steal_pool_pending_items_snapshot_reinserts() {
        let pool = StealPool::new(2);
        for v in [5u32, 7, 9] {
            pool.push(v);
        }
        let snap = pool.pending_items();
        let mut vs: Vec<u32> = snap.iter().map(|&(v, _)| v).collect();
        vs.sort_unstable();
        assert_eq!(vs, vec![5, 7, 9]);
        assert_eq!(pool.pending(), 3, "snapshot must not consume items");
        let mut drained = Vec::new();
        while let Some(v) = pool.pop() {
            drained.push(v);
            pool.done();
        }
        drained.sort_unstable();
        assert_eq!(drained, vec![5, 7, 9]);
    }

    #[test]
    fn pending_items_lists_the_reserve_in_pop_order_and_round_trips() {
        let pool = StealPool::new(1);
        pool.push_all((0..100u32).map(|v| (v, 0)));
        assert_eq!(pool.pop(), Some(0)); // registers, moves 1..64 to the reserve
        pool.push(500);
        pool.push(501);
        pool.done();
        assert_eq!(pool.cells[0].reserve.len(), RESERVE_BATCH - 1);
        // Quiescent between items: the own deque, the reserve, the
        // injector — the order the worker would pop them.
        let snap: Vec<u32> = pool.pending_items().iter().map(|&(v, _)| v).collect();
        let expect: Vec<u32> = [500, 501].into_iter().chain(1..100).collect();
        assert_eq!(snap, expect);
        assert_eq!(pool.pending(), 101, "snapshot must not consume items");
        let drain = |pool: &StealPool| {
            let mut got = Vec::new();
            while let Some(v) = pool.pop() {
                got.push(v);
                pool.done();
            }
            assert!(pool.quiescent());
            got
        };
        assert_eq!(drain(&pool), expect);
        // Re-seed a fresh pool from the snapshot, as recovery does.
        let fresh = StealPool::new(1);
        fresh.push_all(snap.iter().enumerate().map(|(i, &v)| (v, i as u64)));
        assert_eq!(drain(&fresh), expect);
    }

    /// The one-thread pop order of a pool without a reserve: the own
    /// deque oldest first, then the injector oldest first.
    struct ModelPool {
        own: VecDeque<u32>,
        injector: VecDeque<u32>,
    }

    impl ModelPool {
        fn pop(&mut self) -> Option<u32> {
            self.own.pop_front().or_else(|| self.injector.pop_front())
        }
    }

    #[test]
    fn one_thread_pops_own_deque_then_reserve_then_injector() {
        // Seeds from an unregistered thread's `push_all`, then a worker
        // whose items push children of their own: every pop must match
        // the pool without a reserve, item for item.
        let pool = StealPool::new(1);
        let seeds = 0..300u32;
        pool.push_all(seeds.clone().map(|v| (v, u64::from(v))));
        let mut model = ModelPool {
            own: VecDeque::new(),
            injector: seeds.collect(),
        };
        let children = |v: u32| -> Vec<u32> {
            match v % 7 {
                0 | 3 => vec![1000 + v, 2000 + v],
                5 => vec![3000 + v],
                _ => vec![],
            }
        };
        let mut popped = 0;
        let mut saw_reserve = false;
        loop {
            let got = pool.pop();
            assert_eq!(got, model.pop(), "pop {popped}");
            let Some(v) = got else { break };
            saw_reserve |= !pool.cells[0].reserve.is_empty();
            if v < 1000 {
                for c in children(v) {
                    pool.push(c);
                    model.own.push_back(c);
                }
            }
            pool.done();
            popped += 1;
        }
        assert!(saw_reserve, "the reserve was never used");
        assert!(popped > 300);
        assert!(pool.quiescent());
    }

    #[test]
    fn push_all_batches_are_counted_before_any_item_is_done() {
        // One thread seeds batches while three workers drain. The worker
        // that pops the sentinel holds it in flight until the last batch
        // is in, so the pool is never legitimately quiescent before the
        // end: a `quiescent()` that reads true earlier saw an item done
        // whose push was not counted yet. The batches are slow to build,
        // so the other workers sleep on the injector lock and wake as its
        // holder unlocks — the moment a count after the unlock loses.
        // Fresh threads each round, so one unlucky placement of them on
        // the cores does not decide the whole test.
        for _round in 0..8 {
            push_all_round();
        }
    }

    fn push_all_round() {
        const SENTINEL: u32 = u32::MAX;
        const BATCHES: u32 = 2_000;
        const BATCH: u32 = 2;
        let pool = StealPool::new(3);
        pool.push(SENTINEL);
        let seeded = AtomicBool::new(false);
        let dones = AtomicU64::new(0);
        let total = u64::from(BATCHES * BATCH) + 1;
        let early = |pool: &StealPool| pool.quiescent() && dones.load(Ordering::SeqCst) < total;
        let slow = |v: u32| {
            let t = std::time::Instant::now();
            while t.elapsed() < Duration::from_micros(5) {
                std::hint::spin_loop();
            }
            (v, 0)
        };
        let mut popped: Vec<u32> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..3)
                .map(|_| {
                    s.spawn(|| {
                        let mut got = Vec::new();
                        let mut last = std::time::Instant::now();
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
                            last = std::time::Instant::now();
                            while v == SENTINEL && !seeded.load(Ordering::SeqCst) {
                                std::hint::spin_loop();
                            }
                            got.push(v);
                            // Counted before `done`, so a quiescent pool
                            // has every item of `dones`.
                            dones.fetch_add(1, Ordering::SeqCst);
                            pool.done();
                            assert!(!early(&pool), "quiescent with items uncounted");
                        }
                        got
                    })
                })
                .collect();
            for b in 0..BATCHES {
                pool.push_all((b * BATCH..(b + 1) * BATCH).map(slow));
            }
            seeded.store(true, Ordering::SeqCst);
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap())
                .collect()
        });
        popped.sort_unstable();
        let expect: Vec<u32> = (0..BATCHES * BATCH).chain([SENTINEL]).collect();
        assert_eq!(popped, expect, "items lost or duplicated");
        assert!(pool.quiescent());
    }

    #[test]
    fn registered_worker_pushes_land_in_own_deque() {
        let pool = StealPool::new(1);
        pool.push(1); // injector (unregistered)
        assert_eq!(pool.pop(), Some(1)); // registers slot 0
        pool.done();
        pool.push(2);
        pool.push(3);
        // Own-deque items drain oldest-first (wavefront order), and both
        // come out of the deque, not the injector.
        assert_eq!(pool.cells[0].deque.len(), 2);
        assert_eq!(pool.pop(), Some(2));
        assert_eq!(pool.pop(), Some(3));
    }
}
