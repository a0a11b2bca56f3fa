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
//!   top (FIFO: the oldest, coldest work migrates). Implemented in-repo on
//!   plain atomics: the items are `u32` vertex ids, so every slot can be
//!   an `AtomicU32` and the whole structure stays within
//!   `#![forbid(unsafe_code)]`. The shared injector (overflow and seeds)
//!   is a mutex-guarded `VecDeque`. There is no LIFO owner pop: frontier
//!   algorithms re-relax heavily under LIFO (depth-first) order, and the
//!   wavefront order is worth far more than the saved CAS (see DESIGN.md
//!   §7).
//! * **[`StripedPending`]** — per-worker `(pushed, done)` monotonic
//!   counter cells, folded only on the idle path. Replaces the single
//!   `SeqCst` hot word the old pools bumped twice per item. The
//!   double-fold termination argument is spelled out on
//!   [`StripedPending::quiescent`] and in DESIGN.md §7.
//! * **[`IdleGate`]** — exponential backoff ending in a *parked* wait
//!   with wakeup on push, so idle workers stop burning the cores the
//!   busy workers need (the old idle loop spun/yielded forever).
//! * **[`StealPool`]** — ties the three together behind the unchanged
//!   [`WorkPool`] trait, so `parallel_drain`, the epoch barrier, and the
//!   crash-recovery matrix all run over it unmodified.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicI64, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Condvar;
use std::time::Duration;

use tufast_htm::witness::{LockClass, Mutex};

use crate::pad::CachePadded;
use crate::par::{lock, PoolCounters, WorkPool};

/// Result of one steal attempt on a [`StealDeque`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Steal {
    /// The deque had nothing to steal.
    Empty,
    /// Lost a race with the owner or another thief; worth retrying.
    Retry,
    /// Stole one item.
    Success(u32),
}

/// A bounded Chase–Lev work-stealing deque over `u32` items.
///
/// Single owner, many thieves. The owner calls [`push`](Self::push)
/// (bottom end); any thread, the owner included, may call
/// [`steal`](Self::steal) (top end, FIFO). The buffer is fixed-capacity:
/// a full deque rejects the push and the caller overflows into a shared
/// injector instead of growing (growth is the one part of Chase–Lev that
/// genuinely needs `unsafe`; overflow costs a mutex hit only in the rare
/// case a worker is 8K items ahead of every thief).
///
/// Memory-ordering discipline follows Lê/Pop/Cohen/Nardelli, "Correct and
/// Efficient Work-Stealing for Weak Memory Models" (PPoPP '13).
#[derive(Debug)]
pub struct StealDeque {
    /// Thieves' end: advanced only by successful CAS.
    top: CachePadded<AtomicI64>,
    /// Owner's end: stored only by the owner.
    bottom: CachePadded<AtomicI64>,
    /// Power-of-two ring of item slots. Slots are atomics, so the benign
    /// owner/thief race on a slot about to be recycled is well-defined;
    /// the `top` CAS rejects every stale read before it can be returned.
    buf: Box<[AtomicU32]>,
    mask: i64,
}

impl StealDeque {
    /// An empty deque with capacity `cap` rounded up to a power of two.
    pub fn with_capacity(cap: usize) -> Self {
        let cap = cap.next_power_of_two().max(2);
        StealDeque {
            top: CachePadded::new(AtomicI64::new(0)),
            bottom: CachePadded::new(AtomicI64::new(0)),
            buf: (0..cap).map(|_| AtomicU32::new(0)).collect(),
            mask: cap as i64 - 1,
        }
    }

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
    /// caller routes the item to the overflow injector.
    pub fn push(&self, v: u32) -> Result<(), u32> {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Acquire);
        if b - t > self.mask {
            return Err(v); // full
        }
        self.buf[(b & self.mask) as usize].store(v, Ordering::Relaxed);
        // Publish the slot before the new bottom becomes visible to
        // thieves reading `bottom` with Acquire.
        self.bottom.store(b + 1, Ordering::Release);
        Ok(())
    }

    /// Take the oldest item (FIFO — cold work migrates). The only way out
    /// of the deque, for thieves and the owner alike.
    pub fn steal(&self) -> Steal {
        let t = self.top.load(Ordering::Acquire);
        // Order the top read before the bottom read. In Chase–Lev this
        // pairs with the fence of the LIFO owner pop, which this deque no
        // longer has; the orderings stay as proven until a weak-memory
        // check (ROADMAP item 11(a)) shows what push / steal alone needs.
        // tufast-lint: allow(memory-ordering) -- the Chase-Lev steal fence, kept until a weak-memory check proves the downgrade
        std::sync::atomic::fence(Ordering::SeqCst);
        let b = self.bottom.load(Ordering::Acquire);
        if t >= b {
            return Steal::Empty;
        }
        let v = self.buf[(t & self.mask) as usize].load(Ordering::Relaxed);
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
}

/// One `(pushed, done)` cell of a [`StripedPending`] counter.
#[derive(Debug, Default)]
pub struct PendingCell {
    pushed: AtomicU64,
    done: AtomicU64,
}

/// A striped in-flight counter: per-worker monotonic `(pushed, done)`
/// pairs on their own cache lines, folded only on the idle path.
///
/// The old pools bumped one shared `SeqCst` word twice per item — a
/// guaranteed coherence miss per bump on every core. Here each worker
/// increments its *own* cell (plus one shared spill cell for threads that
/// never registered), so the hot path costs an uncontended RMW; only idle
/// workers pay the O(workers) fold.
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

    /// The spill cell index for unregistered threads.
    pub fn shared_slot(&self) -> usize {
        self.cells.len() - 1
    }

    /// Count one push from worker `slot` (use [`Self::shared_slot`] when
    /// unregistered). `Release` so the increment is visible to any fold
    /// that observes a later effect of this worker (see `quiescent`).
    #[inline]
    pub fn inc(&self, slot: usize) {
        self.cells[slot].pushed.fetch_add(1, Ordering::Release);
    }

    /// Count one completed item on worker `slot`.
    #[inline]
    pub fn dec(&self, slot: usize) {
        self.cells[slot].done.fetch_add(1, Ordering::Release);
    }

    /// One fold over the cells: `(total pushed, total done)`.
    fn fold(&self) -> (u64, u64) {
        let mut pushed = 0u64;
        let mut done = 0u64;
        for c in &self.cells {
            pushed += c.pushed.load(Ordering::Acquire);
            done += c.done.load(Ordering::Acquire);
        }
        (pushed, done)
    }

    /// Racy pending estimate (single fold). Good enough for progress
    /// reporting and the epoch barrier's frontier sanity checks; the
    /// *termination* decision must use [`Self::quiescent`].
    pub fn pending(&self) -> usize {
        let (pushed, done) = self.fold();
        usize::try_from(pushed.saturating_sub(done)).unwrap_or(usize::MAX)
    }

    /// Sound quiescence check: two folds must observe the *identical*
    /// per-cell snapshot with `pushed == done`.
    ///
    /// Why the double fold: with one fold, a reader can see an item's
    /// `done` increment on cell B while having read cell A *before* the
    /// matching `pushed` increment landed there, so sums can falsely
    /// match. Because both counters are monotonic and the second fold's
    /// reads happen after every first-fold read, any increment that was
    /// half-visible to the first fold is fully visible to the second —
    /// forcing a snapshot mismatch and a retry. In a stable snapshot,
    /// therefore, `done visible ⇒ its push visible`; walking any pending
    /// item's re-push chain up to the (always visible) initial seeds
    /// yields an ancestor counted in `pushed` but not in `done`, so
    /// `pushed == done` genuinely means nothing queued and nothing in
    /// flight. Full argument in DESIGN.md §7.
    pub fn quiescent(&self) -> bool {
        let first: Vec<(u64, u64)> = self
            .cells
            .iter()
            .map(|c| {
                (
                    c.pushed.load(Ordering::Acquire),
                    c.done.load(Ordering::Acquire),
                )
            })
            .collect();
        let (p, d): (u64, u64) = first
            .iter()
            .fold((0, 0), |(p, d), &(cp, cd)| (p + cp, d + cd));
        if p != d {
            return false;
        }
        self.cells.iter().zip(&first).all(|(c, &(cp, cd))| {
            c.pushed.load(Ordering::Acquire) == cp && c.done.load(Ordering::Acquire) == cd
        })
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
    deque: StealDeque,
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

/// Pool-instance ids for the thread-local slot cache.
static NEXT_POOL_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// `(pool id, slot)` of the pool this thread last worked on. One cell
    /// suffices: a worker thread serves exactly one drain (hence one
    /// pool) at a time, and re-registration after a pool switch is a
    /// single fetch_add.
    static SLOT_CACHE: Cell<(u64, usize)> = const { Cell::new((0, usize::MAX)) };

    /// This thread's xorshift state for picking the first victim of a
    /// steal sweep; 0 until its first sweep.
    static VICTIM_WALK: Cell<u64> = const { Cell::new(0) };
}

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
/// Worker threads register themselves on first `pop` (slot assignment is
/// a thread-local cache keyed by pool id, so the `WorkPool` trait and
/// every existing driver stay unchanged); their pushes go to their own
/// deque bottom, their pops take the own deque's *oldest* item
/// (wavefront order — see the module docs), then try the injector, then
/// randomized bounded stealing. Pushes from unregistered threads (the
/// driver seeding the frontier, a recovery loading a snapshot) land in
/// the injector.
pub struct StealPool {
    id: u64,
    cells: Vec<CachePadded<WorkerCell>>,
    injector: Mutex<VecDeque<u32>>,
    next_slot: AtomicUsize,
    pending: StripedPending,
    idle: IdleGate,
}

impl StealPool {
    /// A pool sized for `threads` workers.
    pub fn new(threads: usize) -> Self {
        let slots = threads.max(1);
        StealPool {
            id: NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed),
            cells: (0..slots)
                .map(|_| {
                    CachePadded::new(WorkerCell {
                        deque: StealDeque::with_capacity(DEQUE_CAPACITY),
                        steals: AtomicU64::new(0),
                        steal_fails: AtomicU64::new(0),
                    })
                })
                .collect(),
            injector: Mutex::new(LockClass::PoolQueue, VecDeque::new()),
            next_slot: AtomicUsize::new(0),
            pending: StripedPending::new(slots),
            idle: IdleGate::new(),
        }
    }

    /// This thread's slot in this pool, if it has registered (via `pop`).
    fn slot(&self) -> Option<usize> {
        let (pool, slot) = SLOT_CACHE.with(Cell::get);
        (pool == self.id && slot < self.cells.len()).then_some(slot)
    }

    /// Register the calling thread as a worker, claiming a deque slot.
    /// Threads beyond the pool's size fall back to injector-only.
    fn register(&self) -> Option<usize> {
        let slot = self.next_slot.fetch_add(1, Ordering::Relaxed);
        if slot < self.cells.len() {
            SLOT_CACHE.with(|c| c.set((self.id, slot)));
            Some(slot)
        } else {
            SLOT_CACHE.with(|c| c.set((self.id, usize::MAX)));
            None
        }
    }

    /// The slot whose pending cell this thread should bump.
    fn pending_slot(&self) -> usize {
        self.slot().unwrap_or_else(|| self.pending.shared_slot())
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
                    match self.cells[victim].deque.steal() {
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
            match self.cells[victim].deque.steal() {
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

impl WorkPool for StealPool {
    fn push(&self, v: u32) {
        self.pending.inc(self.pending_slot());
        match self.slot() {
            Some(s) => {
                if let Err(v) = self.cells[s].deque.push(v) {
                    lock(&self.injector).push_back(v); // deque full: spill
                }
            }
            None => lock(&self.injector).push_back(v),
        }
        self.idle.wake_one();
    }

    fn pop(&self) -> Option<u32> {
        let slot = match self.slot() {
            s @ Some(_) => s,
            None => self.register(),
        };
        if let Some(s) = slot {
            // The worker consumes its *own* deque from the FIFO (steal)
            // end. The frontiers drained here belong to monotone
            // relaxation algorithms, where LIFO order degenerates into
            // depth-first exploration: vertices get settled through bad
            // tentative values first and re-relaxed over and over
            // (measured ~7× extra relaxations on small-world graphs).
            // Oldest-first keeps each worker's queue a wavefront, at the
            // cost of one CAS per pop — which is contended only when a
            // thief is racing this worker's last items.
            loop {
                match self.cells[s].deque.steal() {
                    Steal::Success(v) => return Some(v),
                    Steal::Empty => break,
                    Steal::Retry => std::hint::spin_loop(),
                }
            }
        }
        if let Some(v) = lock(&self.injector).pop_front() {
            return Some(v);
        }
        self.steal_from_peers(slot)
    }

    fn pending(&self) -> usize {
        self.pending.pending()
    }

    fn done(&self) {
        self.pending.dec(self.pending_slot());
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
        // deque through the steal end onto the front of the injector,
        // bypassing the pending counter — the items never stopped being
        // pending — and list the injector.
        let mut drained = Vec::new();
        for cell in &self.cells {
            loop {
                match cell.deque.steal() {
                    Steal::Success(v) => drained.push(v),
                    Steal::Empty => break,
                    Steal::Retry => std::hint::spin_loop(),
                }
            }
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
        // The owner pushes and takes from the same end as three thieves:
        // every index is raced for, the last item included.
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
                if let Steal::Success(x) = d.steal() {
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

    #[test]
    fn striped_pending_counts_and_quiesces() {
        let p = StripedPending::new(4);
        assert!(p.quiescent());
        p.inc(0);
        p.inc(1);
        assert_eq!(p.pending(), 2);
        assert!(!p.quiescent());
        p.dec(2); // done on a different cell than the push
        p.dec(p.shared_slot());
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
