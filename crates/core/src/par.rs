//! Parallel drivers: the paper's `parallel_for v : all vertices` (Figure 1)
//! and the work-queue loop behind Bellman-Ford / SPFA (Figure 3).
//!
//! # Where a job runs
//!
//! A driver called with `threads = t` creates `t` scheduler workers, ids
//! in creation order, runs worker 0 on the calling thread and spawns
//! `t - 1` scoped threads for the rest ([`run_workers`]): at one thread
//! nothing is spawned, and worker 0 starts on the thread that just wrote
//! its data, in that thread's malloc arena. The driver returns when every
//! worker has finished, and re-raises a worker's panic with its payload.
//!
//! Two consequences for callers:
//!
//! - **Hold no line lock and no serial token** when calling a driver.
//!   Worker 0's transactions would wait on it like any peer's, and the
//!   holder never gets to release it.
//! - **Thread-locals outlive a job on the caller.** Worker 0 leaves the
//!   caller's copies behind: the slot cache of
//!   [`StealPool`](crate::steal::StealPool) and
//!   [`BucketPool`](crate::bucket::BucketPool) (keyed by pool id, so a
//!   later pool never reads a stale slot; a push into the *same* steal
//!   pool after its drain lands in the caller's deque rather than the
//!   injector), the BFS / WCC / SSSP item scratch
//!   (`SCRATCH` in `tufast-algos`' `monotone.rs`, kept for the next job)
//!   and the parked body-panic payload (`CAUGHT_PANIC` in `tufast-txn`'s
//!   `obs.rs`, always taken by the re-raise that follows it).

use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::PoisonError;

use tufast_htm::witness::{LockClass, Mutex, MutexGuard};
use tufast_htm::AtomicCounters;
use tufast_txn::{GraphScheduler, TxnWorker};

use crate::epoch::Epochs;
use crate::pad::CachePadded;

/// Floor for guided self-scheduling chunks: below this the fetch_add
/// traffic on the cursor outweighs the balance win.
const MIN_CHUNK: usize = 16;

/// Ceiling for guided chunks: one grab never exceeds this, so even the
/// first chunks of a huge range leave work for late-starting threads.
const MAX_CHUNK: usize = 4096;

/// Run `f(worker, v)` for every `v in 0..n` on `threads` threads, each with
/// its own scheduler worker. Returns one worker per thread after the loop,
/// so callers can harvest statistics.
///
/// The calling thread is worker 0 and `threads - 1` threads are spawned
/// ([`run_workers`]), so the caller must hold no line lock and no serial
/// token: worker 0's transactions would wait on it like any peer's.
///
/// Chunking is guided self-scheduling: each grab takes
/// `remaining / (2·threads)` (clamped) — big chunks early for low cursor
/// traffic, shrinking toward the tail so a straggler stuck on a hub vertex
/// strands at most a small chunk, not a fixed 256-wide one.
pub fn parallel_for<S, F>(sched: &S, threads: usize, n: usize, f: F) -> Vec<S::Worker>
where
    S: GraphScheduler,
    F: Fn(&mut S::Worker, u32) + Sync,
{
    let threads = threads.max(1);
    let cursor = CachePadded::new(AtomicUsize::new(0));
    run_workers(sched, threads, |_, worker| loop {
        // The load races other grabs, so `remaining` can be stale — that
        // only perturbs the chunk size; the fetch_add below is what claims
        // indices.
        let seen = cursor.load(Ordering::Relaxed);
        let remaining = n.saturating_sub(seen);
        let chunk = (remaining / (2 * threads)).clamp(MIN_CHUNK, MAX_CHUNK);
        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
        if start >= n {
            break;
        }
        let end = (start + chunk).min(n);
        for v in start..end {
            f(worker, v as u32);
        }
    })
}

/// Create `threads` workers of `sched`, ids in creation order, and run
/// `body(lane, worker)` on each, `lane` its place in that order: workers
/// 1.. on scoped threads, worker 0 on the calling thread. Returns the
/// workers in creation order once all have finished.
///
/// A worker's panic re-raises with its original payload after every peer
/// has joined (the first panicking worker's, in creation order); the
/// panicking worker itself is dropped as it unwinds, as it would be on a
/// thread of its own.
fn run_workers<S, B>(sched: &S, threads: usize, body: B) -> Vec<S::Worker>
where
    S: GraphScheduler,
    B: Fn(u32, &mut S::Worker) + Sync,
{
    let mut workers: Vec<S::Worker> = (0..threads).map(|_| sched.worker()).collect();
    let peers = workers.split_off(1);
    let mut first = workers.pop().expect("at least one worker");
    let body = &body;
    std::thread::scope(|s| {
        let handles: Vec<_> = peers
            .into_iter()
            .zip(1..)
            .map(|(mut worker, lane)| {
                s.spawn(move || {
                    body(lane, &mut worker);
                    worker
                })
            })
            .collect();
        let first = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            body(0, &mut first);
            first
        }));
        let peers: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        std::iter::once(first)
            .chain(peers)
            // Re-raise a worker panic with its original payload (a body
            // panic unwinds through the scheduler after clean rollback).
            .map(|joined| joined.unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    })
}

tufast_htm::counters! {
    /// Scheduler-internal event counters a [`WorkPool`] can expose; summed
    /// into a process-wide accumulator by the drain drivers and harvested by
    /// [`take_sched_counters`]. All zeros for pools without the
    /// corresponding machinery.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct PoolCounters {
        /// Items migrated between workers by successful steals.
        pub steals: u64,
        /// Steal attempts that lost a race (`Retry` outcomes).
        pub steal_fails: u64,
        /// Lazy cursor advances past drained priority buckets.
        pub bucket_advances: u64,
        /// Completed parked waits of idle workers.
        pub parked_wakeups: u64,
    }
}

/// Process-wide accumulator the drain drivers fold [`PoolCounters`] into;
/// harvested by [`take_sched_counters`]. A global (rather than a return
/// value) because the drains' signatures return workers, and the bench
/// harness aggregates across many independent drain calls anyway.
static DRIVER: AtomicCounters<{ PoolCounters::N }> = AtomicCounters::new();

/// Fold one pool's counters into the process-wide accumulator. Called by
/// the drain drivers after the workers join; public so external drivers
/// composing their own loops can participate.
pub fn fold_sched_counters(c: &PoolCounters) {
    DRIVER.add(c.values());
}

/// Drain and reset the process-wide scheduler counters accumulated by the
/// drain drivers since the last call.
pub fn take_sched_counters() -> PoolCounters {
    PoolCounters::from_values(DRIVER.take())
}

/// A concurrent work pool with quiescence detection: the processing loop
/// ends only when the queue is empty *and* no in-flight task might push
/// more (the asynchronous-algorithm driver behind BFS/SSSP/components).
pub trait WorkPool: Sync {
    /// Add one unit of work.
    fn push(&self, v: u32);
    /// Add one unit of work whose priority is `key` (smaller = sooner).
    /// Pools without an order ignore the key.
    fn push_keyed(&self, v: u32, _key: u64) {
        self.push(v);
    }
    /// Add `(unit, key)` pairs in order, as [`Self::push_keyed`] would one
    /// by one; pools with a shared seed queue take it once for the batch.
    /// Seeding a job's frontier goes through here.
    fn push_all<I: IntoIterator<Item = (u32, u64)>>(&self, items: I) {
        for (v, key) in items {
            self.push_keyed(v, key);
        }
    }
    /// Take one unit, or `None` if currently empty.
    fn pop(&self) -> Option<u32>;
    /// Units pushed but not yet fully processed (racy estimate; fine for
    /// progress reporting, but termination should ask [`Self::quiescent`]).
    fn pending(&self) -> usize;
    /// Mark one unit fully processed (after any re-pushes it triggered).
    fn done(&self);
    /// Sound termination check: `true` only if nothing is queued and
    /// nothing is in flight. Default delegates to `pending() == 0`, which
    /// is sound for pools whose count lives in one atomic word; striped
    /// pools override with a snapshot-validated fold (DESIGN.md §7).
    fn quiescent(&self) -> bool {
        self.pending() == 0
    }
    /// Block the calling idle worker briefly (bounded wait) until new work
    /// is likely. Pools with a parking gate override this; the default
    /// yields so spin-only pools keep their old behaviour.
    fn park_idle(&self) {
        std::thread::yield_now();
    }
    /// Wake every parked idle worker so it re-checks its exit conditions
    /// promptly (used when a job is cancelled or sheds mid-drain). Default:
    /// no-op — the default [`Self::park_idle`] is a bounded yield, so
    /// parked workers wake on their own.
    fn interrupt(&self) {}
    /// Snapshot the queued items as `(vertex, priority-key)` pairs without
    /// consuming them. **Quiescence only**: callers must guarantee no
    /// concurrent push/pop (the epoch barrier does) — FIFO pools observe
    /// the frontier by draining and re-inserting.
    fn pending_items(&self) -> Vec<(u32, u64)>;
    /// Scheduler-internal event counters for the bench harness. Default:
    /// all zeros.
    fn counters(&self) -> PoolCounters {
        PoolCounters::default()
    }
}

/// FIFO pool (Bellman-Ford flavour).
pub struct FifoPool {
    queue: Mutex<VecDeque<u32>>,
    /// Queued + in-flight items, all ±1s on this one padded word. A
    /// single-word counter needs no `SeqCst`: its own modification order
    /// serializes the updates, and an in-flight item's `-1` is ordered
    /// after the `+1` of any child it re-pushed, so a zero read proves
    /// quiescence (full argument in DESIGN.md §7). `Release`/`Acquire`
    /// documents the publish/observe pairing.
    pending: CachePadded<AtomicUsize>,
}

impl FifoPool {
    /// An empty pool.
    pub fn new() -> Self {
        FifoPool {
            queue: Mutex::new(LockClass::PoolQueue, VecDeque::new()),
            pending: CachePadded::new(AtomicUsize::new(0)),
        }
    }
}

impl Default for FifoPool {
    fn default() -> Self {
        Self::new()
    }
}

impl WorkPool for FifoPool {
    fn push(&self, v: u32) {
        self.pending.fetch_add(1, Ordering::Release);
        lock(&self.queue).push_back(v);
    }

    fn pop(&self) -> Option<u32> {
        lock(&self.queue).pop_front()
    }

    fn pending(&self) -> usize {
        self.pending.load(Ordering::Acquire)
    }

    fn done(&self) {
        self.pending.fetch_sub(1, Ordering::Release);
    }

    fn pending_items(&self) -> Vec<(u32, u64)> {
        // Queue order; safe only under the caller's quiescence guarantee.
        lock(&self.queue)
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as u64))
            .collect()
    }
}

/// Lock a pool's mutex, poisoned or not: a worker that panics holds it
/// across one queue call at most, which leaves the queue whole.
pub(crate) fn lock<T>(pool: &Mutex<T>) -> MutexGuard<'_, T> {
    pool.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Priority pool (SPFA flavour): lowest key first — e.g. tentative
/// distance, so relaxation work flows outward from the source.
///
/// This is the *centralized* baseline: one mutexed binary heap, total
/// order, global serialization. The scalable replacement is
/// [`BucketPool`](crate::bucket::BucketPool); this stays as the
/// comparison point the bench harness measures against.
pub struct PriorityPool {
    heap: Mutex<BinaryHeap<std::cmp::Reverse<(u64, u32)>>>,
    /// Single-word in-flight count; same ordering argument as
    /// [`FifoPool::pending`].
    pending: CachePadded<AtomicUsize>,
    /// Keys for pushes made through the keyless [`WorkPool::push`].
    default_key: AtomicU64,
}

impl PriorityPool {
    /// An empty pool.
    pub fn new() -> Self {
        PriorityPool {
            heap: Mutex::new(LockClass::PoolQueue, BinaryHeap::new()),
            pending: CachePadded::new(AtomicUsize::new(0)),
            default_key: AtomicU64::new(0),
        }
    }

    /// Add work with an explicit priority key (smaller = sooner).
    pub fn push_with_key(&self, v: u32, key: u64) {
        self.pending.fetch_add(1, Ordering::Release);
        lock(&self.heap).push(std::cmp::Reverse((key, v)));
    }
}

impl Default for PriorityPool {
    fn default() -> Self {
        Self::new()
    }
}

impl WorkPool for PriorityPool {
    fn push(&self, v: u32) {
        // Keyless pushes get monotonically increasing keys (FIFO-ish).
        let key = self.default_key.fetch_add(1, Ordering::Relaxed);
        self.push_with_key(v, key);
    }

    fn push_keyed(&self, v: u32, key: u64) {
        self.push_with_key(v, key);
    }

    fn pop(&self) -> Option<u32> {
        lock(&self.heap).pop().map(|std::cmp::Reverse((_, v))| v)
    }

    fn pending(&self) -> usize {
        self.pending.load(Ordering::Acquire)
    }

    fn done(&self) {
        self.pending.fetch_sub(1, Ordering::Release);
    }

    fn pending_items(&self) -> Vec<(u32, u64)> {
        lock(&self.heap)
            .iter()
            .map(|&std::cmp::Reverse((key, v))| (v, key))
            .collect()
    }
}

/// Spins of pure busy-wait before an idle worker starts yielding.
const IDLE_SPINS: u32 = 16;

/// Yields before an idle worker escalates to a parked wait.
const IDLE_YIELDS: u32 = 48;

/// One step of the idle backoff ladder: spin → yield → park. The ladder
/// resets whenever work is found; the park is bounded
/// ([`PARK_TIMEOUT`](crate::steal::PARK_TIMEOUT) for parking pools, one
/// yield for the default), so termination and the epoch barrier are never
/// gated on a wakeup actually arriving.
#[inline]
fn idle_backoff<P: WorkPool>(pool: &P, idle: &mut u32) {
    *idle = idle.saturating_add(1);
    if *idle <= IDLE_SPINS {
        std::hint::spin_loop();
    } else if *idle <= IDLE_SPINS + IDLE_YIELDS {
        std::thread::yield_now();
    } else {
        pool.park_idle();
    }
}

/// Drain `pool` on `threads` threads: `f(worker, v)` may push more work.
/// Returns the workers when the pool is quiescent (empty and nothing in
/// flight).
///
/// The calling thread is worker 0 and `threads - 1` threads are spawned,
/// as in [`parallel_for`]: the caller must hold no line lock and no serial
/// token.
pub fn parallel_drain<S, P, F>(sched: &S, pool: &P, threads: usize, f: F) -> Vec<S::Worker>
where
    S: GraphScheduler,
    P: WorkPool,
    F: Fn(&mut S::Worker, &P, u32) + Sync,
{
    drain(sched, pool, threads.max(1), None, f)
}

/// The one loop that pops a [`WorkPool`] on behalf of scheduler workers:
/// [`parallel_drain`] runs it bare,
/// [`parallel_drain_epochs`](crate::epoch::parallel_drain_epochs) with an
/// epoch barrier (`epochs`, sized for `threads` workers) that every worker
/// joins on entry, parks at between items and reports each finished item to
/// — where its lane is probed for a seeded crash.
/// Its workers run on [`run_workers`]: worker 0 on the calling thread.
pub(crate) fn drain<S, P, F>(
    sched: &S,
    pool: &P,
    threads: usize,
    epochs: Option<&Epochs<'_>>,
    f: F,
) -> Vec<S::Worker>
where
    S: GraphScheduler,
    P: WorkPool,
    F: Fn(&mut S::Worker, &P, u32) + Sync,
{
    let workers = run_workers(sched, threads, |lane, worker| {
        // Leaves the barrier on every exit, a panic included.
        let mut lane = epochs.map(|epochs| epochs.enter(lane));
        let mut idle = 0u32;
        loop {
            // Dequeue boundary: heartbeat for the watchdog and job-level
            // stop check (cancel / deadline). Nothing is popped
            // yet, so stopping loses no item; the interrupt wakes parked
            // peers to re-check too.
            if worker.health().is_some_and(|h| h.checkpoint().is_some()) {
                pool.interrupt();
                break;
            }
            if let Some(lane) = &lane {
                lane.park_if_paused();
            }
            match pool.pop() {
                Some(v) => {
                    idle = 0;
                    if let Some(h) = worker.health() {
                        h.set_idle(false);
                    }
                    // `done()` must run even if `f` panics — otherwise
                    // the in-flight count never drops and the surviving
                    // peers spin forever waiting for quiescence.
                    let guard = DoneGuard(pool);
                    f(worker, pool, v);
                    drop(guard);
                    if let Some(lane) = &mut lane {
                        lane.item_done();
                    }
                }
                None => {
                    if pool.quiescent() {
                        break; // nothing queued or in flight
                    }
                    // Parked-idle is legitimate quiet, not a stall —
                    // tell the watchdog before waiting.
                    if let Some(h) = worker.health() {
                        h.set_idle(true);
                    }
                    // The pool park is bounded (timed), so a worker
                    // parked here still reaches `park_if_paused` within
                    // PARK_TIMEOUT when a coordinator raises the pause
                    // flag — the barrier never waits on a wakeup.
                    idle_backoff(pool, &mut idle);
                }
            }
        }
        if let Some(h) = worker.health() {
            h.set_idle(true);
        }
    });
    fold_sched_counters(&pool.counters());
    workers
}

/// Calls [`WorkPool::done`] on drop so the in-flight count stays accurate
/// across unwinding.
struct DoneGuard<'a, P: WorkPool>(&'a P);

impl<P: WorkPool> Drop for DoneGuard<'_, P> {
    fn drop(&mut self) {
        self.0.done();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::BucketPool;
    use crate::epoch::parallel_drain_epochs;
    use crate::steal::StealPool;
    use std::sync::Arc;
    use tufast_htm::MemoryLayout;
    use tufast_txn::{TwoPhaseLocking, TxnSystem, TxnWorker};

    fn system(words: u64, vertices: usize) -> (Arc<TxnSystem>, tufast_htm::MemRegion) {
        let mut layout = MemoryLayout::new();
        let data = layout.alloc("data", words);
        (TxnSystem::with_defaults(vertices, layout), data)
    }

    #[test]
    fn parallel_for_visits_every_index_once() {
        let (sys, data) = system(1024, 1024);
        let sched = TwoPhaseLocking::new(Arc::clone(&sys));
        parallel_for(&sched, 4, 1024, |w, v| {
            w.execute(2, &mut |ops| {
                let x = ops.read(v, data.addr(u64::from(v)))?;
                ops.write(v, data.addr(u64::from(v)), x + 1)
            });
        });
        for i in 0..1024 {
            assert_eq!(sys.mem().load_direct(data.addr(i)), 1, "index {i}");
        }
    }

    #[test]
    fn parallel_for_handles_n_smaller_than_chunk() {
        let (sys, data) = system(8, 8);
        let sched = TwoPhaseLocking::new(Arc::clone(&sys));
        let workers = parallel_for(&sched, 8, 3, |w, v| {
            w.execute(2, &mut |ops| {
                let x = ops.read(v, data.addr(u64::from(v)))?;
                ops.write(v, data.addr(u64::from(v)), x + 10)
            });
        });
        assert_eq!(workers.len(), 8);
        let total: u64 = (0..8).map(|i| sys.mem().load_direct(data.addr(i))).sum();
        assert_eq!(total, 30);
    }

    #[test]
    fn priority_pool_orders_by_key() {
        let pool = PriorityPool::new();
        pool.push_with_key(30, 30);
        pool.push_with_key(10, 10);
        pool.push_with_key(20, 20);
        assert_eq!(pool.pop(), Some(10));
        assert_eq!(pool.pop(), Some(20));
        assert_eq!(pool.pop(), Some(30));
        assert_eq!(pool.pop(), None);
    }

    /// The two public faces of the one drain loop, as test inputs: bare,
    /// and under an epoch barrier that closes every 10 items.
    #[derive(Clone, Copy, Debug)]
    enum Drain {
        Plain,
        Epochs,
    }

    const BOTH_DRAINS: [Drain; 2] = [Drain::Plain, Drain::Epochs];

    impl Drain {
        /// The number of items the barrier counted, if there was one.
        fn run<S, P, F>(
            self,
            sched: &S,
            sys: &TxnSystem,
            pool: &P,
            threads: usize,
            f: F,
        ) -> Option<u64>
        where
            S: GraphScheduler,
            P: WorkPool,
            F: Fn(&mut S::Worker, &P, u32) + Sync,
        {
            match self {
                Drain::Plain => {
                    parallel_drain(sched, pool, threads, f);
                    None
                }
                Drain::Epochs => {
                    Some(parallel_drain_epochs(sched, sys, pool, threads, 10, 0, |_| {}, f).1)
                }
            }
        }
    }

    /// Seed a pool with `0..seeds` and drain it on `threads` threads under
    /// both drains, one increment of `data[0]` per item; a seed below
    /// `fanout` pushes two more items. Every item must count exactly once.
    fn counts_every_token_exactly_once<P: WorkPool>(
        new_pool: impl Fn() -> P,
        threads: usize,
        seeds: u32,
        fanout: u32,
    ) {
        for drain in BOTH_DRAINS {
            let (sys, data) = system(8, 1);
            let sched = TwoPhaseLocking::new(Arc::clone(&sys));
            let pool = new_pool();
            for v in 0..seeds {
                pool.push_keyed(v, u64::from(v % 37));
            }
            let counted = drain.run(&sched, &sys, &pool, threads, |w, pool, v| {
                w.execute(2, &mut |ops| {
                    let x = ops.read(0, data.addr(0))?;
                    ops.write(0, data.addr(0), x + 1)
                });
                if v < fanout {
                    pool.push(seeds + 2 * v);
                    pool.push(seeds + 2 * v + 1);
                }
            });
            let count = sys.mem().load_direct(data.addr(0));
            assert_eq!(count, u64::from(seeds + 2 * fanout), "{drain:?}");
            assert_eq!(counted.unwrap_or(count), count, "{drain:?}");
            // Exact for every pool: the striped double-fold, not a racy sum.
            assert!(pool.quiescent(), "{drain:?}");
        }
    }

    #[test]
    fn drain_counts_every_token_exactly_once() {
        counts_every_token_exactly_once(FifoPool::new, 6, 500, 0);
        counts_every_token_exactly_once(|| StealPool::new(6), 6, 500, 0);
        counts_every_token_exactly_once(PriorityPool::new, 4, 300, 0);
        counts_every_token_exactly_once(|| BucketPool::new(4), 4, 300, 0);
    }

    #[test]
    fn drain_with_repushes_reaches_quiescence() {
        // Re-pushes land in the workers' own deques.
        counts_every_token_exactly_once(FifoPool::new, 4, 120, 100);
        counts_every_token_exactly_once(|| StealPool::new(4), 4, 120, 100);
    }

    #[test]
    fn worker_panic_propagates_without_hanging_the_barrier() {
        for drain in BOTH_DRAINS {
            let (sys, data) = system(8, 1);
            let sched = TwoPhaseLocking::new(Arc::clone(&sys));
            let pool = FifoPool::new();
            for v in 0..200u32 {
                pool.push(v);
            }
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                drain.run(&sched, &sys, &pool, 4, |w, _pool, v| {
                    if v == 137 {
                        panic!("injected worker death");
                    }
                    w.execute(2, &mut |ops| {
                        let x = ops.read(0, data.addr(0))?;
                        ops.write(0, data.addr(0), x + 1)
                    });
                });
            }));
            assert!(caught.is_err(), "{drain:?}: the worker panic must re-raise");
            // The dead worker's item still counted as done, so the
            // survivors drained the rest instead of waiting on it forever.
            assert_eq!(pool.pending(), 0, "{drain:?}");
            assert_eq!(sys.mem().load_direct(data.addr(0)), 199, "{drain:?}");
            // Token not leaked by the dying run.
            assert_eq!(sys.mem().load_direct(sys.serial_token()), 0, "{drain:?}");
        }
    }

    #[test]
    fn health_stop_mid_drain_returns_and_loses_no_item() {
        for drain in BOTH_DRAINS {
            let (sys, _) = system(8, 1);
            let sched = TwoPhaseLocking::new(Arc::clone(&sys));
            // A parking pool: idle workers must be interrupted, not left
            // to sleep out their timeout one after another.
            let pool = StealPool::new(4);
            for v in 0..2000u32 {
                pool.push(v);
            }
            let processed = AtomicU64::new(0);
            let counted = drain.run(&sched, &sys, &pool, 4, |_w, _pool, v| {
                if v == 20 {
                    sys.cancel_token().cancel();
                }
                processed.fetch_add(1, Ordering::Relaxed);
            });
            // Every worker stopped at its next dequeue boundary: what was
            // not processed is still queued, nothing is in flight.
            let processed = processed.load(Ordering::Relaxed);
            assert!(processed < 2000, "{drain:?}: the stop was ignored");
            assert_eq!(counted.unwrap_or(processed), processed, "{drain:?}");
            let queued = pool.pending_items().len() as u64;
            assert_eq!(processed + queued, 2000, "{drain:?}");
            assert_eq!(pool.pending() as u64, queued, "{drain:?}");
        }
    }

    /// A scheduler whose workers run no transactions: each knows its
    /// creation index and records the threads its items ran on.
    #[derive(Default)]
    struct Tagged(AtomicUsize);

    struct TaggedWorker {
        id: usize,
        ran_on: Vec<std::thread::ThreadId>,
        stats: tufast_txn::SchedStats,
    }

    impl TaggedWorker {
        fn note(&mut self) {
            self.ran_on.push(std::thread::current().id());
        }
    }

    impl GraphScheduler for Tagged {
        type Worker = TaggedWorker;

        fn worker(&self) -> TaggedWorker {
            TaggedWorker {
                id: self.0.fetch_add(1, Ordering::Relaxed),
                ran_on: Vec::new(),
                stats: tufast_txn::SchedStats::default(),
            }
        }

        fn name(&self) -> &'static str {
            "tagged"
        }
    }

    impl TxnWorker for TaggedWorker {
        fn execute_hinted(
            &mut self,
            _: tufast_txn::TxnHint,
            _: &mut tufast_txn::TxnBody<'_>,
        ) -> tufast_txn::TxnOutcome {
            unreachable!("the tagged scheduler runs no transactions")
        }

        fn stats(&self) -> &tufast_txn::SchedStats {
            &self.stats
        }

        fn take_stats(&mut self) -> tufast_txn::SchedStats {
            std::mem::take(&mut self.stats)
        }
    }

    /// Run 300 items through `parallel_for` and both drains on `threads`
    /// threads; the workers each returned.
    fn tagged_runs(threads: usize) -> Vec<(String, Vec<TaggedWorker>)> {
        let (sys, _) = system(8, 1);
        let note = |w: &mut TaggedWorker, _: &FifoPool, _| w.note();
        let mut runs = vec![(
            "parallel_for".to_string(),
            parallel_for(&Tagged::default(), threads, 300, |w, _| w.note()),
        )];
        for drain in BOTH_DRAINS {
            let (sched, pool) = (Tagged::default(), FifoPool::new());
            (0..300).for_each(|v| pool.push(v));
            let workers = match drain {
                Drain::Plain => parallel_drain(&sched, &pool, threads, note),
                Drain::Epochs => {
                    parallel_drain_epochs(&sched, &sys, &pool, threads, 10, 0, |_| {}, note).0
                }
            };
            runs.push((format!("{drain:?}"), workers));
        }
        runs
    }

    #[test]
    fn at_one_thread_every_item_runs_on_the_caller() {
        let caller = std::thread::current().id();
        for (driver, workers) in tagged_runs(1) {
            assert_eq!(workers.len(), 1, "{driver}");
            assert_eq!(workers[0].ran_on.len(), 300, "{driver}");
            assert!(workers[0].ran_on.iter().all(|&t| t == caller), "{driver}");
        }
    }

    #[test]
    fn workers_come_back_in_id_order_with_worker_zero_on_the_caller() {
        let caller = std::thread::current().id();
        for (driver, workers) in tagged_runs(3) {
            let ids: Vec<usize> = workers.iter().map(|w| w.id).collect();
            assert_eq!(ids, [0, 1, 2], "{driver}");
            let items: usize = workers.iter().map(|w| w.ran_on.len()).sum();
            assert_eq!(items, 300, "{driver}");
            assert!(workers[0].ran_on.iter().all(|&t| t == caller), "{driver}");
            for peer in &workers[1..] {
                assert!(peer.ran_on.iter().all(|&t| t != caller), "{driver}");
            }
        }
    }

    #[test]
    fn a_panic_in_the_callers_item_re_raises_after_the_peers_drain() {
        let caller = std::thread::current().id();
        // Peers hold their items until the caller has taken one, so the
        // caller is sure to get an item and the peers to outlive it.
        let run = |items: &AtomicU64, started: &std::sync::atomic::AtomicBool| {
            if std::thread::current().id() == caller {
                started.store(true, Ordering::Release);
                std::panic::panic_any("the caller's item");
            }
            while !started.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            items.fetch_add(1, Ordering::Relaxed);
        };
        let payload = |caught: std::thread::Result<()>| {
            let p = caught.expect_err("the caller's panic must re-raise");
            *p.downcast::<&str>().expect("the original payload")
        };
        for drain in BOTH_DRAINS {
            let (sys, _) = system(8, 1);
            let pool = FifoPool::new();
            (0..200).for_each(|v| pool.push(v));
            let (items, started) = (AtomicU64::new(0), Default::default());
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                drain.run(&Tagged::default(), &sys, &pool, 3, |_, _, _| {
                    run(&items, &started)
                });
            }));
            assert_eq!(payload(caught), "the caller's item", "{drain:?}");
            assert_eq!(pool.pending(), 0, "{drain:?}: the peers drained the rest");
            assert_eq!(items.load(Ordering::Relaxed), 199, "{drain:?}");
        }
        let (items, started) = (AtomicU64::new(0), Default::default());
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_for(&Tagged::default(), 3, 200, |_, _| run(&items, &started));
        }));
        assert_eq!(payload(caught), "the caller's item", "parallel_for");
        assert!(
            items.load(Ordering::Relaxed) > 0,
            "the peers ran their chunks"
        );
    }

    #[test]
    fn sched_counters_accumulate_and_drain() {
        let _ = take_sched_counters(); // reset cross-test residue
        fold_sched_counters(&PoolCounters {
            steals: 3,
            steal_fails: 1,
            bucket_advances: 2,
            parked_wakeups: 5,
        });
        fold_sched_counters(&PoolCounters {
            steals: 1,
            ..PoolCounters::default()
        });
        let got = take_sched_counters();
        assert_eq!(got.steals, 4);
        assert_eq!(got.steal_fails, 1);
        assert_eq!(got.bucket_advances, 2);
        assert_eq!(got.parked_wakeups, 5);
        assert_eq!(take_sched_counters(), PoolCounters::default());
    }

    #[test]
    fn pool_counters_merge_sums_every_field_in_declaration_order() {
        let a = PoolCounters {
            steals: 1,
            steal_fails: 2,
            bucket_advances: 3,
            parked_wakeups: 4,
        };
        let mut m = a;
        m.merge(&PoolCounters::from_values(a.values().map(|v| v * 100)));
        assert_eq!(
            m,
            PoolCounters {
                steals: 101,
                steal_fails: 202,
                bucket_advances: 303,
                parked_wakeups: 404,
            }
        );
        assert_eq!(
            PoolCounters::NAMES,
            ["steals", "steal_fails", "bucket_advances", "parked_wakeups"]
        );
        assert_eq!(a.values(), [1, 2, 3, 4]);
    }
}
