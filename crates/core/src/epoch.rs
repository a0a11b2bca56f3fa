//! Epoch-based checkpointing: a quiescence barrier over the work-pool
//! drivers so a snapshot observes a transaction-consistent cut.
//!
//! ## Protocol
//!
//! [`parallel_drain_epochs`] runs the loop of
//! [`parallel_drain`](crate::par::parallel_drain) with an [`Epochs`]
//! barrier that counts processed items. When the count crosses the epoch
//! target, the thread that crossed
//! it elects itself *coordinator* (a CAS on the pause flag — exactly one
//! winner). The protocol then proceeds in a strict order:
//!
//! 1. **Peers park first.** Every other thread observes the pause flag
//!    *between* items — never while holding locks or mid-transaction — and
//!    parks. Threads that drained out decrement the live count on exit
//!    (via a drop guard, so panics count too). The coordinator waits until
//!    `parked == active - 1`.
//! 2. **Then the serial token.** With all peers parked the coordinator
//!    [holds](tufast_txn::TxnSystem::hold_serial) the global serial token
//!    (the router's stop-the-world word) under the reserved
//!    [`COORDINATOR_CLAIM`]. Any in-flight serial rung holds the token only
//!    while committing, so this wait is bounded; conversely new
//!    transactions gate on the token at entry, so nothing starts while the
//!    checkpoint runs.
//! 3. **Checkpoint under quiescence.** The hook runs while nothing is in
//!    flight: every popped item has fully processed (its re-pushes are in
//!    the pool), so `(vertex state, frontier)` is a consistent resumable
//!    cut. The hook may freely read transactional memory directly and
//!    snapshot the pool via
//!    [`WorkPool::pending_items`](crate::par::WorkPool::pending_items).
//! 4. **Release and resume.** Token released, epoch bumped, pause flag
//!    cleared; parked peers continue. A panicking hook releases the token
//!    and clears the flag too — the peers resume, and the panic re-raises
//!    when the drain joins.
//!
//! The order of 1 and 2 is load-bearing: taking the token *first* would
//! deadlock — a peer spinning at the `execute` entry gate is not parked
//! and never will be.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

use tufast_txn::commit::relax;
use tufast_txn::{FaultHandle, GraphScheduler, TxnSystem};

use crate::par::{drain, WorkPool};

/// The serial-token value reserved for the epoch coordinator. Worker
/// claims are `worker_id + 1`, far below this.
pub const COORDINATOR_CLAIM: u64 = u64::MAX;

/// Shared state of one epoch-checkpointed drain: the barrier, and the
/// system and hook its coordinator checkpoints with.
pub(crate) struct Epochs<'a> {
    /// Set by the coordinator-elect; peers park while it is up.
    pause: AtomicBool,
    /// Peers currently parked at the barrier.
    parked: AtomicUsize,
    /// Worker threads still running (a [`Lane`] leaves on drop).
    active: AtomicUsize,
    /// Items fully processed so far.
    items_done: AtomicU64,
    /// Item count at which the next epoch closes (0 = never).
    next_target: AtomicU64,
    /// The epoch now accumulating. Snapshots are stamped with the epoch
    /// they close.
    epoch: AtomicU64,
    sys: &'a TxnSystem,
    checkpoint: &'a (dyn Fn(u64) + Sync),
}

/// One worker's place in an epoch-checkpointed drain, from
/// [`Epochs::enter`] to its drop: it parks the worker at the barrier,
/// reports its finished items, and probes the worker's lane for a seeded
/// crash between them.
pub(crate) struct Lane<'a> {
    epochs: &'a Epochs<'a>,
    faults: FaultHandle,
}

impl Lane<'_> {
    /// Park while the coordinator checkpoints. Called only between items,
    /// holding nothing.
    pub(crate) fn park_if_paused(&self) {
        self.epochs.park_if_paused();
    }

    /// After finishing an item: count it, close the epoch if it crossed
    /// the target, then pass the crash site. With a crash plan armed the
    /// run dies here ([`FaultHandle::crash_point`]): between two items,
    /// holding no lock and with no transaction open, whether or not the
    /// items opened one — a model of process death for crash recovery.
    pub(crate) fn item_done(&mut self) {
        self.epochs.maybe_coordinate();
        self.faults.crash_point();
    }
}

impl Drop for Lane<'_> {
    fn drop(&mut self) {
        // The worker stops counting as live, a panic included, so a
        // coordinator waiting for `parked == active - 1` observes the
        // departure instead of hanging. Release publishes this thread's
        // final item work to the coordinator, whose park-wait loads
        // `active` with Acquire.
        self.epochs.active.fetch_sub(1, Ordering::Release);
    }
}

/// Clears the pause flag on drop, so parked peers resume however the
/// coordinator leaves — its checkpoint hook may panic.
struct Reopen<'a>(&'a AtomicBool);

impl Drop for Reopen<'_> {
    fn drop(&mut self) {
        // Release publishes the checkpoint (and the next epoch) to the
        // peers' Acquire re-check of the flag.
        self.0.store(false, Ordering::Release);
    }
}

impl<'a> Epochs<'a> {
    fn new(
        threads: usize,
        every_items: u64,
        start_epoch: u64,
        sys: &'a TxnSystem,
        checkpoint: &'a (dyn Fn(u64) + Sync),
    ) -> Self {
        Epochs {
            pause: AtomicBool::new(false),
            parked: AtomicUsize::new(0),
            active: AtomicUsize::new(threads),
            items_done: AtomicU64::new(0),
            next_target: AtomicU64::new(every_items),
            epoch: AtomicU64::new(start_epoch),
            sys,
            checkpoint,
        }
    }

    /// Worker `lane` of the `threads` starts draining; it stops counting
    /// as live when its [`Lane`] drops.
    pub(crate) fn enter(&self, lane: u32) -> Lane<'_> {
        Lane {
            epochs: self,
            faults: self.sys.fault_handle(lane),
        }
    }

    /// Park until the coordinator reopens the world.
    fn park_if_paused(&self) {
        // This check runs once per drained item: Acquire/Release is all
        // the hand-off needs, and it keeps SeqCst fences off the hot
        // path. The Release increment publishes this peer's finished
        // item to the coordinator (which Acquire-loads `parked`); the
        // Acquire re-check of `pause` pairs with the coordinator's
        // Release store, making the checkpoint visible before resuming.
        if !self.pause.load(Ordering::Acquire) {
            return;
        }
        self.parked.fetch_add(1, Ordering::Release);
        let mut turn = 0u32;
        while self.pause.load(Ordering::Acquire) {
            relax(turn);
            turn = turn.wrapping_add(1);
        }
        self.parked.fetch_sub(1, Ordering::Release);
    }

    /// After finishing an item: count it, and close the epoch if this
    /// item crossed the target and no other thread got there first.
    fn maybe_coordinate(&self) {
        // Relaxed is enough for the counters: they only decide *when* to
        // try closing an epoch, and the pause CAS is the real gate. A
        // stale `next_target` in a losing thread at worst delays its
        // next attempt by one item.
        let done = self.items_done.fetch_add(1, Ordering::Relaxed) + 1;
        let every = self.next_target.load(Ordering::Relaxed);
        if every == 0 || done < every {
            return;
        }
        // Elect exactly one coordinator; losers just park at the barrier.
        // AcqRel: success synchronizes with the previous coordinator's
        // Release un-pause, so `epoch`/`next_target` reads below are
        // ordered without SeqCst.
        if self
            .pause
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return;
        }
        let _reopen = Reopen(&self.pause);
        // 1. Wait for every other live thread to park or exit. Peers park
        //    only between items, so when the counts meet, nothing is
        //    mid-transaction.
        let mut turn = 0u32;
        while self.parked.load(Ordering::Acquire) < self.active.load(Ordering::Acquire) - 1 {
            relax(turn);
            turn = turn.wrapping_add(1);
        }
        // 2. Take the serial token (an in-flight serial rung finishes
        //    first; nothing new can start while we hold it).
        let token = self.sys.hold_serial(COORDINATOR_CLAIM);
        // 3. Checkpoint under full quiescence. Only the elected
        //    coordinator ever touches `epoch`/`next_target`, and
        //    coordinators are serialized by the pause CAS above, so
        //    Relaxed suffices; the reopening Release publishes both.
        let epoch = self.epoch.load(Ordering::Relaxed);
        (self.checkpoint)(epoch);
        // 4. Reopen the world: the token now, the pause flag on return.
        drop(token);
        self.epoch.store(epoch + 1, Ordering::Relaxed);
        let done_now = self.items_done.load(Ordering::Relaxed);
        self.next_target.store(
            done_now.max(every).saturating_add(every.max(1)),
            Ordering::Relaxed,
        );
    }
}

/// [`parallel_drain`](crate::par::parallel_drain) with epoch-based
/// checkpointing: every `every_items` fully-processed items, all threads
/// quiesce and `checkpoint(epoch)` runs while nothing is in flight.
/// Returns the workers and the number of items they processed.
///
/// * `every_items == 0` never checkpoints (the items are still counted).
/// * `start_epoch` numbers the first snapshot — a recovered run passes
///   `recovered_epoch + 1` so generations keep advancing.
/// * `checkpoint` runs on whichever worker thread closed the epoch, with
///   the global serial token held under [`COORDINATOR_CLAIM`]; it may read
///   transactional memory directly and snapshot the pool's frontier.
///
/// Worker panics (including injected crashes) propagate after all threads
/// join, exactly like `parallel_drain`; a panicking thread deregisters
/// itself so survivors and the coordinator never hang on it.
#[allow(clippy::too_many_arguments)]
pub fn parallel_drain_epochs<S, P, F, C>(
    sched: &S,
    sys: &TxnSystem,
    pool: &P,
    threads: usize,
    every_items: u64,
    start_epoch: u64,
    checkpoint: C,
    f: F,
) -> (Vec<S::Worker>, u64)
where
    S: GraphScheduler,
    P: WorkPool,
    F: Fn(&mut S::Worker, &P, u32) + Sync,
    C: Fn(u64) + Sync,
{
    let threads = threads.max(1);
    let epochs = Epochs::new(threads, every_items, start_epoch, sys, &checkpoint);
    let workers = drain(sched, pool, threads, Some(&epochs), f);
    // The join ordered every worker's count before this read.
    (workers, epochs.items_done.load(Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::FifoPool;
    use std::sync::Arc;
    use tufast_htm::MemoryLayout;
    use tufast_txn::{TwoPhaseLocking, TxnWorker};

    fn system(words: u64, vertices: usize) -> (Arc<TxnSystem>, tufast_htm::MemRegion) {
        let mut layout = MemoryLayout::new();
        let data = layout.alloc("data", words);
        (TxnSystem::with_defaults(vertices, layout), data)
    }

    /// Drain 400 tokens on 4 threads, an epoch every `every` items from
    /// `start`; the epochs the hook saw close.
    fn epochs_closed(every: u64, start: u64) -> Vec<u64> {
        let (sys, data) = system(8, 1);
        let sched = TwoPhaseLocking::new(Arc::clone(&sys));
        let pool = FifoPool::new();
        for v in 0..400u32 {
            pool.push(v);
        }
        let epochs = std::sync::Mutex::new(Vec::new());
        let (_, items) = parallel_drain_epochs(
            &sched,
            &sys,
            &pool,
            4,
            every,
            start,
            |epoch| {
                // Under quiescence the serial token is ours.
                assert_eq!(sys.mem().load_direct(sys.serial_token()), COORDINATOR_CLAIM);
                epochs.lock().unwrap().push(epoch);
            },
            |w, _pool, _v| {
                w.execute(2, &mut |ops| {
                    let x = ops.read(0, data.addr(0))?;
                    ops.write(0, data.addr(0), x + 1)
                });
            },
        );
        assert_eq!(sys.mem().load_direct(data.addr(0)), 400);
        assert_eq!(items, 400, "every item is counted, whatever the interval");
        assert_eq!(sys.mem().load_direct(sys.serial_token()), 0);
        epochs.into_inner().unwrap()
    }

    #[test]
    fn checkpoints_fire_and_result_matches_plain_drain() {
        let epochs = epochs_closed(50, 7);
        assert!(!epochs.is_empty(), "at least one epoch must close");
        // Epochs number consecutively from start_epoch.
        let expect: Vec<u64> = (7..7 + epochs.len() as u64).collect();
        assert_eq!(epochs, expect);
    }

    #[test]
    fn zero_interval_never_checkpoints() {
        assert_eq!(epochs_closed(0, 0), []);
    }

    #[test]
    fn a_panicking_checkpoint_reraises_and_releases_the_barrier() {
        use std::time::Duration;
        let (sys, data) = system(8, 1);
        let (done, drained) = std::sync::mpsc::channel();
        let run = Arc::clone(&sys);
        // On its own thread: a drain that hangs must fail the test, not
        // wedge it.
        std::thread::spawn(move || {
            let sched = TwoPhaseLocking::new(Arc::clone(&run));
            let pool = FifoPool::new();
            for v in 0..400u32 {
                pool.push(v);
            }
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                parallel_drain_epochs(
                    &sched,
                    &run,
                    &pool,
                    4,
                    50,
                    0,
                    |epoch| assert_ne!(epoch, 0, "the hook fails at the first epoch"),
                    |w, _pool, _v| {
                        w.execute(2, &mut |ops| {
                            let x = ops.read(0, data.addr(0))?;
                            ops.write(0, data.addr(0), x + 1)
                        });
                    },
                )
            }));
            let _ = done.send(caught.is_err());
        });
        let reraised = drained
            .recv_timeout(Duration::from_secs(60))
            .expect("the drain hung on the panicking hook");
        assert!(reraised, "the hook's panic must re-raise");
        assert_eq!(sys.mem().load_direct(sys.serial_token()), 0, "token leaked");
    }

    #[test]
    fn a_seeded_crash_lands_between_items_that_open_no_transaction() {
        use std::sync::atomic::AtomicU64;
        use tufast_txn::{is_injected_crash, FaultKind, FaultPlan, FaultSpec, CRASH_ANY_WORKER};
        let (sys, _) = system(8, 1);
        let plan = FaultPlan::new(FaultSpec {
            crash_worker: CRASH_ANY_WORKER,
            crash_at_probe: 10,
            ..FaultSpec::default()
        });
        sys.set_fault_plan(Some(Arc::clone(&plan)));
        let sched = TwoPhaseLocking::new(Arc::clone(&sys));
        let pool = FifoPool::new();
        for v in 0..100u32 {
            pool.push(v);
        }
        let items = AtomicU64::new(0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_drain_epochs(
                &sched,
                &sys,
                &pool,
                3,
                7,
                0,
                |_| {},
                |_, _, _| {
                    items.fetch_add(1, Ordering::Relaxed);
                },
            );
        }));
        let payload = caught.expect_err("the seeded crash never fired");
        assert!(is_injected_crash(payload.as_ref()));
        assert_eq!(plan.injected(FaultKind::Crash), 1);
        // The first lane to finish 10 items dies; each other lane dies
        // after at most one more item of its own.
        assert!(items.load(Ordering::Relaxed) <= 30, "the run went on");
        assert_eq!(sys.mem().load_direct(sys.serial_token()), 0, "token leaked");
    }

    #[test]
    fn checkpoint_sees_consistent_frontier() {
        // Each item < 64 pushes one child; under quiescence the pool's
        // pending count must equal the snapshot of queued items (nothing
        // in flight).
        let (sys, data) = system(8, 1);
        let sched = TwoPhaseLocking::new(Arc::clone(&sys));
        let pool = FifoPool::new();
        pool.push(0);
        parallel_drain_epochs(
            &sched,
            &sys,
            &pool,
            3,
            5,
            0,
            |_epoch| {
                let frontier = pool.pending_items();
                assert_eq!(frontier.len(), pool.pending(), "work in flight at barrier");
            },
            |w, pool, v| {
                w.execute(2, &mut |ops| {
                    let x = ops.read(0, data.addr(0))?;
                    ops.write(0, data.addr(0), x + 1)
                });
                if v < 64 {
                    pool.push(v + 1);
                }
            },
        );
        assert_eq!(pool.pending(), 0);
        assert_eq!(sys.mem().load_direct(data.addr(0)), 65);
    }
}
