//! Crash-recovery harness.
//!
//! Drives the full loop the checkpointing subsystem promises: run a
//! checkpointed algorithm under a seeded [`FaultKind::Crash`] plan until
//! the whole run dies mid-algorithm, discard the in-memory system (the
//! volatile state dies with the "process"), rebuild from the graph, load
//! the latest valid snapshot, resume — and compare the final answer
//! bitwise against an uninterrupted baseline. BFS, WCC and both SSSP
//! queue disciplines converge to unique fixpoints, so the comparison is
//! exact, not approximate.
//!
//! [`FaultKind::Crash`]: tufast_txn::FaultKind::Crash
//!
//! The recovery-matrix integration test also corrupts and truncates
//! snapshot generations to prove the fallback ladder: corrupt latest →
//! previous generation (one epoch of progress lost, no wrong answers);
//! all generations invalid → clean cold restart.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tufast::par::{PoolCounters, WorkPool};
use tufast::{StealPool, TuFast};
use tufast_algos::checkpoint::{Ckpt, CkptReport};
use tufast_algos::{bfs, setup, sssp, wcc};
use tufast_graph::snapshot::{load, SnapshotError, SnapshotStore};
use tufast_graph::{Graph, GraphBuilder};
use tufast_txn::{is_injected_crash, FaultPlan, FaultSpec, TxnObserver, TxnSystem};

/// Which checkpointed algorithm a recovery run exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryAlgo {
    /// Breadth-first search from vertex 0.
    Bfs,
    /// Weakly connected components.
    Wcc,
    /// Bellman-Ford (FIFO queue) from vertex 0. Needs edge weights.
    SsspFifo,
    /// SPFA (priority queue) from vertex 0. Needs edge weights.
    SsspPriority,
}

impl RecoveryAlgo {
    /// All algorithms in the matrix.
    pub const ALL: [RecoveryAlgo; 4] = [
        RecoveryAlgo::Bfs,
        RecoveryAlgo::Wcc,
        RecoveryAlgo::SsspFifo,
        RecoveryAlgo::SsspPriority,
    ];

    /// Snapshot-store prefix / report label.
    pub fn label(self) -> &'static str {
        match self {
            RecoveryAlgo::Bfs => "bfs",
            RecoveryAlgo::Wcc => "wcc",
            RecoveryAlgo::SsspFifo => "sssp-fifo",
            RecoveryAlgo::SsspPriority => "sssp-priority",
        }
    }
}

/// What [`crash_and_recover`] observed.
#[derive(Debug)]
pub struct RecoveryOutcome {
    /// Result of the uninterrupted (fault-free) run.
    pub baseline: Vec<u64>,
    /// Result after the crash/recovery (or of the survived run).
    pub final_result: Vec<u64>,
    /// Whether the seeded crash actually fired.
    pub crashed: bool,
    /// Whether recovery found no valid snapshot and restarted from
    /// scratch (crash before the first epoch closed).
    pub cold_restart: bool,
    /// Checkpoint counters of the recovery (or survived) run.
    pub report: CkptReport,
}

/// Run `algo` over `g` once without checkpointing or faults.
pub fn baseline_result(algo: RecoveryAlgo, g: &Graph, threads: usize) -> Vec<u64> {
    let (result, _) = run_on(algo, g, threads, None, |_| None).expect("only a resume can fail");
    result
}

/// Build a fresh system for `algo` over `g` (optionally under a fault
/// plan) and run it checkpointed.
pub fn run_ckpt(
    algo: RecoveryAlgo,
    g: &Graph,
    threads: usize,
    store: &SnapshotStore,
    every_items: u64,
    resume: bool,
    plan: Option<Arc<FaultPlan>>,
) -> Result<(Vec<u64>, CkptReport), SnapshotError> {
    let ckpt = Ckpt {
        store,
        every_items,
        resume,
    };
    run_on(algo, g, threads, Some(ckpt), |sys| {
        sys.set_fault_plan(plan);
        None
    })
}

/// Build a fresh system for `algo` over `g`, apply `prepare` to it (arm a
/// fault plan, keep the cancel token) and run the algorithm's one driver
/// on its default pool, checkpointing as `ckpt` says. A [`StaleWatch`]
/// that `prepare` returns observes the system and the pool.
pub fn run_on(
    algo: RecoveryAlgo,
    g: &Graph,
    threads: usize,
    ckpt: Option<Ckpt<'_>>,
    prepare: impl FnOnce(&Arc<TxnSystem>) -> Option<Arc<StaleWatch>>,
) -> Result<(Vec<u64>, CkptReport), SnapshotError> {
    // Each arm builds its own system: prepare it, and watch it if asked.
    let prepare = |sys: &Arc<TxnSystem>| {
        let watch = prepare(sys);
        if let Some(w) = &watch {
            sys.set_observer(Some(Arc::clone(w) as Arc<dyn TxnObserver>));
        }
        watch
    };
    let steal = || StealPool::new(threads);
    match algo {
        RecoveryAlgo::Bfs => {
            let built = setup(g, bfs::BfsSpace::alloc);
            let watch = prepare(&built.sys);
            let sched = TuFast::new(Arc::clone(&built.sys));
            let pool = Watched::new(steal(), &watch);
            bfs::parallel_on(g, &sched, &built.sys, &built.space, 0, threads, &pool, ckpt)
        }
        RecoveryAlgo::Wcc => {
            let built = setup(g, wcc::WccSpace::alloc);
            let watch = prepare(&built.sys);
            let sched = TuFast::new(Arc::clone(&built.sys));
            let pool = Watched::new(steal(), &watch);
            wcc::parallel_on(g, &sched, &built.sys, &built.space, threads, &pool, ckpt)
        }
        RecoveryAlgo::SsspFifo | RecoveryAlgo::SsspPriority => {
            let built = setup(g, sssp::SsspSpace::alloc);
            let watch = prepare(&built.sys);
            let sched = TuFast::new(Arc::clone(&built.sys));
            let (sys, space) = (&built.sys, &built.space);
            if algo == RecoveryAlgo::SsspFifo {
                let pool = Watched::new(steal(), &watch);
                sssp::parallel_on(g, &sched, sys, space, 0, threads, &pool, ckpt)
            } else {
                let pool = Watched::new(sssp::bucket_pool(g), &watch);
                sssp::parallel_on(g, &sched, sys, space, 0, threads, &pool, ckpt)
            }
        }
    }
}

/// A weighted two-way star on `n` vertices whose first `clique` leaves are
/// also pairwise connected: the duplicate-heavy case for queue-driven
/// relaxation. The hub's spokes are long and the clique's edges short, so
/// distances (and labels) reach every clique member once per neighbour —
/// each an improvement that queues the member again — and the hub once
/// per leaf; every vertex has an out-edge.
pub fn star_plus_clique(n: u32, clique: u32) -> Graph {
    assert!(n >= 1 && clique < n);
    let mut builder = GraphBuilder::new(n as usize);
    for v in 1..n {
        builder.add_weighted_edge(0, v, 1000 + v);
        builder.add_weighted_edge(v, 0, 1 + v % 7);
    }
    for u in 1..=clique {
        for v in 1..=clique {
            if u != v {
                builder.add_weighted_edge(u, v, 1 + (u * 31 + v * 17) % 23);
            }
        }
    }
    builder.build()
}

/// Counts **transaction-free items** — pool items that ended without a
/// transaction: stale, unreached, or with every neighbour settled
/// (DESIGN.md §7) — and runs `action` at every item done from the point
/// where `after` of them were seen. With an idempotent action that stops a
/// run *after* such items whatever the thread timing: cancel the job's
/// token (each lane stops at its next dequeue), or arm a fault plan's
/// crash (each lane dies at its next crash probe, after its item in
/// flight).
///
/// An item that opens no transaction is invisible to an observer, so the
/// watch counts at both ends: items done at the pool ([`run_on`] wraps the
/// pool of a run whose `prepare` returns the watch) minus the commits it
/// observes. A commit is observed before its item is done, so the
/// difference can only under-count, and the tests ask for "at least".
pub struct StaleWatch {
    dones: AtomicU64,
    commits: AtomicU64,
    /// The largest difference seen at an item's end.
    free: AtomicU64,
    after: u64,
    action: Box<dyn Fn() + Send + Sync>,
}

impl StaleWatch {
    /// Run `action` once `after` transaction-free items were seen.
    pub fn after(after: u64, action: impl Fn() + Send + Sync + 'static) -> Arc<Self> {
        Arc::new(StaleWatch {
            dones: AtomicU64::new(0),
            commits: AtomicU64::new(0),
            free: AtomicU64::new(0),
            after,
            action: Box::new(action),
        })
    }

    /// Transaction-free items seen so far.
    pub fn txn_free_items(&self) -> u64 {
        self.free.load(Ordering::Acquire)
    }

    fn item_done(&self) {
        let dones = self.dones.fetch_add(1, Ordering::AcqRel) + 1;
        let free = dones.saturating_sub(self.commits.load(Ordering::Acquire));
        if self.free.fetch_max(free, Ordering::AcqRel).max(free) >= self.after {
            (self.action)();
        }
    }
}

impl TxnObserver for StaleWatch {
    fn commit(&self, _worker: u32, _ticket: u64) {
        self.commits.fetch_add(1, Ordering::AcqRel);
    }
}

/// `pool`, reporting every item done to `watch` if there is one. An
/// action that arms a crash kills the run at the drain's next crash
/// probe, right after the item that triggered it: the probe sits between
/// items, so a run with no transaction left (BFS on a star, once the hub
/// is scanned) still dies there.
struct Watched<'w, P> {
    pool: P,
    watch: Option<&'w StaleWatch>,
}

impl<'w, P> Watched<'w, P> {
    fn new(pool: P, watch: &'w Option<Arc<StaleWatch>>) -> Self {
        Watched {
            pool,
            watch: watch.as_deref(),
        }
    }
}

impl<P: WorkPool> WorkPool for Watched<'_, P> {
    fn push(&self, v: u32) {
        self.pool.push(v);
    }

    fn push_keyed(&self, v: u32, key: u64) {
        self.pool.push_keyed(v, key);
    }

    fn push_all<I: IntoIterator<Item = (u32, u64)>>(&self, items: I) {
        self.pool.push_all(items);
    }

    fn pop(&self) -> Option<u32> {
        self.pool.pop()
    }

    fn pending(&self) -> usize {
        self.pool.pending()
    }

    fn done(&self) {
        self.pool.done();
        if let Some(watch) = self.watch {
            watch.item_done();
        }
    }

    fn quiescent(&self) -> bool {
        self.pool.quiescent()
    }

    fn park_idle(&self) {
        self.pool.park_idle();
    }

    fn interrupt(&self) {
        self.pool.interrupt();
    }

    fn pending_items(&self) -> Vec<(u32, u64)> {
        self.pool.pending_items()
    }

    fn counters(&self) -> PoolCounters {
        self.pool.counters()
    }
}

/// The full crash-recovery loop for one `(algorithm, crash site)` cell.
///
/// 1. Uninterrupted baseline (separate system, no store).
/// 2. Fresh checkpointed run under `spec`'s seeded crash. If the crash
///    fires, the panic is caught ([`is_injected_crash`] verified — any
///    other panic re-raises) and the whole in-memory system is dropped.
/// 3. A rebuilt system resumes from the latest valid snapshot in `dir`
///    (falling back to a cold restart when no epoch had closed yet) with
///    faults disabled, and runs to completion.
pub fn crash_and_recover(
    algo: RecoveryAlgo,
    g: &Graph,
    threads: usize,
    every_items: u64,
    spec: FaultSpec,
    dir: &Path,
) -> Result<RecoveryOutcome, SnapshotError> {
    let baseline = baseline_result(algo, g, threads);
    let store = SnapshotStore::open(dir, algo.label())?;
    let plan = FaultPlan::new(spec);
    let crashed_run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_ckpt(algo, g, threads, &store, every_items, false, Some(plan))
    }));
    let payload = match crashed_run {
        Ok(Ok((final_result, report))) => {
            // The probe never fired (run shorter than the seeded site).
            return Ok(RecoveryOutcome {
                baseline,
                final_result,
                crashed: false,
                cold_restart: false,
                report,
            });
        }
        Ok(Err(e)) => return Err(e),
        Err(payload) => payload,
    };
    if !is_injected_crash(payload.as_ref()) {
        std::panic::resume_unwind(payload);
    }
    // The system (and all volatile state) died with the run. Reopen the
    // store as a fresh process would and resume on a rebuilt system.
    let store = SnapshotStore::open(dir, algo.label())?;
    let mut cold_restart = false;
    let (final_result, report) = match run_ckpt(algo, g, threads, &store, every_items, true, None) {
        Ok(out) => out,
        Err(SnapshotError::NoValidSnapshot) => {
            cold_restart = true;
            run_ckpt(algo, g, threads, &store, every_items, false, None)?
        }
        Err(e) => return Err(e),
    };
    Ok(RecoveryOutcome {
        baseline,
        final_result,
        crashed: true,
        cold_restart,
        report,
    })
}

/// Forge the on-disk residue of a process dying *inside*
/// [`SnapshotStore::write`]'s temp window: the next rotation slot's
/// `.tmp` file exists (torn to half length when `torn`, fully written
/// when not — the crash landed before the rename either way) while both
/// generation slots still hold whatever they held before the write
/// started. Recovery must ignore the temp file entirely and fall back to
/// the newest durable generation.
pub fn forge_write_temp_crash(store: &SnapshotStore, torn: bool) -> std::io::Result<()> {
    let source = latest_valid_slot(store).expect("need one durable generation to forge from");
    let bytes = std::fs::read(store.generation_path(source))?;
    let len = if torn { bytes.len() / 2 } else { bytes.len() };
    std::fs::write(store.temp_path(1 - source), &bytes[..len])
}

/// Flip one byte in the middle of generation `slot`, simulating on-disk
/// corruption. The CRC layer must reject the file afterwards.
pub fn corrupt_generation(store: &SnapshotStore, slot: usize) -> std::io::Result<()> {
    let path = store.generation_path(slot);
    let mut bytes = std::fs::read(&path)?;
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&path, bytes)
}

/// Truncate generation `slot` to half its length, simulating a torn
/// write that `rename` atomicity normally prevents.
pub fn truncate_generation(store: &SnapshotStore, slot: usize) -> std::io::Result<()> {
    let path = store.generation_path(slot);
    let bytes = std::fs::read(&path)?;
    std::fs::write(&path, &bytes[..bytes.len() / 2])
}

/// The slot holding the newest *valid* snapshot, if any.
pub fn latest_valid_slot(store: &SnapshotStore) -> Option<usize> {
    let epoch_of = |slot: usize| load(&store.generation_path(slot)).ok().map(|s| s.epoch);
    match (epoch_of(0), epoch_of(1)) {
        (Some(a), Some(b)) => Some(usize::from(b > a)),
        (Some(_), None) => Some(0),
        (None, Some(_)) => Some(1),
        (None, None) => None,
    }
}
