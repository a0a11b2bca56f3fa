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

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tufast::{StealPool, TuFast};
use tufast_algos::checkpoint::{Ckpt, CkptReport};
use tufast_algos::{bfs, setup, sssp, wcc};
use tufast_graph::snapshot::{load, SnapshotError, SnapshotStore};
use tufast_graph::{Graph, GraphBuilder};
use tufast_htm::witness::{LockClass, Mutex, MutexGuard};
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
    let (result, _) = run_on(algo, g, threads, None, |_| {}).expect("only a resume can fail");
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
    run_on(algo, g, threads, Some(ckpt), |sys| sys.set_fault_plan(plan))
}

/// Build a fresh system for `algo` over `g`, apply `prepare` to it (arm a
/// fault plan, attach an observer, keep the cancel token) and run the
/// algorithm's one driver on its default pool, checkpointing as `ckpt`
/// says.
pub fn run_on(
    algo: RecoveryAlgo,
    g: &Graph,
    threads: usize,
    ckpt: Option<Ckpt<'_>>,
    prepare: impl FnOnce(&Arc<TxnSystem>),
) -> Result<(Vec<u64>, CkptReport), SnapshotError> {
    let steal = || StealPool::new(threads);
    match algo {
        RecoveryAlgo::Bfs => {
            let built = setup(g, bfs::BfsSpace::alloc);
            prepare(&built.sys);
            let sched = TuFast::new(Arc::clone(&built.sys));
            bfs::parallel_on(
                g,
                &sched,
                &built.sys,
                &built.space,
                0,
                threads,
                &steal(),
                ckpt,
            )
        }
        RecoveryAlgo::Wcc => {
            let built = setup(g, wcc::WccSpace::alloc);
            prepare(&built.sys);
            let sched = TuFast::new(Arc::clone(&built.sys));
            wcc::parallel_on(g, &sched, &built.sys, &built.space, threads, &steal(), ckpt)
        }
        RecoveryAlgo::SsspFifo | RecoveryAlgo::SsspPriority => {
            let built = setup(g, sssp::SsspSpace::alloc);
            prepare(&built.sys);
            let sched = TuFast::new(Arc::clone(&built.sys));
            let (sys, space) = (&built.sys, &built.space);
            if algo == RecoveryAlgo::SsspFifo {
                sssp::parallel_on(g, &sched, sys, space, 0, threads, &steal(), ckpt)
            } else {
                let buckets = sssp::bucket_pool(g);
                sssp::parallel_on(g, &sched, sys, space, 0, threads, &buckets, ckpt)
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

/// Observer that counts **stale-item skips** and runs `action` at every
/// commit from the point where enough of them (and enough commits) have
/// happened. With an idempotent action (cancel the job's token, arm a
/// fault plan's crash) that stops a run *after* skips whatever the thread
/// timing.
///
/// A one-read commit alone does not identify a skip: a scan whose
/// neighbours are all settled also commits after reading `value[v]`. So
/// the watch keeps its own copy of the scan watermarks — per vertex, the
/// lowest value a committed attempt began by reading there — and a skip is
/// a committed attempt whose only operation read a reached
/// (non-`u64::MAX`) value at or above it: the item found `v` already
/// scanned at that value. (A value lowered between an item's peek and its
/// transaction puts the real watermark above what is seen here; that race
/// can only add a skip, and the tests ask for "at least".)
pub struct StaleWatch {
    seen: Mutex<Seen>,
    skips: AtomicU64,
    commits: AtomicU64,
    after: (u64, u64),
    action: Box<dyn Fn() + Send + Sync>,
}

#[derive(Default)]
struct Seen {
    /// Per worker: operations in the open attempt, and the vertex and
    /// value it read if its first operation was a read.
    open: HashMap<u32, (u32, Option<(u32, u64)>)>,
    /// Per vertex: the lowest first-read value of a committed attempt.
    scanned_at: HashMap<u32, u64>,
}

impl StaleWatch {
    /// Run `action` once `skips` skips and `commits` commits were seen.
    pub fn after(skips: u64, commits: u64, action: impl Fn() + Send + Sync + 'static) -> Arc<Self> {
        Arc::new(StaleWatch {
            seen: Mutex::new(LockClass::RecoverySeen, Seen::default()),
            skips: AtomicU64::new(0),
            commits: AtomicU64::new(0),
            after: (skips, commits),
            action: Box::new(action),
        })
    }

    /// Start observing `sys`.
    pub fn attach(self: &Arc<Self>, sys: &TxnSystem) {
        sys.set_observer(Some(Arc::clone(self) as Arc<dyn TxnObserver>));
    }

    /// Stale-item skips committed so far.
    pub fn skips(&self) -> u64 {
        self.skips.load(Ordering::Acquire)
    }

    fn seen(&self) -> MutexGuard<'_, Seen> {
        // A seeded crash unwinds through observer callbacks by design.
        self.seen.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl TxnObserver for StaleWatch {
    fn attempt_begin(&self, worker: u32) {
        self.seen().open.insert(worker, (0, None));
    }

    fn op_read(&self, worker: u32, v: u32, _addr: tufast_htm::Addr, val: u64) {
        let mut seen = self.seen();
        let (ops, first) = seen.open.entry(worker).or_default();
        if *ops == 0 {
            *first = Some((v, val));
        }
        *ops += 1;
    }

    fn op_write(&self, worker: u32, _v: u32, _addr: tufast_htm::Addr, _val: u64) {
        self.seen().open.entry(worker).or_default().0 += 1;
    }

    fn commit(&self, worker: u32, _ticket: u64) {
        let skipped = {
            let mut seen = self.seen();
            match seen.open.remove(&worker) {
                Some((ops, Some((v, val)))) if val != u64::MAX => {
                    let mark = seen.scanned_at.entry(v).or_insert(u64::MAX);
                    let covered = *mark <= val;
                    *mark = (*mark).min(val);
                    ops == 1 && covered
                }
                _ => false,
            }
        };
        let skips = self.skips.fetch_add(u64::from(skipped), Ordering::AcqRel) + u64::from(skipped);
        let commits = self.commits.fetch_add(1, Ordering::AcqRel) + 1;
        if skips >= self.after.0 && commits >= self.after.1 {
            (self.action)();
        }
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
