//! Epoch checkpointing and crash recovery for the transactional algorithms.
//!
//! A BFS, Components or SSSP run is one value region plus a work queue
//! (paper Figure 3), so its resumable state is exactly `(values,
//! frontier)`: a snapshot holds the region as one section, `"values"`, and
//! the work-pool frontier as another, `"frontier"`, under the algorithm's
//! tag. Region layouts are carved before `TxnSystem::build` and
//! are identical across rebuilds of the same graph, so a snapshot restores
//! into a freshly built system and a resumed run continues
//! *mid-algorithm* instead of restarting.
//!
//! Handing a [`Ckpt`] to the `parallel_on` driver of [`bfs`](crate::bfs),
//! [`wcc`](crate::wcc) or [`sssp`](crate::sssp) wires this into
//! [`parallel_drain_epochs`](tufast::epoch::parallel_drain_epochs): every
//! epoch the coordinator quiesces the run and `(values, frontier)` is
//! written into a rotating [`SnapshotStore`]. Those three algorithms
//! converge to *unique* fixpoints under monotone relaxation, so crash →
//! recover → finish produces bitwise the same answer as an uninterrupted
//! run (the `tufast-check` recovery matrix proves it).

use std::sync::atomic::{AtomicU64, Ordering};

use tufast::epoch::parallel_drain_epochs;
use tufast::par::WorkPool;
use tufast_graph::snapshot::{Section, Snapshot, SnapshotError, SnapshotStore};
use tufast_htm::{MemRegion, TxMemory};
use tufast_txn::{AbortReason, GraphScheduler, JobAborted, TxnSystem};

/// Name of the section carrying the value region.
const VALUES_SECTION: &str = "values";

/// Name of the section carrying the work-pool frontier.
const FRONTIER_SECTION: &str = "frontier";

/// The snapshot of a `tag` run at `epoch`: the value region, and `frontier`
/// (from [`WorkPool::pending_items`]) as `(vertex, key)` word pairs.
fn snapshot(
    tag: &str,
    epoch: u64,
    mem: &TxMemory,
    value: &MemRegion<2>,
    frontier: &[(u32, u64)],
) -> Snapshot {
    let values = Section {
        name: VALUES_SECTION.to_string(),
        words: mem.snapshot_region(value),
    };
    let frontier = Section {
        name: FRONTIER_SECTION.to_string(),
        words: frontier
            .iter()
            .flat_map(|&(v, key)| [u64::from(v), key])
            .collect(),
    };
    Snapshot {
        algo: tag.to_string(),
        epoch,
        sections: vec![values, frontier],
    }
}

/// Decode the frontier section back into `(vertex, key)` pairs, each
/// vertex below `n`: region addressing is unchecked in release builds.
fn frontier_items(snap: &Snapshot, n: u64) -> Result<Vec<(u32, u64)>, SnapshotError> {
    let section = snap
        .section(FRONTIER_SECTION)
        .ok_or_else(|| SnapshotError::Format("missing frontier section".to_string()))?;
    if !section.words.len().is_multiple_of(2) {
        return Err(SnapshotError::Format(
            "frontier section length is odd".to_string(),
        ));
    }
    section
        .words
        .chunks_exact(2)
        .map(|pair| match u32::try_from(pair[0]) {
            Ok(v) if pair[0] < n => Ok((v, pair[1])),
            _ => Err(SnapshotError::Format(format!(
                "frontier vertex {} is out of range: the graph has {n} vertices",
                pair[0]
            ))),
        })
        .collect()
}

/// Resume from the newest valid snapshot in `store`: check that a `tag`
/// run over a graph of `value`'s size wrote it, restore
/// `value`, queue the frontier on `pool` and count the recovery in
/// `report`. Returns the epoch the next snapshot closes. A snapshot of
/// another algorithm or graph fails loudly, with nothing restored or
/// queued, instead of corrupting memory.
pub(crate) fn recover<P: WorkPool>(
    store: &SnapshotStore,
    mem: &TxMemory,
    tag: &str,
    value: &MemRegion<2>,
    pool: &P,
    report: &mut CkptReport,
) -> Result<u64, SnapshotError> {
    let loaded = store.load_latest()?;
    let snap = &loaded.snapshot;
    if snap.algo != tag {
        return Err(SnapshotError::Format(format!(
            "snapshot is for algorithm {:?}, expected {tag:?}",
            snap.algo
        )));
    }
    let values = snap
        .section(VALUES_SECTION)
        .ok_or_else(|| SnapshotError::Format(format!("missing section {VALUES_SECTION:?}")))?;
    if values.words.len() as u64 != value.len() {
        return Err(SnapshotError::Format(format!(
            "section {VALUES_SECTION:?} holds {} words, region needs {}",
            values.words.len(),
            value.len()
        )));
    }
    let frontier = frontier_items(snap, value.len())?;
    mem.fill_region_with(value, |i| values.words[i as usize]);
    // Consumed here: a frontier kept alive across the drain would sit in
    // the heap beside the watermarks.
    pool.push_all(frontier);
    report.recoveries = 1;
    report.snapshot_fallbacks = loaded.fallbacks;
    Ok(snap.epoch + 1)
}

/// How a `parallel_on` run checkpoints.
#[derive(Clone, Copy)]
pub struct Ckpt<'a> {
    /// Where the snapshots go, and where a resume reads the latest from.
    pub store: &'a SnapshotStore,
    /// Pool items between two snapshots; 0 writes none until a health stop
    /// (cancel or deadline) leaves its final one.
    pub every_items: u64,
    /// Start from the latest valid snapshot in `store` — written by a
    /// previous, possibly crashed, run of the *same algorithm over the same
    /// graph* — instead of from the initial values.
    pub resume: bool,
}

/// Checkpoint accounting from one `parallel_on` run: the only home of the
/// checkpoint and recovery counters.
#[derive(Clone, Debug, Default)]
pub struct CkptReport {
    /// Snapshots durably written.
    pub checkpoints_written: u64,
    /// Snapshot writes that failed (the run continues; the previous
    /// generation stays intact, so at most one epoch of progress is lost).
    pub checkpoint_failures: u64,
    /// 1 when this run resumed from a snapshot, 0 for a fresh start.
    pub recoveries: u64,
    /// Corrupt/torn newer generations skipped during recovery.
    pub snapshot_fallbacks: u64,
    /// Epoch of the last snapshot written, if any.
    pub last_epoch: Option<u64>,
    /// Why the health subsystem stopped this run early (cancel or
    /// deadline), or `None` for a run-to-completion.
    pub aborted: Option<AbortReason>,
    /// Pool items fully processed by this run — on an aborted run, the
    /// partial-progress figure carried into [`JobAborted`].
    pub items_done: u64,
    /// Final snapshots written while unwinding a health stop (at most one
    /// per run): the durable record of the aborted run's partial progress.
    pub final_snapshots: u64,
}

impl CkptReport {
    /// The typed abort error, when the health subsystem stopped this run.
    /// Callers that want `Result`-style handling match on this; the `Ok`
    /// payload still carries the partial state and this report.
    pub fn job_aborted(&self) -> Option<JobAborted> {
        self.aborted.map(|reason| JobAborted {
            reason,
            items_done: self.items_done,
        })
    }
}

/// Drive `pool` to quiescence with epoch checkpointing: every
/// `every_items` processed items the run quiesces and `(value, frontier)`
/// is written to `store` under `tag`, stamped with the closing epoch.
///
/// Write failures are *counted, not fatal*: the store's previous
/// generation is untouched, so a failed write costs at most one epoch of
/// recoverable progress, and the computation itself continues.
///
/// If the system's health token stops the job mid-drain (cancel or
/// deadline), the workers unwind cleanly, one *final* snapshot of `(value,
/// frontier)` is written under the post-join quiescence, and the stop is
/// recorded in `report.aborted` / `report.items_done` — so `resume` on a
/// later run continues from exactly where the cancelled run let go.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_checkpointed<S, P, F>(
    sched: &S,
    sys: &TxnSystem,
    pool: &P,
    threads: usize,
    ckpt: Ckpt<'_>,
    tag: &str,
    value: &MemRegion<2>,
    start_epoch: u64,
    report: &mut CkptReport,
    f: F,
) where
    S: GraphScheduler,
    P: WorkPool,
    F: Fn(&mut S::Worker, &P, u32) + Sync,
{
    let mem = sys.mem();
    // Called only under quiescence: by the epoch's coordinator, and after
    // the join.
    let write = |epoch: u64| {
        let frontier = pool.pending_items();
        ckpt.store
            .write(&snapshot(tag, epoch, mem, value, &frontier))
    };
    let written = AtomicU64::new(0);
    let failures = AtomicU64::new(0);
    // last epoch + 1; 0 means "none written yet".
    let last = AtomicU64::new(0);
    let (_, items) = parallel_drain_epochs(
        sched,
        sys,
        pool,
        threads,
        ckpt.every_items,
        start_epoch,
        |epoch| match write(epoch) {
            Ok(_) => {
                // Relaxed: the final reads below happen after the
                // drain's thread join, which already orders them.
                written.fetch_add(1, Ordering::Relaxed);
                last.store(epoch + 1, Ordering::Relaxed);
            }
            Err(_) => {
                failures.fetch_add(1, Ordering::Relaxed);
            }
        },
        f,
    );
    report.checkpoints_written += written.load(Ordering::Relaxed);
    report.checkpoint_failures += failures.load(Ordering::Relaxed);
    report.items_done += items;
    report.last_epoch = last.load(Ordering::Relaxed).checked_sub(1);
    if let Some(reason) = sys.health().reason() {
        // The drain unwound early. All workers have joined, so the pool is
        // quiescent and nothing is mid-transaction: capture one final
        // snapshot so the aborted run's partial progress is durable and
        // resumable. The next epoch number keeps generations advancing.
        report.aborted = Some(reason);
        let final_epoch = last.load(Ordering::Relaxed).max(start_epoch);
        match write(final_epoch) {
            Ok(_) => {
                report.final_snapshots += 1;
                report.last_epoch = Some(final_epoch);
            }
            Err(_) => report.checkpoint_failures += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::BfsSpace;
    use tufast::par::PriorityPool;
    use tufast_graph::gen;

    /// Snapshot `built`'s distances and `frontier` under `tag`.
    fn write_bfs(
        store: &SnapshotStore,
        built: &crate::AlgoSystem<BfsSpace>,
        tag: &str,
        epoch: u64,
        frontier: &[(u32, u64)],
    ) {
        let mem = built.sys.mem();
        let snap = snapshot(tag, epoch, mem, &built.space.dist, frontier);
        store.write(&snap).unwrap();
    }

    /// Resume `built`'s BFS from `store` onto a fresh keyed pool: the next
    /// epoch, the report and the pool.
    fn resume_bfs(
        store: &SnapshotStore,
        built: &crate::AlgoSystem<BfsSpace>,
    ) -> Result<(u64, CkptReport, PriorityPool), SnapshotError> {
        let pool = PriorityPool::new();
        let mut report = CkptReport::default();
        let (mem, dist) = (built.sys.mem(), &built.space.dist);
        let next = recover(store, mem, "bfs", dist, &pool, &mut report)?;
        Ok((next, report, pool))
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tufast-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn frontier_roundtrip() {
        let items = vec![(3u32, 7u64), (0, 0), (u32::MAX, u64::MAX)];
        let built = crate::setup(&gen::grid2d(2, 2), BfsSpace::alloc);
        let snap = snapshot("x", 0, built.sys.mem(), &built.space.dist, &items);
        assert_eq!(frontier_items(&snap, u64::MAX).unwrap(), items);
    }

    #[test]
    fn odd_frontier_rejected() {
        let snap = Snapshot {
            algo: "x".into(),
            epoch: 0,
            sections: vec![Section {
                name: FRONTIER_SECTION.into(),
                words: vec![1, 2, 3],
            }],
        };
        assert!(matches!(
            frontier_items(&snap, 16),
            Err(SnapshotError::Format(_))
        ));
    }

    #[test]
    fn capture_restore_roundtrip_through_store() {
        let g = gen::grid2d(6, 6);
        let built = crate::setup(&g, BfsSpace::alloc);
        let mem = built.sys.mem();
        for v in 0..g.num_vertices() as u64 {
            mem.store_direct(built.space.dist.addr(v), v * 3 + 1);
        }
        let dir = temp_dir("roundtrip");
        let store = SnapshotStore::open(&dir, "bfs").unwrap();
        write_bfs(&store, &built, "bfs", 4, &[(5, 0), (9, 1)]);

        // "Crash": rebuild the system from scratch, then recover.
        let rebuilt = crate::setup(&g, BfsSpace::alloc);
        let (next, report, pool) = resume_bfs(&store, &rebuilt).unwrap();
        assert_eq!(next, 5, "the next snapshot closes epoch 5");
        let mut queued = pool.pending_items();
        queued.sort_unstable();
        assert_eq!(queued, vec![(5, 0), (9, 1)]);
        assert_eq!((report.recoveries, report.snapshot_fallbacks), (1, 0));
        for v in 0..g.num_vertices() as u64 {
            assert_eq!(
                rebuilt.sys.mem().load_direct(rebuilt.space.dist.addr(v)),
                v * 3 + 1
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancelled_run_snapshots_partial_progress_and_resumes() {
        use std::sync::Arc;
        use tufast::steal::StealPool;
        use tufast_txn::{AbortReason, TwoPhaseLocking};
        let g = gen::grid2d(12, 12);
        let expected = crate::bfs::sequential(&g, 0);
        let dir = temp_dir("cancel-resume");
        let store = SnapshotStore::open(&dir, "bfs").unwrap();

        // Cancel before the drain starts: the workers unwind at their first
        // health checkpoint and the run still leaves a durable snapshot.
        // BFS from 0 on a 2PL scheduler over `built`, into the store.
        let run = |built: &crate::AlgoSystem<BfsSpace>, resume| {
            let sched = TwoPhaseLocking::new(Arc::clone(&built.sys));
            let (sys, space, pool) = (&built.sys, &built.space, StealPool::new(2));
            let ckpt = Ckpt {
                store: &store,
                every_items: 16,
                resume,
            };
            crate::bfs::parallel_on(&g, &sched, sys, space, 0, 2, &pool, Some(ckpt)).unwrap()
        };
        let built = crate::setup(&g, BfsSpace::alloc);
        built.sys.health().cancel();
        let (_, report) = run(&built, false);
        assert_eq!(report.aborted, Some(AbortReason::Cancelled));
        assert_eq!(report.final_snapshots, 1);
        let aborted = report.job_aborted().expect("typed abort");
        assert_eq!(aborted.reason, AbortReason::Cancelled);
        assert_eq!(aborted.items_done, report.items_done);
        assert_eq!(built.sys.health().counters().jobs_cancelled, 1);

        // Resume on a rebuilt system with a live token: the run picks up
        // the final snapshot's frontier and reaches the exact fixpoint.
        let (dist, report) = run(&crate::setup(&g, BfsSpace::alloc), true);
        assert_eq!(report.aborted, None);
        assert_eq!(report.recoveries, 1);
        assert_eq!(dist, expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_algorithm_tag_rejected() {
        let g = gen::grid2d(4, 4);
        let built = crate::setup(&g, BfsSpace::alloc);
        let dir = temp_dir("wrong-tag");
        let store = SnapshotStore::open(&dir, "x").unwrap();
        write_bfs(&store, &built, "wcc", 0, &[]);
        assert!(matches!(
            resume_bfs(&store, &built),
            Err(SnapshotError::Format(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_without_values_section_is_a_format_error() {
        // The right tag and a frontier, but no values section (as in a
        // snapshot that named the region per algorithm): the resume fails,
        // it does not panic.
        let g = gen::grid2d(4, 4);
        let built = crate::setup(&g, BfsSpace::alloc);
        let dir = temp_dir("no-values");
        let store = SnapshotStore::open(&dir, "bfs").unwrap();
        let mut snap = snapshot("bfs", 0, built.sys.mem(), &built.space.dist, &[(0, 0)]);
        snap.sections
            .retain(|section| section.name != VALUES_SECTION);
        store.write(&snap).unwrap();
        match resume_bfs(&store, &built) {
            Err(SnapshotError::Format(why)) => assert!(why.contains("\"values\""), "{why}"),
            other => panic!("expected a format error, got {:?}", other.map(|r| r.0)),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resumed_frontier_vertex_out_of_range_is_a_format_error() {
        use std::sync::Arc;
        use tufast::steal::StealPool;
        use tufast_txn::TwoPhaseLocking;
        let g = gen::grid2d(4, 4);
        let built = crate::setup(&g, BfsSpace::alloc);
        let dir = temp_dir("frontier-range");
        let store = SnapshotStore::open(&dir, "bfs").unwrap();
        write_bfs(&store, &built, "bfs", 0, &[(3, 0), (16, 0)]);
        let sched = TwoPhaseLocking::new(Arc::clone(&built.sys));
        let pool = StealPool::new(2);
        let ckpt = Ckpt {
            store: &store,
            every_items: 16,
            resume: true,
        };
        let resumed = crate::bfs::parallel_on(
            &g,
            &sched,
            &built.sys,
            &built.space,
            0,
            2,
            &pool,
            Some(ckpt),
        );
        match resumed {
            Err(SnapshotError::Format(why)) => {
                assert!(
                    why.contains("vertex 16") && why.contains("16 vertices"),
                    "{why}"
                );
            }
            other => panic!("expected a format error, got {:?}", other.map(|(d, _)| d)),
        }
        assert_eq!(pool.pending(), 0, "nothing was queued");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_graph_size_rejected() {
        let small = gen::grid2d(3, 3);
        let big = gen::grid2d(8, 8);
        let from = crate::setup(&small, BfsSpace::alloc);
        let dir = temp_dir("wrong-size");
        let store = SnapshotStore::open(&dir, "bfs").unwrap();
        write_bfs(&store, &from, "bfs", 0, &[]);
        let to = crate::setup(&big, BfsSpace::alloc);
        assert!(matches!(
            resume_bfs(&store, &to),
            Err(SnapshotError::Format(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
