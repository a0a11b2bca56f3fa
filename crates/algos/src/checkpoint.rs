//! Epoch checkpointing and crash recovery for the transactional algorithms.
//!
//! Each algorithm's region bundle implements [`Checkpointable`]: it can
//! capture its vertex property arrays into named TFSN sections and restore
//! them into a freshly built system (region layouts are carved before
//! `TxnSystem::build` and are identical across rebuilds of the same graph,
//! so addresses line up). The work-pool frontier rides along as one more
//! section, so a resumed run continues *mid-algorithm* instead of
//! restarting.
//!
//! Handing a [`Ckpt`] to the `parallel_on` driver of [`bfs`](crate::bfs),
//! [`wcc`](crate::wcc) or [`sssp`](crate::sssp) wires this into
//! [`parallel_drain_epochs`](tufast::epoch::parallel_drain_epochs): every
//! epoch the coordinator quiesces the run and `(state, frontier)` is
//! written into a rotating [`SnapshotStore`]. Those three algorithms
//! converge to *unique* fixpoints under monotone relaxation, so crash →
//! recover → finish produces bitwise the same answer as an uninterrupted
//! run (the `tufast-check` recovery matrix proves it). PageRank is
//! [`Checkpointable`] too, but floating-point accumulation order makes its
//! fixpoint tolerance-exact rather than bitwise, so no driver checkpoints
//! it.

use std::sync::atomic::{AtomicU64, Ordering};

use tufast::epoch::parallel_drain_epochs;
use tufast::par::WorkPool;
use tufast_graph::snapshot::{Section, Snapshot, SnapshotError, SnapshotStore};
use tufast_htm::{MemRegion, TxMemory};
use tufast_txn::{AbortReason, GraphScheduler, JobAborted, TxnSystem};

/// Name of the section carrying the work-pool frontier.
pub const FRONTIER_SECTION: &str = "frontier";

/// Algorithm state that can round-trip through a TFSN snapshot.
pub trait Checkpointable {
    /// Stable algorithm tag, validated at restore time so a BFS snapshot
    /// cannot silently seed a WCC run.
    fn tag(&self) -> &'static str;
    /// Capture the property arrays as named sections.
    fn capture(&self, mem: &TxMemory) -> Vec<Section>;
    /// Restore the property arrays from `snap` (written by the same
    /// algorithm over the same graph).
    fn restore(&self, mem: &TxMemory, snap: &Snapshot) -> Result<(), SnapshotError>;
}

/// Capture one region as a section: its values only, whatever the stride.
pub fn capture_region<const S: u64>(name: &str, mem: &TxMemory, region: &MemRegion<S>) -> Section {
    Section {
        name: name.to_string(),
        words: mem.snapshot_region(region),
    }
}

/// Restore one region from its section, validating the length (a snapshot
/// of a different graph fails loudly instead of corrupting memory).
pub fn restore_region<const S: u64>(
    name: &str,
    mem: &TxMemory,
    region: &MemRegion<S>,
    snap: &Snapshot,
) -> Result<(), SnapshotError> {
    let section = snap
        .section(name)
        .ok_or_else(|| SnapshotError::Format(format!("missing section {name:?}")))?;
    if section.words.len() as u64 != region.len() {
        return Err(SnapshotError::Format(format!(
            "section {name:?} holds {} words, region needs {}",
            section.words.len(),
            region.len()
        )));
    }
    mem.fill_region_with(region, |i| section.words[i as usize]);
    Ok(())
}

/// The mutable graph overlay checkpoints exactly like an algorithm's
/// property arrays: its four overlay regions become named sections
/// (`delta.*`), restored onto an identically carved layout. This is what
/// lets `DurableGraph` fold the overlay into the same two-generation
/// [`SnapshotStore`] the algorithms use — and lets a workload snapshot
/// *graph state and algorithm state together* in one store when both
/// implement the trait.
impl Checkpointable for tufast_graph::MutableGraph {
    fn tag(&self) -> &'static str {
        tufast_graph::durable::SNAPSHOT_TAG
    }

    fn capture(&self, mem: &TxMemory) -> Vec<Section> {
        self.capture_sections(mem)
    }

    fn restore(&self, mem: &TxMemory, snap: &Snapshot) -> Result<(), SnapshotError> {
        self.restore_sections(mem, snap)
            .map_err(SnapshotError::Format)
    }
}

/// Encode a frontier (from [`WorkPool::pending_items`]) as a section of
/// `(vertex, key)` word pairs.
pub fn frontier_section(items: &[(u32, u64)]) -> Section {
    let mut words = Vec::with_capacity(items.len() * 2);
    for &(v, key) in items {
        words.push(u64::from(v));
        words.push(key);
    }
    Section {
        name: FRONTIER_SECTION.to_string(),
        words,
    }
}

/// Decode the frontier section back into `(vertex, key)` pairs.
pub fn frontier_items(snap: &Snapshot) -> Result<Vec<(u32, u64)>, SnapshotError> {
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
        .map(|pair| {
            let v = u32::try_from(pair[0])
                .map_err(|_| SnapshotError::Format("frontier vertex exceeds u32".to_string()))?;
            Ok((v, pair[1]))
        })
        .collect()
}

/// What [`recover`] reconstructed.
#[derive(Debug)]
pub struct Recovered {
    /// Epoch of the snapshot that was restored.
    pub epoch: u64,
    /// The work-pool frontier at that epoch, ready to re-seed the pool.
    pub frontier: Vec<(u32, u64)>,
    /// 1 when a newer corrupt/torn generation was skipped, 0 otherwise.
    pub fallbacks: u64,
}

/// Load the newest valid snapshot from `store`, validate its tag against
/// `ckpt`, restore the property arrays, and decode the frontier.
pub fn recover(
    store: &SnapshotStore,
    mem: &TxMemory,
    ckpt: &impl Checkpointable,
) -> Result<Recovered, SnapshotError> {
    let loaded = store.load_latest()?;
    let snap = &loaded.snapshot;
    if snap.algo != ckpt.tag() {
        return Err(SnapshotError::Format(format!(
            "snapshot is for algorithm {:?}, expected {:?}",
            snap.algo,
            ckpt.tag()
        )));
    }
    ckpt.restore(mem, snap)?;
    Ok(Recovered {
        epoch: snap.epoch,
        frontier: frontier_items(snap)?,
        fallbacks: loaded.fallbacks,
    })
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
/// `every_items` processed items the run quiesces and `(captured state,
/// frontier)` is written to `store` stamped with the closing epoch.
///
/// Write failures are *counted, not fatal*: the store's previous
/// generation is untouched, so a failed write costs at most one epoch of
/// recoverable progress, and the computation itself continues.
///
/// If the system's health token stops the job mid-drain (cancel or
/// deadline), the workers unwind cleanly, one *final* snapshot of `(state,
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
    state: &(impl Checkpointable + Sync),
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
        let mut sections = state.capture(mem);
        sections.push(frontier_section(&pool.pending_items()));
        ckpt.store.write(&Snapshot {
            algo: state.tag().to_string(),
            epoch,
            sections,
        })
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
    if let Some(epoch) = last.load(Ordering::Relaxed).checked_sub(1) {
        report.last_epoch = Some(epoch);
    }
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
    use tufast_graph::gen;

    /// Snapshot `built`'s distances and `frontier` under `tag`.
    fn write_bfs(
        store: &SnapshotStore,
        built: &crate::AlgoSystem<BfsSpace>,
        tag: &str,
        epoch: u64,
        frontier: &[(u32, u64)],
    ) {
        let mut sections = built.space.capture(built.sys.mem());
        sections.push(frontier_section(frontier));
        let algo = tag.into();
        let snap = Snapshot {
            algo,
            epoch,
            sections,
        };
        store.write(&snap).unwrap();
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tufast-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn frontier_roundtrip() {
        let items = vec![(3u32, 7u64), (0, 0), (u32::MAX, u64::MAX)];
        let snap = Snapshot {
            algo: "x".into(),
            epoch: 0,
            sections: vec![frontier_section(&items)],
        };
        assert_eq!(frontier_items(&snap).unwrap(), items);
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
            frontier_items(&snap),
            Err(SnapshotError::Format(_))
        ));
    }

    #[test]
    fn mutable_graph_overlay_roundtrips_through_the_trait() {
        use tufast_graph::mutable::OverlayConfig;
        use tufast_graph::MutableGraph;
        use tufast_htm::MemoryLayout;
        use tufast_txn::{GraphScheduler, SystemConfig, TwoPhaseLocking, TxnSystem};

        let g = gen::grid2d(4, 4);
        let overlay = OverlayConfig {
            slot_cap: 64,
            stripes: 4,
        };
        let mut layout = MemoryLayout::new();
        let mg = MutableGraph::carve(g.clone(), 20, overlay, &mut layout);
        let sys = TxnSystem::build(20, layout, SystemConfig::default());
        mg.init(sys.mem());
        let sched = TwoPhaseLocking::new(std::sync::Arc::clone(&sys));
        let mut w = sched.worker();
        mg.add_edge(&mut w, 3, 0, 0);
        mg.remove_edge(&mut w, 0, 1);
        let before = mg.materialize(sys.mem());

        let dir = temp_dir("mutgraph");
        let store = SnapshotStore::open(&dir, mg.tag()).unwrap();
        store
            .write(&Snapshot {
                algo: mg.tag().into(),
                epoch: 2,
                sections: mg.capture(sys.mem()),
            })
            .unwrap();

        // "Crash": identical carve on a fresh layout, restore, compare.
        let mut layout2 = MemoryLayout::new();
        let mg2 = MutableGraph::carve(g, 20, overlay, &mut layout2);
        let sys2 = TxnSystem::build(20, layout2, SystemConfig::default());
        let loaded = store.load_latest().unwrap();
        assert_eq!(loaded.snapshot.algo, mg2.tag());
        mg2.restore(sys2.mem(), &loaded.snapshot).unwrap();
        assert_eq!(mg2.materialize(sys2.mem()), before);

        // A BFS snapshot must not restore into the overlay.
        let wrong = Snapshot {
            algo: "bfs".into(),
            epoch: 1,
            sections: vec![],
        };
        assert!(mg2.restore(sys2.mem(), &wrong).is_err());
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
        let rec = recover(&store, rebuilt.sys.mem(), &rebuilt.space).unwrap();
        assert_eq!(rec.epoch, 4);
        assert_eq!(rec.frontier, vec![(5, 0), (9, 1)]);
        assert_eq!(rec.fallbacks, 0);
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
            recover(&store, built.sys.mem(), &built.space),
            Err(SnapshotError::Format(_))
        ));
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
            recover(&store, to.sys.mem(), &to.space),
            Err(SnapshotError::Format(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
