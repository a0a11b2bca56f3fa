//! [`DurableGraph`]: crash-durable transactional graph mutations.
//!
//! Ties the three pieces together (DESIGN.md §13):
//!
//! * the delta overlay ([`MutableGraph`]) holding in-memory effects,
//! * the write-ahead log ([`crate::wal`]) every mutation commits to
//!   *before* its effects become visible,
//! * TFSN snapshots ([`crate::snapshot`]) of the overlay, written through
//!   the existing two-generation store so the WAL can be truncated at
//!   checkpoints.
//!
//! ## Commit protocol
//!
//! A single commit lock (the `Mutex<WalWriter>`) spans
//! `append → fsync policy → transactional apply`, so **log order is
//! commit order**: the WAL always holds a frame for every mutation whose
//! effects are visible, and recovery replays a *prefix-closed* history.
//! "Holds" means *appended*: the writer stages frames in memory and hands
//! them to the file in one `write` when the sync policy syncs (or its
//! 4 KiB buffer fills), so under [`SyncPolicy::EveryCommit`] the frame is
//! on disk before the apply, and under [`SyncPolicy::Group`] a commit
//! acknowledged since the last sync lives in process memory — lost to a
//! process death as well as to a power cut, which is the group-commit
//! contract ("durable only after the next sync"). Call
//! [`DurableGraph::sync`] before dropping a graph whose last commits must
//! survive; the drop itself writes what is staged, best effort and without
//! an fsync. After an I/O error the writer fails closed: every later
//! commit, sync and checkpoint returns the error and applies nothing.
//! Mutators serialize against each other on the lock; analytics
//! transactions run concurrently through the schedulers as usual and
//! serialize against the mutation's *transactional* apply (which is why
//! mutations still execute as transaction bodies, observable by the DSG
//! oracle, rather than as raw stores).
//!
//! ## Recovery invariant
//!
//! `open` = load `base.tfg` → carve the overlay from the WAL header's
//! geometry → restore the newest valid snapshot (or zero-init) → replay
//! every WAL record with `lsn > snapshot epoch`, in LSN order. For any
//! crash point, the recovered graph materializes bitwise-identically to
//! applying the durable prefix of the log to the base — the property the
//! durability matrix in `tufast-check` proves fault by fault.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use tufast_htm::witness::{LockClass, Mutex, MutexGuard};
use tufast_htm::MemoryLayout;
use tufast_txn::{TxnSystem, TxnWorker};

use crate::binio;
use crate::mutable::{MutableGraph, MutationOutcome, OverlayConfig};
use crate::snapshot::{Snapshot, SnapshotError, SnapshotStore};
use crate::wal::{
    Mutation, SyncPolicy, WalError, WalHeader, WalIoCounts, WalOpenReport, WalWriter, WAL_WORKER,
};
use crate::{Graph, VertexId};

/// File name of the immutable CSR base inside a durable directory.
pub const BASE_FILE: &str = "base.tfg";
/// File name of the write-ahead log.
pub const WAL_FILE: &str = "graph.wal";
/// Snapshot-store prefix (and the snapshot's algorithm tag).
pub const SNAPSHOT_TAG: &str = "mutgraph";

/// Errors from durable-graph I/O and recovery.
#[derive(Debug)]
pub enum DurableError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Write-ahead-log failure.
    Wal(WalError),
    /// Snapshot-store failure.
    Snapshot(SnapshotError),
    /// Base-graph cache failure.
    Base(binio::BinError),
    /// Structural inconsistency between log, snapshot, and geometry.
    Corrupt(String),
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Io(e) => write!(f, "I/O error: {e}"),
            DurableError::Wal(e) => write!(f, "{e}"),
            DurableError::Snapshot(e) => write!(f, "{e}"),
            DurableError::Base(e) => write!(f, "base graph: {e}"),
            DurableError::Corrupt(m) => write!(f, "corrupt durable graph: {m}"),
        }
    }
}

impl std::error::Error for DurableError {}

impl From<std::io::Error> for DurableError {
    fn from(e: std::io::Error) -> Self {
        DurableError::Io(e)
    }
}

impl From<WalError> for DurableError {
    fn from(e: WalError) -> Self {
        DurableError::Wal(e)
    }
}

impl From<SnapshotError> for DurableError {
    fn from(e: SnapshotError) -> Self {
        DurableError::Snapshot(e)
    }
}

impl From<binio::BinError> for DurableError {
    fn from(e: binio::BinError) -> Self {
        DurableError::Base(e)
    }
}

/// Initialise a durable-graph directory: persist `base` as `base.tfg` and
/// create an empty WAL whose header carries the (normalised) overlay
/// geometry. Fails if the directory already holds a base or log.
pub fn init_dir(
    dir: &Path,
    base: &Graph,
    capacity: usize,
    config: OverlayConfig,
) -> Result<(), DurableError> {
    assert!(
        capacity >= base.num_vertices() && capacity > 0,
        "capacity must cover the base vertex count"
    );
    std::fs::create_dir_all(dir)?;
    let base_path = dir.join(BASE_FILE);
    if base_path.exists() {
        return Err(DurableError::Corrupt(format!(
            "{} already exists",
            base_path.display()
        )));
    }
    binio::save(base, &base_path)?;
    // Normalise exactly like MutableGraph::carve, so reopening from the
    // header reproduces the same region geometry word for word.
    let stripes = config.stripes.clamp(1, capacity as u64);
    let per_stripe = config.slot_cap / stripes;
    let header = WalHeader {
        capacity: capacity as u64,
        slot_cap: per_stripe * stripes,
        stripes,
    };
    WalWriter::create(&dir.join(WAL_FILE), header, SyncPolicy::EveryCommit)?;
    Ok(())
}

/// What recovery found and did. Returned by [`DurableOpen::finish`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Epoch (= LSN high-water) of the restored snapshot, if one validated.
    pub snapshot_epoch: Option<u64>,
    /// 1 when a newer-but-corrupt snapshot generation was skipped.
    pub snapshot_fallbacks: u64,
    /// Valid records found in the log at open.
    pub wal_records: usize,
    /// Records actually replayed (`lsn > snapshot epoch`).
    pub replayed: usize,
    /// Torn/garbage tail bytes truncated from the log.
    pub wal_truncated_bytes: u64,
}

/// First phase of opening a durable graph: loads the base and the log,
/// truncates any torn WAL tail, and carves the overlay into the caller's
/// layout. The caller then carves its own analytics regions, builds the
/// `TxnSystem`, and calls [`DurableOpen::finish`] to restore + replay.
pub struct DurableOpen {
    dir: PathBuf,
    mutable: MutableGraph,
    writer: WalWriter,
    report: WalOpenReport,
}

impl DurableOpen {
    /// Load `dir` (previously initialised by [`init_dir`]) and carve the
    /// overlay regions into `layout`.
    pub fn begin(
        dir: &Path,
        policy: SyncPolicy,
        layout: &mut MemoryLayout,
    ) -> Result<DurableOpen, DurableError> {
        let base = binio::load(&dir.join(BASE_FILE))?;
        let (writer, report) = WalWriter::open(&dir.join(WAL_FILE), policy)?;
        let header = report.header;
        let capacity = usize::try_from(header.capacity)
            .map_err(|_| DurableError::Corrupt("absurd capacity in WAL header".into()))?;
        if capacity < base.num_vertices() || capacity == 0 {
            return Err(DurableError::Corrupt(format!(
                "WAL header capacity {capacity} below base vertex count {}",
                base.num_vertices()
            )));
        }
        let mutable = MutableGraph::carve(
            base,
            capacity,
            OverlayConfig {
                slot_cap: header.slot_cap,
                stripes: header.stripes,
            },
            layout,
        );
        Ok(DurableOpen {
            dir: dir.to_path_buf(),
            mutable,
            writer,
            report,
        })
    }

    /// Vertex capacity to build the `TxnSystem` with (every vertex tag the
    /// overlay can ever use needs a lock word).
    pub fn capacity(&self) -> usize {
        self.mutable.capacity()
    }

    /// Second phase: restore the newest valid snapshot (or zero-init),
    /// replay the WAL suffix, and return the live graph plus what
    /// recovery found. `system` must have been built from the same layout
    /// [`DurableOpen::begin`] carved into.
    pub fn finish(
        self,
        system: &Arc<TxnSystem>,
    ) -> Result<(DurableGraph, RecoveryReport), DurableError> {
        let DurableOpen {
            dir,
            mutable,
            mut writer,
            report,
        } = self;
        let store = SnapshotStore::open(&dir, SNAPSHOT_TAG)?;
        let mem = system.mem();

        let (snapshot_epoch, snapshot_fallbacks) = match store.load_latest() {
            Ok(loaded) if loaded.snapshot.algo == SNAPSHOT_TAG => {
                match mutable.restore_sections(mem, &loaded.snapshot) {
                    Ok(()) => (Some(loaded.snapshot.epoch), loaded.fallbacks),
                    Err(msg) => {
                        return Err(DurableError::Corrupt(format!(
                            "snapshot epoch {} does not match the carved geometry: {msg}",
                            loaded.snapshot.epoch
                        )))
                    }
                }
            }
            Ok(loaded) => {
                return Err(DurableError::Corrupt(format!(
                    "snapshot tagged {:?}, expected {SNAPSHOT_TAG:?}",
                    loaded.snapshot.algo
                )))
            }
            Err(SnapshotError::NoValidSnapshot) => {
                mutable.init(mem);
                (None, 0)
            }
            Err(e) => return Err(e.into()),
        };

        let floor = snapshot_epoch.unwrap_or(0);
        let mut replayed = 0usize;
        for record in &report.records {
            if record.lsn <= floor {
                continue; // already folded into the snapshot
            }
            let outcome = mutable.apply_direct(mem, record.mutation);
            if outcome != MutationOutcome::Applied {
                return Err(DurableError::Corrupt(format!(
                    "replay of LSN {} reported {outcome:?} — every logged \
                     record was pre-validated at commit time",
                    record.lsn
                )));
            }
            replayed += 1;
        }
        let last_lsn = report.records.last().map_or(0, |r| r.lsn).max(floor);
        writer.set_next_lsn(last_lsn + 1);
        writer.set_fault_handle(system.fault_handle(WAL_WORKER));

        let recovery = RecoveryReport {
            snapshot_epoch,
            snapshot_fallbacks,
            wal_records: report.records.len(),
            replayed,
            wal_truncated_bytes: report.truncated_bytes,
        };
        Ok((
            DurableGraph {
                system: Arc::clone(system),
                mutable,
                store,
                wal: Mutex::new(LockClass::DurableWal, writer),
            },
            recovery,
        ))
    }
}

/// Result of one [`DurableGraph::checkpoint`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DurableCheckpoint {
    /// LSN high-water the snapshot covers (its TFSN epoch).
    pub epoch: u64,
    /// Generation slot path the snapshot landed in.
    pub path: PathBuf,
}

/// A crash-durable [`MutableGraph`]: every mutation is WAL-logged before
/// its effects become visible, and checkpoints fold the overlay into a
/// TFSN snapshot so the log can be truncated. See the module docs for the
/// commit protocol and recovery invariant.
pub struct DurableGraph {
    system: Arc<TxnSystem>,
    mutable: MutableGraph,
    store: SnapshotStore,
    wal: Mutex<WalWriter>,
}

impl DurableGraph {
    /// The overlay graph (for transactional reads, materialisation
    /// helpers, and history tagging).
    pub fn mutable(&self) -> &MutableGraph {
        &self.mutable
    }

    /// The transaction system mutations execute through.
    pub fn system(&self) -> &Arc<TxnSystem> {
        &self.system
    }

    /// An injected crash unwinding through a commit poisons the lock; the
    /// "process" is dead at that point and the harness only reopens from
    /// disk, so recovering the guard (not the state) is sound.
    fn lock_wal(&self) -> MutexGuard<'_, WalWriter> {
        self.wal.lock().unwrap_or_else(|poison| poison.into_inner())
    }

    /// Durably add the edge `src → dst` as one transaction on `worker`.
    pub fn add_edge<W: TxnWorker>(
        &self,
        worker: &mut W,
        src: VertexId,
        dst: VertexId,
        weight: u32,
    ) -> Result<MutationOutcome, DurableError> {
        self.commit_mutation(worker, Mutation::AddEdge { src, dst, weight })
            .map(|(outcome, _)| outcome)
    }

    /// Durably remove the edge `src → dst` as one transaction on `worker`.
    pub fn remove_edge<W: TxnWorker>(
        &self,
        worker: &mut W,
        src: VertexId,
        dst: VertexId,
    ) -> Result<MutationOutcome, DurableError> {
        self.commit_mutation(worker, Mutation::RemoveEdge { src, dst })
            .map(|(outcome, _)| outcome)
    }

    /// Durably grow the vertex set by one; returns the new vertex id, or
    /// `None` at capacity.
    pub fn add_vertex<W: TxnWorker>(
        &self,
        worker: &mut W,
    ) -> Result<Option<VertexId>, DurableError> {
        self.commit_mutation(worker, Mutation::AddVertex)
            .map(|(_, id)| id)
    }

    /// The durable commit protocol: under the commit lock, pre-validate →
    /// append → fsync per policy → crash probe → transactional apply.
    /// Rejected mutations ([`MutationOutcome::OutOfBounds`] /
    /// [`MutationOutcome::OverlayFull`]) are *not* logged.
    fn commit_mutation<W: TxnWorker>(
        &self,
        worker: &mut W,
        mutation: Mutation,
    ) -> Result<(MutationOutcome, Option<VertexId>), DurableError> {
        let mut wal = self.lock_wal();
        // Pre-validate with plain loads: mutators are serialized by the
        // lock and analytics never write overlay words, so these reads
        // are stable until the apply below.
        let precheck = self.precheck(mutation);
        if precheck != MutationOutcome::Applied {
            return Ok((precheck, None));
        }
        wal.append(mutation)?;
        wal.commit_sync()?;
        wal.commit_crash_point();
        let (outcome, new_id) = self.mutable_apply(worker, mutation);
        debug_assert_eq!(
            outcome,
            MutationOutcome::Applied,
            "pre-validated mutation must apply"
        );
        Ok((outcome, new_id))
    }

    fn precheck(&self, mutation: Mutation) -> MutationOutcome {
        let mem = self.system.mem();
        let live = self.mutable.num_vertices(mem) as u64;
        match mutation {
            Mutation::AddEdge { src, dst, .. } | Mutation::RemoveEdge { src, dst } => {
                if u64::from(src) >= live || u64::from(dst) >= live {
                    return MutationOutcome::OutOfBounds;
                }
                // A full stripe would make the transactional apply bail
                // after the frame is already durable — reject first.
                if self.mutable.stripe_is_full(mem, src) {
                    return MutationOutcome::OverlayFull;
                }
                MutationOutcome::Applied
            }
            Mutation::AddVertex => {
                if live >= self.mutable.capacity() as u64 {
                    MutationOutcome::OverlayFull
                } else {
                    MutationOutcome::Applied
                }
            }
        }
    }

    fn mutable_apply<W: TxnWorker>(
        &self,
        worker: &mut W,
        mutation: Mutation,
    ) -> (MutationOutcome, Option<VertexId>) {
        match mutation {
            Mutation::AddEdge { src, dst, weight } => {
                (self.mutable.add_edge(worker, src, dst, weight), None)
            }
            Mutation::RemoveEdge { src, dst } => (self.mutable.remove_edge(worker, src, dst), None),
            Mutation::AddVertex => match self.mutable.add_vertex(worker) {
                Some(id) => (MutationOutcome::Applied, Some(id)),
                None => (MutationOutcome::OverlayFull, None),
            },
        }
    }

    /// Force the log durable now (drains any group-commit batch).
    pub fn sync(&self) -> Result<(), DurableError> {
        Ok(self.lock_wal().sync_now()?)
    }

    /// Checkpoint: fold the overlay into a TFSN snapshot (epoch = LSN
    /// high-water) through the two-generation store, then truncate the
    /// log back to its header. Runs under the commit lock, so the
    /// captured state is transaction-consistent with the log.
    pub fn checkpoint(&self) -> Result<DurableCheckpoint, DurableError> {
        let mut wal = self.lock_wal();
        let mem = self.system.mem();
        let epoch = wal.next_lsn() - 1;
        let snap = Snapshot {
            algo: SNAPSHOT_TAG.to_string(),
            epoch,
            sections: self.mutable.capture_sections(mem),
        };
        let path = self.store.write(&snap)?;
        wal.truncate_for_checkpoint()?;
        Ok(DurableCheckpoint { epoch, path })
    }

    /// Materialise the committed graph (holds the commit lock, so no
    /// mutation is mid-apply).
    pub fn materialize(&self) -> Graph {
        let _wal = self.lock_wal();
        self.mutable.materialize(self.system.mem())
    }

    /// Highest LSN committed so far.
    pub fn last_lsn(&self) -> u64 {
        self.lock_wal().next_lsn() - 1
    }

    /// Frames appended, writes issued and fsyncs executed by the log writer
    /// since this graph was opened.
    pub fn wal_io_counts(&self) -> WalIoCounts {
        self.lock_wal().io_counts()
    }

    /// Shared really-durable log length (see
    /// [`WalWriter::durable_len_handle`]) — the durability harness clones
    /// this to simulate power cuts.
    pub fn wal_durable_len(&self) -> Arc<std::sync::atomic::AtomicU64> {
        self.lock_wal().durable_len_handle()
    }
}

impl std::fmt::Debug for DurableGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableGraph")
            .field("mutable", &self.mutable)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tufast_txn::{GraphScheduler, SystemConfig, TwoPhaseLocking};

    use crate::GraphBuilder;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tufast-durable-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn line_graph(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n.saturating_sub(1) {
            b.add_edge(i as VertexId, i as VertexId + 1);
        }
        b.build()
    }

    fn small_cfg() -> OverlayConfig {
        OverlayConfig {
            slot_cap: 64,
            stripes: 4,
        }
    }

    fn open(dir: &Path, policy: SyncPolicy) -> (DurableGraph, RecoveryReport) {
        let mut layout = MemoryLayout::new();
        let prep = DurableOpen::begin(dir, policy, &mut layout).unwrap();
        let system = TxnSystem::build(prep.capacity(), layout, SystemConfig::default());
        prep.finish(&system).unwrap()
    }

    #[test]
    fn fresh_open_then_mutate_then_reopen_replays_the_log() {
        let dir = temp_dir("reopen");
        init_dir(&dir, &line_graph(4), 8, small_cfg()).unwrap();

        let (dg, recovery) = open(&dir, SyncPolicy::EveryCommit);
        assert_eq!(recovery.snapshot_epoch, None);
        assert_eq!(recovery.wal_records, 0);
        let sched = TwoPhaseLocking::new(Arc::clone(dg.system()));
        let mut w = sched.worker();
        assert_eq!(
            dg.add_edge(&mut w, 3, 0, 0).unwrap(),
            MutationOutcome::Applied
        );
        assert_eq!(
            dg.remove_edge(&mut w, 0, 1).unwrap(),
            MutationOutcome::Applied
        );
        assert_eq!(dg.add_vertex(&mut w).unwrap(), Some(4));
        assert_eq!(
            dg.add_edge(&mut w, 4, 2, 0).unwrap(),
            MutationOutcome::Applied
        );
        assert_eq!(dg.last_lsn(), 4);
        let live = dg.materialize();
        drop(dg);

        let (dg2, recovery) = open(&dir, SyncPolicy::EveryCommit);
        assert_eq!(recovery.wal_records, 4);
        assert_eq!(recovery.replayed, 4);
        assert_eq!(recovery.snapshot_epoch, None);
        assert_eq!(dg2.materialize(), live, "recovery must be bitwise exact");
        assert_eq!(dg2.last_lsn(), 4, "LSNs continue where they left off");
    }

    /// The lock-order witness accepts a transaction under the WAL lock:
    /// 2PL's vertex and line locks, and the TuFast router's too once the
    /// HTM switch is off and its transactions go to L.
    #[test]
    fn a_commit_under_the_wal_lock_keeps_the_lock_order() {
        let dir = temp_dir("order");
        init_dir(&dir, &line_graph(4), 8, small_cfg()).unwrap();
        let (dg, _) = open(&dir, SyncPolicy::EveryCommit);
        let tpl = TwoPhaseLocking::new(Arc::clone(dg.system()));
        let tufast = tufast::TuFast::new(Arc::clone(dg.system()));
        let mut w = tpl.worker();
        assert_eq!(
            dg.add_edge(&mut w, 3, 0, 0).unwrap(),
            MutationOutcome::Applied
        );
        dg.system().htm().set_htm_available(false);
        let mut w = tufast.worker();
        assert_eq!(
            dg.add_edge(&mut w, 2, 0, 0).unwrap(),
            MutationOutcome::Applied
        );
        assert_eq!(w.take_tufast_stats().modes.txns(tufast::ModeClass::L), 1);
    }

    /// The guard `lock_wal` hands out keeps its lock class held in the
    /// caller: taking a second graph's commit lock under it nests
    /// `DurableWal`, which the witness refuses; after the guard drops, the
    /// same call passes.
    #[cfg(debug_assertions)]
    #[test]
    fn the_wal_guard_stays_held_until_it_drops() {
        let (a, b) = (temp_dir("guard-a"), temp_dir("guard-b"));
        init_dir(&a, &line_graph(2), 4, small_cfg()).unwrap();
        init_dir(&b, &line_graph(2), 4, small_cfg()).unwrap();
        let ((dg_a, _), (dg_b, _)) = (
            open(&a, SyncPolicy::EveryCommit),
            open(&b, SyncPolicy::EveryCommit),
        );
        let guard = dg_a.lock_wal();
        let nested = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| dg_b.last_lsn()));
        let text = nested
            .expect_err("nested commit locks")
            .downcast::<String>()
            .unwrap();
        assert!(text.contains("DurableWal"), "{text}");
        drop(guard);
        assert_eq!(dg_b.last_lsn(), 0);
    }

    #[test]
    fn checkpoint_truncates_log_and_recovery_uses_the_snapshot() {
        let dir = temp_dir("ckpt");
        init_dir(&dir, &line_graph(4), 8, small_cfg()).unwrap();
        let (dg, _) = open(&dir, SyncPolicy::EveryCommit);
        let sched = TwoPhaseLocking::new(Arc::clone(dg.system()));
        let mut w = sched.worker();
        dg.add_edge(&mut w, 2, 0, 0).unwrap();
        dg.add_edge(&mut w, 3, 1, 0).unwrap();
        let ckpt = dg.checkpoint().unwrap();
        assert_eq!(ckpt.epoch, 2);
        // Post-checkpoint mutations land in the (now empty) log.
        dg.remove_edge(&mut w, 0, 1).unwrap();
        let live = dg.materialize();
        drop(dg);

        let (dg2, recovery) = open(&dir, SyncPolicy::EveryCommit);
        assert_eq!(recovery.snapshot_epoch, Some(2));
        assert_eq!(recovery.wal_records, 1);
        assert_eq!(recovery.replayed, 1);
        assert_eq!(dg2.materialize(), live);
    }

    #[test]
    fn rejected_mutations_are_not_logged() {
        let dir = temp_dir("reject");
        init_dir(&dir, &line_graph(3), 3, small_cfg()).unwrap();
        let (dg, _) = open(&dir, SyncPolicy::EveryCommit);
        let sched = TwoPhaseLocking::new(Arc::clone(dg.system()));
        let mut w = sched.worker();
        assert_eq!(
            dg.add_edge(&mut w, 0, 9, 0).unwrap(),
            MutationOutcome::OutOfBounds
        );
        assert_eq!(dg.add_vertex(&mut w).unwrap(), None, "at capacity");
        assert_eq!(dg.last_lsn(), 0, "nothing may reach the log");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn commit_after_a_log_io_error_applies_nothing() {
        let dir = temp_dir("dev-full");
        init_dir(&dir, &line_graph(4), 8, small_cfg()).unwrap();
        let (dg, _) = open(&dir, SyncPolicy::EveryCommit);
        let sched = TwoPhaseLocking::new(Arc::clone(dg.system()));
        let mut w = sched.worker();
        dg.add_edge(&mut w, 3, 0, 0).unwrap();
        let before = dg.materialize();
        let full = std::fs::OpenOptions::new()
            .write(true)
            .open("/dev/full")
            .unwrap();
        let real = dg.lock_wal().replace_file(full);
        assert!(matches!(
            dg.add_edge(&mut w, 2, 0, 0),
            Err(DurableError::Wal(WalError::Io(_)))
        ));
        // Space comes back; the failure is sticky all the same.
        drop(dg.lock_wal().replace_file(real));
        assert!(dg.add_edge(&mut w, 1, 3, 0).is_err());
        assert!(dg.add_vertex(&mut w).is_err());
        assert!(dg.sync().is_err());
        assert!(dg.checkpoint().is_err());
        assert_eq!(dg.materialize(), before, "a failed commit applies nothing");
        let counts = dg.wal_io_counts();
        assert_eq!((counts.frames, counts.writes, counts.fsyncs), (2, 1, 1));
        drop(dg);
        let (dg2, recovery) = open(&dir, SyncPolicy::EveryCommit);
        assert_eq!(recovery.wal_records, 1);
        assert_eq!(recovery.wal_truncated_bytes, 0);
        assert_eq!(dg2.materialize(), before);
    }

    #[test]
    fn init_dir_refuses_to_clobber() {
        let dir = temp_dir("clobber");
        init_dir(&dir, &line_graph(2), 4, small_cfg()).unwrap();
        assert!(matches!(
            init_dir(&dir, &line_graph(2), 4, small_cfg()),
            Err(DurableError::Corrupt(_))
        ));
    }

    #[test]
    fn torn_newer_snapshot_falls_back_to_older_generation_plus_replay() {
        // Regression for the epoch-before-CRC ordering bug. Model a crash
        // *between* snapshot write and log truncation (the checkpoint's
        // only non-atomic seam): the newer generation lands on disk but
        // the log still covers everything past the *older* snapshot. Then
        // tear the newer file. Its epoch bytes still read fine, so a
        // store that trusted the epoch before validating the whole-file
        // CRC would select it and lose the tail. Recovery must instead
        // fall back to the older generation and replay the log gap.
        let dir = temp_dir("torn-newer");
        init_dir(&dir, &line_graph(4), 8, small_cfg()).unwrap();
        let (dg, _) = open(&dir, SyncPolicy::EveryCommit);
        let sched = TwoPhaseLocking::new(Arc::clone(dg.system()));
        let mut w = sched.worker();
        dg.add_edge(&mut w, 2, 0, 0).unwrap(); // LSN 1
        dg.checkpoint().unwrap(); // epoch 1 → gen0, log truncated
        dg.add_edge(&mut w, 3, 0, 0).unwrap(); // LSN 2, in the log
        dg.add_edge(&mut w, 3, 1, 0).unwrap(); // LSN 3, in the log
        let live = dg.materialize();
        // Crash mid-checkpoint: the epoch-3 snapshot is written (gen1)
        // but truncation never runs, so the log keeps LSNs 2 and 3.
        let store = SnapshotStore::open(&dir, SNAPSHOT_TAG).unwrap();
        let snap = Snapshot {
            algo: SNAPSHOT_TAG.to_string(),
            epoch: 3,
            sections: dg.mutable().capture_sections(dg.system().mem()),
        };
        let newer = store.write(&snap).unwrap();
        drop(dg);
        // Tear the newer generation mid-file: its epoch bytes still read 3.
        let bytes = std::fs::read(&newer).unwrap();
        std::fs::write(&newer, &bytes[..bytes.len() / 2]).unwrap();

        let (dg2, recovery) = open(&dir, SyncPolicy::EveryCommit);
        assert_eq!(
            recovery.snapshot_epoch,
            Some(1),
            "the torn epoch-3 snapshot must not be selected"
        );
        assert_eq!(recovery.snapshot_fallbacks, 1);
        assert_eq!(recovery.replayed, 2, "LSNs 2 and 3 come from the log");
        assert_eq!(dg2.materialize(), live, "replay covers the gap exactly");
    }
}
