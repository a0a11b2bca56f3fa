//! R-mode reader matrix: declared-pure snapshot readers racing writers
//! under every scheduler, checked for fractured reads and DSG cycles.
//!
//! The workload keeps a *pair invariant*: cells come in pairs
//! `(a, b) = (cells[2p], cells[2p+1])` and every committed state satisfies
//! `b == a + 1`. Writers overwrite whole pairs with globally unique
//! stamps; readers run declared-pure transactions
//! ([`TxnHint::read_only`]) that read both halves of a pair and report a
//! *fracture* whenever a committed read observed `b != a + 1` — i.e. the
//! snapshot mixed two different writers' pairs. R-mode's per-read
//! validation brackets must make fractures impossible against every
//! writer commit path (2PL's release batch, OCC install, TO, STM, the
//! HSync fallback, and all of TuFast's modes including the serial token),
//! whether the cells sit in a region of their own or, with
//! [`ReadersSpec::paired`], beside their vertex lock words — one line per
//! vertex, as the algorithms lay them out.
//!
//! Each run also records the full history through the observer hooks and
//! feeds it to the [`dsg`](crate::dsg) checker: R commits ticket their
//! pinned snapshot, so a fractured read that somehow slipped past the
//! brackets would also surface as a WR/RW cycle.
//!
//! [`ReadersPlan::standard`] adds the fault cells: seeded lock/validation
//! chaos on the writer side, and a *crashing writer* — a deliberate body
//! panic after half a pair is written — while readers stay live. The
//! panicked half-write must roll back without ever becoming visible to a
//! snapshot.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tufast_htm::{Addr, HtmConfig, MemRegion, MemoryLayout};
use tufast_txn::{
    Declared, FaultPlan, FaultSpec, GraphScheduler, SystemConfig, TxnHint, TxnObserver, TxnSystem,
    TxnWorker, VertexId,
};

use crate::dsg::{check, CheckReport};
use crate::explore::SchedulerKind;
use crate::history::Recorder;

/// One cell of the reader matrix: a writer-side environment for a run.
#[derive(Clone, Debug)]
pub struct ReadersPlan {
    /// Stable name (used in reports and assertions).
    pub name: &'static str,
    /// Seeded fault rates injected into the writers (`None` = fault-free).
    pub faults: Option<FaultSpec>,
    /// Whether one writer transaction panics deliberately after writing
    /// half a pair, while readers are live.
    pub crash_writer: bool,
}

impl ReadersPlan {
    /// The standard reader matrix: a fault-free cell plus a seeded
    /// lock/validation-chaos cell with a mid-commit writer crash.
    pub fn standard() -> Vec<ReadersPlan> {
        vec![
            ReadersPlan {
                name: "quiet",
                faults: None,
                crash_writer: false,
            },
            ReadersPlan {
                name: "writer-crash-chaos",
                faults: Some(FaultSpec {
                    seed: 0xC4A0_6001,
                    lock_fail_permille: 300,
                    validation_fail_permille: 300,
                    ..FaultSpec::default()
                }),
                crash_writer: true,
            },
        ]
    }
}

/// Shape of one reader-matrix run.
#[derive(Clone, Copy, Debug)]
pub struct ReadersSpec {
    /// Invariant pairs (the run uses `2 * pairs` cells).
    pub pairs: u64,
    /// Writer threads.
    pub writers: usize,
    /// Pair overwrites per writer thread.
    pub writer_txns: usize,
    /// Reader threads.
    pub readers: usize,
    /// Declared-pure transactions per reader thread.
    pub reader_txns: usize,
    /// Words (and vertex ids) between consecutive cells. At 1 a pair
    /// shares one data line and one lock-word line; at 8 or more every
    /// half-pair has its own of each, so a writer's commit is a multi-line
    /// batch a reader can pin into the middle of.
    pub stride: u64,
    /// Size hint of the writer transactions. Under TuFast it picks the
    /// mode: small hints run in H, 8192 is past H's reach (O mode), and
    /// anything past O's reach (64 × the HTM capacity) goes straight to L.
    pub writer_hint: usize,
    /// Allocate the cells paired with the vertex lock words
    /// ([`MemoryLayout::alloc_paired`]): cell `i` shares a line with the
    /// lock word of vertex `i`, so every lock-word RMW re-stamps the line a
    /// reader's bracket loads the value from.
    pub paired: bool,
}

impl Default for ReadersSpec {
    fn default() -> Self {
        ReadersSpec {
            pairs: 4,
            writers: 2,
            writer_txns: 120,
            readers: 2,
            reader_txns: 240,
            stride: 1,
            writer_hint: 6,
            paired: false,
        }
    }
}

/// The verdict of one (scheduler, plan) reader run.
#[derive(Debug)]
pub struct ReadersOutcome {
    /// Scheduler name (`GraphScheduler::name`).
    pub scheduler: String,
    /// The plan's name.
    pub plan: &'static str,
    /// Committed reads that observed a torn pair (`b != a + 1`).
    pub fractures: u64,
    /// Transactions the run expected to commit (seed + writers + readers,
    /// minus the deliberately crashed one).
    pub expected: usize,
    /// Reader commits that stayed on the R-mode fast path.
    pub r_commits: u64,
    /// R-mode snapshot-validation retries across all readers.
    pub r_retries: u64,
    /// Reader transactions demoted off the fast path (committed on the
    /// host scheduler's ordinary path instead).
    pub demoted: u64,
    /// The DSG checker's report over the recorded history.
    pub report: CheckReport,
}

impl ReadersOutcome {
    /// Panic unless every read was unfractured, everything expected
    /// committed, the history is serializable, and the R fast path
    /// actually carried reads.
    pub fn assert_consistent(&self) {
        assert_eq!(
            self.fractures, 0,
            "[tufast-readers] {} under {}: {} fractured snapshot reads",
            self.scheduler, self.plan, self.fractures,
        );
        assert_eq!(
            self.report.committed, self.expected,
            "[tufast-readers] {} under {}: {} of {} transactions committed",
            self.scheduler, self.plan, self.report.committed, self.expected,
        );
        assert!(
            self.r_commits > 0,
            "[tufast-readers] {} under {}: no reads committed on the R fast path",
            self.scheduler,
            self.plan,
        );
        if !self.report.ok() {
            eprintln!(
                "[tufast-readers] {} under {} is not serializable:",
                self.scheduler, self.plan
            );
            self.report.assert_ok();
        }
    }
}

/// Drives the pair-invariant workload: writers through a scheduler's
/// ordinary path, readers through declared-pure [`TxnHint::read_only`]
/// transactions on the same scheduler.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReadersRunner {
    /// The workload each run executes.
    pub spec: ReadersSpec,
}

impl ReadersRunner {
    /// A runner over `spec`.
    pub fn new(spec: ReadersSpec) -> Self {
        ReadersRunner { spec }
    }

    /// Run one (scheduler, plan) pair and check the outcome.
    pub fn run(&self, kind: SchedulerKind, plan: &ReadersPlan) -> ReadersOutcome {
        let cells = self.spec.pairs * 2 * self.spec.stride;
        let (sys, data) = Cells::system(cells, self.spec.paired);
        sys.set_fault_plan(plan.faults.clone().map(FaultPlan::new));
        with_scheduler!(kind, &sys, |sched| self.drive(&sys, &sched, &data, plan))
    }

    /// Run every scheduler under every plan; returns one outcome per pair.
    pub fn run_matrix(&self, plans: &[ReadersPlan]) -> Vec<ReadersOutcome> {
        let mut out = Vec::with_capacity(plans.len() * SchedulerKind::all().len());
        for plan in plans {
            for kind in SchedulerKind::all() {
                out.push(self.run(kind, plan));
            }
        }
        out
    }

    fn drive<S>(
        &self,
        sys: &Arc<TxnSystem>,
        sched: &S,
        data: &Cells,
        plan: &ReadersPlan,
    ) -> ReadersOutcome
    where
        S: GraphScheduler,
        S::Worker: Send,
    {
        let observer = Arc::new(Recorder::new());
        sys.set_observer(Some(Arc::clone(&observer) as Arc<dyn TxnObserver>));

        let spec = self.spec;
        // Half `h` of pair `p`: its vertex id and its data word.
        let cell = |p: u64, h: u64| {
            let i = (2 * p + h) * spec.stride;
            (i as VertexId, data.addr(i))
        };
        // Globally unique pair stamps: pair p holds (2n, 2n + 1) for some
        // nonzero n, so `b == a + 1` never holds across two different
        // writes and read attribution in the checker is exact.
        let stamp = AtomicU64::new(1);
        // Seed every pair inside recorded transactions so reader
        // attribution never falls back to unticketed initial state.
        let mut seeder = sched.worker();
        for p in 0..spec.pairs {
            let s = stamp.fetch_add(1, Ordering::Relaxed) << 1;
            let ((va, a), (vb, b)) = (cell(p, 0), cell(p, 1));
            let out = seeder.execute(4, &mut |ops| {
                ops.write(va, a, s)?;
                ops.write(vb, b, s + 1)
            });
            assert!(out.committed, "seed transaction must commit");
        }
        drop(seeder);

        let fractures = AtomicU64::new(0);
        let crashed = AtomicU64::new(0);
        let mut reader_stats = tufast_txn::SchedStats::default();
        let mut demoted = 0u64;
        std::thread::scope(|s| {
            let mut readers = Vec::with_capacity(spec.readers);
            for ti in 0..spec.readers {
                let mut w = sched.worker();
                let fractures = &fractures;
                readers.push(s.spawn(move || {
                    for k in 0..spec.reader_txns {
                        let p = ((ti + k) % spec.pairs as usize) as u64;
                        let (mut a, mut b) = (0, 0);
                        let ((va, wa), (vb, wb)) = (cell(p, 0), cell(p, 1));
                        let out = w.execute_hinted(TxnHint::read_only(4), &mut |ops| {
                            a = ops.read(va, wa)?;
                            b = ops.read(vb, wb)?;
                            Ok(())
                        });
                        assert!(out.committed, "pure reads never user-abort");
                        // Only the committed attempt's values are checked:
                        // a demoted reader re-runs on the host scheduler's
                        // ordinary path, whose doomed attempts may
                        // legitimately observe torn state before retrying.
                        if b != a + 1 {
                            fractures.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    w.take_stats()
                }));
            }
            for ti in 0..spec.writers {
                let mut w = sched.worker();
                let stamp = &stamp;
                let crashed = &crashed;
                s.spawn(move || {
                    for k in 0..spec.writer_txns {
                        let p = ((ti + k) % spec.pairs as usize) as u64;
                        let crash_here = plan.crash_writer && ti == 0 && k == spec.writer_txns / 2;
                        let ((va, a), (vb, b)) = (cell(p, 0), cell(p, 1));
                        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            w.execute(spec.writer_hint, &mut |ops| {
                                let s = stamp.fetch_add(1, Ordering::Relaxed) << 1;
                                ops.read(va, a)?;
                                ops.write(va, a, s)?;
                                if crash_here {
                                    panic!("readers probe: writer crash mid-pair");
                                }
                                ops.write(vb, b, s + 1)
                            });
                        }));
                        assert_eq!(
                            run.is_err(),
                            crash_here,
                            "writer panic must surface exactly at the crash cell"
                        );
                        if crash_here {
                            crashed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
            for handle in readers {
                let stats = handle.join().expect("reader threads never panic");
                reader_stats.merge(&stats);
            }
        });
        demoted += (spec.readers * spec.reader_txns) as u64 - reader_stats.r_commits;

        sys.set_observer(None);
        // The invariant must also hold in final memory: the crashed
        // writer's half-pair rolled back, every surviving pair is whole.
        for p in 0..spec.pairs {
            let a = sys.mem().load_direct(cell(p, 0).1);
            let b = sys.mem().load_direct(cell(p, 1).1);
            assert_eq!(b, a + 1, "final memory holds a torn pair at {p}");
        }
        let expected =
            spec.pairs as usize + spec.writers * spec.writer_txns + spec.readers * spec.reader_txns
                - crashed.load(Ordering::Relaxed) as usize;
        ReadersOutcome {
            scheduler: sched.name().to_string(),
            plan: plan.name,
            fractures: fractures.load(Ordering::Relaxed),
            expected,
            r_commits: reader_stats.r_commits,
            r_retries: reader_stats.r_retries,
            demoted,
            report: check(&observer.take_history()),
        }
    }
}

/// The data cells of a run: a region of their own, or paired with the
/// vertex lock words (cell `i` beside the lock word of vertex `i`).
#[derive(Clone, Copy)]
enum Cells {
    Own(MemRegion),
    Paired(MemRegion<2>),
}

impl Cells {
    /// `n` cells, one vertex each, and the system over them.
    fn system(n: u64, paired: bool) -> (Arc<TxnSystem>, Cells) {
        let mut layout = MemoryLayout::new();
        let cells = if paired {
            Cells::Paired(layout.alloc_paired("cells", n))
        } else {
            Cells::Own(layout.alloc("cells", n))
        };
        let sys = TxnSystem::build(n as usize, layout, SystemConfig::default());
        (sys, cells)
    }

    fn addr(&self, i: u64) -> Addr {
        match self {
            Cells::Own(r) => r.addr(i),
            Cells::Paired(r) => r.addr(i),
        }
    }

    fn len(&self) -> u64 {
        match self {
            Cells::Own(r) => r.len(),
            Cells::Paired(r) => r.len(),
        }
    }
}

/// On a quiesced system, declared-pure transactions must be *free*: no
/// lock acquisitions and no hardware-transaction operations, under every
/// scheduler.
///
/// Both halves are observable without instrumenting the lock table: every
/// lock acquisition, direct store, and HTM commit ticks the global
/// version clock, so a still clock across the reads proves no lock was
/// taken anywhere in the system, and [`TxnWorker::htm_ops`] staying at
/// zero proves no hardware transaction ran.
pub fn quiesced_read_probe(kind: SchedulerKind) {
    let cells = 8u64;
    let mut layout = MemoryLayout::new();
    let data = layout.alloc("pairs", cells);
    let sys = TxnSystem::build(cells as usize, layout, SystemConfig::default());
    for p in 0..cells / 2 {
        let s = (p + 1) << 1;
        sys.mem().store_direct(data.addr(2 * p), s);
        sys.mem().store_direct(data.addr(2 * p + 1), s + 1);
    }

    let clock_before = sys.mem().clock_now_pub();
    let txns = 50u64;
    let outcome = with_scheduler!(kind, &sys, |sched| drive_quiesced(
        &sched, &data, cells, txns
    ));
    let (stats, htm_ops) = outcome;
    assert_eq!(
        stats.r_commits, txns,
        "{kind:?}: quiesced pure reads must all commit on the R fast path"
    );
    assert_eq!(stats.commits, txns, "{kind:?}: R commits count as commits");
    assert_eq!(
        htm_ops, 0,
        "{kind:?}: pure reads issued hardware-transaction operations"
    );
    assert_eq!(
        sys.mem().clock_now_pub(),
        clock_before,
        "{kind:?}: pure reads moved the version clock (a lock was taken)"
    );
    for v in 0..cells as u32 {
        assert!(
            sys.locks().peek(sys.mem(), v).is_free(),
            "{kind:?}: pure reads left lock {v} held"
        );
    }
}

fn drive_quiesced<S>(
    sched: &S,
    data: &MemRegion,
    cells: u64,
    txns: u64,
) -> (tufast_txn::SchedStats, u64)
where
    S: GraphScheduler,
{
    let mut w = sched.worker();
    for k in 0..txns {
        let p = k % (cells / 2);
        let out = w.execute_hinted(TxnHint::read_only(4), &mut |ops| {
            let a = ops.read(2 * p as VertexId, data.addr(2 * p))?;
            let b = ops.read(2 * p as VertexId + 1, data.addr(2 * p + 1))?;
            assert_eq!(b, a + 1, "quiesced pair {p} is torn");
            Ok(())
        });
        assert!(out.committed);
        assert_eq!(out.attempts, 1, "quiesced reads never retry");
    }
    let htm = w.htm_ops();
    (w.take_stats(), htm)
}

/// Unpinned committed peeks ([`TxnSystem::peek_committed`], every cell in
/// turn) racing writers: two writers on `kind` (every fourth transaction
/// user-aborts after its write) plus a 2PL writer that *always* aborts, so
/// an exclusive hold over a buffered store that never publishes is there
/// throughout, plus a 2PL writer that declares its vertex and aborts every
/// other transaction, whose buffered store must reach memory only with the
/// commits in between. Every attempt stores a fresh stamp; a peek may only
/// ever return stamps whose transaction committed (or the initial 0) —
/// never an aborted attempt's, wherever its bracket landed.
///
/// `writer_hint` picks TuFast's mode as in [`ReadersSpec::writer_hint`].
pub fn peek_probe(kind: SchedulerKind, writer_hint: usize) {
    probe_reads(kind, writer_hint, false, peek);
}

/// [`peek_probe`] over cells paired with their vertex lock words, as
/// [`ReadersSpec::paired`]: a peek's line shares its state with the lock
/// words the writers take.
pub fn paired_peek_probe(kind: SchedulerKind, writer_hint: usize) {
    probe_reads(kind, writer_hint, true, peek);
}

/// [`peek_probe`] with one plain load per cell
/// ([`TxnSystem::load_committed`]) as the reader, over cells of their own
/// or, `paired`, beside their lock words. No committer stores a data word
/// before its point of no return, so a load, bracketed by nothing, must
/// keep every aborted stamp out too.
pub fn load_probe(kind: SchedulerKind, writer_hint: usize, paired: bool) {
    probe_reads(kind, writer_hint, paired, load);
}

/// One untracked read of a committed cell: `None` when it gave up.
type CommittedRead = fn(&TxnSystem, Addr) -> Option<u64>;

fn peek(sys: &TxnSystem, addr: Addr) -> Option<u64> {
    sys.peek_committed(addr).map(|(val, _)| val)
}

fn load(sys: &TxnSystem, addr: Addr) -> Option<u64> {
    Some(sys.load_committed(addr))
}

fn probe_reads(kind: SchedulerKind, writer_hint: usize, paired: bool, read: CommittedRead) {
    let (sys, data) = Cells::system(8, paired);
    let (peeked, committed) = with_scheduler!(kind, &sys, |sched| drive_peeks(
        &sys,
        &sched,
        &data,
        writer_hint,
        &[],
        read
    ));
    assert_only_committed(&format!("{kind:?}"), &peeked, &committed);
}

/// [`peek_probe`] against the HSync fallback path: two HSync writers whose
/// bodies also store to 600 ballast lines — past HTM capacity, so every
/// one of them runs on the fallback path, under the global word with no
/// vertex lock held — one aborting every other transaction, one all of
/// them. The fallback buffers its stores and publishes them at its ticket,
/// so a peek's line seqlock alone must keep every aborted stamp out.
pub fn fallback_peek_probe() {
    probe_fallback(peek);
}

/// [`fallback_peek_probe`] with [`load_probe`]'s reader: the fallback
/// stores nothing before its ticket, so one plain load keeps every aborted
/// stamp out too.
pub fn fallback_load_probe() {
    probe_fallback(load);
}

fn probe_fallback(read: CommittedRead) {
    let (cells, ballast_lines) = (8u64, 600u64);
    let htm = HtmConfig::default();
    assert!(ballast_lines as usize > htm.max_lines());
    let words_per_line = (htm.line_bytes / 8) as u64;
    let mut layout = MemoryLayout::new();
    let data = Cells::Own(layout.alloc("cells", cells));
    let ballast = layout.alloc("ballast", ballast_lines * words_per_line);
    let ballast: Vec<_> = (0..ballast_lines)
        .map(|line| ballast.addr(line * words_per_line))
        .collect();
    let sys = TxnSystem::build(cells as usize, layout, SystemConfig::default());
    let sched = tufast_txn::HSyncLike::new(Arc::clone(&sys));
    let hint = 2 * ballast.len();
    let (peeked, committed) = drive_peeks(&sys, &sched, &data, hint, &ballast, read);
    assert_only_committed("HSync fallback", &peeked, &committed);
}

fn assert_only_committed(who: &str, peeked: &HashSet<u64>, committed: &HashSet<u64>) {
    assert!(
        peeked.len() > 1,
        "{who}: the peeks never saw a writer's value"
    );
    for val in peeked {
        assert!(
            *val == 0 || committed.contains(val),
            "{who}: peeked {val}, which no committed transaction published"
        );
    }
}

/// Returns the distinct values `read` returned and the stamps that
/// committed. A non-empty `ballast` is stored to by every writer after its
/// cell, and swaps the 2PL writers for two more on `sched` (the ballast is
/// there to reach HSync's fallback path, which honours no vertex lock and
/// so can share cells only with its own kind).
fn drive_peeks<S>(
    sys: &Arc<TxnSystem>,
    sched: &S,
    data: &Cells,
    writer_hint: usize,
    ballast: &[Addr],
    read: CommittedRead,
) -> (HashSet<u64>, HashSet<u64>)
where
    S: GraphScheduler,
    S::Worker: Send,
{
    let cells = data.len();
    let txns = 300u64;
    let stamp = AtomicU64::new(1);
    let aborter = tufast_txn::TwoPhaseLocking::new(Arc::clone(sys));
    let writers_left = AtomicU64::new(if ballast.is_empty() { 4 } else { 2 });
    // One writer: `txns` transactions over the cells (under size hint
    // `hint`, or with the vertex declared), `aborts(k)` of them user-aborted
    // after the write; returns the stamps that committed.
    let write = |mut w: Box<dyn TxnWorker + Send>, hint: Option<usize>, aborts: fn(u64) -> bool| {
        let mut committed = HashSet::new();
        for k in 0..txns {
            let (v, addr) = ((k % cells) as VertexId, data.addr(k % cells));
            let mut last = 0;
            let body = &mut |ops: &mut dyn tufast_txn::TxnOps| {
                last = stamp.fetch_add(1, Ordering::Relaxed);
                ops.read(v, addr)?;
                ops.write(v, addr, last)?;
                for &line in ballast {
                    ops.write(v, line, last)?;
                }
                if aborts(k) {
                    return Err(ops.user_abort());
                }
                Ok(())
            };
            let out = match hint {
                Some(hint) => w.execute(hint, body),
                None => w.execute_declared(&[Declared::write(v)], body),
            };
            assert_eq!(out.committed, !aborts(k));
            if out.committed {
                committed.insert(last);
            }
        }
        writers_left.fetch_sub(1, Ordering::Release);
        committed
    };
    std::thread::scope(|s| {
        let on_sched =
            |aborts| s.spawn(move || write(Box::new(sched.worker()), Some(writer_hint), aborts));
        let writers = if ballast.is_empty() {
            vec![
                on_sched(|k| k % 4 == 3),
                on_sched(|k| k % 4 == 1),
                s.spawn(|| write(Box::new(aborter.worker()), Some(4), |_| true)),
                s.spawn(|| write(Box::new(aborter.worker()), None, |k| k % 2 == 0)),
            ]
        } else {
            vec![on_sched(|k| k % 2 == 1), on_sched(|_| true)]
        };
        let peekers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    let mut peeked = HashSet::new();
                    // One more pass after the writers are done, so a run
                    // that outpaces the peekers still sees final values.
                    let mut last_pass = false;
                    while !last_pass {
                        last_pass = writers_left.load(Ordering::Acquire) == 0;
                        // Every cell in turn, as an item loads a whole
                        // neighbourhood.
                        peeked.extend((0..cells).filter_map(|i| read(sys, data.addr(i))));
                    }
                    peeked
                })
            })
            .collect();
        fn join<'s>(
            sets: impl IntoIterator<Item = std::thread::ScopedJoinHandle<'s, HashSet<u64>>>,
        ) -> HashSet<u64> {
            let joined = sets.into_iter().map(|h| h.join());
            joined
                .flat_map(|set| set.expect("probe threads never panic"))
                .collect()
        }
        let committed = join(writers);
        (join(peekers), committed)
    })
}
