//! Runtime-health matrix: the watchdog, cooperative cancellation and job
//! deadlines exercised end-to-end against seeded liveness faults.
//!
//! The rows prove the subsystem's two promises:
//!
//! 1. **The watchdog fires** — a seeded livelock storm (every optimistic
//!    commit forced to restart) and a seeded persistent stall (a worker
//!    wedged at an attempt boundary with no heartbeats) are both detected,
//!    the escalation ladder is walked to its top, and the job is
//!    cancelled instead of hanging.
//! 2. **Cancellation is clean** — a job cancelled mid-run releases every
//!    vertex lock and leaves a serializable history; a cancelled
//!    checkpointed run leaves a durable snapshot that resumes to the
//!    bitwise-exact fixpoint.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tufast::{StealPool, TuFast, Watchdog, WatchdogConfig, WatchdogReport};
use tufast_algos::checkpoint::Ckpt;
use tufast_algos::{bfs, setup};
use tufast_check::dsg::check;
use tufast_check::history::Recorder;
use tufast_check::recovery::{
    baseline_result, run_ckpt, run_on, star_plus_clique, RecoveryAlgo, StaleWatch,
};
use tufast_graph::gen;
use tufast_graph::snapshot::SnapshotStore;
use tufast_htm::{MemRegion, MemoryLayout};
use tufast_txn::{
    AbortReason, FaultKind, FaultPlan, FaultSpec, GraphScheduler, HTimestampOrdering, JobDeadline,
    Occ, SchedStats, SystemConfig, TxnObserver, TxnSystem, TxnWorker, CRASH_ANY_WORKER,
};

const THREADS: usize = 3;

/// A watchdog tuned for tests: scan every millisecond, escalate after a
/// single unhealthy scan, so the four-rung ladder completes in ~5ms of
/// sustained unhealth.
fn fast_watchdog(sys: &Arc<TxnSystem>) -> Watchdog {
    Watchdog::spawn(
        Arc::clone(sys),
        WatchdogConfig {
            interval: Duration::from_millis(1),
            grace_scans: 1,
        },
    )
}

/// Last-resort canceller so a watchdog bug shows up as a failed
/// `report.cancelled` assertion rather than a hung test binary: if the
/// job is still running after `limit`, stop it from outside. The thread
/// exits as soon as the token latches (whoever latched it).
fn spawn_safety_canceller(sys: &Arc<TxnSystem>, limit: Duration) {
    let sys = Arc::clone(sys);
    std::thread::spawn(move || {
        let start = Instant::now();
        while !sys.cancel_token().is_stopped() {
            if start.elapsed() > limit {
                sys.cancel_token().cancel();
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    });
}

fn assert_all_locks_free(sys: &TxnSystem, vertices: u32, context: &str) {
    for v in 0..vertices {
        assert!(
            sys.locks().peek(sys.mem(), v).is_free(),
            "{context}: lock {v} leaked across a health stop"
        );
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tufast-health-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Drive `THREADS` workers into a single increment transaction each under
/// a total livelock (every optimistic commit restarts). No worker can
/// ever commit, so the job terminating *at all* proves the watchdog's
/// cancel reached the workers' attempt-boundary checkpoints.
fn drive_livelocked_job<S>(sched: &S, data: &MemRegion) -> Vec<SchedStats>
where
    S: GraphScheduler,
    S::Worker: Send,
{
    let workers: Vec<S::Worker> = (0..THREADS).map(|_| sched.worker()).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = workers
            .into_iter()
            .map(|mut w| {
                s.spawn(move || {
                    let out = w.execute(2, &mut |ops| {
                        let x = ops.read(0, data.addr(0))?;
                        ops.write(0, data.addr(0), x + 1)
                    });
                    assert!(
                        !out.committed,
                        "a 100% livelock plan must never let a commit through"
                    );
                    w.stats().clone()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

#[test]
fn livelock_storm_is_detected_and_cancelled_by_the_watchdog() {
    // Optimistic schedulers retry failed commits forever (their lock
    // waits are bounded try-spins, not wall-clock waits), so a total
    // livelock would hang them without the watchdog. TuFast itself
    // self-heals — its L rung and serial token are not optimistic — so
    // the row runs the forever-retry baselines the detector exists for.
    for flavor in ["occ", "hto"] {
        let mut layout = MemoryLayout::new();
        let data = layout.alloc("cells", 4);
        let sys = TxnSystem::build(4, layout, SystemConfig::default());
        let plan = FaultPlan::new(FaultSpec {
            seed: 0xC4A0_7001,
            livelock_permille: 1000,
            ..FaultSpec::default()
        });
        sys.set_fault_plan(Some(Arc::clone(&plan)));
        spawn_safety_canceller(&sys, Duration::from_secs(60));
        let dog = fast_watchdog(&sys);
        let stats = match flavor {
            "occ" => drive_livelocked_job(&Occ::new(Arc::clone(&sys)), &data),
            _ => drive_livelocked_job(&HTimestampOrdering::new(Arc::clone(&sys)), &data),
        };
        let report: WatchdogReport = dog.stop();

        assert!(
            report.cancelled,
            "{flavor}: watchdog never cancelled (safety canceller ended the job); {report:?}"
        );
        assert_eq!(report.rungs_taken, 4, "{flavor}: {report:?}");
        assert!(
            report.livelock_scans >= 1,
            "{flavor}: livelock detector never fired; {report:?}"
        );
        assert_eq!(sys.cancel_token().reason(), Some(AbortReason::Cancelled));
        assert_eq!(sys.health().counters().watchdog_escalations, 4, "{flavor}");
        assert!(plan.injected(FaultKind::Livelock) > 0, "{flavor}");
        let total: SchedStats = stats.iter().fold(SchedStats::default(), |mut acc, s| {
            acc.commits += s.commits;
            acc.restarts += s.restarts;
            acc.health_stops += s.health_stops;
            acc
        });
        assert_eq!(total.commits, 0, "{flavor}");
        assert!(total.restarts > 0, "{flavor}: nobody even retried");
        assert!(
            total.health_stops >= THREADS as u64,
            "{flavor}: every worker must unwind through a health stop"
        );
        assert_all_locks_free(&sys, 4, flavor);
    }
}

#[test]
fn seeded_stall_walks_the_full_escalation_ladder() {
    // A persistent wedge (no heartbeats, not idle) on every TuFast router
    // worker from its first attempt. The wedge vastly outlasts the
    // fast-scan ladder, so the watchdog must walk boost → victims →
    // serial → cancel, and every flag must be latched when it is done.
    let mut layout = MemoryLayout::new();
    let data = layout.alloc("cells", 4);
    let sys = TxnSystem::build(4, layout, SystemConfig::default());
    // TuFast workers embed an L-rung 2PL worker that consumes its own
    // worker id, so the stall is seeded on *any* worker rather than a
    // specific id. The spin count keeps even the cheapest spin-loop
    // wedged for far longer than the ~5ms ladder needs.
    let plan = FaultPlan::new(FaultSpec {
        seed: 0xC4A0_7002,
        stall_worker: CRASH_ANY_WORKER,
        stall_at_probe: 1,
        stall_spins: 120_000_000,
        ..FaultSpec::default()
    });
    sys.set_fault_plan(Some(Arc::clone(&plan)));
    spawn_safety_canceller(&sys, Duration::from_secs(60));
    let dog = fast_watchdog(&sys);
    let sched = TuFast::new(Arc::clone(&sys));
    let workers: Vec<_> = (0..THREADS).map(|_| sched.worker()).collect();
    std::thread::scope(|s| {
        for mut w in workers {
            let sys = &sys;
            s.spawn(move || {
                // Each worker wedges inside its first attempt; once the
                // cancel latches, later executes health-stop at entry.
                for _ in 0..4 {
                    if sys.cancel_token().is_stopped() {
                        break;
                    }
                    w.execute(2, &mut |ops| {
                        let x = ops.read(0, data.addr(0))?;
                        ops.write(0, data.addr(0), x + 1)
                    });
                }
            });
        }
    });
    let report = dog.stop();

    assert!(report.cancelled, "watchdog never cancelled: {report:?}");
    assert_eq!(report.rungs_taken, 4, "{report:?}");
    assert!(
        report.stall_scans >= 1,
        "stall detector never fired: {report:?}"
    );
    assert!(plan.injected(FaultKind::Stall) > 0, "wedge never armed");
    let board = sys.health();
    assert_eq!(board.rung(), tufast_txn::Rung::Cancel, "ladder not latched");
    assert_eq!(sys.cancel_token().reason(), Some(AbortReason::Cancelled));
    assert_eq!(board.counters().watchdog_escalations, 4);
    assert_all_locks_free(&sys, 4, "stall ladder");
}

#[test]
fn mid_run_cancel_releases_locks_and_keeps_the_history_serializable() {
    // Cancellation-is-clean: a healthy, heavily conflicting TuFast job is
    // cancelled from outside mid-flight. Every worker must unwind at an
    // attempt boundary — vertex locks all free, the recorded history of
    // whatever *did* commit still serializable, and the commit ledger
    // must show the job actually stopped early.
    let cells = 8u64;
    let mut layout = MemoryLayout::new();
    let data = layout.alloc("cells", cells);
    let sys = TxnSystem::build(cells as usize, layout, SystemConfig::default());
    let observer = Arc::new(Recorder::new());
    sys.set_observer(Some(Arc::clone(&observer) as Arc<dyn TxnObserver>));
    let sched = TuFast::new(Arc::clone(&sys));
    let txns_per_thread = 200_000u64;

    let canceller = {
        let sys = Arc::clone(&sys);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            sys.cancel_token().cancel();
        })
    };
    let workers: Vec<_> = (0..THREADS).map(|_| sched.worker()).collect();
    let stats: Vec<SchedStats> = std::thread::scope(|s| {
        let handles: Vec<_> = workers
            .into_iter()
            .enumerate()
            .map(|(ti, mut w)| {
                s.spawn(move || {
                    for k in 0..txns_per_thread {
                        let c = (ti as u64 + k) % cells;
                        let out = w.execute(2, &mut |ops| {
                            let x = ops.read(c as u32, data.addr(c))?;
                            ops.write(c as u32, data.addr(c), x + 1)
                        });
                        if !out.committed {
                            // The body never user-aborts: the only
                            // non-commit outcome is the health stop.
                            break;
                        }
                    }
                    w.stats().clone()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    canceller.join().unwrap();
    sys.set_observer(None);

    let committed: u64 = stats.iter().map(|s| s.commits).sum();
    let stops: u64 = stats.iter().map(|s| s.health_stops).sum();
    assert!(
        committed < THREADS as u64 * txns_per_thread,
        "the job ran to completion before the 5ms cancel — grow the workload"
    );
    assert!(stops >= 1, "no worker observed the cancel");
    assert_eq!(sys.cancel_token().reason(), Some(AbortReason::Cancelled));
    assert_all_locks_free(&sys, cells as u32, "mid-run cancel");
    let report = check(&observer.take_history());
    assert_eq!(report.committed as u64, committed);
    assert!(
        report.ok(),
        "history around a mid-run cancel is not serializable: {report:?}"
    );
}

#[test]
fn deadline_aborts_a_checkpointed_run_and_resume_is_bitwise_exact() {
    // Cancellation-is-clean, durable edition: a checkpointed BFS armed
    // with a deadline far shorter than the run aborts typed, writes a
    // final snapshot while unwinding, and a fresh system resumes from it
    // to the exact sequential fixpoint.
    let g = gen::grid2d(64, 64);
    let expected = bfs::sequential(&g, 0);
    let dir = temp_dir("deadline-ckpt");
    let store = SnapshotStore::open(&dir, "bfs").unwrap();

    let built = setup(&g, bfs::BfsSpace::alloc);
    built
        .sys
        .begin_job(Some(JobDeadline(Duration::from_millis(4))));
    let sched = TuFast::new(Arc::clone(&built.sys));
    let ckpt = Ckpt {
        store: &store,
        every_items: 16,
        resume: false,
    };
    let pool = StealPool::new(THREADS);
    let (sys, space) = (&built.sys, &built.space);
    let (_, report) =
        bfs::parallel_on(&g, &sched, sys, space, 0, THREADS, &pool, Some(ckpt)).unwrap();
    assert_eq!(
        report.aborted,
        Some(AbortReason::Deadline),
        "a 4ms deadline must end a multi-epoch 4096-vertex run early"
    );
    assert_eq!(report.final_snapshots, 1);
    let aborted = report.job_aborted().expect("typed abort");
    assert_eq!(aborted.reason, AbortReason::Deadline);
    assert_eq!(aborted.items_done, report.items_done);
    assert_eq!(built.sys.health().counters().deadline_aborts, 1);

    // The "process" is gone; rebuild without a deadline and resume.
    let (dist, report) = run_ckpt(RecoveryAlgo::Bfs, &g, THREADS, &store, 16, true, None).unwrap();
    assert_eq!(report.aborted, None);
    assert_eq!(report.recoveries, 1);
    assert_eq!(dist, expected, "resume from the abort snapshot diverged");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The transaction-free items the stale-skip cell waits for.
const TXN_FREE_ITEMS: u64 = 20;

#[test]
fn cancel_after_stale_skips_resumes_with_fresh_watermarks_exactly() {
    // Cancellation-is-clean against the stale-item skip (DESIGN.md §7):
    // every checkpointed driver is cancelled mid-drain *after* items were
    // skipped as already scanned. In-flight items re-queue themselves
    // without touching their watermark, the final snapshot carries values
    // and frontier but no watermarks, and a fresh system — every watermark
    // back at "never scanned" — resumes to the exact fixpoint.
    let g = star_plus_clique(600, 48);
    assert!(g.vertices().all(|v| g.degree(v) > 0));
    for algo in RecoveryAlgo::ALL {
        let label = algo.label();
        let baseline = baseline_result(algo, &g, THREADS);
        let dir = temp_dir(&format!("stale-cancel-{label}"));
        let store = SnapshotStore::open(&dir, label).unwrap();
        // Cancelled after the 20th item that ended without a transaction:
        // a stale item, or a scan of settled neighbours.
        let mut watch = None;
        let ckpt = Ckpt {
            store: &store,
            every_items: 40,
            resume: false,
        };
        let (_, report) = run_on(algo, &g, THREADS, Some(ckpt), |sys| {
            let token = sys.cancel_token().clone();
            let w = StaleWatch::after(TXN_FREE_ITEMS, move || token.cancel());
            watch = Some(Arc::clone(&w));
            Some(w)
        })
        .unwrap();
        assert_eq!(report.aborted, Some(AbortReason::Cancelled), "{label}");
        assert_eq!(report.final_snapshots, 1, "{label}");
        assert!(watch.unwrap().txn_free_items() >= TXN_FREE_ITEMS, "{label}");

        let (resumed, report) = run_ckpt(algo, &g, THREADS, &store, 40, true, None).unwrap();
        assert_eq!(report.aborted, None, "{label}");
        assert_eq!(report.recoveries, 1, "{label}");
        assert_eq!(
            resumed, baseline,
            "{label}: resume from the cancel snapshot diverged"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
