//! Crash-recovery chaos matrix: seeded whole-run crashes against every
//! checkpointed algorithm driver, plus snapshot corruption/truncation
//! fallback. Deterministic algorithms (unique fixpoints) must produce
//! bitwise-identical results across crash → recover → finish.

use std::path::PathBuf;
use std::sync::Arc;

use tufast_algos::checkpoint::Ckpt;
use tufast_check::recovery::{
    baseline_result, corrupt_generation, crash_and_recover, forge_write_temp_crash,
    latest_valid_slot, run_ckpt, run_on, star_plus_clique, truncate_generation, RecoveryAlgo,
    StaleWatch,
};
use tufast_graph::snapshot::{SnapshotError, SnapshotStore};
use tufast_graph::{gen, Graph};
use tufast_txn::{is_injected_crash, FaultPlan, FaultSpec};

const THREADS: usize = 3;

fn graph_for(algo: RecoveryAlgo) -> Graph {
    match algo {
        RecoveryAlgo::Bfs | RecoveryAlgo::Wcc => gen::grid2d(20, 20),
        RecoveryAlgo::SsspFifo | RecoveryAlgo::SsspPriority => {
            gen::with_random_weights(&gen::grid2d(16, 16), 50, 7)
        }
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tufast-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn crash_then_recover_is_bitwise_identical_for_every_algorithm() {
    for algo in RecoveryAlgo::ALL {
        let g = graph_for(algo);
        let dir = temp_dir(&format!("crash-{}", algo.label()));
        // Whichever lane reaches the probe first dies: arming one fixed
        // lane lost the race whenever the others drained the job before
        // it got there. The smallest graph has 256 vertices, each one at
        // least one item, so over 3 lanes some lane always reaches
        // probe 80.
        let spec = FaultSpec {
            crash_worker: tufast_txn::CRASH_ANY_WORKER,
            crash_at_probe: 80,
            ..FaultSpec::default()
        };
        let out = crash_and_recover(algo, &g, THREADS, 24, spec, &dir).unwrap();
        assert!(out.crashed, "{}: seeded crash never fired", algo.label());
        assert_eq!(
            out.final_result,
            out.baseline,
            "{}: recovered result differs from uninterrupted run",
            algo.label()
        );
        if !out.cold_restart {
            assert_eq!(out.report.recoveries, 1, "{}", algo.label());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn late_crash_over_stealing_and_bucketed_drivers_resumes_exactly() {
    // The checkpointed drivers now run on the work-stealing pool (BFS,
    // WCC, SSSP-FIFO) and the delta-stepping bucket pool (SSSP-priority).
    // Crash late into larger graphs so the frontier being snapshotted and
    // recovered lives spread across per-worker deques / priority buckets,
    // not just the seed injector — the `pending_items` contract under
    // stealing is what this exercises.
    for algo in RecoveryAlgo::ALL {
        let g = match algo {
            RecoveryAlgo::Bfs | RecoveryAlgo::Wcc => gen::grid2d(40, 40),
            RecoveryAlgo::SsspFifo | RecoveryAlgo::SsspPriority => {
                gen::with_random_weights(&gen::grid2d(36, 36), 50, 23)
            }
        };
        let dir = temp_dir(&format!("late-crash-{}", algo.label()));
        // Under stealing the per-lane load split is nondeterministic
        // (one owner deque can hog a whole subtree of re-pushes), so the
        // crash is seeded on *whichever* lane reaches the probe first.
        // Every graph has ≥ 1296 vertices, each at least one item, over 3
        // lanes, so some lane always reaches probe 400 — and by then the pool has processed
        // an order of magnitude more than `every_items`, so epochs have
        // closed and recovery must find a snapshot, not cold-restart.
        let spec = FaultSpec {
            crash_worker: tufast_txn::CRASH_ANY_WORKER,
            crash_at_probe: 400,
            ..FaultSpec::default()
        };
        let out = crash_and_recover(algo, &g, THREADS, 40, spec, &dir).unwrap();
        assert!(out.crashed, "{}: seeded crash never fired", algo.label());
        assert!(
            !out.cold_restart,
            "{}: late crash must find a valid snapshot",
            algo.label()
        );
        assert_eq!(
            out.final_result,
            out.baseline,
            "{}: resume over stealing/bucketed pool diverged",
            algo.label()
        );
        assert_eq!(out.report.recoveries, 1, "{}", algo.label());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The transaction-free items the stale-skip cell waits for. On this
/// graph every BFS and Components item after the hub's is one, so at 20
/// they would die before the first epoch (40 items) closed.
const TXN_FREE_ITEMS: u64 = 100;

#[test]
fn crash_after_stale_skips_resumes_with_fresh_watermarks_exactly() {
    // The scan watermarks behind the stale-item skip (DESIGN.md §7) are
    // per run and never snapshotted. Crash a duplicate-heavy run late —
    // after items were skipped as already scanned — and resume on a fresh
    // system: the skipped items' work was owned by the scans that set the
    // watermarks, those scans committed before the snapshot or their
    // vertices are in its frontier, so starting over with no watermarks
    // must only cost redundant scans, never a missed relaxation.
    let g = star_plus_clique(600, 48);
    assert!(g.vertices().all(|v| g.degree(v) > 0));
    for algo in RecoveryAlgo::ALL {
        let label = algo.label();
        let baseline = baseline_result(algo, &g, THREADS);
        let dir = temp_dir(&format!("stale-crash-{label}"));
        let store = SnapshotStore::open(&dir, label).unwrap();
        // Die after the 100th item that ended without a transaction: a
        // stale item, or a scan of settled neighbours.
        let plan = FaultPlan::new(FaultSpec::default());
        let armed = Arc::clone(&plan);
        let watch = StaleWatch::after(TXN_FREE_ITEMS, move || armed.arm_crash());
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let ckpt = Ckpt {
                store: &store,
                every_items: 40,
                resume: false,
            };
            run_on(algo, &g, THREADS, Some(ckpt), |sys| {
                sys.set_fault_plan(Some(plan));
                Some(Arc::clone(&watch))
            })
        }));
        let payload = crashed.expect_err("the run finished before the crash was armed");
        assert!(is_injected_crash(payload.as_ref()), "{label}");
        assert!(watch.txn_free_items() >= TXN_FREE_ITEMS, "{label}");
        let store = SnapshotStore::open(&dir, label).unwrap();
        assert!(
            latest_valid_slot(&store).is_some(),
            "{label}: the crash must land after the first epoch closed"
        );
        let (resumed, report) = run_ckpt(algo, &g, THREADS, &store, 40, true, None).unwrap();
        assert_eq!(resumed, baseline, "{label}: resume diverged");
        assert_eq!(report.recoveries, 1, "{label}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn crash_inside_the_write_temp_window_falls_back_and_resumes_exactly() {
    // The crash-during-snapshot-write row: a seeded `FaultKind::Crash`
    // kills the run mid-algorithm, and the on-disk state is then forged
    // into exactly what dying *inside* `SnapshotStore::write`'s temp
    // window leaves behind — a `.tmp{slot}` file (torn and fully-written
    // variants) beside untouched generation slots, the rename never
    // having happened. The two-generation store must ignore the residue,
    // fall back to the newest durable snapshot, and resume to a bitwise
    // identical answer.
    for torn in [true, false] {
        let algo = RecoveryAlgo::Bfs;
        let g = graph_for(algo);
        let baseline = baseline_result(algo, &g, THREADS);
        let dir = temp_dir(&format!("tmp-window-torn-{torn}"));
        let store = SnapshotStore::open(&dir, algo.label()).unwrap();
        let spec = FaultSpec {
            crash_worker: tufast_txn::CRASH_ANY_WORKER,
            crash_at_probe: 200,
            ..FaultSpec::default()
        };
        let plan = FaultPlan::new(spec);
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_ckpt(algo, &g, THREADS, &store, 24, false, Some(plan))
        }));
        let payload = crashed.expect_err("seeded crash never fired");
        assert!(is_injected_crash(payload.as_ref()));
        let store = SnapshotStore::open(&dir, algo.label()).unwrap();
        assert!(
            latest_valid_slot(&store).is_some(),
            "crash at probe 200 must land after the first epoch closed"
        );
        forge_write_temp_crash(&store, torn).unwrap();
        // A fresh "process" resumes: the temp residue is inert, the
        // fallback generation seeds the run, and the fixpoint is exact.
        let store = SnapshotStore::open(&dir, algo.label()).unwrap();
        let (resumed, report) = run_ckpt(algo, &g, THREADS, &store, 24, true, None).unwrap();
        assert_eq!(resumed, baseline, "torn={torn}: resume diverged");
        assert_eq!(report.recoveries, 1);
        assert_eq!(
            report.snapshot_fallbacks, 0,
            "a temp file is not a generation and must not count as a fallback"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn crash_at_first_transaction_cold_restarts_cleanly() {
    // Probe 1: the first lane to finish an item dies there, before any
    // epoch can close. Recovery finds no snapshot and must fall back to
    // a clean fresh run, still bitwise-correct.
    let algo = RecoveryAlgo::Bfs;
    let g = graph_for(algo);
    let dir = temp_dir("crash-early");
    let spec = FaultSpec {
        crash_worker: tufast_txn::CRASH_ANY_WORKER,
        crash_at_probe: 1,
        ..FaultSpec::default()
    };
    let out = crash_and_recover(algo, &g, THREADS, 1_000_000, spec, &dir).unwrap();
    assert!(out.crashed);
    assert!(out.cold_restart, "no epoch closed, restart must be cold");
    assert_eq!(out.final_result, out.baseline);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_from_snapshot_matches_uninterrupted_run() {
    // Even without a crash: a fresh system seeded from any valid
    // (state, frontier) snapshot must converge to the same fixpoint.
    let algo = RecoveryAlgo::Wcc;
    let g = graph_for(algo);
    let baseline = baseline_result(algo, &g, THREADS);
    let dir = temp_dir("resume");
    let store = SnapshotStore::open(&dir, algo.label()).unwrap();
    let (first, report) = run_ckpt(algo, &g, THREADS, &store, 16, false, None).unwrap();
    assert_eq!(first, baseline);
    assert!(
        report.checkpoints_written >= 2,
        "need at least two generations, wrote {}",
        report.checkpoints_written
    );
    let (resumed, report) = run_ckpt(algo, &g, THREADS, &store, 16, true, None).unwrap();
    assert_eq!(resumed, baseline);
    assert_eq!(report.recoveries, 1);
    assert_eq!(report.snapshot_fallbacks, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_latest_generation_falls_back_to_previous() {
    let algo = RecoveryAlgo::Bfs;
    let g = graph_for(algo);
    let baseline = baseline_result(algo, &g, THREADS);
    let dir = temp_dir("corrupt-latest");
    let store = SnapshotStore::open(&dir, algo.label()).unwrap();
    let (_, report) = run_ckpt(algo, &g, THREADS, &store, 16, false, None).unwrap();
    assert!(report.checkpoints_written >= 2);
    let latest = latest_valid_slot(&store).unwrap();
    corrupt_generation(&store, latest).unwrap();
    // A fresh "process": reopen the store, resume past the bad file.
    let store = SnapshotStore::open(&dir, algo.label()).unwrap();
    let (resumed, report) = run_ckpt(algo, &g, THREADS, &store, 16, true, None).unwrap();
    assert_eq!(
        resumed, baseline,
        "fallback generation produced wrong result"
    );
    assert_eq!(report.snapshot_fallbacks, 1, "fallback not reported");
    assert_eq!(report.recoveries, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_write_falls_back_to_previous() {
    let algo = RecoveryAlgo::SsspPriority;
    let g = graph_for(algo);
    let baseline = baseline_result(algo, &g, THREADS);
    let dir = temp_dir("torn");
    let store = SnapshotStore::open(&dir, algo.label()).unwrap();
    let (_, report) = run_ckpt(algo, &g, THREADS, &store, 16, false, None).unwrap();
    assert!(report.checkpoints_written >= 2);
    let latest = latest_valid_slot(&store).unwrap();
    truncate_generation(&store, latest).unwrap();
    let store = SnapshotStore::open(&dir, algo.label()).unwrap();
    let (resumed, report) = run_ckpt(algo, &g, THREADS, &store, 16, true, None).unwrap();
    assert_eq!(resumed, baseline);
    assert_eq!(report.snapshot_fallbacks, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn all_generations_corrupt_surfaces_no_valid_snapshot() {
    let algo = RecoveryAlgo::Bfs;
    let g = graph_for(algo);
    let baseline = baseline_result(algo, &g, THREADS);
    let dir = temp_dir("all-corrupt");
    let store = SnapshotStore::open(&dir, algo.label()).unwrap();
    let (_, report) = run_ckpt(algo, &g, THREADS, &store, 16, false, None).unwrap();
    assert!(report.checkpoints_written >= 2);
    corrupt_generation(&store, 0).unwrap();
    corrupt_generation(&store, 1).unwrap();
    let store = SnapshotStore::open(&dir, algo.label()).unwrap();
    match run_ckpt(algo, &g, THREADS, &store, 16, true, None) {
        Err(SnapshotError::NoValidSnapshot) => {}
        other => panic!("expected NoValidSnapshot, got {other:?}"),
    }
    // The documented fallback: restart from scratch, still correct.
    let (fresh, _) = run_ckpt(algo, &g, THREADS, &store, 16, false, None).unwrap();
    assert_eq!(fresh, baseline);
    let _ = std::fs::remove_dir_all(&dir);
}
