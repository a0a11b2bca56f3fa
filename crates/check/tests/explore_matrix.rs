//! Acceptance matrix for the schedule explorer (ISSUE: tufast-check).
//!
//! Every workspace scheduler is driven through 1000+ explored schedules
//! and every resulting history must be conflict-serializable and
//! anomaly-free; conversely, a TuFast under a fault plan that seeds the
//! `skip_o_validation` bug must be caught.

use tufast::TuFastConfig;
use tufast_check::{Explorer, Schedule, SchedulerKind, WorkloadSpec};
#[cfg(feature = "faults")]
use tufast_txn::FaultSpec;

/// 150 schedules x 7 schedulers = 1050 explored runs, all clean.
#[test]
fn thousand_schedules_run_clean() {
    let mut schedules = vec![Schedule::Free, Schedule::RoundRobin];
    schedules.extend((0..140).map(Schedule::Seeded));
    schedules.extend((1..=8).map(Schedule::AbortEveryNth));
    assert_eq!(schedules.len() * 7, 1050);

    let ex = Explorer::default();
    let outcomes = ex.run_matrix(&schedules);
    assert_eq!(outcomes.len(), 1050);
    for out in &outcomes {
        out.assert_ok();
        // Gated schedules hold every thread to completion, so the full
        // 3x4 workload commits; Free runs may abort user-side only via
        // scheduler restarts, which still re-execute to commit.
        assert!(
            out.report.committed >= 12,
            "{} under {}: only {} commits",
            out.scheduler,
            out.schedule,
            out.report.committed
        );
    }
}

/// The seeded O-mode bug (validation skipped) must surface as a DSG
/// cycle or anomaly within a modest number of explored schedules.
#[cfg(feature = "faults")]
#[test]
fn seeded_bug_is_caught_by_exploration() {
    let spec = WorkloadSpec {
        hint: 8192,
        ..WorkloadSpec::default()
    };
    let bug = FaultSpec {
        skip_o_validation: true,
        ..FaultSpec::default()
    };
    let ex = Explorer::new(spec);
    let caught = (0..32).any(|seed| {
        !ex.run_tufast_faulty(bug.clone(), Schedule::Seeded(seed))
            .report
            .ok()
    });
    assert!(
        caught,
        "unvalidated O-mode commits survived 32 explored schedules"
    );
}

/// The same workload with validation left on is clean under the same
/// schedules — the catch above is the bug, not the oracle.
#[test]
fn validated_o_mode_is_clean_under_the_same_schedules() {
    let spec = WorkloadSpec {
        hint: 8192,
        ..WorkloadSpec::default()
    };
    let ex = Explorer::new(spec);
    for seed in 0..8 {
        ex.run_tufast_config(TuFastConfig::default(), Schedule::Seeded(seed))
            .assert_ok();
    }
}

/// SchedulerKind::all really covers seven distinct scheduler names.
#[test]
fn matrix_covers_seven_distinct_schedulers() {
    let ex = Explorer::default();
    let outcomes = ex.run_matrix(&[Schedule::RoundRobin]);
    let names: std::collections::BTreeSet<_> =
        outcomes.iter().map(|o| o.scheduler.clone()).collect();
    assert_eq!(
        names.len(),
        7,
        "expected 7 distinct schedulers, got {names:?}"
    );
    assert_eq!(SchedulerKind::all().len(), 7);
}
