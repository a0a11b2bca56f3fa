//! The chaos matrix: every scheduler × every standard fault plan must
//! terminate with all transactions committed and a serializable history,
//! and a panicking transaction body must be contained cleanly everywhere.
//!
//! All plans use fixed seeds (see `ChaosPlan::standard`), so a failure
//! here replays deterministically given the same thread interleaving —
//! and the fault *decisions* replay exactly regardless of interleaving.

#![cfg(feature = "faults")]

use tufast_check::{panic_probe, ChaosPlan, ChaosRunner, SchedulerKind, WorkloadSpec};

#[test]
fn every_scheduler_survives_every_standard_plan() {
    let runner = ChaosRunner::default();
    let outcomes = runner.run_matrix(&ChaosPlan::standard());
    assert_eq!(outcomes.len(), 6 * 7);
    for out in &outcomes {
        out.assert_survived();
    }
    // The storms must actually storm: each rate-bearing plan injected
    // faults somewhere in its seven runs.
    for plan in ChaosPlan::standard() {
        if plan.name == "htm-off" {
            continue; // degradation switch, not an injection plan
        }
        let injected: u64 = outcomes
            .iter()
            .filter(|o| o.plan == plan.name)
            .map(|o| o.injected)
            .sum();
        assert!(injected > 0, "plan {} injected nothing", plan.name);
    }
}

#[test]
fn o_mode_tufast_survives_spurious_storm() {
    // A hint above H's reach (the HTM capacity) forces TuFast through O (all-HTM
    // pieces) under a 100% spurious storm: it must degrade to L and
    // still commit everything.
    let runner = ChaosRunner::new(WorkloadSpec {
        hint: 8192,
        ..WorkloadSpec::default()
    });
    let plans = ChaosPlan::standard();
    let storm = plans
        .iter()
        .find(|p| p.name == "spurious-storm")
        .expect("standard plans include the spurious storm");
    runner.run(SchedulerKind::TuFast, storm).assert_survived();
}

#[test]
fn heavier_mixed_chaos_on_tufast_and_2pl() {
    // A longer run on the two ladder-critical schedulers, under the
    // everything-at-once plan.
    let runner = ChaosRunner::new(WorkloadSpec {
        threads: 4,
        txns_per_thread: 25,
        cells: 6,
        cells_per_txn: 2,
        hint: 8,
    });
    let plans = ChaosPlan::standard();
    let mixed = plans
        .iter()
        .find(|p| p.name == "mixed-chaos")
        .expect("standard plans include mixed chaos");
    for kind in [SchedulerKind::TuFast, SchedulerKind::TwoPhaseLocking] {
        runner.run(kind, mixed).assert_survived();
    }
}

#[test]
fn panicking_bodies_are_contained_by_every_scheduler() {
    for kind in SchedulerKind::all() {
        panic_probe(kind);
    }
}
