//! The durability matrix: for every seeded WAL crash point, crash →
//! recover must yield precisely the committed-prefix graph — bitwise
//! against an independent hash-set model of the prefix, and
//! behaviourally through BFS/WCC re-runs (`prefix_exact()` asserts all
//! three). Cells: torn WAL append, lost fsync made observable by a
//! power cut, crash between the commit record turning durable and its
//! effects applying, crash on either side of checkpoint log truncation,
//! and checkpoints interleaved with a late crash (snapshot + replay).
//! The group-commit cells cover the writer's staging buffer: frames
//! acknowledged since the last sync live in process memory, so what a
//! death leaves is the last group boundary plus whatever reached the file
//! afterwards — the harness drops the graph after catching the crash, and
//! the drop writes what is staged; a power cut takes that away again.

#![cfg(feature = "faults")]

use std::path::PathBuf;

use tufast_check::durability::{run_cell, scripted_mutations, DurabilityCell, DurabilityOutcome};
use tufast_graph::mutable::OverlayConfig;
use tufast_graph::wal::SyncPolicy;
use tufast_graph::{gen, Graph};
use tufast_txn::{FaultKind, FaultSpec};

const BASE_NV: usize = 30;
const CAPACITY: usize = 40;
const SCRIPT_LEN: usize = 60;

fn base() -> Graph {
    gen::grid2d(5, 6)
}

fn overlay() -> OverlayConfig {
    OverlayConfig {
        slot_cap: 256,
        stripes: 8,
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tufast-durab-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn wal_spec() -> FaultSpec {
    FaultSpec::default()
}

#[test]
fn torn_wal_append_recovers_the_prefix_before_the_tear() {
    let g = base();
    let script = scripted_mutations(BASE_NV, CAPACITY, SCRIPT_LEN, 0xA1);
    let spec = FaultSpec {
        torn_wal_at_append: 17,
        ..wal_spec()
    };
    let out = run_cell(
        &temp_dir("torn"),
        &g,
        CAPACITY,
        overlay(),
        &script,
        &DurabilityCell {
            fault: spec,
            ..DurabilityCell::default()
        },
    );
    assert!(out.crashed, "the torn append must kill the run");
    assert_eq!(out.acked, 16, "the 17th mutation never returned");
    assert_eq!(out.recovered_lsn, 16, "the torn frame must not survive");
    assert!(out.recovery.wal_truncated_bytes > 0, "the tail was torn");
    assert!(out.prefix_exact());
}

#[test]
fn lost_fsync_power_cut_loses_only_the_unacked_tail() {
    let g = base();
    let script = scripted_mutations(BASE_NV, CAPACITY, SCRIPT_LEN, 0xB2);
    let spec = FaultSpec {
        lost_fsync_permille: 500,
        ..wal_spec()
    };
    // Group size 7 does not divide the 60-entry script, so the last few
    // commits are pending-unsynced at the cut — guaranteed loss even
    // before any fsync lies; the lies can only move the cut earlier.
    let out = run_cell(
        &temp_dir("lostfsync"),
        &g,
        CAPACITY,
        overlay(),
        &script,
        &DurabilityCell {
            fault: spec,
            policy: SyncPolicy::Group { max_pending: 7 },
            power_cut: true,
            ..DurabilityCell::default()
        },
    );
    assert!(!out.crashed, "a lying disk does not crash the process");
    assert_eq!(out.acked, SCRIPT_LEN);
    assert!(
        out.recovered_lsn < SCRIPT_LEN as u64,
        "the unsynced tail must be gone after the cut"
    );
    assert!(
        out.recovered_lsn.is_multiple_of(7),
        "the durable length can only sit on a group boundary (got {})",
        out.recovered_lsn
    );
    // The durable length always sits on a frame boundary, so the cut
    // leaves a parseable prefix and recovery truncates nothing further.
    assert_eq!(out.recovery.wal_truncated_bytes, 0);
    assert!(out.prefix_exact());
}

#[test]
fn every_commit_fsync_survives_a_power_cut_completely() {
    // Control for the lost-fsync cell: with an honest disk and
    // per-commit fsync, the power cut removes nothing.
    let g = base();
    let script = scripted_mutations(BASE_NV, CAPACITY, SCRIPT_LEN, 0xB3);
    let out = run_cell(
        &temp_dir("honest"),
        &g,
        CAPACITY,
        overlay(),
        &script,
        &DurabilityCell {
            power_cut: true,
            ..DurabilityCell::default()
        },
    );
    assert!(!out.crashed);
    assert_eq!(out.recovered_lsn, SCRIPT_LEN as u64);
    assert!(out.prefix_exact());
}

#[test]
fn crash_between_durable_record_and_apply_is_finished_by_redo() {
    let g = base();
    let script = scripted_mutations(BASE_NV, CAPACITY, SCRIPT_LEN, 0xC3);
    let spec = FaultSpec {
        crash_at_wal_commit: 23,
        ..wal_spec()
    };
    let out = run_cell(
        &temp_dir("midcommit"),
        &g,
        CAPACITY,
        overlay(),
        &script,
        &DurabilityCell {
            fault: spec,
            ..DurabilityCell::default()
        },
    );
    assert!(out.crashed);
    assert_eq!(out.acked, 22, "the 23rd commit died before acking");
    assert_eq!(
        out.recovered_lsn, 23,
        "the durable-but-unapplied record must be redone, not dropped"
    );
    assert!(out.prefix_exact());
}

#[test]
fn crash_before_truncation_keeps_the_log_and_loses_nothing() {
    let g = base();
    let script = scripted_mutations(BASE_NV, CAPACITY, SCRIPT_LEN, 0xD4);
    let spec = FaultSpec {
        crash_at_truncation: 1, // probe before set_len: snapshot durable, log intact
        ..wal_spec()
    };
    let out = run_cell(
        &temp_dir("trunc-before"),
        &g,
        CAPACITY,
        overlay(),
        &script,
        &DurabilityCell {
            fault: spec,
            checkpoint_every: Some(20),
            ..DurabilityCell::default()
        },
    );
    assert!(out.crashed);
    assert_eq!(out.acked, 20, "died inside the first checkpoint");
    assert_eq!(out.recovered_lsn, 20);
    assert_eq!(
        out.recovery.snapshot_epoch,
        Some(20),
        "the snapshot was durable before truncation began"
    );
    assert!(out.prefix_exact());
}

#[test]
fn crash_after_truncation_recovers_from_the_snapshot_alone() {
    let g = base();
    let script = scripted_mutations(BASE_NV, CAPACITY, SCRIPT_LEN, 0xE5);
    let spec = FaultSpec {
        crash_at_truncation: 2, // probe after set_len: log already emptied
        ..wal_spec()
    };
    let out = run_cell(
        &temp_dir("trunc-after"),
        &g,
        CAPACITY,
        overlay(),
        &script,
        &DurabilityCell {
            fault: spec,
            checkpoint_every: Some(20),
            ..DurabilityCell::default()
        },
    );
    assert!(out.crashed);
    assert_eq!(out.acked, 20);
    assert_eq!(out.recovered_lsn, 20);
    assert_eq!(out.recovery.snapshot_epoch, Some(20));
    assert_eq!(out.recovery.wal_records, 0, "the log died empty");
    assert_eq!(out.recovery.replayed, 0);
    assert!(out.prefix_exact());
}

#[test]
fn late_crash_after_checkpoints_recovers_snapshot_plus_replay() {
    // Checkpoints at 15/30/45, torn append at mutation 53: recovery must
    // combine the epoch-45 snapshot with the log records 46..=52.
    let g = base();
    let script = scripted_mutations(BASE_NV, CAPACITY, SCRIPT_LEN, 0xF6);
    let spec = FaultSpec {
        torn_wal_at_append: 53,
        ..wal_spec()
    };
    let out = run_cell(
        &temp_dir("snap-replay"),
        &g,
        CAPACITY,
        overlay(),
        &script,
        &DurabilityCell {
            fault: spec,
            checkpoint_every: Some(15),
            ..DurabilityCell::default()
        },
    );
    assert!(out.crashed);
    assert_eq!(out.acked, 52);
    assert_eq!(out.recovered_lsn, 52);
    assert_eq!(out.recovery.snapshot_epoch, Some(45));
    assert_eq!(out.recovery.replayed, 7, "LSNs 46..=52 come from the log");
    assert!(out.prefix_exact());
}

/// Group commit of 7 over the 60-entry script, one seeded fault.
fn group7_cell(tag: &str, seed: u64, fault: FaultSpec, power_cut: bool) -> DurabilityOutcome {
    let script = scripted_mutations(BASE_NV, CAPACITY, SCRIPT_LEN, seed);
    run_cell(
        &temp_dir(tag),
        &base(),
        CAPACITY,
        overlay(),
        &script,
        &DurabilityCell {
            fault,
            policy: SyncPolicy::Group { max_pending: 7 },
            power_cut,
            ..DurabilityCell::default()
        },
    )
}

#[test]
fn torn_append_under_group_commit_keeps_the_staged_whole_frames() {
    // Mutations 15 and 16 are staged when the 17th tears: the writer hands
    // them to the file before the half frame, so the tear costs only itself.
    let torn = FaultSpec {
        torn_wal_at_append: 17,
        ..wal_spec()
    };
    let out = group7_cell("group-torn", 0xA7, torn.clone(), false);
    assert!(out.crashed);
    assert_eq!(out.acked, 16);
    assert_eq!(out.recovered_lsn, 16, "whole frames first, then the tear");
    assert!(out.recovery.wal_truncated_bytes > 0, "the tail was torn");
    assert!(out.prefix_exact());

    // A power cut leaves what the last group sync made durable.
    let out = group7_cell("group-torn-cut", 0xA7, torn, true);
    assert!(out.crashed);
    assert_eq!(out.acked, 16);
    assert_eq!(out.recovered_lsn, 14, "the last group boundary");
    assert!(out.prefix_exact());
}

#[test]
fn crash_mid_commit_under_group_commit_recovers_a_group_prefix() {
    let crash = FaultSpec {
        crash_at_wal_commit: 23,
        ..wal_spec()
    };
    // Frames 22 and 23 were staged at the death. The group-commit contract
    // promises the boundary (21); the drop of the dead writer may add them.
    let out = group7_cell("group-midcommit", 0xC7, crash.clone(), false);
    assert!(out.crashed);
    assert_eq!(out.acked, 22);
    assert!(
        (21..=23).contains(&out.recovered_lsn),
        "between the last group boundary and the dying commit (got {})",
        out.recovered_lsn
    );
    assert!(out.prefix_exact());

    let out = group7_cell("group-midcommit-cut", 0xC7, crash, true);
    assert!(out.crashed);
    assert_eq!(out.recovered_lsn, 21, "exactly the last group boundary");
    assert_eq!(out.recovery.wal_truncated_bytes, 0);
    assert!(out.prefix_exact());
}

#[test]
fn clean_drop_under_group_commit_writes_the_staged_tail() {
    // 60 = 8 groups of 7 + 4: the harness drops the graph without `sync()`,
    // and the drop must hand the last 4 frames to the file.
    let out = group7_cell("group-clean-drop", 0xD7, wal_spec(), false);
    assert!(!out.crashed);
    assert_eq!(out.acked, SCRIPT_LEN);
    assert_eq!(out.recovered_lsn, SCRIPT_LEN as u64);
    assert_eq!(out.recovery.wal_truncated_bytes, 0);
    assert!(out.prefix_exact());
}

#[test]
fn fault_counters_confirm_each_seeded_site_fired() {
    // The matrix is only meaningful if the seeded faults actually fire;
    // each kind leaves a distinctive observable, so check one
    // representative per kind, under per-commit and under group sync.
    fault_sites_fire_under(SyncPolicy::EveryCommit, "every");
    fault_sites_fire_under(SyncPolicy::Group { max_pending: 4 }, "group4");
}

fn fault_sites_fire_under(policy: SyncPolicy, sync: &str) {
    for (spec, kind, checkpoint) in [
        (
            FaultSpec {
                torn_wal_at_append: 5,
                ..wal_spec()
            },
            FaultKind::TornWalWrite,
            None,
        ),
        (
            FaultSpec {
                lost_fsync_permille: 1000,
                ..wal_spec()
            },
            FaultKind::LostFsync,
            None,
        ),
        (
            FaultSpec {
                crash_at_wal_commit: 5,
                ..wal_spec()
            },
            FaultKind::CrashDuringCommit,
            None,
        ),
        (
            FaultSpec {
                crash_at_truncation: 1,
                ..wal_spec()
            },
            FaultKind::CrashDuringTruncation,
            Some(8),
        ),
    ] {
        let g = base();
        let script = scripted_mutations(BASE_NV, CAPACITY, 20, 0x99);
        let label = kind.label();
        let out = run_cell(
            &temp_dir(&format!("counter-{label}-{sync}")),
            &g,
            CAPACITY,
            overlay(),
            &script,
            &DurabilityCell {
                fault: spec,
                policy,
                checkpoint_every: checkpoint,
                power_cut: kind == FaultKind::LostFsync,
            },
        );
        match kind {
            FaultKind::TornWalWrite
            | FaultKind::CrashDuringCommit
            | FaultKind::CrashDuringTruncation => {
                assert!(out.crashed, "{label} must crash the run");
            }
            FaultKind::LostFsync => {
                assert!(!out.crashed);
                assert_eq!(
                    out.recovered_lsn, 0,
                    "every fsync lied; the power cut must erase the whole log"
                );
            }
            _ => unreachable!(),
        }
        assert!(out.prefix_exact(), "{label} cell must stay prefix-exact");
    }
}

#[test]
fn double_recovery_is_idempotent() {
    // Crash, recover, then recover again without mutating: the second
    // recovery must see exactly what the first left and produce the same
    // graph — replay is LSN-gated, not effect-duplicating.
    use tufast_check::durability::model_graph;

    let g = base();
    let script = scripted_mutations(BASE_NV, CAPACITY, SCRIPT_LEN, 0x77);
    let spec = FaultSpec {
        crash_at_wal_commit: 31,
        ..wal_spec()
    };
    let dir = temp_dir("twice");
    let out = run_cell(
        &dir,
        &g,
        CAPACITY,
        overlay(),
        &script,
        &DurabilityCell {
            fault: spec,
            checkpoint_every: Some(10),
            ..DurabilityCell::default()
        },
    );
    assert!(out.crashed && out.prefix_exact());
    assert_eq!(out.recovered_lsn, 31);
    // Second, plain reopen of the same directory.
    use std::sync::Arc;
    use tufast_graph::durable::DurableOpen;
    use tufast_htm::MemoryLayout;
    use tufast_txn::{SystemConfig, TxnSystem};
    let mut layout = MemoryLayout::new();
    let prep = DurableOpen::begin(&dir, SyncPolicy::EveryCommit, &mut layout).unwrap();
    let system = TxnSystem::build(prep.capacity(), layout, SystemConfig::default());
    let (dg, _) = prep.finish(&system).unwrap();
    assert_eq!(dg.last_lsn(), 31);
    assert_eq!(dg.materialize(), model_graph(&g, &script, 31));
    drop(Arc::clone(&system));
}
