//! The R-mode reader matrix: declared-pure snapshot readers must observe
//! consistent snapshots (zero fractured reads, DSG-clean histories)
//! against every writer scheduler, in the fault-free cell and in the
//! seeded fault cell where a writer crashes mid-pair while readers are
//! live — and quiesced pure reads must take no locks and issue no
//! hardware transactions anywhere.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use tufast_check::{
    fallback_load_probe, fallback_peek_probe, load_probe, paired_peek_probe, peek_probe,
    quiesced_read_probe, ReadersPlan, ReadersRunner, ReadersSpec, SchedulerKind,
};
use tufast_graph::mutable::{MutationOutcome, MUTATION_HINT};
use tufast_graph::{GraphBuilder, MutableGraph, OverlayConfig};
use tufast_htm::MemoryLayout;
use tufast_txn::{GraphScheduler, SystemConfig, TxnHint, TxnSystem, TxnWorker, VertexId};

#[test]
fn readers_stay_consistent_under_every_scheduler_and_plan() {
    let runner = ReadersRunner::default();
    let outcomes = runner.run_matrix(&ReadersPlan::standard());
    assert_eq!(outcomes.len(), 2 * 7);
    for out in &outcomes {
        out.assert_consistent();
    }
}

/// Commit batches that span several lines: with every half-pair on its own
/// data line and lock-word line, each writer commit publishes (or, under
/// 2PL, re-stamps and releases) four lines at one ticket, and a reader can
/// pin between any two of them. O-mode and L-mode writers are picked by
/// hint under TuFast; 2PL, OCC and TO run the same batches standalone.
#[test]
fn readers_pinned_inside_multi_line_batches_never_fracture() {
    let plans = ReadersPlan::standard();
    let quiet = plans
        .iter()
        .find(|p| p.name == "quiet")
        .expect("quiet plan");
    let rows = [
        (SchedulerKind::TuFast, 8192),    // past H: optimistic commit batch
        (SchedulerKind::TuFast, 1 << 20), // past O: 2PL release batch
        (SchedulerKind::TwoPhaseLocking, 6),
        (SchedulerKind::Occ, 6),
        (SchedulerKind::TimestampOrdering, 6),
        (SchedulerKind::HSync, 6),
    ];
    for (kind, writer_hint) in rows {
        let runner = ReadersRunner::new(ReadersSpec {
            stride: 8,
            writer_hint,
            ..ReadersSpec::default()
        });
        runner.run(kind, quiet).assert_consistent();
    }
}

#[test]
fn quiesced_pure_reads_are_free_under_every_scheduler() {
    for kind in SchedulerKind::all() {
        quiesced_read_probe(kind);
    }
}

/// The unpinned bracket behind the settled-neighbour filter, in passes over
/// a whole neighbourhood: racing every scheduler's writers (TuFast's in H,
/// O and L mode), an always-aborting 2PL writer and HSync's fallback path,
/// a pass that finishes quiet never returned a rolled-back store.
#[test]
fn committed_peeks_never_see_an_aborted_write_under_any_scheduler() {
    for kind in SchedulerKind::all() {
        peek_probe(kind, 6);
    }
    peek_probe(SchedulerKind::TuFast, 8192);
    peek_probe(SchedulerKind::TuFast, 1 << 20);
    fallback_peek_probe();
}

/// The one-load read behind the settled-neighbour filter, in the same
/// passes and against the same writers as the peeks above, over cells of
/// their own and paired with their lock words: no committer stores a data
/// word before its point of no return, so a plain load never returns a
/// rolled-back store either.
#[test]
fn committed_loads_never_see_an_aborted_write_under_any_scheduler() {
    for kind in SchedulerKind::all() {
        load_probe(kind, 6, false);
        load_probe(kind, 6, true);
    }
    load_probe(SchedulerKind::TuFast, 8192, false);
    load_probe(SchedulerKind::TuFast, 1 << 20, false);
    fallback_load_probe();
}

/// A vertex is one line: the readers of both plans and the peek passes
/// over cells paired with their lock words (`MemoryLayout::alloc_paired`),
/// so the lock word a bracket loads twice and the value it brackets share
/// one line, and every lock-word RMW re-stamps the value's line.
#[test]
fn readers_and_peeks_over_a_paired_region_under_every_scheduler() {
    let runner = ReadersRunner::new(ReadersSpec {
        paired: true,
        ..ReadersSpec::default()
    });
    let outcomes = runner.run_matrix(&ReadersPlan::standard());
    assert_eq!(outcomes.len(), 2 * 7);
    for out in &outcomes {
        out.assert_consistent();
    }
    for kind in SchedulerKind::all() {
        paired_peek_probe(kind, 6);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random small geometries on the two ladder-critical schedulers:
    /// whatever the thread/pair mix, snapshot reads never fracture.
    #[test]
    fn random_geometries_never_fracture(
        pairs in 1u64..5,
        writers in 1usize..3,
        readers in 1usize..4,
        txns in 20usize..80,
    ) {
        let runner = ReadersRunner::new(ReadersSpec {
            pairs,
            writers,
            writer_txns: txns,
            readers,
            reader_txns: txns * 2,
            ..ReadersSpec::default()
        });
        let plans = ReadersPlan::standard();
        let quiet = plans.iter().find(|p| p.name == "quiet").expect("quiet plan");
        for kind in [SchedulerKind::TuFast, SchedulerKind::TwoPhaseLocking] {
            runner.run(kind, quiet).assert_consistent();
        }
    }
}

/// R-mode readers compose with `MutableGraph`'s delta overlay: a writer
/// appends edges `0 → t` for `t = 1, 2, …` in order, so every consistent
/// snapshot of vertex 0's adjacency is exactly the prefix
/// `{1, …, k}` — a gap or an out-of-order tail is a fractured chain read.
#[test]
fn snapshot_readers_see_prefix_consistent_overlay_chains() {
    let targets = 24u32;
    let base = GraphBuilder::new(targets as usize + 1).build();
    let capacity = base.num_vertices();
    let mut layout = MemoryLayout::new();
    let mg = Arc::new(MutableGraph::carve(
        base,
        capacity,
        OverlayConfig::default(),
        &mut layout,
    ));
    let sys = TxnSystem::build(capacity, layout, SystemConfig::default());
    mg.init(sys.mem());

    let sched = tufast::TuFast::new(Arc::clone(&sys));
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let writer_mg = Arc::clone(&mg);
        let writer_sched = &sched;
        let done_ref = &done;
        s.spawn(move || {
            let mut w = writer_sched.worker();
            for t in 1..=targets {
                let out = writer_mg.add_edge(&mut w, 0, t as VertexId, t);
                assert_eq!(out, MutationOutcome::Applied);
            }
            done_ref.store(true, Ordering::Release);
        });
        for _ in 0..2 {
            let reader_mg = Arc::clone(&mg);
            let reader_sched = &sched;
            let done_ref = &done;
            s.spawn(move || {
                let mut w = reader_sched.worker();
                let mut out = Vec::new();
                loop {
                    let res = w.execute_hinted(TxnHint::read_only(MUTATION_HINT), &mut |ops| {
                        reader_mg.txn_neighbors(ops, 0, &mut out)
                    });
                    assert!(res.committed);
                    for (i, &(dst, weight)) in out.iter().enumerate() {
                        assert_eq!(
                            dst,
                            i as VertexId + 1,
                            "snapshot adjacency is not a prefix: {out:?}"
                        );
                        assert_eq!(weight, dst, "edge weight fractured: {out:?}");
                    }
                    if done_ref.load(Ordering::Acquire) {
                        break;
                    }
                }
                assert!(
                    w.stats().r_commits > 0,
                    "no overlay reads landed on the R fast path"
                );
                // The writer has finished: a final snapshot sees it all.
                let res = w.execute_hinted(TxnHint::read_only(MUTATION_HINT), &mut |ops| {
                    reader_mg.txn_neighbors(ops, 0, &mut out)
                });
                assert!(res.committed);
                assert_eq!(out.len(), targets as usize);
            });
        }
    });
}
