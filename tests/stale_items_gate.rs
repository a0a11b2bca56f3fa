//! Stale-work-item gate: a vertex improved `k` times sits in the pool `k`
//! times, and all but one of those items must cost no transaction, not a
//! neighbourhood scan (DESIGN.md §7, "Item ownership and stale items"). Tier-1 `cargo test` runs only this umbrella crate, so the
//! bound lives here. At one thread the counters repeat exactly — this is a
//! count, not a timing test.

#[path = "../crates/algos/tests/support/mod.rs"]
mod support;

mod counted;

use counted::{seeded_inputs as inputs, Counted, CountedPool};
use tufast_algos::{setup, sssp, wcc};

#[test]
fn sssp_reads_stay_near_one_scan_per_reached_vertex() {
    let (g, _, source) = inputs();
    let built = setup(&g, sssp::SsspSpace::alloc);
    let sched = Counted::new(&built.sys);
    let pool = CountedPool::new(sssp::bucket_pool(&g));
    let (dist, _) =
        sssp::parallel_on(&g, &sched, &built.sys, &built.space, source, 1, &pool, None).unwrap();
    assert_eq!(dist, sssp::sequential(&g, source));
    let stats = sched.take().sched;
    let (items, _) = pool.items();

    let reached = || {
        g.vertices()
            .filter(|&v| dist[v as usize] != sssp::UNREACHED)
    };
    assert!(
        2 * reached().count() >= g.num_vertices(),
        "source reaches too little"
    );
    let one_scan_each: u64 = reached().map(|v| g.degree(v) as u64 + 1).sum();
    assert!(
        items > reached().count() as u64,
        "no vertex was queued twice: the input no longer exercises stale items"
    );
    // One read per transaction plus 1.5 scans per reached vertex: re-scans
    // of a vertex whose distance really dropped, and restarts.
    let bound = stats.commits + one_scan_each * 3 / 2;
    assert!(
        stats.reads <= bound,
        "{} transactional reads for {} transactions over {} scan reads: above {bound}",
        stats.reads,
        stats.commits,
        one_scan_each
    );
}

/// The exact one-thread count; it was 25 764 while stale items re-scanned,
/// 13 799 while a scan read its settled neighbours in the transaction
/// (`settled_neighbours_gate.rs`), and 2 638 while an item with no
/// candidate still committed its one read of `value[v]`.
const WCC_READS_CEILING: u64 = 941;

#[test]
fn wcc_reads_are_pinned() {
    let (_, sym, _) = inputs();
    let built = setup(&sym, wcc::WccSpace::alloc);
    let sched = Counted::new(&built.sys);
    let labels = wcc::parallel(&sym, &sched, &built.sys, &built.space, 1);
    assert_eq!(labels, wcc::sequential(&sym));
    let reads = sched.take().sched.reads;
    assert!(
        reads <= WCC_READS_CEILING,
        "{reads} transactional reads, above the pinned {WCC_READS_CEILING}"
    );
}

#[test]
fn every_driver_equals_sequential() {
    let (g, sym, source) = inputs();
    for threads in [1, 4] {
        support::all_drivers_match_sequential(&g, &sym, source, threads);
    }
}
