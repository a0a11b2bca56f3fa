//! Settled-neighbour gate: the shared BFS / WCC / SSSP item body reads
//! inside its transaction only the neighbours its committed peeks could
//! not rule out, and an item left with no candidate opens no transaction
//! (DESIGN.md §7, "Settled neighbours"). The filter replaces tracked reads
//! and transactions, nothing else: the same pool items, the same results,
//! and no more transactional reads than one per transaction plus a few
//! per write. At one thread the counters repeat exactly — this is a
//! count, not a timing test.

mod counted;

use counted::{seeded_inputs, Counted, CountedPool};
use tufast::{StealPool, TuFastStats};
use tufast_algos::{bfs, setup, sssp, wcc};

/// The one-thread pool items of the body before the filter, whose items
/// read every neighbour inside one transaction each (7 146 / 13 799 /
/// 7 696 reads).
const BFS_ITEMS: u64 = 694;
const WCC_ITEMS: u64 = 1_831;
const SSSP_ITEMS: u64 = 1_244;

/// The one-thread commits: one per item with a candidate.
const BFS_COMMITS: u64 = 163;
const WCC_COMMITS: u64 = 134;
const SSSP_COMMITS: u64 = 212;

/// `writes` itself is not comparable across the change — H mode counts the
/// operations of aborted attempts, O mode does not, and hubs moved from O
/// to H — but it bounds the reads: a transaction reads `v`, and a
/// candidate is read because it may be written.
///
/// `items` is the pool's `(pops, dones)`; `pins` the pinned items and
/// commits.
fn assert_filtered(what: &str, stats: TuFastStats, items: (u64, u64), pins: (u64, u64)) {
    assert_eq!(items, (pins.0, pins.0), "{what}: not the same pool items");
    let s = stats.sched;
    assert_eq!(
        s.commits, pins.1,
        "{what}: not one transaction per item with a candidate"
    );
    assert!(
        s.reads <= s.commits + 3 * s.writes,
        "{what}: {} transactional reads for {} transactions and {} writes",
        s.reads,
        s.commits,
        s.writes
    );
}

#[test]
fn bfs_reads_only_candidates() {
    let (g, _, source) = seeded_inputs();
    let built = setup(&g, bfs::BfsSpace::alloc);
    let sched = Counted::new(&built.sys);
    let pool = CountedPool::new(StealPool::new(1));
    let (dist, _) =
        bfs::parallel_on(&g, &sched, &built.sys, &built.space, source, 1, &pool, None).unwrap();
    assert_eq!(dist, bfs::sequential(&g, source));
    assert_filtered("bfs", sched.take(), pool.items(), (BFS_ITEMS, BFS_COMMITS));
}

#[test]
fn wcc_reads_only_candidates() {
    let (_, sym, _) = seeded_inputs();
    let built = setup(&sym, wcc::WccSpace::alloc);
    let sched = Counted::new(&built.sys);
    let pool = CountedPool::new(StealPool::new(1));
    let (labels, _) =
        wcc::parallel_on(&sym, &sched, &built.sys, &built.space, 1, &pool, None).unwrap();
    assert_eq!(labels, wcc::sequential(&sym));
    assert_filtered("wcc", sched.take(), pool.items(), (WCC_ITEMS, WCC_COMMITS));
}

#[test]
fn sssp_reads_only_candidates() {
    let (g, _, source) = seeded_inputs();
    let built = setup(&g, sssp::SsspSpace::alloc);
    let sched = Counted::new(&built.sys);
    let pool = CountedPool::new(sssp::bucket_pool(&g));
    let (dist, _) =
        sssp::parallel_on(&g, &sched, &built.sys, &built.space, source, 1, &pool, None).unwrap();
    assert_eq!(dist, sssp::sequential(&g, source));
    assert_filtered(
        "sssp",
        sched.take(),
        pool.items(),
        (SSSP_ITEMS, SSSP_COMMITS),
    );
}
