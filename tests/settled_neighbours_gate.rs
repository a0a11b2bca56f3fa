//! Settled-neighbour gate: the shared BFS / WCC / SSSP item body reads
//! inside its transaction only the neighbours its committed peeks could
//! not rule out (DESIGN.md §7, "Settled neighbours"). The filter replaces
//! tracked reads, nothing else: still one transaction per pool item, the
//! same results, and no more transactional reads than one per item plus a
//! few per write. At one thread the counters repeat exactly — this is a
//! count, not a timing test.

mod counted;

use counted::{seeded_inputs, Counted};
use tufast::TuFastStats;
use tufast_algos::sssp::QueueKind;
use tufast_algos::{bfs, setup, sssp, wcc};

/// One transaction per item: the one-thread commit counts of the parent of
/// the filter, whose items read every neighbour inside the transaction
/// (7 146 / 13 799 / 7 696 reads).
const BFS_COMMITS: u64 = 694;
const WCC_COMMITS: u64 = 1_831;
const SSSP_COMMITS: u64 = 1_244;

/// `writes` itself is not comparable across the change — H mode counts the
/// operations of aborted attempts, O mode does not, and hubs moved from O
/// to H — but it bounds the reads: an item reads `v`, and a candidate is
/// read because it may be written.
fn assert_filtered(what: &str, stats: TuFastStats, commits: u64) {
    let s = stats.sched;
    assert_eq!(s.commits, commits, "{what}: not one transaction per item");
    assert!(
        s.reads <= s.commits + 3 * s.writes,
        "{what}: {} transactional reads for {} items and {} writes",
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
    let dist = bfs::parallel(&g, &sched, &built.sys, &built.space, source, 1);
    assert_eq!(dist, bfs::sequential(&g, source));
    assert_filtered("bfs", sched.take(), BFS_COMMITS);
}

#[test]
fn wcc_reads_only_candidates() {
    let (_, sym, _) = seeded_inputs();
    let built = setup(&sym, wcc::WccSpace::alloc);
    let sched = Counted::new(&built.sys);
    let labels = wcc::parallel(&sym, &sched, &built.sys, &built.space, 1);
    assert_eq!(labels, wcc::sequential(&sym));
    assert_filtered("wcc", sched.take(), WCC_COMMITS);
}

#[test]
fn sssp_reads_only_candidates() {
    let (g, _, source) = seeded_inputs();
    let built = setup(&g, sssp::SsspSpace::alloc);
    let sched = Counted::new(&built.sys);
    let kind = QueueKind::Priority;
    let dist = sssp::parallel(&g, &sched, &built.sys, &built.space, source, 1, kind);
    assert_eq!(dist, sssp::sequential(&g, source));
    assert_filtered("sssp", sched.take(), SSSP_COMMITS);
}
