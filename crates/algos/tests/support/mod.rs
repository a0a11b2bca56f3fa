//! Shared by `stale_items.rs` here and the umbrella crate's tier-1
//! `tests/stale_items_gate.rs` (which includes this file by path).

use std::sync::Arc;

use tufast::par::PoolImpl;
use tufast::TuFast;
use tufast_algos::sssp::QueueKind;
use tufast_algos::{bfs, setup, sssp, wcc};
use tufast_graph::{Graph, VertexId};

/// BFS and SSSP (both queue kinds) from `source` over `g`, and Components
/// over `undirected`, on both pool implementations at `threads` threads,
/// against their sequential references.
pub fn all_drivers_match_sequential(
    g: &Graph,
    undirected: &Graph,
    source: VertexId,
    threads: usize,
) {
    let want_bfs = bfs::sequential(g, source);
    let want_wcc = wcc::sequential(undirected);
    let want_sssp = sssp::sequential(g, source);
    for pool in [PoolImpl::Centralized, PoolImpl::Scalable] {
        let what = format!("{pool:?}, {threads} threads");
        let b = setup(g, bfs::BfsSpace::alloc);
        let sched = TuFast::new(Arc::clone(&b.sys));
        let got = bfs::parallel_with_pool(g, &sched, &b.sys, &b.space, source, threads, pool);
        assert_eq!(got, want_bfs, "bfs, {what}");

        let b = setup(undirected, wcc::WccSpace::alloc);
        let sched = TuFast::new(Arc::clone(&b.sys));
        let got = wcc::parallel_with_pool(undirected, &sched, &b.sys, &b.space, threads, pool);
        assert_eq!(got, want_wcc, "wcc, {what}");

        let b = setup(g, sssp::SsspSpace::alloc);
        let sched = TuFast::new(Arc::clone(&b.sys));
        for kind in [QueueKind::Fifo, QueueKind::Priority] {
            let got =
                sssp::parallel_with_pool(g, &sched, &b.sys, &b.space, source, threads, kind, pool);
            assert_eq!(got, want_sssp, "sssp {kind:?}, {what}");
        }
    }
}
