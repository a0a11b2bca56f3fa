//! Breadth-first search: hop distance from a source.
//!
//! The transactional version is asynchronous: a work pool of vertices whose
//! distance improved; each pool item runs one transaction that relaxes the
//! vertex's out-neighbours ("BFS updates all neighbors' distance values" —
//! paper §IV-E). Distances are unique fixpoints, so the parallel result is
//! bit-identical to the sequential reference.

use std::collections::VecDeque;

use tufast::par::{FifoPool, PoolImpl, WorkPool};
use tufast::steal::StealPool;
use tufast_graph::snapshot::{Section, Snapshot, SnapshotError, SnapshotStore};
use tufast_graph::{Graph, VertexId};
use tufast_htm::{MemRegion, TxMemory};
use tufast_txn::{GraphScheduler, TxnSystem};

use crate::checkpoint::{self, Checkpointable, CkptReport};
use crate::common::read_u64_region;
use crate::monotone::{unkeyed, MinDrain};

/// Distance assigned to unreachable vertices.
pub const UNREACHED: u64 = u64::MAX;

/// Region handles for BFS.
pub struct BfsSpace {
    /// `dist[v]`: hop distance from the source.
    pub dist: MemRegion,
}

impl BfsSpace {
    /// Allocate in `layout` for `n` vertices.
    pub fn alloc(layout: &mut tufast_htm::MemoryLayout, n: usize) -> Self {
        BfsSpace {
            dist: layout.alloc("bfs-dist", n as u64),
        }
    }
}

impl Checkpointable for BfsSpace {
    fn tag(&self) -> &'static str {
        "bfs"
    }

    fn capture(&self, mem: &TxMemory) -> Vec<Section> {
        vec![checkpoint::capture_region("dist", mem, &self.dist)]
    }

    fn restore(&self, mem: &TxMemory, snap: &Snapshot) -> Result<(), SnapshotError> {
        checkpoint::restore_region("dist", mem, &self.dist, snap)
    }
}

/// Sequential reference BFS.
pub fn sequential(g: &Graph, source: VertexId) -> Vec<u64> {
    let mut dist = vec![UNREACHED; g.num_vertices()];
    if g.num_vertices() == 0 {
        return dist;
    }
    dist[source as usize] = 0;
    let mut queue = VecDeque::from([source]);
    while let Some(v) = queue.pop_front() {
        let d = dist[v as usize];
        for &u in g.neighbors(v) {
            if dist[u as usize] == UNREACHED {
                dist[u as usize] = d + 1;
                queue.push_back(u);
            }
        }
    }
    dist
}

/// Transactional BFS on any scheduler. Returns the distance array.
/// Runs on the default (work-stealing) pool; see [`parallel_with_pool`]
/// to pick the implementation explicitly.
pub fn parallel<S: GraphScheduler>(
    g: &Graph,
    sched: &S,
    sys: &TxnSystem,
    space: &BfsSpace,
    source: VertexId,
    threads: usize,
) -> Vec<u64> {
    parallel_with_pool(g, sched, sys, space, source, threads, PoolImpl::default())
}

/// [`parallel`] with an explicit work-pool implementation — the bench
/// harness runs both to record the centralized-vs-stealing head-to-head.
pub fn parallel_with_pool<S: GraphScheduler>(
    g: &Graph,
    sched: &S,
    sys: &TxnSystem,
    space: &BfsSpace,
    source: VertexId,
    threads: usize,
    pool_impl: PoolImpl,
) -> Vec<u64> {
    let mem = sys.mem();
    init(mem, space, source);
    let drain = MinDrain::new(sys, space.dist, |v| hops(g, v));
    match pool_impl {
        PoolImpl::Centralized => {
            let pool = FifoPool::new();
            pool.push(source);
            drain.run(sched, &pool, threads, unkeyed);
        }
        PoolImpl::Scalable => {
            let pool = StealPool::new(threads);
            pool.push(source);
            drain.run(sched, &pool, threads, unkeyed);
        }
    }
    read_u64_region(mem, &space.dist)
}

fn init(mem: &TxMemory, space: &BfsSpace, source: VertexId) {
    mem.fill_region(&space.dist, UNREACHED);
    mem.store_direct(space.dist.addr(u64::from(source)), 0);
}

/// `v`'s out-edges, one hop each: the item body is
/// [`MinDrain::item`](crate::monotone), which skips `v` while it is
/// unreached ("stale token") or already scanned at its current distance.
fn hops(g: &Graph, v: VertexId) -> impl Iterator<Item = (VertexId, u64)> + '_ {
    g.neighbors(v).iter().map(|&u| (u, 1))
}

/// [`parallel`] with epoch checkpointing into `store` every `every_items`
/// processed pool items (see [`checkpoint`](crate::checkpoint)).
///
/// With `resume` set, the latest valid snapshot (written by a previous —
/// possibly crashed — run of the *same algorithm over the same graph*)
/// seeds the distances and the frontier, and the run continues from the
/// epoch after it. Distances are unique fixpoints, so the recovered result
/// is bitwise identical to an uninterrupted run.
#[allow(clippy::too_many_arguments)]
pub fn parallel_ckpt<S: GraphScheduler>(
    g: &Graph,
    sched: &S,
    sys: &TxnSystem,
    space: &BfsSpace,
    source: VertexId,
    threads: usize,
    store: &SnapshotStore,
    every_items: u64,
    resume: bool,
) -> Result<(Vec<u64>, CkptReport), SnapshotError> {
    let mem = sys.mem();
    let mut report = CkptReport::default();
    let (start_epoch, frontier) =
        checkpoint::start(store, mem, space, resume, &mut report, || {
            init(mem, space, source);
            vec![(source, 0)]
        })?;
    let pool = StealPool::new(threads);
    for &(v, _) in &frontier {
        pool.push(v);
    }
    let drain = MinDrain::new(sys, space.dist, |v| hops(g, v));
    checkpoint::run_checkpointed(
        sched,
        sys,
        &pool,
        threads,
        store,
        space,
        every_items,
        start_epoch,
        &mut report,
        |worker, pool, v| drain.item(worker, pool, v, &unkeyed),
    );
    Ok((read_u64_region(mem, &space.dist), report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tufast::TuFast;
    use tufast_graph::gen;
    use tufast_txn::TwoPhaseLocking;

    fn check_parallel_matches_sequential(g: &Graph, source: VertexId) {
        let expected = sequential(g, source);
        let built = crate::setup(g, BfsSpace::alloc);
        let tufast = TuFast::new(Arc::clone(&built.sys));
        let got = parallel(g, &tufast, &built.sys, &built.space, source, 4);
        assert_eq!(got, expected);
    }

    #[test]
    fn path_distances() {
        let g = gen::path(10);
        let d = sequential(&g, 0);
        assert_eq!(d, (0..10).map(|i| i as u64).collect::<Vec<_>>());
    }

    #[test]
    fn unreachable_vertices_stay_max() {
        let g = gen::path(5);
        let d = sequential(&g, 4); // the path is directed; nothing after 4
        assert_eq!(d[4], 0);
        assert!(d[..4].iter().all(|&x| x == UNREACHED));
    }

    #[test]
    fn parallel_equals_sequential_on_grid() {
        check_parallel_matches_sequential(&gen::grid2d(17, 13), 0);
    }

    #[test]
    fn parallel_equals_sequential_on_rmat() {
        check_parallel_matches_sequential(&gen::rmat(10, 8, 42), 3);
    }

    #[test]
    fn parallel_equals_sequential_on_star_hub_source() {
        check_parallel_matches_sequential(&gen::star(2000), 0);
    }

    #[test]
    fn both_pool_impls_agree() {
        let g = gen::rmat(9, 8, 21);
        let expected = sequential(&g, 0);
        let built = crate::setup(&g, BfsSpace::alloc);
        let tufast = TuFast::new(Arc::clone(&built.sys));
        for pool_impl in [PoolImpl::Centralized, PoolImpl::Scalable] {
            let got = parallel_with_pool(&g, &tufast, &built.sys, &built.space, 0, 4, pool_impl);
            assert_eq!(got, expected, "{pool_impl:?}");
        }
    }

    #[test]
    fn works_on_2pl_baseline_too() {
        let g = gen::grid2d(9, 9);
        let expected = sequential(&g, 40);
        let built = crate::setup(&g, BfsSpace::alloc);
        let sched = TwoPhaseLocking::new(Arc::clone(&built.sys));
        let got = parallel(&g, &sched, &built.sys, &built.space, 40, 4);
        assert_eq!(got, expected);
    }
}
