//! Breadth-first search: hop distance from a source.
//!
//! The transactional version is asynchronous: a work pool of vertices whose
//! distance improved; each pool item runs one transaction that relaxes the
//! vertex's out-neighbours ("BFS updates all neighbors' distance values" —
//! paper §IV-E). Distances are unique fixpoints, so the parallel result is
//! bit-identical to the sequential reference.

use std::collections::VecDeque;

use tufast::par::WorkPool;
use tufast::steal::StealPool;
use tufast_graph::snapshot::SnapshotError;
use tufast_graph::{Graph, VertexId};
use tufast_htm::MemRegion;
use tufast_txn::{GraphScheduler, TxnSystem};

use crate::checkpoint::{Ckpt, CkptReport};
use crate::monotone;

/// Distance assigned to unreachable vertices.
pub const UNREACHED: u64 = u64::MAX;

/// Region handles for BFS.
pub struct BfsSpace {
    /// `dist[v]`: hop distance from the source.
    pub dist: MemRegion<2>,
}

impl BfsSpace {
    /// Allocate in `layout` for `n` vertices, each value on the line of
    /// its vertex lock word ([`tufast_htm::MemoryLayout::alloc_paired`]).
    pub fn alloc(layout: &mut tufast_htm::MemoryLayout, n: usize) -> Self {
        BfsSpace {
            dist: layout.alloc_paired("bfs-dist", n as u64),
        }
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

/// Transactional BFS on any scheduler, on the default (work-stealing)
/// pool. Returns the distance array.
///
/// # Panics
/// If `source` is not a vertex of a non-empty `g`.
pub fn parallel<S: GraphScheduler>(
    g: &Graph,
    sched: &S,
    sys: &TxnSystem,
    space: &BfsSpace,
    source: VertexId,
    threads: usize,
) -> Vec<u64> {
    let pool = StealPool::new(threads);
    parallel_on(g, sched, sys, space, source, threads, &pool, None)
        .expect("only a resume reads a snapshot")
        .0
}

/// [`parallel`] on the caller's (empty) `pool`, checkpointing as `ckpt`
/// says (see [`checkpoint`](crate::checkpoint)). Distances are unique
/// fixpoints, so every pool — and a run resumed from a snapshot — returns
/// bitwise the same array. Only a resume can fail.
///
/// # Panics
/// If `source` is not a vertex of a non-empty `g`.
#[allow(clippy::too_many_arguments)]
pub fn parallel_on<S: GraphScheduler, P: WorkPool>(
    g: &Graph,
    sched: &S,
    sys: &TxnSystem,
    space: &BfsSpace,
    source: VertexId,
    threads: usize,
    pool: &P,
    ckpt: Option<Ckpt<'_>>,
) -> Result<(Vec<u64>, CkptReport), SnapshotError> {
    // `v`'s out-edges, one hop each.
    let hops = |v| g.neighbors(v).iter().map(|&u| (u, 1));
    let seed = [(source, 0)];
    monotone::run(
        sched, sys, "bfs", space.dist, hops, pool, threads, ckpt, seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tufast::TuFast;
    use tufast_graph::gen;
    use tufast_txn::TwoPhaseLocking;

    #[test]
    fn a_stopped_job_is_counted_without_a_checkpoint() {
        use std::time::Duration;
        use tufast_txn::{AbortReason, HealthCounters, JobDeadline};

        let g = gen::grid2d(64, 64);
        let stopped = |stop: &dyn Fn(&TxnSystem)| {
            let built = crate::setup(&g, BfsSpace::alloc);
            let tufast = TuFast::new(Arc::clone(&built.sys));
            stop(&built.sys);
            parallel(&g, &tufast, &built.sys, &built.space, 0, 1);
            (built.sys.health().reason(), built.sys.health().counters())
        };
        let deadline = stopped(&|sys| sys.begin_job(Some(JobDeadline(Duration::ZERO))));
        assert_eq!(
            deadline,
            (
                Some(AbortReason::Deadline),
                HealthCounters {
                    deadline_aborts: 1,
                    ..Default::default()
                }
            )
        );
        let cancelled = stopped(&|sys| {
            sys.begin_job(None);
            sys.cancel_token().cancel();
        });
        assert_eq!(
            cancelled,
            (
                Some(AbortReason::Cancelled),
                HealthCounters {
                    jobs_cancelled: 1,
                    ..Default::default()
                }
            )
        );
    }

    #[test]
    fn one_system_runs_more_jobs_than_it_has_worker_ids() {
        // Each job makes its worker and drops it: 1 000 jobs, 512 ids.
        let g = gen::grid2d(8, 8);
        let expected = sequential(&g, 0);
        let built = crate::setup(&g, BfsSpace::alloc);
        let tufast = TuFast::new(Arc::clone(&built.sys));
        for job in 0..1_000 {
            let got = parallel(&g, &tufast, &built.sys, &built.space, 0, 1);
            assert_eq!(got, expected, "job {job}");
        }
    }

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
    fn empty_graph_returns_an_empty_vector_like_sequential() {
        let g = tufast_graph::GraphBuilder::new(0).build();
        let built = crate::setup(&g, BfsSpace::alloc);
        let tufast = TuFast::new(Arc::clone(&built.sys));
        let got = parallel(&g, &tufast, &built.sys, &built.space, 3, 2);
        assert_eq!(got, sequential(&g, 3));
        assert!(got.is_empty());
    }

    #[test]
    #[should_panic(expected = "seed vertex 7 is out of range: the graph has 3 vertices")]
    fn out_of_range_source_is_rejected_on_the_calling_thread() {
        let g = gen::path(3);
        let built = crate::setup(&g, BfsSpace::alloc);
        let tufast = TuFast::new(Arc::clone(&built.sys));
        parallel(&g, &tufast, &built.sys, &built.space, 7, 2);
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
