//! Single-source shortest paths: Bellman-Ford and SPFA (paper Figure 3).
//!
//! The paper's §II usability argument: the two algorithms differ *only* in
//! the scheduling queue — FIFO (Bellman-Ford with a queue) versus
//! prioritised by tentative distance (SPFA/dijkstra-flavoured). With
//! transactions taking care of the data races, switching algorithms is
//! literally switching the [`WorkPool`] — which is exactly how this module
//! implements them.

use tufast::bucket::BucketPool;
use tufast::par::{FifoPool, PoolImpl, PriorityPool, WorkPool};
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

/// Queue discipline selecting between the paper's two algorithms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueKind {
    /// FIFO — Bellman-Ford with a queue.
    Fifo,
    /// Priority by tentative distance — SPFA.
    Priority,
}

/// Region handles for SSSP.
pub struct SsspSpace {
    /// `dist[v]`: tentative shortest distance from the source.
    pub dist: MemRegion,
}

impl SsspSpace {
    /// Allocate in `layout` for `n` vertices.
    pub fn alloc(layout: &mut tufast_htm::MemoryLayout, n: usize) -> Self {
        SsspSpace {
            dist: layout.alloc("sssp-dist", n as u64),
        }
    }
}

impl Checkpointable for SsspSpace {
    fn tag(&self) -> &'static str {
        "sssp"
    }

    fn capture(&self, mem: &TxMemory) -> Vec<Section> {
        vec![checkpoint::capture_region("dist", mem, &self.dist)]
    }

    fn restore(&self, mem: &TxMemory, snap: &Snapshot) -> Result<(), SnapshotError> {
        checkpoint::restore_region("dist", mem, &self.dist, snap)
    }
}

/// Sequential reference (Bellman-Ford with a FIFO queue).
///
/// # Panics
/// If `g` has no edge weights.
pub fn sequential(g: &Graph, source: VertexId) -> Vec<u64> {
    let mut dist = vec![UNREACHED; g.num_vertices()];
    if g.num_vertices() == 0 {
        return dist;
    }
    dist[source as usize] = 0;
    let mut queue = std::collections::VecDeque::from([source]);
    let mut queued = vec![false; g.num_vertices()];
    queued[source as usize] = true;
    while let Some(v) = queue.pop_front() {
        queued[v as usize] = false;
        let dv = dist[v as usize];
        for (u, w) in g.weighted_neighbors(v) {
            let cand = dv + u64::from(w);
            if cand < dist[u as usize] {
                dist[u as usize] = cand;
                if !queued[u as usize] {
                    queued[u as usize] = true;
                    queue.push_back(u);
                }
            }
        }
    }
    dist
}

/// Bucket width for the delta-stepping pool: mean edge weight over mean
/// out-degree (Meyer & Sanders' Θ(1/d) choice for random weights),
/// further clamped to the minimum edge weight. One bucket then holds
/// roughly the vertices one relaxation wave settles — a frontier's worth
/// of parallelism — while `delta ≤ min weight` guarantees no relaxation
/// can land back inside the bucket it came from (Dial's bucket-queue
/// argument), so in-bucket disorder cannot trigger re-relaxation
/// cascades. The earlier plain-mean-weight width left dense small-world
/// graphs with a handful of very wide buckets, which degraded toward
/// unordered draining and multiplied relaxations several-fold.
fn pick_delta(g: &Graph) -> u64 {
    match g.weights() {
        Some(ws) if !ws.is_empty() => {
            let sum: u64 = ws.iter().map(|&w| u64::from(w)).sum();
            let mean_w = (sum / ws.len() as u64).max(1);
            let min_w = ws.iter().copied().min().map_or(1, u64::from);
            let mean_deg = (g.num_edges() / g.num_vertices().max(1) as u64).max(1);
            (mean_w / mean_deg).min(min_w).max(1)
        }
        _ => 1,
    }
}

/// Transactional SSSP on any scheduler with the chosen queue discipline.
/// Runs on the default (work-stealing / bucketed) pools; see
/// [`parallel_with_pool`].
///
/// # Panics
/// If `g` has no edge weights.
pub fn parallel<S: GraphScheduler>(
    g: &Graph,
    sched: &S,
    sys: &TxnSystem,
    space: &SsspSpace,
    source: VertexId,
    threads: usize,
    kind: QueueKind,
) -> Vec<u64> {
    parallel_with_pool(
        g,
        sched,
        sys,
        space,
        source,
        threads,
        kind,
        PoolImpl::default(),
    )
}

/// [`parallel`] with an explicit work-pool implementation: `Centralized`
/// maps to `FifoPool`/`PriorityPool` (shared queue / global mutex heap),
/// `Scalable` to `StealPool`/`BucketPool` (stealing deques / delta
/// buckets). The bench harness runs both to record the head-to-head.
///
/// # Panics
/// If `g` has no edge weights.
#[allow(clippy::too_many_arguments)]
pub fn parallel_with_pool<S: GraphScheduler>(
    g: &Graph,
    sched: &S,
    sys: &TxnSystem,
    space: &SsspSpace,
    source: VertexId,
    threads: usize,
    kind: QueueKind,
    pool_impl: PoolImpl,
) -> Vec<u64> {
    assert!(
        g.has_weights(),
        "SSSP needs edge weights (gen::with_random_weights)"
    );
    let mem = sys.mem();
    init(mem, space, source);
    let drain = MinDrain::new(sys, space.dist, |v| weighted(g, v));
    match (kind, pool_impl) {
        (QueueKind::Fifo, PoolImpl::Centralized) => {
            let pool = FifoPool::new();
            pool.push(source);
            drain.run(sched, &pool, threads, unkeyed);
        }
        (QueueKind::Fifo, PoolImpl::Scalable) => {
            let pool = StealPool::new(threads);
            pool.push(source);
            drain.run(sched, &pool, threads, unkeyed);
        }
        (QueueKind::Priority, PoolImpl::Centralized) => {
            let pool = PriorityPool::new();
            pool.push_with_key(source, 0);
            drain.run(sched, &pool, threads, PriorityPool::push_with_key);
        }
        (QueueKind::Priority, PoolImpl::Scalable) => {
            let pool = BucketPool::new(pick_delta(g));
            pool.push_with_key(source, 0);
            drain.run(sched, &pool, threads, BucketPool::push_with_key);
        }
    }
    read_u64_region(mem, &space.dist)
}

fn init(mem: &TxMemory, space: &SsspSpace, source: VertexId) {
    mem.fill_region(&space.dist, UNREACHED);
    mem.store_direct(space.dist.addr(u64::from(source)), 0);
}

/// `v`'s out-edges at their weights: the item body is
/// [`MinDrain::item`](crate::monotone), which re-queues improved vertices
/// keyed by their new distance (the keyed pools order by it).
fn weighted(g: &Graph, v: VertexId) -> impl Iterator<Item = (VertexId, u64)> + '_ {
    g.weighted_neighbors(v).map(|(u, w)| (u, u64::from(w)))
}

/// [`parallel`] with epoch checkpointing into `store` every `every_items`
/// processed pool items; `resume` continues a crashed run from its latest
/// valid snapshot (the priority queue's keys are part of the frontier
/// section, so SPFA resumes with its ordering intact). Distances are
/// unique fixpoints, so the recovered result is bitwise identical to an
/// uninterrupted run.
///
/// # Panics
/// If `g` has no edge weights.
#[allow(clippy::too_many_arguments)]
pub fn parallel_ckpt<S: GraphScheduler>(
    g: &Graph,
    sched: &S,
    sys: &TxnSystem,
    space: &SsspSpace,
    source: VertexId,
    threads: usize,
    kind: QueueKind,
    store: &SnapshotStore,
    every_items: u64,
    resume: bool,
) -> Result<(Vec<u64>, CkptReport), SnapshotError> {
    assert!(
        g.has_weights(),
        "SSSP needs edge weights (gen::with_random_weights)"
    );
    let mem = sys.mem();
    let mut report = CkptReport::default();
    let (start_epoch, frontier) =
        checkpoint::start(store, mem, space, resume, &mut report, || {
            init(mem, space, source);
            vec![(source, 0)]
        })?;
    let drain = MinDrain::new(sys, space.dist, |v| weighted(g, v));
    match kind {
        QueueKind::Fifo => {
            let pool = StealPool::new(threads);
            for &(v, _) in &frontier {
                pool.push(v);
            }
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
        }
        QueueKind::Priority => {
            let pool = BucketPool::new(pick_delta(g));
            for &(v, key) in &frontier {
                pool.push_with_key(v, key);
            }
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
                |worker, pool, v| drain.item(worker, pool, v, &BucketPool::push_with_key),
            );
        }
    }
    Ok((read_u64_region(mem, &space.dist), report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tufast::TuFast;
    use tufast_graph::gen;

    fn weighted_grid(w: usize, h: usize, seed: u64) -> Graph {
        gen::with_random_weights(&gen::grid2d(w, h), 50, seed)
    }

    #[test]
    fn sequential_matches_dijkstra_intuition_on_tiny_graph() {
        // 0 →(1) 1 →(1) 2, plus 0 →(5) 2: shortest to 2 is 2.
        let mut b = tufast_graph::GraphBuilder::new(3);
        b.add_weighted_edge(0, 1, 1);
        b.add_weighted_edge(1, 2, 1);
        b.add_weighted_edge(0, 2, 5);
        let g = b.build();
        assert_eq!(sequential(&g, 0), vec![0, 1, 2]);
    }

    #[test]
    fn parallel_fifo_equals_sequential() {
        let g = weighted_grid(13, 11, 7);
        let expected = sequential(&g, 0);
        let built = crate::setup(&g, SsspSpace::alloc);
        let tufast = TuFast::new(Arc::clone(&built.sys));
        let got = parallel(&g, &tufast, &built.sys, &built.space, 0, 4, QueueKind::Fifo);
        assert_eq!(got, expected);
    }

    #[test]
    fn parallel_priority_equals_sequential() {
        let g = weighted_grid(11, 9, 3);
        let expected = sequential(&g, 5);
        let built = crate::setup(&g, SsspSpace::alloc);
        let tufast = TuFast::new(Arc::clone(&built.sys));
        let got = parallel(
            &g,
            &tufast,
            &built.sys,
            &built.space,
            5,
            4,
            QueueKind::Priority,
        );
        assert_eq!(got, expected);
    }

    #[test]
    fn queue_disciplines_agree_on_power_law_graph() {
        let g = gen::with_random_weights(&gen::rmat(9, 8, 11), 100, 13);
        let built = crate::setup(&g, SsspSpace::alloc);
        let tufast = TuFast::new(Arc::clone(&built.sys));
        let fifo = parallel(&g, &tufast, &built.sys, &built.space, 0, 4, QueueKind::Fifo);
        let prio = parallel(
            &g,
            &tufast,
            &built.sys,
            &built.space,
            0,
            4,
            QueueKind::Priority,
        );
        assert_eq!(fifo, prio, "both disciplines must reach the same fixpoint");
        assert_eq!(fifo, sequential(&g, 0));
    }

    #[test]
    fn all_pool_impls_reach_the_same_fixpoint() {
        let g = gen::with_random_weights(&gen::rmat(9, 8, 17), 100, 29);
        let expected = sequential(&g, 0);
        let built = crate::setup(&g, SsspSpace::alloc);
        let tufast = TuFast::new(Arc::clone(&built.sys));
        for kind in [QueueKind::Fifo, QueueKind::Priority] {
            for pool_impl in [PoolImpl::Centralized, PoolImpl::Scalable] {
                let got = parallel_with_pool(
                    &g,
                    &tufast,
                    &built.sys,
                    &built.space,
                    0,
                    4,
                    kind,
                    pool_impl,
                );
                assert_eq!(got, expected, "{kind:?}/{pool_impl:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "edge weights")]
    fn unweighted_graph_is_rejected() {
        let g = gen::path(3);
        let built = crate::setup(&g, SsspSpace::alloc);
        let tufast = TuFast::new(Arc::clone(&built.sys));
        parallel(&g, &tufast, &built.sys, &built.space, 0, 2, QueueKind::Fifo);
    }
}
