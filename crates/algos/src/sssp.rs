//! Single-source shortest paths: Bellman-Ford and SPFA (paper Figure 3).
//!
//! The paper's §II usability argument: the two algorithms differ *only* in
//! the scheduling queue — FIFO (Bellman-Ford with a queue) versus
//! prioritised by tentative distance (SPFA/dijkstra-flavoured). With
//! transactions taking care of the data races, switching algorithms is
//! literally switching the [`WorkPool`] — which is exactly how this module
//! implements them.

use tufast::bucket::BucketPool;
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

/// Queue discipline selecting between the paper's two algorithms on
/// [`parallel`]'s default pools.
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
    pub dist: MemRegion<2>,
}

impl SsspSpace {
    /// Allocate in `layout` for `n` vertices, each value on the line of
    /// its vertex lock word ([`tufast_htm::MemoryLayout::alloc_paired`]).
    pub fn alloc(layout: &mut tufast_htm::MemoryLayout, n: usize) -> Self {
        SsspSpace {
            dist: layout.alloc_paired("sssp-dist", n as u64),
        }
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
///
/// One pass over the weights, which stops at the first weight ≤ 1: the
/// clamp to the minimum weight, then to 1, makes the width 1 from there
/// on whatever the mean.
fn pick_delta(g: &Graph) -> u64 {
    let Some(ws) = g.weights().filter(|ws| !ws.is_empty()) else {
        return 1;
    };
    let (mut sum, mut min_w) = (0u64, u64::MAX);
    for &w in ws {
        let w = u64::from(w);
        if w <= 1 {
            return 1;
        }
        sum += w;
        min_w = min_w.min(w);
    }
    let mean_w = (sum / ws.len() as u64).max(1);
    let mean_deg = (g.num_edges() / g.num_vertices().max(1) as u64).max(1);
    (mean_w / mean_deg).min(min_w).max(1)
}

/// The default priority pool for `g`: delta-stepping buckets at the width
/// its weights and degrees call for.
pub fn bucket_pool(g: &Graph) -> BucketPool {
    BucketPool::new(pick_delta(g))
}

/// Transactional SSSP on any scheduler with the chosen queue discipline,
/// on the default pools: work-stealing deques for [`QueueKind::Fifo`],
/// [`bucket_pool`] for [`QueueKind::Priority`].
///
/// # Panics
/// If `g` has no edge weights, or `source` is not a vertex of a non-empty
/// `g`.
pub fn parallel<S: GraphScheduler>(
    g: &Graph,
    sched: &S,
    sys: &TxnSystem,
    space: &SsspSpace,
    source: VertexId,
    threads: usize,
    kind: QueueKind,
) -> Vec<u64> {
    match kind {
        QueueKind::Fifo => {
            let pool = StealPool::new(threads);
            parallel_on(g, sched, sys, space, source, threads, &pool, None)
        }
        QueueKind::Priority => {
            let pool = bucket_pool(g);
            parallel_on(g, sched, sys, space, source, threads, &pool, None)
        }
    }
    .expect("only a resume reads a snapshot")
    .0
}

/// [`parallel`] on the caller's (empty) `pool`, checkpointing as `ckpt`
/// says (see [`checkpoint`](crate::checkpoint)). The pool *is* the
/// algorithm (paper Figure 3): any FIFO-class pool runs Bellman-Ford, any
/// keyed one — it receives every vertex with its tentative distance as the
/// key, and the keys ride in the snapshot's frontier — runs SPFA.
/// Distances are unique fixpoints, so every pool, and a run resumed from a
/// snapshot, returns bitwise the same array. Only a resume can fail.
///
/// # Panics
/// If `g` has no edge weights, or `source` is not a vertex of a non-empty
/// `g`.
#[allow(clippy::too_many_arguments)]
pub fn parallel_on<S: GraphScheduler, P: WorkPool>(
    g: &Graph,
    sched: &S,
    sys: &TxnSystem,
    space: &SsspSpace,
    source: VertexId,
    threads: usize,
    pool: &P,
    ckpt: Option<Ckpt<'_>>,
) -> Result<(Vec<u64>, CkptReport), SnapshotError> {
    // The empty graph has no weights to ask for, and `sequential` none.
    assert!(
        g.has_weights() || g.num_vertices() == 0,
        "SSSP needs edge weights (gen::with_random_weights)"
    );
    // `v`'s out-edges at their weights.
    let weighted = |v| g.weighted_neighbors(v).map(|(u, w)| (u, u64::from(w)));
    let seed = [(source, 0)];
    monotone::run(
        sched, sys, "sssp", space.dist, weighted, pool, threads, ckpt, seed,
    )
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
    fn empty_graph_returns_an_empty_vector_like_sequential() {
        let g = tufast_graph::GraphBuilder::new(0).build();
        let built = crate::setup(&g, SsspSpace::alloc);
        let tufast = TuFast::new(Arc::clone(&built.sys));
        let got = parallel(&g, &tufast, &built.sys, &built.space, 0, 2, QueueKind::Fifo);
        assert_eq!(got, sequential(&g, 0));
        assert!(got.is_empty());
    }

    #[test]
    #[should_panic(expected = "edge weights")]
    fn unweighted_graph_is_rejected() {
        let g = gen::path(3);
        let built = crate::setup(&g, SsspSpace::alloc);
        let tufast = TuFast::new(Arc::clone(&built.sys));
        parallel(&g, &tufast, &built.sys, &built.space, 0, 2, QueueKind::Fifo);
    }

    /// The width as two full passes over the weights compute it.
    fn two_pass_delta(g: &Graph) -> u64 {
        let ws = g.weights().unwrap();
        let sum: u64 = ws.iter().map(|&w| u64::from(w)).sum();
        let mean_w = (sum / ws.len() as u64).max(1);
        let min_w = ws.iter().copied().min().map_or(1, u64::from);
        let mean_deg = (g.num_edges() / g.num_vertices().max(1) as u64).max(1);
        (mean_w / mean_deg).min(min_w).max(1)
    }

    #[test]
    fn pick_delta_equals_the_two_pass_width() {
        let cycle = |weights: [u32; 4]| {
            let mut b = tufast_graph::GraphBuilder::new(4);
            for (v, w) in (0..4u32).zip(weights) {
                b.add_weighted_edge(v, (v + 1) % 4, w);
            }
            b.build()
        };
        let light = cycle([90, 1, 100, 60]);
        assert_eq!(pick_delta(&light), two_pass_delta(&light));
        assert_eq!(pick_delta(&light), 1);
        // Lightest weight 7, mean 51 at degree 1: the clamp to 7 decides.
        let heavy = cycle([7, 40, 100, 60]);
        assert_eq!(pick_delta(&heavy), two_pass_delta(&heavy));
        assert_eq!(pick_delta(&heavy), 7);
        let grid = weighted_grid(13, 11, 7);
        assert_eq!(pick_delta(&grid), two_pass_delta(&grid));
    }
}
