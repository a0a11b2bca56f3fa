//! Weakly connected components by asynchronous min-label propagation.
//!
//! Each vertex starts with its own id as its label; transactions pull the
//! minimum label across an undirected neighbourhood and push improvements
//! ("vertices in Components need newest component ID from their neighbors"
//! — paper §VI-A). Labels converge to the minimum vertex id of each
//! component: a unique fixpoint, so parallel equals sequential exactly.

use tufast::par::WorkPool;
use tufast::steal::StealPool;
use tufast_graph::snapshot::SnapshotError;
use tufast_graph::{Graph, VertexId};
use tufast_htm::MemRegion;
use tufast_txn::{GraphScheduler, TxnSystem};

use crate::checkpoint::{Ckpt, CkptReport};
use crate::monotone;

/// Region handles for WCC.
pub struct WccSpace {
    /// `label[v]`: current component label (converges to min id).
    pub label: MemRegion<2>,
}

impl WccSpace {
    /// Allocate in `layout` for `n` vertices, each value on the line of
    /// its vertex lock word ([`tufast_htm::MemoryLayout::alloc_paired`]).
    pub fn alloc(layout: &mut tufast_htm::MemoryLayout, n: usize) -> Self {
        WccSpace {
            label: layout.alloc_paired("wcc-label", n as u64),
        }
    }
}

/// Sequential reference: BFS per component over the undirected view.
/// Requires in-edges when the graph is directed (weak connectivity).
pub fn sequential(g: &Graph) -> Vec<u64> {
    let n = g.num_vertices();
    let mut label = vec![u64::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    for start in 0..n as VertexId {
        if label[start as usize] != u64::MAX {
            continue;
        }
        label[start as usize] = u64::from(start);
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            for u in g.undirected(v) {
                if label[u as usize] == u64::MAX {
                    label[u as usize] = u64::from(start);
                    queue.push_back(u);
                }
            }
        }
    }
    label
}

/// Transactional WCC on any scheduler, on the default (work-stealing)
/// pool. For directed graphs, build with in-edges so weak connectivity is
/// visible.
pub fn parallel<S: GraphScheduler>(
    g: &Graph,
    sched: &S,
    sys: &TxnSystem,
    space: &WccSpace,
    threads: usize,
) -> Vec<u64> {
    let pool = StealPool::new(threads);
    parallel_on(g, sched, sys, space, threads, &pool, None)
        .expect("only a resume reads a snapshot")
        .0
}

/// [`parallel`] on the caller's (empty) `pool`, checkpointing as `ckpt`
/// says (see [`checkpoint`](crate::checkpoint)). Labels converge to the
/// unique per-component minimum, so every pool — and a run resumed from a
/// snapshot — returns bitwise the same array. Only a resume can fail.
pub fn parallel_on<S: GraphScheduler, P: WorkPool>(
    g: &Graph,
    sched: &S,
    sys: &TxnSystem,
    space: &WccSpace,
    threads: usize,
    pool: &P,
    ckpt: Option<Ckpt<'_>>,
) -> Result<(Vec<u64>, CkptReport), SnapshotError> {
    // `v`'s undirected neighbourhood at length 0: a label travels
    // unchanged.
    let undirected = |v| g.undirected(v).map(|u| (u, 0));
    // Every vertex starts active, labelled with its own id.
    let own_ids = (0..g.num_vertices() as VertexId).map(|v| (v, u64::from(v)));
    monotone::run(
        sched,
        sys,
        "wcc",
        space.label,
        undirected,
        pool,
        threads,
        ckpt,
        own_ids,
    )
}

/// Number of distinct components in a label assignment.
pub fn component_count(labels: &[u64]) -> usize {
    let mut sorted: Vec<u64> = labels.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    sorted.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tufast::TuFast;
    use tufast_graph::{gen, GraphBuilder};

    fn check(g: &Graph) {
        let expected = sequential(g);
        let built = crate::setup(g, WccSpace::alloc);
        let tufast = TuFast::new(Arc::clone(&built.sys));
        let got = parallel(g, &tufast, &built.sys, &built.space, 4);
        assert_eq!(got, expected);
    }

    #[test]
    fn two_components() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(3, 4);
        let g = b.symmetric().build();
        let labels = sequential(&g);
        assert_eq!(labels, vec![0, 0, 0, 3, 3]);
        assert_eq!(component_count(&labels), 2);
    }

    #[test]
    fn directed_weak_connectivity_via_in_edges() {
        // 0 → 1 ← 2 is weakly connected even though 2 is unreachable from 0.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(2, 1);
        let g = b.with_in_edges().build();
        assert_eq!(sequential(&g), vec![0, 0, 0]);
        check(&g);
    }

    #[test]
    fn parallel_equals_sequential_on_grid() {
        check(&gen::grid2d(12, 12));
    }

    #[test]
    fn parallel_equals_sequential_on_rmat() {
        let g = gen::rmat(10, 4, 5); // sparse: multiple components likely
        let built_with_in = {
            // rebuild with in-edges for weak connectivity
            let mut b = GraphBuilder::new(g.num_vertices());
            for (s, d) in g.edges() {
                b.add_edge(s, d);
            }
            b.with_in_edges().build()
        };
        check(&built_with_in);
    }

    #[test]
    fn isolated_vertices_keep_own_label() {
        let g = GraphBuilder::new(4).build();
        let labels = sequential(&g);
        assert_eq!(labels, vec![0, 1, 2, 3]);
        assert_eq!(component_count(&labels), 4);
        check(&g);
    }
}
