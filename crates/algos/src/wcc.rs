//! Weakly connected components by asynchronous min-label propagation.
//!
//! Each vertex starts with its own id as its label; transactions pull the
//! minimum label across an undirected neighbourhood and push improvements
//! ("vertices in Components need newest component ID from their neighbors"
//! — paper §VI-A). Labels converge to the minimum vertex id of each
//! component: a unique fixpoint, so parallel equals sequential exactly.

use tufast::par::{FifoPool, PoolImpl, WorkPool};
use tufast::steal::StealPool;
use tufast_graph::snapshot::{Section, Snapshot, SnapshotError, SnapshotStore};
use tufast_graph::{Graph, VertexId};
use tufast_htm::{MemRegion, TxMemory};
use tufast_txn::{GraphScheduler, TxnSystem};

use crate::checkpoint::{self, Checkpointable, CkptReport};
use crate::common::read_u64_region;
use crate::monotone::{unkeyed, MinDrain};

/// Region handles for WCC.
pub struct WccSpace {
    /// `label[v]`: current component label (converges to min id).
    pub label: MemRegion,
}

impl WccSpace {
    /// Allocate in `layout` for `n` vertices.
    pub fn alloc(layout: &mut tufast_htm::MemoryLayout, n: usize) -> Self {
        WccSpace {
            label: layout.alloc("wcc-label", n as u64),
        }
    }
}

impl Checkpointable for WccSpace {
    fn tag(&self) -> &'static str {
        "wcc"
    }

    fn capture(&self, mem: &TxMemory) -> Vec<Section> {
        vec![checkpoint::capture_region("label", mem, &self.label)]
    }

    fn restore(&self, mem: &TxMemory, snap: &Snapshot) -> Result<(), SnapshotError> {
        checkpoint::restore_region("label", mem, &self.label, snap)
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
            let push = |u: VertexId,
                        label: &mut Vec<u64>,
                        queue: &mut std::collections::VecDeque<VertexId>| {
                if label[u as usize] == u64::MAX {
                    label[u as usize] = u64::from(start);
                    queue.push_back(u);
                }
            };
            for &u in g.neighbors(v) {
                push(u, &mut label, &mut queue);
            }
            if g.reverse().is_some() {
                for &u in g.in_neighbors(v) {
                    push(u, &mut label, &mut queue);
                }
            }
        }
    }
    label
}

/// Transactional WCC on any scheduler. For directed graphs, build with
/// in-edges so weak connectivity is visible. Runs on the default
/// (work-stealing) pool; see [`parallel_with_pool`].
pub fn parallel<S: GraphScheduler>(
    g: &Graph,
    sched: &S,
    sys: &TxnSystem,
    space: &WccSpace,
    threads: usize,
) -> Vec<u64> {
    parallel_with_pool(g, sched, sys, space, threads, PoolImpl::default())
}

/// [`parallel`] with an explicit work-pool implementation — the bench
/// harness runs both to record the centralized-vs-stealing head-to-head.
pub fn parallel_with_pool<S: GraphScheduler>(
    g: &Graph,
    sched: &S,
    sys: &TxnSystem,
    space: &WccSpace,
    threads: usize,
    pool_impl: PoolImpl,
) -> Vec<u64> {
    let mem = sys.mem();
    let n = g.num_vertices() as VertexId;
    init(mem, space, n);
    let drain = MinDrain::new(sys, space.label, |v| undirected(g, v));
    match pool_impl {
        PoolImpl::Centralized => {
            let pool = FifoPool::new();
            (0..n).for_each(|v| pool.push(v));
            drain.run(sched, &pool, threads, unkeyed);
        }
        PoolImpl::Scalable => {
            let pool = StealPool::new(threads);
            (0..n).for_each(|v| pool.push(v));
            drain.run(sched, &pool, threads, unkeyed);
        }
    }
    read_u64_region(mem, &space.label)
}

fn init(mem: &TxMemory, space: &WccSpace, n: VertexId) {
    for v in 0..u64::from(n) {
        mem.store_direct(space.label.addr(v), v);
    }
}

/// `v`'s undirected neighbourhood (out-edges, then in-edges when the graph
/// carries them) at length 0: [`MinDrain::item`](crate::monotone) then
/// pushes `v`'s label to every neighbour holding a larger one.
fn undirected(g: &Graph, v: VertexId) -> impl Iterator<Item = (VertexId, u64)> + '_ {
    let ins = g.reverse().map_or(&[][..], |rev| rev.neighbors(v));
    g.neighbors(v).iter().chain(ins).map(|&u| (u, 0))
}

/// [`parallel`] with epoch checkpointing into `store` every `every_items`
/// processed pool items; `resume` continues a crashed run from its latest
/// valid snapshot. Labels converge to the unique per-component minimum, so
/// the recovered result is bitwise identical to an uninterrupted run.
#[allow(clippy::too_many_arguments)]
pub fn parallel_ckpt<S: GraphScheduler>(
    g: &Graph,
    sched: &S,
    sys: &TxnSystem,
    space: &WccSpace,
    threads: usize,
    store: &SnapshotStore,
    every_items: u64,
    resume: bool,
) -> Result<(Vec<u64>, CkptReport), SnapshotError> {
    let mem = sys.mem();
    let n = g.num_vertices() as VertexId;
    let mut report = CkptReport::default();
    let (start_epoch, frontier) =
        checkpoint::start(store, mem, space, resume, &mut report, || {
            init(mem, space, n);
            (0..n).map(|v| (v, 0)).collect()
        })?;
    let pool = StealPool::new(threads);
    for &(v, _) in &frontier {
        pool.push(v);
    }
    let drain = MinDrain::new(sys, space.label, |v| undirected(g, v));
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
    Ok((read_u64_region(mem, &space.label), report))
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
    fn both_pool_impls_agree() {
        let g = gen::grid2d(11, 7);
        let expected = sequential(&g);
        let built = crate::setup(&g, WccSpace::alloc);
        let tufast = TuFast::new(Arc::clone(&built.sys));
        for pool_impl in [PoolImpl::Centralized, PoolImpl::Scalable] {
            let got = parallel_with_pool(&g, &tufast, &built.sys, &built.space, 4, pool_impl);
            assert_eq!(got, expected, "{pool_impl:?}");
        }
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
