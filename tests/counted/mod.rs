//! `TuFast`, with every worker's counters collected when the driver drops
//! it: drivers hand back only the workers of their last phase, and the
//! one-thread counter gates (`stale_items_gate`, `capacity_gate`) need the
//! whole job's. And a pool that counts its items: a pool item is a
//! transaction only if it may write, so commits do not count items.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use tufast::par::{PoolCounters, WorkPool};
use tufast::{TuFast, TuFastStats};
use tufast_graph::{gen, Graph, GraphBuilder, VertexId};
use tufast_txn::{
    GraphScheduler, HealthHandle, SchedStats, TxnBody, TxnHint, TxnOutcome, TxnSystem, TxnWorker,
};

/// The seeded inputs of the BFS / WCC / SSSP gates: a weighted R-MAT
/// graph, its symmetric view for Components, and the max-out-degree vertex
/// (lowest id on ties) — vertex 0 of an R-MAT graph may have no out-edges.
#[allow(dead_code)] // `capacity_gate` counts PageRank on its own graph
pub fn seeded_inputs() -> (Graph, Graph, VertexId) {
    let g = gen::with_random_weights(&gen::rmat(10, 8, 7), 100, 0x5EED);
    let mut b = GraphBuilder::new(g.num_vertices()).symmetric();
    for (s, d) in g.edges() {
        b.add_edge(s, d);
    }
    let source = (0..g.num_vertices() as VertexId)
        .rev()
        .max_by_key(|&v| g.degree(v))
        .unwrap();
    (g, b.build(), source)
}

pub struct Counted {
    inner: TuFast,
    sink: Arc<Mutex<TuFastStats>>,
}

pub struct CountedWorker {
    inner: <TuFast as GraphScheduler>::Worker,
    sink: Arc<Mutex<TuFastStats>>,
}

impl Counted {
    pub fn new(sys: &Arc<TxnSystem>) -> Self {
        Counted {
            inner: TuFast::new(Arc::clone(sys)),
            sink: Arc::default(),
        }
    }

    /// Everything the dropped workers counted, resetting it.
    pub fn take(&self) -> TuFastStats {
        std::mem::take(&mut *self.sink.lock().unwrap())
    }
}

impl GraphScheduler for Counted {
    type Worker = CountedWorker;

    fn worker(&self) -> CountedWorker {
        CountedWorker {
            inner: self.inner.worker(),
            sink: Arc::clone(&self.sink),
        }
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

impl TxnWorker for CountedWorker {
    fn execute_hinted(&mut self, hint: TxnHint, body: &mut TxnBody<'_>) -> TxnOutcome {
        self.inner.execute_hinted(hint, body)
    }

    fn stats(&self) -> &SchedStats {
        self.inner.stats()
    }

    fn take_stats(&mut self) -> SchedStats {
        self.inner.take_stats()
    }

    fn health(&self) -> Option<&HealthHandle> {
        self.inner.health()
    }
}

impl Drop for CountedWorker {
    fn drop(&mut self) {
        let stats = self.inner.take_tufast_stats();
        self.sink.lock().unwrap().merge(&stats);
    }
}

/// `pool`, counting the items popped and the items done.
#[allow(dead_code)] // `capacity_gate` and `undirected_walk_gate` count no items
pub struct CountedPool<P> {
    pool: P,
    pops: AtomicU64,
    dones: AtomicU64,
}

#[allow(dead_code)]
impl<P: WorkPool> CountedPool<P> {
    pub fn new(pool: P) -> Self {
        CountedPool {
            pool,
            pops: AtomicU64::new(0),
            dones: AtomicU64::new(0),
        }
    }

    /// Items popped and items done so far: equal once a drain has ended.
    pub fn items(&self) -> (u64, u64) {
        let load = |n: &AtomicU64| n.load(Ordering::Acquire);
        (load(&self.pops), load(&self.dones))
    }
}

impl<P: WorkPool> WorkPool for CountedPool<P> {
    fn push(&self, v: u32) {
        self.pool.push(v);
    }

    fn push_keyed(&self, v: u32, key: u64) {
        self.pool.push_keyed(v, key);
    }

    fn pop(&self) -> Option<u32> {
        let v = self.pool.pop();
        if v.is_some() {
            self.pops.fetch_add(1, Ordering::AcqRel);
        }
        v
    }

    fn pending(&self) -> usize {
        self.pool.pending()
    }

    fn done(&self) {
        self.pool.done();
        self.dones.fetch_add(1, Ordering::AcqRel);
    }

    fn quiescent(&self) -> bool {
        self.pool.quiescent()
    }

    fn park_idle(&self) {
        self.pool.park_idle();
    }

    fn interrupt(&self) {
        self.pool.interrupt();
    }

    fn pending_items(&self) -> Vec<(u32, u64)> {
        self.pool.pending_items()
    }

    fn counters(&self) -> PoolCounters {
        self.pool.counters()
    }
}
