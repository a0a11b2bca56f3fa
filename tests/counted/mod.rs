//! `TuFast`, with every worker's counters collected when the driver drops
//! it: drivers hand back only the workers of their last phase, and the
//! one-thread counter gates (`stale_items_gate`, `capacity_gate`) need the
//! whole job's.

use std::sync::{Arc, Mutex};

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
