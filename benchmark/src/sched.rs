//! Benchmark-owned schedulers that let the harness observe the crates'
//! drivers from outside.
//!
//! The algorithm drivers (`bfs::parallel`, …) create their workers
//! internally and drop them, so a caller never sees the per-worker
//! counters. [`Harvest`] wraps `TuFast` and folds each worker's
//! `TuFastStats` into a shared sink when the driver drops it. [`Plain`]
//! runs the same bodies with plain loads and stores and no transactional
//! machinery at all: at one thread that is the cost of dispatch plus the
//! user body, the part of a job the TM is not responsible for.

use std::sync::{Arc, Mutex};

use tufast::{TuFast, TuFastStats, TuFastWorker};
use tufast_htm::Addr;
use tufast_txn::{
    GraphScheduler, HealthHandle, SchedStats, TxInterrupt, TxnBody, TxnHint, TxnOps, TxnOutcome,
    TxnSystem, TxnWorker, VertexId,
};

/// `TuFast`, with every worker's counters collected when it is dropped.
pub struct Harvest {
    inner: TuFast,
    sink: Arc<Mutex<TuFastStats>>,
}

impl Harvest {
    pub fn new(sys: Arc<TxnSystem>) -> Self {
        Harvest {
            inner: TuFast::new(sys),
            sink: Arc::default(),
        }
    }

    /// Take the counters of every worker dropped so far.
    pub fn take(&self) -> TuFastStats {
        std::mem::take(&mut *self.sink.lock().expect("stats sink poisoned"))
    }
}

impl GraphScheduler for Harvest {
    type Worker = HarvestWorker;

    fn worker(&self) -> HarvestWorker {
        HarvestWorker {
            inner: self.inner.worker(),
            sink: Arc::clone(&self.sink),
        }
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// A `TuFastWorker` that reports into its scheduler's sink on drop.
pub struct HarvestWorker {
    inner: TuFastWorker,
    sink: Arc<Mutex<TuFastStats>>,
}

impl TxnWorker for HarvestWorker {
    #[inline]
    fn execute_hinted(&mut self, hint: TxnHint, body: &mut TxnBody<'_>) -> TxnOutcome {
        self.inner.execute_hinted(hint, body)
    }

    fn stats(&self) -> &SchedStats {
        self.inner.stats()
    }

    fn take_stats(&mut self) -> SchedStats {
        self.inner.take_stats()
    }

    fn htm_ops(&self) -> u64 {
        self.inner.htm_ops()
    }

    #[inline]
    fn health(&self) -> Option<&HealthHandle> {
        self.inner.health()
    }
}

impl Drop for HarvestWorker {
    fn drop(&mut self) {
        let stats = self.inner.take_tufast_stats();
        // A poisoned sink means another worker panicked mid-merge; the
        // repetition is already failed, so losing these counters is fine.
        if let Ok(mut sink) = self.sink.lock() {
            sink.merge(&stats);
        }
    }
}

/// No transactional memory: every read is a plain load, every write a
/// plain store, every body runs exactly once. Sound at one thread only.
pub struct Plain {
    sys: Arc<TxnSystem>,
}

impl Plain {
    pub fn new(sys: Arc<TxnSystem>) -> Self {
        Plain { sys }
    }
}

impl GraphScheduler for Plain {
    type Worker = PlainWorker;

    fn worker(&self) -> PlainWorker {
        PlainWorker {
            sys: Arc::clone(&self.sys),
            stats: SchedStats::default(),
        }
    }

    fn name(&self) -> &'static str {
        "plain"
    }
}

/// Worker of [`Plain`].
pub struct PlainWorker {
    sys: Arc<TxnSystem>,
    stats: SchedStats,
}

struct PlainOps<'a>(&'a TxnSystem);

impl TxnOps for PlainOps<'_> {
    #[inline]
    fn read(&mut self, _v: VertexId, addr: Addr) -> Result<u64, TxInterrupt> {
        Ok(self.0.mem().load_direct(addr))
    }

    #[inline]
    fn write(&mut self, _v: VertexId, addr: Addr, val: u64) -> Result<(), TxInterrupt> {
        // The memory exposes no cheaper store: this one still locks the
        // line and ticks the version clock, so the plain run is an upper
        // bound on what the body costs without a TM.
        self.0.mem().store_direct(addr, val);
        Ok(())
    }
}

impl TxnWorker for PlainWorker {
    fn execute_hinted(&mut self, _hint: TxnHint, body: &mut TxnBody<'_>) -> TxnOutcome {
        let committed = body(&mut PlainOps(&self.sys)).is_ok();
        self.stats.commits += u64::from(committed);
        TxnOutcome {
            committed,
            attempts: 1,
        }
    }

    fn stats(&self) -> &SchedStats {
        &self.stats
    }

    fn take_stats(&mut self) -> SchedStats {
        std::mem::take(&mut self.stats)
    }
}
