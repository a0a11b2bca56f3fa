//! Single-thread micro-probes of one layer each, through public entry
//! points only. Each probe × the matching counter of a job gives the
//! estimated share of that job the layer is responsible for — the split of
//! `algos.run` that spans cannot give, because the layers nest inside one
//! call.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use tufast::par::{parallel_drain, parallel_for, FifoPool, PriorityPool, WorkPool};
use tufast::{BucketPool, StealPool, TuFast};
use tufast_htm::{Addr, HtmConfig, HtmCtx, HtmRuntime, HtmStats, MemoryLayout};
use tufast_txn::{GraphScheduler, TxnHint, TxnSystem, TxnWorker};

use crate::harness::Metrics;
use crate::stats::min;

/// Timed rounds per probe (after one warm-up round); the fastest is kept,
/// like everywhere else at one thread (see `harness::Summary`).
const ROUNDS: usize = 5;

/// Fastest of `ROUNDS` calls of `round`, which returns nanoseconds per
/// operation; one extra call first warms caches and lazy allocation.
fn best_ns(mut round: impl FnMut() -> f64) -> f64 {
    round();
    min(&(0..ROUNDS).map(|_| round()).collect::<Vec<_>>())
}

/// Words of the probe arena: 1 MiB, about the value + lock footprint of
/// the twitter-s workloads, so the probe sees the same cache level.
const ARENA_WORDS: u64 = 128 * 1024;
/// Distinct random lines touched per probe transaction, like a scattered
/// neighbourhood.
const LINES_PER_TXN: u64 = 64;
const PROBE_TXNS: u64 = 4_000;

/// Costs of the emulated-HTM primitives, nanoseconds each.
#[derive(Clone, Copy, Default)]
pub struct HtmProbe {
    /// One transactional read (begin/commit cost subtracted).
    pub read_ns: f64,
    /// One transactional write (begin/commit cost subtracted).
    pub write_ns: f64,
    /// One empty begin + commit.
    pub begin_commit_ns: f64,
    /// One plain load with the same address generation.
    pub plain_load_ns: f64,
}

impl HtmProbe {
    pub fn record(&self, metrics: &mut Metrics) {
        metrics.set("htm.read_ns", self.read_ns);
        metrics.set("htm.write_ns", self.write_ns);
        metrics.set("htm.begin_commit_ns", self.begin_commit_ns);
        metrics.set("htm.plain_load_ns", self.plain_load_ns);
    }

    /// Nanoseconds the emulation's bookkeeping added to a job with these
    /// counters, over what plain loads and stores would have cost.
    pub fn tax_ns(&self, htm: &HtmStats) -> f64 {
        htm.reads as f64 * (self.read_ns - self.plain_load_ns).max(0.0)
            + htm.writes as f64 * (self.write_ns - self.plain_load_ns).max(0.0)
    }
}

#[inline]
fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// `PROBE_TXNS` transactions of `LINES_PER_TXN` accesses each; returns
/// nanoseconds per transaction. A capacity abort (64 random lines can
/// overload one set) restarts the transaction.
fn htm_round(ctx: &mut HtmCtx, write: bool) -> f64 {
    let lines = ARENA_WORDS / 8;
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut sink = 0u64;
    let t = Instant::now();
    for _ in 0..PROBE_TXNS {
        ctx.begin().expect("probe context is idle");
        for _ in 0..LINES_PER_TXN {
            let addr = Addr((xorshift(&mut x) % lines) * 8);
            let aborted = if write {
                ctx.write(addr, x).is_err()
            } else {
                match ctx.read(addr) {
                    Ok(v) => {
                        sink = sink.wrapping_add(v);
                        false
                    }
                    Err(_) => true,
                }
            };
            if aborted {
                ctx.begin().expect("aborted context is idle");
            }
        }
        let _ = ctx.commit();
    }
    black_box(sink);
    t.elapsed().as_nanos() as f64 / PROBE_TXNS as f64
}

/// Probe the emulated HTM on a fresh runtime.
pub fn htm() -> HtmProbe {
    let mut layout = MemoryLayout::new();
    layout.alloc("probe", ARENA_WORDS);
    let rt = HtmRuntime::new(layout, HtmConfig::default());
    let mut ctx = rt.ctx();

    let begin_commit_ns = best_ns(|| {
        let n = PROBE_TXNS * 8;
        let t = Instant::now();
        for _ in 0..n {
            ctx.begin().expect("probe context is idle");
            let _ = ctx.commit();
        }
        t.elapsed().as_nanos() as f64 / n as f64
    });
    let per_op = |txn_ns: f64| ((txn_ns - begin_commit_ns) / LINES_PER_TXN as f64).max(0.0);
    let read_ns = per_op(best_ns(|| htm_round(&mut ctx, false)));
    let write_ns = per_op(best_ns(|| htm_round(&mut ctx, true)));

    let mem = rt.memory();
    let plain_load_ns = best_ns(|| {
        let lines = ARENA_WORDS / 8;
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut sink = 0u64;
        let n = PROBE_TXNS * LINES_PER_TXN;
        let t = Instant::now();
        for _ in 0..n {
            sink = sink.wrapping_add(mem.load_direct(Addr((xorshift(&mut x) % lines) * 8)));
        }
        black_box(sink);
        t.elapsed().as_nanos() as f64 / n as f64
    });
    HtmProbe {
        read_ns,
        write_ns,
        begin_commit_ns,
        plain_load_ns,
    }
}

fn probe_system(vertices: usize, words: u64) -> (Arc<TxnSystem>, tufast_htm::MemRegion) {
    let mut layout = MemoryLayout::new();
    let region = layout.alloc("probe", words);
    (TxnSystem::with_defaults(vertices, layout), region)
}

/// Nanoseconds for one empty transaction through a `TuFast` worker: the
/// fixed cost every transaction pays before its first read.
pub fn empty_txn_ns() -> f64 {
    let (sys, _) = probe_system(64, 64);
    let sched = TuFast::new(sys);
    let mut worker = sched.worker();
    best_ns(|| {
        let n = 200_000u64;
        let t = Instant::now();
        for _ in 0..n {
            black_box(worker.execute(2, &mut |_| Ok(())));
        }
        t.elapsed().as_nanos() as f64 / n as f64
    })
}

/// Nanoseconds for one read on the R-mode snapshot path: a declared-pure
/// transaction of 64 scattered reads, minus one of zero reads.
pub fn r_read_ns() -> f64 {
    let (sys, region) = probe_system(ARENA_WORDS as usize / 8, ARENA_WORDS);
    let sched = TuFast::new(sys);
    let mut worker = sched.worker();
    let mut round = |reads: u64| {
        let lines = ARENA_WORDS / 8;
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut sink = 0u64;
        let t = Instant::now();
        for _ in 0..PROBE_TXNS {
            let x0 = x;
            worker.execute_hinted(TxnHint::read_only(reads as usize + 1), &mut |ops| {
                x = x0;
                for _ in 0..reads {
                    let line = xorshift(&mut x) % lines;
                    sink = sink.wrapping_add(ops.read(line as u32, region.addr(line * 8))?);
                }
                Ok(())
            });
        }
        black_box(sink);
        t.elapsed().as_nanos() as f64 / PROBE_TXNS as f64
    };
    let empty = best_ns(|| round(0));
    let full = best_ns(|| round(LINES_PER_TXN));
    ((full - empty) / LINES_PER_TXN as f64).max(0.0)
}

/// Push → pop → done cost of each work distributor with a no-op body,
/// nanoseconds per item at one thread.
#[derive(Clone, Copy, Default)]
pub struct DispatchProbe {
    pub parfor_ns: f64,
    pub fifo_ns: f64,
    pub steal_ns: f64,
    pub priority_ns: f64,
    pub bucket_ns: f64,
}

impl DispatchProbe {
    pub fn record(&self, metrics: &mut Metrics) {
        metrics.set("core.parfor_ns_per_item", self.parfor_ns);
        metrics.set("core.pool_fifo_ns_per_item", self.fifo_ns);
        metrics.set("core.pool_steal_ns_per_item", self.steal_ns);
        metrics.set("core.pool_priority_ns_per_item", self.priority_ns);
        metrics.set("core.pool_bucket_ns_per_item", self.bucket_ns);
    }
}

const DISPATCH_ITEMS: u32 = 200_000;

/// Drain a binary tree of `DISPATCH_ITEMS` items: item `v` pushes `2v+1`
/// and `2v+2` from inside the worker, as a traversal pushes the vertices it
/// improved, so the frontier is wide and pushes take the worker-local path.
fn drain_ns<P: WorkPool>(
    sched: &TuFast,
    make: impl Fn() -> P,
    push: impl Fn(&P, u32) + Sync,
) -> f64 {
    best_ns(|| {
        let pool = make();
        let t = Instant::now();
        push(&pool, 0);
        parallel_drain(sched, &pool, 1, |_, pool, v| {
            for child in [2 * v + 1, 2 * v + 2] {
                if child < DISPATCH_ITEMS {
                    push(pool, child);
                }
            }
        });
        t.elapsed().as_nanos() as f64 / f64::from(DISPATCH_ITEMS)
    })
}

/// Probe every work distributor of `tufast::par`.
pub fn dispatch() -> DispatchProbe {
    let (sys, _) = probe_system(64, 64);
    let sched = TuFast::new(sys);
    let parfor_ns = best_ns(|| {
        let t = Instant::now();
        parallel_for(&sched, 1, DISPATCH_ITEMS as usize, |_, v| {
            black_box(v);
        });
        t.elapsed().as_nanos() as f64 / f64::from(DISPATCH_ITEMS)
    });
    // Keys grow with tree depth, as tentative distances grow outward.
    let key = |v: u32| u64::from(8 * (v + 1).ilog2() + v % 8);
    let out = DispatchProbe {
        parfor_ns,
        fifo_ns: drain_ns(&sched, FifoPool::new, |p, v| p.push(v)),
        steal_ns: drain_ns(&sched, || StealPool::new(1), |p, v| p.push(v)),
        priority_ns: drain_ns(&sched, PriorityPool::new, |p, v| p.push_with_key(v, key(v))),
        bucket_ns: drain_ns(
            &sched,
            || BucketPool::new(1),
            |p, v| p.push_with_key(v, key(v)),
        ),
    };
    // The drains above folded their pool counters into the process-wide
    // accumulator; they are probe traffic, not a job's.
    let _ = tufast::take_sched_counters();
    out
}
