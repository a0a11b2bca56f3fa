//! PageRank with asynchronous in-place updates.
//!
//! The paper credits TuFast's PageRank win to *in-place updates*: "workers
//! always read the most fresh information as results of other workers'
//! recent updates" (§VI-A), unlike BSP systems that buffer updates until
//! the next super-step. This module implements exactly that: a pull-style
//! update `rank(v) = (1-d)/n + d·Σ rank(u)/outdeg(u)` over in-neighbours,
//! run asynchronously from a work pool with a residual threshold.
//!
//! With damping `d < 1` the update is a contraction, so the fixpoint is
//! unique — the asynchronous parallel result converges to the same vector
//! as the synchronous sequential reference (dangling mass is not
//! redistributed, the common graph-system convention).

use std::sync::atomic::{AtomicU64, Ordering};

use tufast::par::{parallel_drain, parallel_for, FifoPool, WorkPool};
use tufast_graph::{Graph, VertexId};
use tufast_htm::{f64_to_word, word_to_f64, MemRegion};
use tufast_txn::{GraphScheduler, TxnSystem, TxnWorker};

use crate::common::read_f64_region;

/// Region handles for PageRank.
pub struct PageRankSpace {
    /// `rank[v]` as `f64` bits.
    pub rank: MemRegion<2>,
}

impl PageRankSpace {
    /// Allocate in `layout` for `n` vertices, each value on the line of
    /// its vertex lock word ([`tufast_htm::MemoryLayout::alloc_paired`]).
    pub fn alloc(layout: &mut tufast_htm::MemoryLayout, n: usize) -> Self {
        PageRankSpace {
            rank: layout.alloc_paired("pagerank", n as u64),
        }
    }
}

/// Synchronous sequential reference: iterate to `eps` (L∞ residual) or
/// `max_iters`. Requires in-edges.
pub fn sequential(g: &Graph, damping: f64, eps: f64, max_iters: usize) -> Vec<f64> {
    let n = g.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    assert!(
        g.reverse().is_some(),
        "PageRank pulls over in-edges; build with_in_edges()"
    );
    let base = (1.0 - damping) / n as f64;
    let mut rank = vec![1.0 / n as f64; n];
    let mut next = vec![0.0; n];
    for _ in 0..max_iters {
        let mut residual: f64 = 0.0;
        for v in 0..n {
            let mut sum = 0.0;
            for &u in g.in_neighbors(v as VertexId) {
                sum += rank[u as usize] / g.degree(u) as f64;
            }
            next[v] = base + damping * sum;
            residual = residual.max((next[v] - rank[v]).abs());
        }
        std::mem::swap(&mut rank, &mut next);
        if residual < eps {
            break;
        }
    }
    rank
}

/// Asynchronous transactional PageRank: vertices whose rank moved more
/// than `eps` re-activate their out-neighbours. Requires in-edges.
pub fn parallel<S: GraphScheduler>(
    g: &Graph,
    sched: &S,
    sys: &TxnSystem,
    space: &PageRankSpace,
    threads: usize,
    damping: f64,
    eps: f64,
) -> Vec<f64> {
    let n = g.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    assert!(
        g.reverse().is_some(),
        "PageRank pulls over in-edges; build with_in_edges()"
    );
    let mem = sys.mem();
    mem.fill_region(&space.rank, f64_to_word(1.0 / n as f64));
    let base = (1.0 - damping) / n as f64;
    let pool = FifoPool::new();
    for v in 0..n as VertexId {
        pool.push(v);
    }
    let rank = &space.rank;
    parallel_drain(sched, &pool, threads, |worker, pool, v| {
        let degree = g.in_degree(v) + 1;
        let mut changed = false;
        worker.execute(TxnSystem::neighborhood_hint(degree), &mut |ops| {
            changed = false;
            let mut sum = 0.0;
            for &u in g.in_neighbors(v) {
                let ru = word_to_f64(ops.read(u, rank.addr(u64::from(u)))?);
                sum += ru / g.degree(u) as f64;
            }
            let new = base + damping * sum;
            let old = word_to_f64(ops.read(v, rank.addr(u64::from(v)))?);
            if (new - old).abs() > eps {
                ops.write(v, rank.addr(u64::from(v)), f64_to_word(new))?;
                changed = true;
            }
            Ok(())
        });
        if changed {
            for &u in g.neighbors(v) {
                pool.push(u);
            }
        }
    });
    read_f64_region(mem, rank)
}

/// One *pull-only* PageRank round: computes `rank'(v)` for every vertex
/// from the current in-place ranks into a private vector, writing nothing
/// to shared memory. With `declared_pure` each per-vertex transaction
/// carries [`TxnHint::read_only`](tufast_txn::TxnHint) and rides the
/// R-mode snapshot path (no locks, no read-set logging, no hardware
/// transaction); without it the same body runs on the scheduler's
/// ordinary read path — the two arms of the Figure 20 read-throughput
/// comparison. Returns the next-rank vector plus the workers for stats
/// harvesting; on a quiesced rank region both arms are bitwise identical.
pub fn pull_round<S: GraphScheduler>(
    g: &Graph,
    sched: &S,
    space: &PageRankSpace,
    threads: usize,
    damping: f64,
    declared_pure: bool,
) -> (Vec<f64>, Vec<S::Worker>) {
    use tufast_txn::TxnHint;

    let n = g.num_vertices();
    assert!(
        g.reverse().is_some(),
        "PageRank pulls over in-edges; build with_in_edges()"
    );
    let base = (1.0 - damping) / n.max(1) as f64;
    let rank = &space.rank;
    // `f64` bits, one slot per vertex: each is written by the one worker
    // that claims its vertex, and read back after the workers join.
    let next: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let workers = parallel_for(sched, threads, n, |worker, v| {
        let degree = g.in_degree(v) + 1;
        let size = TxnSystem::neighborhood_hint(degree);
        let hint = if declared_pure {
            TxnHint::read_only(size)
        } else {
            TxnHint::sized(size)
        };
        worker.execute_hinted(hint, &mut |ops| {
            let mut sum = 0.0;
            for &u in g.in_neighbors(v) {
                let ru = word_to_f64(ops.read(u, rank.addr(u64::from(u)))?);
                sum += ru / g.degree(u) as f64;
            }
            next[v as usize].store(f64_to_word(base + damping * sum), Ordering::Relaxed);
            Ok(())
        });
    });
    let next = next
        .into_iter()
        .map(|w| word_to_f64(w.into_inner()))
        .collect();
    (next, workers)
}

/// Fixed-sweep parallel PageRank (`sweeps` rounds over all vertices) used
/// by the benchmark harness where the paper measures per-iteration
/// throughput (Figure 17). Returns the worker list for stats harvesting.
pub fn parallel_sweeps<S: GraphScheduler>(
    g: &Graph,
    sched: &S,
    sys: &TxnSystem,
    space: &PageRankSpace,
    threads: usize,
    damping: f64,
    sweeps: usize,
) -> Vec<S::Worker> {
    let n = g.num_vertices();
    assert!(
        g.reverse().is_some(),
        "PageRank pulls over in-edges; build with_in_edges()"
    );
    sys.mem()
        .fill_region(&space.rank, f64_to_word(1.0 / n.max(1) as f64));
    let base = (1.0 - damping) / n.max(1) as f64;
    let rank = &space.rank;
    let mut workers = Vec::new();
    for _ in 0..sweeps {
        workers = parallel_for(sched, threads, n, |worker, v| {
            let degree = g.in_degree(v) + 1;
            worker.execute(TxnSystem::neighborhood_hint(degree), &mut |ops| {
                let mut sum = 0.0;
                for &u in g.in_neighbors(v) {
                    let ru = word_to_f64(ops.read(u, rank.addr(u64::from(u)))?);
                    sum += ru / g.degree(u) as f64;
                }
                ops.write(
                    v,
                    rank.addr(u64::from(v)),
                    f64_to_word(base + damping * sum),
                )
            });
        });
    }
    workers
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tufast::TuFast;
    use tufast_graph::{gen, GraphBuilder};

    fn with_in_edges(g: &Graph) -> Graph {
        let mut b = GraphBuilder::new(g.num_vertices());
        for (s, d) in g.edges() {
            b.add_edge(s, d);
        }
        b.with_in_edges().build()
    }

    #[test]
    fn sequential_cycle_is_uniform() {
        // On a directed cycle every vertex has the same rank.
        let mut b = GraphBuilder::new(4);
        for v in 0..4 {
            b.add_edge(v, (v + 1) % 4);
        }
        let g = b.with_in_edges().build();
        let r = sequential(&g, 0.85, 1e-12, 500);
        for v in 1..4 {
            assert!((r[v] - r[0]).abs() < 1e-9);
        }
        assert!(
            (r.iter().sum::<f64>() - 1.0).abs() < 1e-6,
            "cycle has no dangling mass"
        );
    }

    #[test]
    fn hub_of_star_outranks_leaves() {
        let g = with_in_edges(&gen::star(50));
        let r = sequential(&g, 0.85, 1e-12, 500);
        assert!(r[0] > 10.0 * r[1], "hub {} vs leaf {}", r[0], r[1]);
    }

    #[test]
    fn parallel_converges_to_sequential_fixpoint() {
        let g = with_in_edges(&gen::rmat(9, 8, 21));
        let expected = sequential(&g, 0.85, 1e-13, 2000);
        let built = crate::setup(&g, PageRankSpace::alloc);
        let tufast = TuFast::new(Arc::clone(&built.sys));
        let got = parallel(&g, &tufast, &built.sys, &built.space, 4, 0.85, 1e-11);
        for v in 0..g.num_vertices() {
            assert!(
                (got[v] - expected[v]).abs() < 1e-6,
                "vertex {v}: {} vs {}",
                got[v],
                expected[v]
            );
        }
    }

    #[test]
    fn pull_round_matches_one_synchronous_iteration_bitwise() {
        use tufast_txn::TxnWorker;

        let g = with_in_edges(&gen::rmat(8, 8, 11));
        let built = crate::setup(&g, PageRankSpace::alloc);
        let n = g.num_vertices();
        // Non-uniform quiesced ranks so the pull actually mixes values.
        for v in 0..n as u64 {
            built
                .sys
                .mem()
                .store_direct(built.space.rank.addr(v), f64_to_word(1.0 / (v + 2) as f64));
        }
        let tufast = TuFast::new(Arc::clone(&built.sys));
        let (pure, workers) = pull_round(&g, &tufast, &built.space, 4, 0.85, true);
        let (ordinary, _) = pull_round(&g, &tufast, &built.space, 4, 0.85, false);
        assert_eq!(pure.len(), n);
        for (v, (p, o)) in pure.iter().zip(&ordinary).enumerate() {
            assert_eq!(p.to_bits(), o.to_bits(), "arms diverge at vertex {v}");
        }
        // Reference: one sequential pull over the same in-place ranks.
        let rank: Vec<f64> = (0..n).map(|v| 1.0 / (v as f64 + 2.0)).collect();
        let base = (1.0 - 0.85) / n as f64;
        for (v, p) in pure.iter().enumerate() {
            let sum: f64 = g
                .in_neighbors(v as VertexId)
                .iter()
                .map(|&u| rank[u as usize] / g.degree(u) as f64)
                .sum();
            assert_eq!(p.to_bits(), (base + 0.85 * sum).to_bits());
        }
        let r_commits: u64 = workers.iter().map(|w| w.stats().r_commits).sum();
        assert_eq!(
            r_commits, n as u64,
            "every pure pull transaction rides the R fast path"
        );
    }

    #[test]
    fn a_panicking_pull_body_re_raises_its_own_payload() {
        // A read hook that panics inside the body when it reads vertex 9,
        // with a payload of its own type.
        struct Boom;
        struct PanicAt(VertexId);
        impl tufast_txn::TxnObserver for PanicAt {
            fn op_read(&self, _worker: u32, v: VertexId, _addr: tufast_htm::Addr, _val: u64) {
                if v == self.0 {
                    std::panic::panic_any(Boom);
                }
            }
        }
        let g = with_in_edges(&gen::grid2d(8, 8));
        let built = crate::setup(&g, PageRankSpace::alloc);
        built.sys.set_observer(Some(Arc::new(PanicAt(9))));
        let tufast = TuFast::new(Arc::clone(&built.sys));
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pull_round(&g, &tufast, &built.space, 2, 0.85, false).0
        }))
        .expect_err("the body panicked");
        assert!(payload.is::<Boom>(), "the body's payload was replaced");
    }

    #[test]
    fn parallel_sweeps_runs_and_converges_roughly() {
        let g = with_in_edges(&gen::grid2d(8, 8));
        let expected = sequential(&g, 0.85, 1e-13, 2000);
        let built = crate::setup(&g, PageRankSpace::alloc);
        let tufast = TuFast::new(Arc::clone(&built.sys));
        parallel_sweeps(&g, &tufast, &built.sys, &built.space, 4, 0.85, 60);
        let got = read_f64_region(built.sys.mem(), &built.space.rank);
        for v in 0..g.num_vertices() {
            assert!((got[v] - expected[v]).abs() < 1e-4, "vertex {v}");
        }
    }
}
