//! A Galois-like speculative worklist engine.
//!
//! Galois executes *operators* from a worklist speculatively: an operator
//! acquires exclusive ownership of its vertex neighbourhood (here: one CAS
//! lock word per vertex), runs, and releases; an ownership clash aborts
//! and retries the operator. The paper describes Galois as "a mixed
//! system: its default configuration prevents data races using locks like
//! our L mode" (§VI-A) — which is what this engine models, minus the
//! static analysis that elides locks for embarrassingly parallel loops
//! (our [`for_each_unprotected`] entry point models the elided case).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use tufast_graph::{Graph, VertexId};
use tufast_htm::witness::{LockClass, Mutex};

use crate::common::{atomic_vec, par_for};

/// Per-vertex ownership table for neighbourhood locking.
pub struct Ownership {
    owner: Vec<AtomicU32>,
}

/// No owner marker.
const FREE: u32 = u32::MAX;

impl Ownership {
    /// A table for `n` vertices.
    pub fn new(n: usize) -> Self {
        Ownership {
            owner: (0..n).map(|_| AtomicU32::new(FREE)).collect(),
        }
    }

    /// Try to acquire every vertex in `need` (sorted, deduped) for
    /// `worker`; on clash, releases everything and returns `false`.
    pub fn try_acquire(&self, worker: u32, need: &[VertexId]) -> bool {
        for (i, &v) in need.iter().enumerate() {
            if self.owner[v as usize]
                .compare_exchange(FREE, worker, Ordering::AcqRel, Ordering::Relaxed)
                .is_err()
            {
                for &u in &need[..i] {
                    self.owner[u as usize].store(FREE, Ordering::Release);
                }
                return false;
            }
        }
        true
    }

    /// Release every vertex in `need` (must be held by the caller).
    pub fn release(&self, need: &[VertexId]) {
        for &v in need {
            self.owner[v as usize].store(FREE, Ordering::Release);
        }
    }
}

/// Run `operator(v, push)` speculatively for every item in the worklist;
/// the operator's *neighbourhood* (vertex + out-neighbours) is locked for
/// the duration. Operators must be idempotent under retry (they re-read
/// shared state each attempt).
pub fn for_each(
    g: &Graph,
    initial: impl IntoIterator<Item = VertexId>,
    threads: usize,
    operator: impl Fn(VertexId, &dyn Fn(VertexId)) + Sync,
) {
    let queue = Mutex::new(LockClass::GaloisWorklist, VecDeque::new());
    let pending = AtomicU64::new(0);
    for v in initial {
        // Increments may be Relaxed: the queue's mutex publishes the item,
        // and the termination check pairs Acquire with the Release
        // decrement below.
        pending.fetch_add(1, Ordering::Relaxed);
        queue.lock().unwrap().push_back(v);
    }
    let ownership = Ownership::new(g.num_vertices());
    let threads = threads.max(1);
    std::thread::scope(|s| {
        for worker in 0..threads as u32 {
            let queue = &queue;
            let pending = &pending;
            let ownership = &ownership;
            let operator = &operator;
            s.spawn(move || {
                let mut neighborhood: Vec<VertexId> = Vec::new();
                let mut idle = 0u32;
                loop {
                    // Popped in its own statement: a guard in the `match`
                    // scrutinee would live through the arm, which pushes.
                    let next = queue.lock().unwrap().pop_front();
                    match next {
                        Some(v) => {
                            idle = 0;
                            neighborhood.clear();
                            neighborhood.push(v);
                            neighborhood.extend_from_slice(g.neighbors(v));
                            neighborhood.sort_unstable();
                            neighborhood.dedup();
                            // Speculative acquisition with bounded retry,
                            // then requeue to avoid convoying.
                            let mut acquired = false;
                            for _ in 0..64 {
                                if ownership.try_acquire(worker, &neighborhood) {
                                    acquired = true;
                                    break;
                                }
                                std::hint::spin_loop();
                            }
                            if !acquired {
                                queue.lock().unwrap().push_back(v); // retry later
                                continue;
                            }
                            let push = |u: VertexId| {
                                pending.fetch_add(1, Ordering::Relaxed);
                                queue.lock().unwrap().push_back(u);
                            };
                            operator(v, &push);
                            ownership.release(&neighborhood);
                            pending.fetch_sub(1, Ordering::Release);
                        }
                        None => {
                            if pending.load(Ordering::Acquire) == 0 {
                                break;
                            }
                            idle += 1;
                            if idle > 64 {
                                std::thread::yield_now();
                            } else {
                                std::hint::spin_loop();
                            }
                        }
                    }
                }
            });
        }
    });
}

/// The lock-elided variant (Galois' static analysis having proven the loop
/// embarrassingly parallel): a plain parallel for over all vertices.
pub fn for_each_unprotected(g: &Graph, threads: usize, operator: impl Fn(VertexId) + Sync) {
    par_for(threads, g.num_vertices(), |v| operator(v as VertexId));
}

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

/// BFS hop distances (asynchronous, neighbourhood-locked relaxations).
pub fn bfs(g: &Graph, source: VertexId, threads: usize) -> Vec<u64> {
    let dist = atomic_vec(g.num_vertices(), u64::MAX);
    if g.num_vertices() == 0 {
        return Vec::new();
    }
    dist[source as usize].store(0, Ordering::Relaxed);
    for_each(g, [source], threads, |v, push| {
        let dv = dist[v as usize].load(Ordering::Relaxed);
        if dv == u64::MAX {
            return;
        }
        for &u in g.neighbors(v) {
            if dist[u as usize].load(Ordering::Relaxed) > dv + 1 {
                dist[u as usize].store(dv + 1, Ordering::Relaxed);
                push(u);
            }
        }
    });
    dist.into_iter().map(|d| d.into_inner()).collect()
}

/// SSSP (asynchronous relaxations under neighbourhood locks).
pub fn sssp(g: &Graph, source: VertexId, threads: usize) -> Vec<u64> {
    assert!(g.has_weights(), "galois::sssp needs edge weights");
    let dist = atomic_vec(g.num_vertices(), u64::MAX);
    dist[source as usize].store(0, Ordering::Relaxed);
    for_each(g, [source], threads, |v, push| {
        let dv = dist[v as usize].load(Ordering::Relaxed);
        if dv == u64::MAX {
            return;
        }
        for (u, w) in g.weighted_neighbors(v) {
            let cand = dv + u64::from(w);
            if dist[u as usize].load(Ordering::Relaxed) > cand {
                dist[u as usize].store(cand, Ordering::Relaxed);
                push(u);
            }
        }
    });
    dist.into_iter().map(|d| d.into_inner()).collect()
}

/// WCC by asynchronous min-label propagation (symmetric graphs).
pub fn wcc(g: &Graph, threads: usize) -> Vec<u64> {
    let n = g.num_vertices();
    let label: Vec<AtomicU64> = (0..n).map(|v| AtomicU64::new(v as u64)).collect();
    for_each(g, g.vertices(), threads, |v, push| {
        let lv = label[v as usize].load(Ordering::Relaxed);
        for &u in g.neighbors(v) {
            if label[u as usize].load(Ordering::Relaxed) > lv {
                label[u as usize].store(lv, Ordering::Relaxed);
                push(u);
            }
        }
    });
    label.into_iter().map(|l| l.into_inner()).collect()
}

/// Asynchronous in-place PageRank (pull, residual-driven). Requires
/// in-edges.
pub fn pagerank(g: &Graph, damping: f64, eps: f64, threads: usize) -> Vec<f64> {
    let n = g.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    assert!(
        g.reverse().is_some(),
        "galois::pagerank pulls over in-edges"
    );
    let rank = atomic_vec(n, (1.0 / n as f64).to_bits());
    let base = (1.0 - damping) / n as f64;
    for_each(g, g.vertices(), threads, |v, push| {
        let mut sum = 0.0;
        for &u in g.in_neighbors(v) {
            sum += f64::from_bits(rank[u as usize].load(Ordering::Relaxed)) / g.degree(u) as f64;
        }
        let new = base + damping * sum;
        let old = f64::from_bits(rank[v as usize].load(Ordering::Relaxed));
        if (new - old).abs() > eps {
            rank[v as usize].store(new.to_bits(), Ordering::Relaxed);
            for &u in g.neighbors(v) {
                push(u);
            }
        }
    });
    rank.into_iter()
        .map(|r| f64::from_bits(r.into_inner()))
        .collect()
}

/// Triangle counting (lock-elided: read-only).
pub fn triangle(g: &Graph, threads: usize) -> u64 {
    crate::ligra::triangle(g, threads)
}

/// Greedy id-priority MIS under neighbourhood locks (symmetric graphs);
/// identical to the sequential greedy fixpoint.
pub fn mis(g: &Graph, threads: usize) -> Vec<u64> {
    const UNDECIDED: u64 = 0;
    const IN_SET: u64 = 1;
    const OUT: u64 = 2;
    let n = g.num_vertices();
    let state = atomic_vec(n, UNDECIDED);
    let roots: Vec<VertexId> = g
        .vertices()
        .filter(|&v| !g.neighbors(v).iter().any(|&u| u < v))
        .collect();
    for_each(g, roots, threads, |v, push| {
        if state[v as usize].load(Ordering::Relaxed) != UNDECIDED {
            return;
        }
        let mut blocked = false;
        for &u in g.neighbors(v) {
            if u < v {
                match state[u as usize].load(Ordering::Relaxed) {
                    IN_SET => blocked = true,
                    OUT => {}
                    _ => return, // dependency pending; its decision re-pushes us
                }
            }
        }
        state[v as usize].store(if blocked { OUT } else { IN_SET }, Ordering::Release);
        for &u in g.neighbors(v) {
            if u > v {
                push(u);
            }
        }
    });
    state.into_iter().map(|s| s.into_inner()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tufast_graph::{gen, GraphBuilder};

    fn symmetric_rmat(scale: u32, ef: usize, seed: u64) -> Graph {
        let base = gen::rmat(scale, ef, seed);
        let mut b = GraphBuilder::new(base.num_vertices());
        for (s, d) in base.edges() {
            b.add_edge(s, d);
        }
        b.symmetric().build()
    }

    #[test]
    fn ownership_is_all_or_nothing() {
        let own = Ownership::new(4);
        assert!(own.try_acquire(1, &[0, 2]));
        assert!(
            !own.try_acquire(2, &[1, 2, 3]),
            "clash on 2 must release 1 and 3"
        );
        assert!(
            own.try_acquire(2, &[1, 3]),
            "1 and 3 must have been released"
        );
        own.release(&[0, 2]);
        own.release(&[1, 3]);
        assert!(own.try_acquire(3, &[0, 1, 2, 3]));
    }

    #[test]
    fn bfs_matches_ligra() {
        let g = gen::grid2d(10, 10);
        assert_eq!(bfs(&g, 0, 4), crate::ligra::bfs(&g, 0, 4));
    }

    #[test]
    fn sssp_matches_ligra() {
        let g = gen::with_random_weights(&gen::grid2d(9, 9), 30, 2);
        assert_eq!(sssp(&g, 0, 4), crate::ligra::sssp(&g, 0, 4));
    }

    #[test]
    fn wcc_matches_ligra() {
        let g = symmetric_rmat(8, 4, 3);
        assert_eq!(wcc(&g, 4), crate::ligra::wcc(&g, 4));
    }

    #[test]
    fn mis_matches_id_greedy() {
        let g = symmetric_rmat(8, 6, 5);
        let got = mis(&g, 4);
        // Sequential id-greedy reference.
        let mut expected = vec![0u64; g.num_vertices()];
        for v in g.vertices() {
            let blocked = g
                .neighbors(v)
                .iter()
                .any(|&u| u < v && expected[u as usize] == 1);
            expected[v as usize] = if blocked { 2 } else { 1 };
        }
        assert_eq!(got, expected);
    }

    #[test]
    fn pagerank_converges_to_pull_fixpoint() {
        let base = gen::rmat(8, 8, 7);
        let mut b = GraphBuilder::new(base.num_vertices());
        for (s, d) in base.edges() {
            b.add_edge(s, d);
        }
        let g = b.with_in_edges().build();
        let got = pagerank(&g, 0.85, 1e-12, 4);
        let expected = crate::ligra::pagerank(&g, 0.85, 1e-14, 2000, 4);
        for v in 0..g.num_vertices() {
            assert!((got[v] - expected[v]).abs() < 1e-7, "vertex {v}");
        }
    }
}
