//! Greedy maximal independent set ("MIS jobs need to know whether their
//! neighbors are chosen or not" — paper §VI-A).
//!
//! Deterministic id-priority greedy: a vertex joins the set iff none of its
//! smaller-id neighbours joined. The parallel version is dependency-driven:
//! a vertex decides inside a transaction once all smaller neighbours have
//! decided, then wakes its larger neighbours — so the parallel result is
//! bit-identical to the sequential greedy.
//!
//! Run on a symmetric (undirected) graph, as the paper does ("we convert
//! our graphs into undirected ones").

use tufast::par::{parallel_drain, FifoPool, WorkPool};
use tufast_graph::{Graph, VertexId};
use tufast_htm::MemRegion;
use tufast_txn::{GraphScheduler, TxnSystem, TxnWorker};

use crate::common::read_u64_region;

/// Vertex states in the `state` region.
pub const UNDECIDED: u64 = 0;
/// The vertex is in the independent set.
pub const IN_SET: u64 = 1;
/// The vertex is excluded (a smaller neighbour is in the set).
pub const OUT: u64 = 2;

/// Region handles for MIS.
pub struct MisSpace {
    /// `state[v]` ∈ {[`UNDECIDED`], [`IN_SET`], [`OUT`]}.
    pub state: MemRegion<2>,
}

impl MisSpace {
    /// Allocate in `layout` for `n` vertices, each value on the line of
    /// its vertex lock word ([`tufast_htm::MemoryLayout::alloc_paired`]).
    pub fn alloc(layout: &mut tufast_htm::MemoryLayout, n: usize) -> Self {
        MisSpace {
            state: layout.alloc_paired("mis-state", n as u64),
        }
    }
}

/// Sequential reference: id-order greedy.
pub fn sequential(g: &Graph) -> Vec<u64> {
    let n = g.num_vertices();
    let mut state = vec![UNDECIDED; n];
    for v in 0..n as VertexId {
        let blocked = g
            .neighbors(v)
            .iter()
            .any(|&u| u < v && state[u as usize] == IN_SET);
        state[v as usize] = if blocked { OUT } else { IN_SET };
    }
    state
}

/// Transactional parallel greedy MIS (same result as [`sequential`]).
pub fn parallel<S: GraphScheduler>(
    g: &Graph,
    sched: &S,
    sys: &TxnSystem,
    space: &MisSpace,
    threads: usize,
) -> Vec<u64> {
    let mem = sys.mem();
    mem.fill_region(&space.state, UNDECIDED);
    let pool = FifoPool::new();
    // Roots: vertices with no smaller neighbour can decide immediately.
    for v in g.vertices() {
        if !g.neighbors(v).iter().any(|&u| u < v) {
            pool.push(v);
        }
    }
    let state = &space.state;
    parallel_drain(sched, &pool, threads, |worker, pool, v| {
        let mut decided = false;
        worker.execute(TxnSystem::neighborhood_hint(g.degree(v)), &mut |ops| {
            decided = false;
            if ops.read(v, state.addr(u64::from(v)))? != UNDECIDED {
                return Ok(()); // duplicate wake-up
            }
            let mut blocked = false;
            for &u in g.neighbors(v) {
                if u < v {
                    match ops.read(u, state.addr(u64::from(u)))? {
                        UNDECIDED => return Ok(()), // dependency pending; its decision will wake us
                        IN_SET => blocked = true,
                        _ => {}
                    }
                }
            }
            ops.write(
                v,
                state.addr(u64::from(v)),
                if blocked { OUT } else { IN_SET },
            )?;
            decided = true;
            Ok(())
        });
        if decided {
            for &u in g.neighbors(v) {
                if u > v {
                    pool.push(u);
                }
            }
        }
    });
    read_u64_region(mem, state)
}

/// Validate an MIS assignment: independence and maximality.
pub fn validate(g: &Graph, state: &[u64]) -> Result<(), String> {
    for v in g.vertices() {
        match state[v as usize] {
            IN_SET => {
                for &u in g.neighbors(v) {
                    if state[u as usize] == IN_SET {
                        return Err(format!(
                            "vertices {v} and {u} are adjacent and both in the set"
                        ));
                    }
                }
            }
            OUT => {
                let has_in_neighbor = g.neighbors(v).iter().any(|&u| state[u as usize] == IN_SET);
                if !has_in_neighbor {
                    return Err(format!(
                        "vertex {v} is out but has no in-set neighbour (not maximal)"
                    ));
                }
            }
            UNDECIDED => return Err(format!("vertex {v} left undecided")),
            other => return Err(format!("vertex {v} has invalid state {other}")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tufast::TuFast;
    use tufast_graph::{gen, GraphBuilder};

    fn undirected_rmat(scale: u32, ef: usize, seed: u64) -> Graph {
        let base = gen::rmat(scale, ef, seed);
        let mut b = GraphBuilder::new(base.num_vertices());
        for (s, d) in base.edges() {
            b.add_edge(s, d);
        }
        b.symmetric().build()
    }

    #[test]
    fn sequential_on_path_alternates() {
        let g = gen::grid2d(5, 1); // a path, symmetric
        let s = sequential(&g);
        assert_eq!(s, vec![IN_SET, OUT, IN_SET, OUT, IN_SET]);
        validate(&g, &s).unwrap();
    }

    #[test]
    fn star_picks_hub() {
        let g = gen::star(10);
        let s = sequential(&g);
        assert_eq!(s[0], IN_SET);
        assert!(s[1..].iter().all(|&x| x == OUT));
        validate(&g, &s).unwrap();
    }

    #[test]
    fn parallel_is_bit_identical_to_sequential() {
        for seed in [1, 7, 23] {
            let g = undirected_rmat(9, 6, seed);
            let expected = sequential(&g);
            let built = crate::setup(&g, MisSpace::alloc);
            let tufast = TuFast::new(Arc::clone(&built.sys));
            let got = parallel(&g, &tufast, &built.sys, &built.space, 4);
            assert_eq!(got, expected, "seed {seed}");
            validate(&g, &got).unwrap();
        }
    }

    #[test]
    fn validate_catches_violations() {
        let g = gen::grid2d(3, 1);
        assert!(
            validate(&g, &[IN_SET, IN_SET, OUT]).is_err(),
            "adjacent in-set"
        );
        assert!(validate(&g, &[OUT, IN_SET, OUT]).is_ok());
        assert!(validate(&g, &[OUT, OUT, OUT]).is_err(), "not maximal");
        assert!(validate(&g, &[UNDECIDED, IN_SET, OUT]).is_err());
    }

    #[test]
    fn isolated_vertices_all_join() {
        let g = GraphBuilder::new(5).build();
        let s = sequential(&g);
        assert!(s.iter().all(|&x| x == IN_SET));
        let built = crate::setup(&g, MisSpace::alloc);
        let tufast = TuFast::new(Arc::clone(&built.sys));
        assert_eq!(parallel(&g, &tufast, &built.sys, &built.space, 2), s);
    }
}
