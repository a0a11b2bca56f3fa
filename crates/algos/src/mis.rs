//! Greedy maximal independent set ("MIS jobs need to know whether their
//! neighbors are chosen or not" — paper §VI-A).
//!
//! Deterministic id-priority greedy: a vertex joins the set iff none of its
//! smaller-id neighbours joined, on the id-greedy drain shared with
//! [`crate::coloring`], so the parallel result is the sequential one.
//!
//! Run on a symmetric (undirected) graph, as the paper does ("we convert
//! our graphs into undirected ones").

use tufast_graph::{Graph, VertexId};
use tufast_htm::MemRegion;
use tufast_txn::{GraphScheduler, TxnSystem};

use crate::greedy;

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

/// The id-greedy rule: in the set iff no smaller neighbour is.
const RULE: greedy::Rule = greedy::Rule(UNDECIDED, JOINS);
const JOINS: fn(&mut Vec<u64>) -> u64 = |seen| if seen.contains(&IN_SET) { OUT } else { IN_SET };

/// Sequential reference: id-order greedy.
pub fn sequential(g: &Graph) -> Vec<u64> {
    greedy::sequential(g, RULE)
}

/// Transactional parallel greedy MIS (same result as [`sequential`]).
pub fn parallel<S: GraphScheduler>(
    g: &Graph,
    sched: &S,
    sys: &TxnSystem,
    space: &MisSpace,
    threads: usize,
) -> Vec<u64> {
    greedy::parallel(g, sched, sys, &space.state, threads, RULE)
}

/// Validate an MIS assignment: independence and maximality.
pub fn validate(g: &Graph, state: &[u64]) -> Result<(), String> {
    for v in g.vertices() {
        let in_set = |&&u: &&VertexId| state[u as usize] == IN_SET;
        match (state[v as usize], g.neighbors(v).iter().find(in_set)) {
            (IN_SET, Some(u)) => {
                return Err(format!(
                    "vertices {v} and {u} are adjacent and both in the set"
                ))
            }
            (OUT, None) => {
                return Err(format!(
                    "vertex {v} is out but has no in-set neighbour (not maximal)"
                ))
            }
            (IN_SET | OUT, _) => {}
            (UNDECIDED, _) => return Err(format!("vertex {v} left undecided")),
            (other, _) => return Err(format!("vertex {v} has invalid state {other}")),
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
