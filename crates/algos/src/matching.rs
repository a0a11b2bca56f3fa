//! Greedy maximal matching — the paper's flagship usability example
//! (Figure 1, reproduced line-for-line by [`parallel`]).
//!
//! Each vertex transaction tries to pair an unmatched vertex with its first
//! unmatched neighbour. Serializability makes one parallel pass sufficient
//! for maximality: if an edge `(a, b)` ended with both endpoints unmatched,
//! `a`'s transaction must have observed `b` matched — but matches are never
//! undone, contradiction.
//!
//! Run on a symmetric (undirected) graph.

use tufast::par::parallel_for;
use tufast_graph::{Graph, VertexId};
use tufast_htm::MemRegion;
use tufast_txn::{GraphScheduler, TxnSystem, TxnWorker};

use crate::common::read_u64_region;

/// Value meaning "unmatched" (the paper's `null`).
pub const UNMATCHED: u64 = u64::MAX;

/// Region handles for matching.
pub struct MatchingSpace {
    /// `matched[v]`: partner id, or [`UNMATCHED`].
    pub matched: MemRegion<2>,
}

impl MatchingSpace {
    /// Allocate in `layout` for `n` vertices, each value on the line of
    /// its vertex lock word ([`tufast_htm::MemoryLayout::alloc_paired`]).
    pub fn alloc(layout: &mut tufast_htm::MemoryLayout, n: usize) -> Self {
        MatchingSpace {
            matched: layout.alloc_paired("matching", n as u64),
        }
    }
}

/// Sequential reference greedy matching (first-unmatched-neighbour order).
pub fn sequential(g: &Graph) -> Vec<u64> {
    let n = g.num_vertices();
    let mut matched = vec![UNMATCHED; n];
    for v in 0..n as VertexId {
        if matched[v as usize] != UNMATCHED {
            continue;
        }
        for &u in g.neighbors(v) {
            if matched[u as usize] == UNMATCHED && u != v {
                matched[v as usize] = u64::from(u);
                matched[u as usize] = u64::from(v);
                break;
            }
        }
    }
    matched
}

/// The paper's Figure 1, verbatim: a parallel-for of matching-attempt
/// transactions. One pass yields a maximal matching (see module docs).
pub fn parallel<S: GraphScheduler>(
    g: &Graph,
    sched: &S,
    sys: &TxnSystem,
    space: &MatchingSpace,
    threads: usize,
) -> Vec<u64> {
    let mem = sys.mem();
    mem.fill_region(&space.matched, UNMATCHED);
    let matched = &space.matched;
    parallel_for(sched, threads, g.num_vertices(), |worker, v| {
        // BEGIN(degree[v])                       // a degree hint
        worker.execute(TxnSystem::neighborhood_hint(g.degree(v)), &mut |ops| {
            // if READ(v, match[v]) == null
            if ops.read(v, matched.addr(u64::from(v)))? == UNMATCHED {
                // for u : neighbor of v
                for &u in g.neighbors(v) {
                    // if READ(u, match[u]) == null
                    if ops.read(u, matched.addr(u64::from(u)))? == UNMATCHED {
                        // WRITE(v, match[v], u); WRITE(u, match[u], v); break
                        ops.write(v, matched.addr(u64::from(v)), u64::from(u))?;
                        ops.write(u, matched.addr(u64::from(u)), u64::from(v))?;
                        break;
                    }
                }
            }
            Ok(()) // COMMIT
        });
    });
    read_u64_region(mem, matched)
}

/// Validate a matching: partners are mutual, joined by real edges, and the
/// matching is maximal (no edge has two unmatched endpoints).
pub fn validate(g: &Graph, matched: &[u64]) -> Result<(), String> {
    for v in g.vertices() {
        let m = matched[v as usize];
        if m != UNMATCHED {
            let m = m as usize;
            if m >= matched.len() {
                return Err(format!("vertex {v} matched to out-of-range {m}"));
            }
            if matched[m] != u64::from(v) {
                return Err(format!("match of {v} → {m} is not mutual"));
            }
            if !g.neighbors(v).contains(&(m as VertexId)) {
                return Err(format!("matched pair ({v}, {m}) is not an edge"));
            }
        }
    }
    for (a, b) in g.edges() {
        if a != b && matched[a as usize] == UNMATCHED && matched[b as usize] == UNMATCHED {
            return Err(format!(
                "edge ({a}, {b}) has both endpoints unmatched (not maximal)"
            ));
        }
    }
    Ok(())
}

/// Number of matched pairs.
pub fn matching_size(matched: &[u64]) -> usize {
    matched.iter().filter(|&&m| m != UNMATCHED).count() / 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tufast::TuFast;
    use tufast_graph::{gen, GraphBuilder};
    use tufast_txn::{Occ, TwoPhaseLocking};

    fn undirected_rmat(scale: u32, ef: usize, seed: u64) -> Graph {
        let base = gen::rmat(scale, ef, seed);
        let mut b = GraphBuilder::new(base.num_vertices());
        for (s, d) in base.edges() {
            b.add_edge(s, d);
        }
        b.symmetric().build()
    }

    #[test]
    fn sequential_is_valid_and_maximal() {
        for g in [gen::grid2d(7, 9), gen::star(20), undirected_rmat(8, 6, 3)] {
            let m = sequential(&g);
            validate(&g, &m).unwrap();
        }
    }

    #[test]
    fn path_matching_size() {
        let g = gen::grid2d(6, 1); // path of 6 vertices
        let m = sequential(&g);
        assert_eq!(matching_size(&m), 3, "perfect matching on an even path");
    }

    #[test]
    fn parallel_is_valid_and_maximal_under_every_scheduler() {
        let g = undirected_rmat(9, 8, 5);
        // TuFast.
        let built = crate::setup(&g, MatchingSpace::alloc);
        let m = parallel(
            &g,
            &TuFast::new(Arc::clone(&built.sys)),
            &built.sys,
            &built.space,
            4,
        );
        validate(&g, &m).unwrap();
        // 2PL.
        let built = crate::setup(&g, MatchingSpace::alloc);
        let m = parallel(
            &g,
            &TwoPhaseLocking::new(Arc::clone(&built.sys)),
            &built.sys,
            &built.space,
            4,
        );
        validate(&g, &m).unwrap();
        // OCC.
        let built = crate::setup(&g, MatchingSpace::alloc);
        let m = parallel(
            &g,
            &Occ::new(Arc::clone(&built.sys)),
            &built.sys,
            &built.space,
            4,
        );
        validate(&g, &m).unwrap();
    }

    #[test]
    fn parallel_matches_at_least_half_of_greedy() {
        // Any maximal matching is a 2-approximation of maximum, so two
        // maximal matchings differ by at most 2× in size.
        let g = undirected_rmat(10, 10, 9);
        let seq_size = matching_size(&sequential(&g));
        let built = crate::setup(&g, MatchingSpace::alloc);
        let m = parallel(
            &g,
            &TuFast::new(Arc::clone(&built.sys)),
            &built.sys,
            &built.space,
            4,
        );
        let par_size = matching_size(&m);
        assert!(
            par_size * 2 >= seq_size,
            "parallel {par_size} vs sequential {seq_size}"
        );
        assert!(seq_size * 2 >= par_size);
    }

    #[test]
    fn empty_graph_matches_nothing() {
        let g = GraphBuilder::new(3).build();
        let built = crate::setup(&g, MatchingSpace::alloc);
        let m = parallel(
            &g,
            &TuFast::new(Arc::clone(&built.sys)),
            &built.sys,
            &built.space,
            2,
        );
        assert!(m.iter().all(|&x| x == UNMATCHED));
        validate(&g, &m).unwrap();
    }
}
