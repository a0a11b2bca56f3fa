//! Greedy vertex coloring (extension beyond the paper's six workloads —
//! exercises transactions whose write depends on *all* neighbour reads).
//!
//! Deterministic id-priority greedy: a vertex takes the smallest color not
//! used by its smaller-id neighbours, once they have all decided — the same
//! dependency-driven schedule as [`crate::mis`], so the parallel result is
//! bit-identical to the sequential greedy and uses at most Δ+1 colors.
//!
//! Run on a symmetric (undirected) graph.

use tufast::par::{parallel_drain, FifoPool, WorkPool};
use tufast_graph::{Graph, VertexId};
use tufast_htm::MemRegion;
use tufast_txn::{GraphScheduler, TxnSystem, TxnWorker};

use crate::common::read_u64_region;

/// Value meaning "not yet colored".
pub const UNCOLORED: u64 = u64::MAX;

/// Region handles for coloring.
pub struct ColoringSpace {
    /// `color[v]`, or [`UNCOLORED`].
    pub color: MemRegion<2>,
}

impl ColoringSpace {
    /// Allocate in `layout` for `n` vertices, each value on the line of
    /// its vertex lock word ([`tufast_htm::MemoryLayout::alloc_paired`]).
    pub fn alloc(layout: &mut tufast_htm::MemoryLayout, n: usize) -> Self {
        ColoringSpace {
            color: layout.alloc_paired("coloring", n as u64),
        }
    }
}

/// Smallest color absent from `used` (which may contain `UNCOLORED`).
fn smallest_free(used: &mut Vec<u64>) -> u64 {
    used.sort_unstable();
    used.dedup();
    let mut candidate = 0u64;
    for &c in used.iter() {
        if c == candidate {
            candidate += 1;
        } else if c > candidate {
            break;
        }
    }
    candidate
}

/// Sequential reference: id-order greedy coloring.
pub fn sequential(g: &Graph) -> Vec<u64> {
    let n = g.num_vertices();
    let mut color = vec![UNCOLORED; n];
    let mut used = Vec::new();
    for v in 0..n as VertexId {
        used.clear();
        used.extend(
            g.neighbors(v)
                .iter()
                .filter(|&&u| u < v)
                .map(|&u| color[u as usize]),
        );
        color[v as usize] = smallest_free(&mut used);
    }
    color
}

/// Transactional parallel greedy coloring (same result as [`sequential`]).
pub fn parallel<S: GraphScheduler>(
    g: &Graph,
    sched: &S,
    sys: &TxnSystem,
    space: &ColoringSpace,
    threads: usize,
) -> Vec<u64> {
    let mem = sys.mem();
    mem.fill_region(&space.color, UNCOLORED);
    let pool = FifoPool::new();
    for v in g.vertices() {
        if !g.neighbors(v).iter().any(|&u| u < v) {
            pool.push(v);
        }
    }
    let color = &space.color;
    parallel_drain(sched, &pool, threads, |worker, pool, v| {
        let mut decided = false;
        let mut used: Vec<u64> = Vec::new();
        worker.execute(TxnSystem::neighborhood_hint(g.degree(v)), &mut |ops| {
            decided = false;
            if ops.read(v, color.addr(u64::from(v)))? != UNCOLORED {
                return Ok(());
            }
            used.clear();
            for &u in g.neighbors(v) {
                if u < v {
                    let cu = ops.read(u, color.addr(u64::from(u)))?;
                    if cu == UNCOLORED {
                        return Ok(()); // dependency pending
                    }
                    used.push(cu);
                }
            }
            ops.write(v, color.addr(u64::from(v)), smallest_free(&mut used))?;
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
    read_u64_region(mem, color)
}

/// Validate a proper coloring; returns the number of colors used.
pub fn validate(g: &Graph, color: &[u64]) -> Result<usize, String> {
    let mut max_color = 0;
    for v in g.vertices() {
        let cv = color[v as usize];
        if cv == UNCOLORED {
            return Err(format!("vertex {v} uncolored"));
        }
        max_color = max_color.max(cv);
        for &u in g.neighbors(v) {
            if u != v && color[u as usize] == cv {
                return Err(format!("adjacent vertices {v} and {u} share color {cv}"));
            }
        }
    }
    Ok(max_color as usize + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tufast::TuFast;
    use tufast_graph::{gen, GraphBuilder};

    #[test]
    fn smallest_free_color_logic() {
        assert_eq!(smallest_free(&mut vec![]), 0);
        assert_eq!(smallest_free(&mut vec![0, 1, 2]), 3);
        assert_eq!(smallest_free(&mut vec![1, 2]), 0);
        assert_eq!(smallest_free(&mut vec![0, 2, 3]), 1);
        assert_eq!(smallest_free(&mut vec![0, 0, 1]), 2);
    }

    #[test]
    fn grid_is_two_colorable_by_greedy() {
        let g = gen::grid2d(8, 8);
        let c = sequential(&g);
        assert_eq!(
            validate(&g, &c).unwrap(),
            2,
            "greedy 2-colors a bipartite grid in id order"
        );
    }

    #[test]
    fn bound_of_max_degree_plus_one() {
        let g = gen::star(50);
        let c = sequential(&g);
        let used = validate(&g, &c).unwrap();
        assert!(used <= 2, "star needs 2 colors, greedy used {used}");
    }

    #[test]
    fn parallel_is_bit_identical_to_sequential() {
        let base = gen::rmat(9, 6, 31);
        let mut b = GraphBuilder::new(base.num_vertices());
        for (s, d) in base.edges() {
            b.add_edge(s, d);
        }
        let g = b.symmetric().build();
        let expected = sequential(&g);
        let built = crate::setup(&g, ColoringSpace::alloc);
        let tufast = TuFast::new(Arc::clone(&built.sys));
        let got = parallel(&g, &tufast, &built.sys, &built.space, 4);
        assert_eq!(got, expected);
        let (d_max, _) = (g.max_degree().1, 0);
        assert!(validate(&g, &got).unwrap() <= d_max + 1);
    }
}
