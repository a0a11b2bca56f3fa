//! A Polymer-like variant of the frontier engine.
//!
//! Polymer is "a NUMA-aware graph computing system" (paper §VI-A): Ligra's
//! model with vertex data and work statically partitioned per socket so
//! that threads touch NUMA-local memory. True NUMA effects cannot be
//! reproduced on one socket (DESIGN.md §2); what *is* architectural — and
//! implemented here — is the static owner-computes partitioning: each
//! thread owns a fixed contiguous vertex range and processes exactly the
//! frontier members in its range, instead of Ligra's dynamic chunk
//! stealing. On skewed graphs the static split load-imbalances on hubs,
//! which is the qualitative behaviour the paper reports (Polymer "suffers
//! from same performance issue that slows down Ligra or Galois").
//!
//! So every workload here is [`crate::ligra`]'s own loop run under the
//! `Static` policy: each round's members go through [`static_vertex_map`],
//! whole-graph sweeps (PageRank, triangles) through it over
//! [`Frontier::all`], and no round switches to a dense sweep.

use tufast_graph::{Graph, VertexId};

use crate::ligra::{Frontier, Sched};

/// Run `f(v)` for every member of `frontier`, with members statically
/// assigned to threads by owner range (owner-computes).
pub fn static_vertex_map(
    n: usize,
    frontier: &Frontier,
    threads: usize,
    f: impl Fn(VertexId) + Sync,
) {
    let threads = threads.max(1);
    let per = n.div_ceil(threads).max(1);
    std::thread::scope(|s| {
        for t in 0..threads {
            let lo = (t * per) as VertexId;
            let hi = (((t + 1) * per).min(n)) as VertexId;
            let f = &f;
            let members = frontier.members();
            s.spawn(move || {
                for &v in members {
                    if v >= lo && v < hi {
                        f(v);
                    }
                }
            });
        }
    });
}

/// Frontier edge-map with owner-computes scheduling.
pub fn edge_map(
    g: &Graph,
    frontier: &Frontier,
    threads: usize,
    update: impl Fn(VertexId, VertexId) -> bool + Sync,
) -> Frontier {
    Sched::Static.edge_map(g, frontier, threads, false, update)
}

/// BFS with static partitioning.
pub fn bfs(g: &Graph, source: VertexId, threads: usize) -> Vec<u64> {
    Sched::Static.bfs(g, source, threads, |_| {})
}

/// Synchronous PageRank with static per-thread vertex ranges. Requires
/// in-edges.
pub fn pagerank(g: &Graph, damping: f64, eps: f64, max_iters: usize, threads: usize) -> Vec<f64> {
    Sched::Static.pagerank(g, damping, eps, max_iters, threads)
}

/// WCC with static partitioning. For directed graphs build with in-edges.
pub fn wcc(g: &Graph, threads: usize) -> Vec<u64> {
    Sched::Static.wcc(g, threads, |_| {})
}

/// Bellman-Ford rounds with static partitioning.
pub fn sssp(g: &Graph, source: VertexId, threads: usize) -> Vec<u64> {
    Sched::Static.sssp(g, source, threads, |_| {})
}

/// Triangle counting with static ranges.
pub fn triangle(g: &Graph, threads: usize) -> u64 {
    Sched::Static.triangle(g, threads)
}

/// Greedy MIS by rounds with static ranges (symmetric graphs).
pub fn mis(g: &Graph, threads: usize) -> Vec<u64> {
    // Same round structure as ligra::mis; only the scheduling differs, and
    // the fixpoint is identical — delegate.
    crate::ligra::mis(g, threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tufast_graph::{gen, GraphBuilder};

    #[test]
    fn bfs_matches_ligra() {
        let g = gen::grid2d(11, 11);
        assert_eq!(bfs(&g, 0, 4), crate::ligra::bfs(&g, 0, 4));
    }

    #[test]
    fn wcc_matches_ligra() {
        let base = gen::rmat(8, 4, 9);
        let mut b = GraphBuilder::new(base.num_vertices());
        for (s, d) in base.edges() {
            b.add_edge(s, d);
        }
        let g = b.symmetric().build();
        assert_eq!(wcc(&g, 4), crate::ligra::wcc(&g, 4));
    }

    #[test]
    fn pagerank_matches_ligra() {
        let base = gen::rmat(8, 8, 2);
        let mut b = GraphBuilder::new(base.num_vertices());
        for (s, d) in base.edges() {
            b.add_edge(s, d);
        }
        let g = b.with_in_edges().build();
        let a = pagerank(&g, 0.85, 1e-12, 100, 4);
        let l = crate::ligra::pagerank(&g, 0.85, 1e-12, 100, 4);
        for v in 0..g.num_vertices() {
            assert!((a[v] - l[v]).abs() < 1e-10);
        }
    }

    #[test]
    fn sssp_and_triangle_match_ligra() {
        let g = gen::with_random_weights(&gen::grid2d(9, 9), 10, 4);
        assert_eq!(sssp(&g, 0, 4), crate::ligra::sssp(&g, 0, 4));
        let base = gen::rmat(8, 8, 6);
        let mut b = GraphBuilder::new(base.num_vertices());
        for (s, d) in base.edges() {
            b.add_edge(s, d);
        }
        let sym = b.symmetric().build();
        assert_eq!(triangle(&sym, 4), crate::ligra::triangle(&sym, 4));
    }
}
