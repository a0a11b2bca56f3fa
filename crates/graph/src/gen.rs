//! Seeded synthetic graph generators.
//!
//! These produce the laptop-scale stand-ins for the paper's evaluation
//! graphs (DESIGN.md §2). All generators are deterministic given a seed.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::builder::GraphBuilder;
use crate::csr::{Graph, VertexId};

/// R-MAT generator (Chakrabarti et al.): recursively partitions the
/// adjacency matrix with probabilities `(a, b, c, 1-a-b-c)`. With the
/// Graph500 parameters `a=0.57, b=0.19, c=0.19` it yields the heavy-tailed,
/// scale-free degree distribution of social graphs like twitter-mpi —
/// the skew TuFast's three-mode routing exploits.
///
/// Produces a simple directed graph with `2^scale` vertices and about
/// `edge_factor · 2^scale` edges (slightly fewer after dedup).
pub fn rmat(scale: u32, edge_factor: usize, seed: u64) -> Graph {
    rmat_with_params(scale, edge_factor, 0.57, 0.19, 0.19, seed)
}

/// R-MAT with explicit quadrant probabilities.
///
/// # Panics
/// If the probabilities are not a sub-distribution (`a+b+c > 1`) or scale
/// exceeds 31.
pub fn rmat_with_params(
    scale: u32,
    edge_factor: usize,
    a: f64,
    b: f64,
    c: f64,
    seed: u64,
) -> Graph {
    assert!(scale <= 31, "scale {scale} too large for u32 vertex ids");
    assert!(
        a >= 0.0 && b >= 0.0 && c >= 0.0 && a + b + c <= 1.0,
        "invalid R-MAT quadrants"
    );
    let n = 1usize << scale;
    let m = n * edge_factor;
    let mut rng = SmallRng::seed_from_u64(seed);
    // Graph500-style vertex permutation: raw R-MAT concentrates high-degree
    // vertices at ids with aligned bit patterns (0, 2^k, …), a synthetic
    // artefact real crawls don't have — and one that pathologically
    // collides in set-associative cache models. Relabel uniformly.
    let mut perm: Vec<VertexId> = (0..n as VertexId).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.random_range(0..=i));
    }
    let mut builder = GraphBuilder::new(n).with_edge_capacity(m);
    // One draw per level picks the quadrant: [0, a) is (0, 0), [a, a+b) is
    // (0, 1), [a+b, a+b+c) is (1, 0), the rest (1, 1). The quadrant is
    // close to a coin flip no predictor learns, so select it with
    // comparisons, not with branches.
    let (ab, abc) = (a + b, a + b + c);
    for _ in 0..m {
        let (mut x, mut y) = (0u32, 0u32);
        for level in (0..scale).rev() {
            let r: f64 = rng.random();
            let dx = u32::from(r >= ab);
            let dy = u32::from((r >= a) & (r < ab) | (r >= abc));
            x |= dx << level;
            y |= dy << level;
        }
        if x != y {
            builder.add_edge(perm[x as usize], perm[y as usize]);
        }
    }
    builder.build()
}

/// Barabási–Albert preferential attachment: each new vertex attaches `m`
/// edges to existing vertices with probability proportional to degree.
/// Produces a connected power-law graph — the friendster-style stand-in.
pub fn barabasi_albert(n: usize, m: usize, seed: u64) -> Graph {
    assert!(m >= 1 && n > m, "need n > m >= 1");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut builder = GraphBuilder::new(n).with_edge_capacity(n * m);
    // `targets` holds one entry per edge endpoint, so sampling uniformly
    // from it is degree-proportional sampling.
    let mut endpoints: Vec<VertexId> = Vec::with_capacity(2 * n * m);
    // Seed clique over the first m+1 vertices.
    for v in 0..=m {
        for u in 0..v {
            builder.add_edge(v as VertexId, u as VertexId);
            endpoints.push(v as VertexId);
            endpoints.push(u as VertexId);
        }
    }
    for v in (m + 1)..n {
        let mut chosen = Vec::with_capacity(m);
        while chosen.len() < m {
            let u = endpoints[rng.random_range(0..endpoints.len())];
            if u != v as VertexId && !chosen.contains(&u) {
                chosen.push(u);
            }
        }
        for &u in &chosen {
            builder.add_edge(v as VertexId, u);
            endpoints.push(v as VertexId);
            endpoints.push(u);
        }
    }
    builder.build()
}

/// Erdős–Rényi `G(n, m)`: `m` uniformly random simple directed edges.
/// The *even* degree distribution used for the paper's Figure 7 contention
/// sweep, where contention must be controlled by the workload, not by hubs.
pub fn erdos_renyi(n: usize, m: usize, seed: u64) -> Graph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut builder = GraphBuilder::new(n).with_edge_capacity(m);
    let n32 = n as VertexId;
    let mut added = 0usize;
    // Sampling with replacement then dedup would undershoot m; oversample
    // modestly instead and stop at m (dedup still applies at build).
    let mut attempts = 0usize;
    let max_attempts = m.saturating_mul(4).max(16);
    while added < m && attempts < max_attempts {
        attempts += 1;
        let s = rng.random_range(0..n32);
        let d = rng.random_range(0..n32);
        if s != d {
            builder.add_edge(s, d);
            added += 1;
        }
    }
    builder.build()
}

/// A `width × height` 4-neighbour grid (road-network-like: bounded degree,
/// large diameter). Undirected (both directions materialised).
pub fn grid2d(width: usize, height: usize) -> Graph {
    let n = width * height;
    let mut builder = GraphBuilder::new(n).with_edge_capacity(2 * n);
    let id = |x: usize, y: usize| (y * width + x) as VertexId;
    for y in 0..height {
        for x in 0..width {
            if x + 1 < width {
                builder.add_edge(id(x, y), id(x + 1, y));
            }
            if y + 1 < height {
                builder.add_edge(id(x, y), id(x, y + 1));
            }
        }
    }
    builder.symmetric().build()
}

/// A star: vertex 0 connected to all others, both directions. The extreme
/// hub case — every transaction on the hub exceeds HTM capacity once the
/// star is big enough, forcing TuFast's L mode.
pub fn star(n: usize) -> Graph {
    assert!(n >= 1);
    let mut builder = GraphBuilder::new(n).with_edge_capacity(2 * (n - 1));
    for v in 1..n as VertexId {
        builder.add_edge(0, v);
    }
    builder.symmetric().build()
}

/// A simple directed path `0 → 1 → … → n-1`.
pub fn path(n: usize) -> Graph {
    let mut builder = GraphBuilder::new(n);
    for v in 1..n as VertexId {
        builder.add_edge(v - 1, v);
    }
    builder.build()
}

/// Attach uniform random weights in `1..=max_weight` to an existing graph
/// (the paper generates SSSP weights randomly). The adjacency arrays are
/// kept as they are — a symmetric graph's one CSR stays one — and one
/// weight per edge is added, in `O(m)`; an edgeless graph stays
/// unweighted, as the builder would leave it.
pub fn with_random_weights(g: &Graph, max_weight: u32, seed: u64) -> Graph {
    // Mirror weights across symmetric pairs deterministically by hashing the
    // unordered pair, so (u,v) and (v,u) get the same weight.
    let pair_seed = seed ^ 0x9E37_79B9;
    // `edges()` cannot tell `collect` its length; reserve it exactly.
    let mut weights = Vec::with_capacity(g.num_edges() as usize);
    weights.extend(g.edges().map(|(s, d)| {
        let (lo, hi) = if s < d { (s, d) } else { (d, s) };
        let h =
            (u64::from(lo) << 32 | u64::from(hi)).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ pair_seed;
        (h % u64::from(max_weight)) as u32 + 1
    }));
    let weights = (!weights.is_empty()).then_some(weights);
    Graph::from_parts(g.forward().clone(), g.reverse_parts().clone(), weights)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmat_is_deterministic_and_skewed() {
        let g1 = rmat(10, 8, 7);
        let g2 = rmat(10, 8, 7);
        assert_eq!(g1.num_edges(), g2.num_edges());
        assert_eq!(g1.num_vertices(), 1024);
        // Power-law skew: the max degree should dwarf the average.
        let (_, dmax) = g1.max_degree();
        assert!(
            dmax as f64 > 5.0 * g1.avg_degree(),
            "max {dmax} avg {}",
            g1.avg_degree()
        );
    }

    #[test]
    fn rmat_different_seeds_differ() {
        let g1 = rmat(8, 8, 1);
        let g2 = rmat(8, 8, 2);
        let e1: Vec<_> = g1.edges().collect();
        let e2: Vec<_> = g2.edges().collect();
        assert_ne!(e1, e2);
    }

    #[test]
    fn ba_degree_sum_matches_edges() {
        let g = barabasi_albert(500, 3, 11);
        assert_eq!(g.num_vertices(), 500);
        // Seed clique over m+1=4 vertices (6 edges) + m=3 per later vertex.
        let expected = 6 + (500 - 4) * 3;
        assert_eq!(g.num_edges() as usize, expected);
        let total: usize = g.vertices().map(|v| g.degree(v)).sum();
        assert_eq!(total as u64, g.num_edges());
    }

    #[test]
    fn erdos_renyi_has_even_degrees() {
        let g = erdos_renyi(1000, 10_000, 3);
        assert!(g.num_edges() > 9_000);
        let (_, dmax) = g.max_degree();
        // Poisson(≈10): max degree stays within a small factor of the mean.
        assert!(dmax < 40, "unexpected hub in ER graph: {dmax}");
    }

    #[test]
    fn grid_degrees_are_bounded_by_four() {
        let g = grid2d(10, 7);
        assert_eq!(g.num_vertices(), 70);
        assert!(g.vertices().all(|v| g.degree(v) <= 4));
        assert_eq!(g.num_edges(), (9 * 7 + 10 * 6) as u64 * 2);
    }

    #[test]
    fn star_hub_has_full_degree() {
        let g = star(100);
        assert_eq!(g.degree(0), 99);
        assert!(g.vertices().skip(1).all(|v| g.degree(v) == 1));
    }

    #[test]
    fn path_is_a_chain() {
        let g = path(5);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(2), &[3]);
    }

    #[test]
    fn random_weights_keep_the_reverse_as_it_was() {
        let rebuilt = |g: &Graph, symmetric: bool| {
            let mut b = GraphBuilder::new(g.num_vertices()).with_in_edges();
            g.edges().for_each(|(s, d)| b.add_edge(s, d));
            if symmetric { b.symmetric() } else { b }.build()
        };
        let sym = rebuilt(&rmat(6, 4, 3), true);
        let weighted = with_random_weights(&sym, 10, 1);
        assert!(sym.reverse_is_forward() && weighted.reverse_is_forward());
        assert_eq!(weighted.reverse(), Some(weighted.forward()));

        let directed = rebuilt(&path(4), false);
        let weighted = with_random_weights(&directed, 10, 1);
        assert!(!weighted.reverse_is_forward());
        assert_eq!(weighted.reverse(), directed.reverse());
        assert!(with_random_weights(&path(4), 10, 1).reverse().is_none());
    }

    #[test]
    fn random_weights_are_in_range_and_symmetric() {
        let base = grid2d(5, 5);
        let g = with_random_weights(&base, 100, 9);
        assert!(g.has_weights());
        assert_eq!(g.num_edges(), base.num_edges());
        for v in g.vertices() {
            for (u, w) in g.weighted_neighbors(v) {
                assert!((1..=100).contains(&w));
                // Undirected weight symmetry.
                let back: Vec<_> = g.weighted_neighbors(u).filter(|&(x, _)| x == v).collect();
                assert_eq!(back, vec![(v, w)]);
            }
        }
    }
}
