//! A Ligra-like frontier BSP engine: `edge_map` / `vertex_map` with
//! sparse↔dense frontier switching, plus the paper's six workloads.
//!
//! This is the paradigm the paper contrasts with TM: updates buffered
//! between synchronous steps ("they do not have to wait until next
//! super-step to read updates, which is the case in BSP-like systems like
//! Ligra" — §VI-A). Values live in plain atomic arrays; the engine is given
//! every standard Ligra optimisation (CAS-deduplicated frontiers, dense
//! mode above a density threshold).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use tufast_graph::{Graph, VertexId};

use crate::common::{atomic_min, atomic_vec, par_for, par_for_slice};

/// Sparse→dense switch threshold (Ligra uses |E_frontier| > |E|/20; vertex
/// count is the common simplification).
const DENSE_FRACTION: usize = 20;

/// A vertex frontier.
#[derive(Clone, Debug)]
pub struct Frontier {
    members: Vec<VertexId>,
}

impl Frontier {
    /// A frontier holding one vertex.
    pub fn single(v: VertexId) -> Self {
        Frontier { members: vec![v] }
    }

    /// A frontier holding every vertex of `g`.
    pub fn all(g: &Graph) -> Self {
        Frontier {
            members: g.vertices().collect(),
        }
    }

    /// From an explicit vertex list.
    pub fn from_vec(members: Vec<VertexId>) -> Self {
        Frontier { members }
    }

    /// Number of member vertices.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the frontier is empty (the usual termination condition).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The member vertices.
    pub fn members(&self) -> &[VertexId] {
        &self.members
    }
}

/// Apply `update(src, dst)` over every edge leaving the frontier, in
/// parallel; `update` returns `true` to put `dst` in the next frontier
/// (it must deduplicate activation itself via its own CAS — the engine
/// additionally deduplicates with a per-vertex flag, Ligra's `remove
/// duplicates` pass).
pub fn edge_map(
    g: &Graph,
    frontier: &Frontier,
    threads: usize,
    update: impl Fn(VertexId, VertexId) -> bool + Sync,
) -> Frontier {
    let out_edges = |v| g.neighbors(v).iter().copied();
    edge_map_over(g, frontier, threads, out_edges, update)
}

/// [`edge_map`] over the undirected view ([`Graph::undirected`]): every
/// edge at the frontier, whichever way it points, each adjacency entry
/// once.
pub fn edge_map_undirected(
    g: &Graph,
    frontier: &Frontier,
    threads: usize,
    update: impl Fn(VertexId, VertexId) -> bool + Sync,
) -> Frontier {
    edge_map_over(g, frontier, threads, |v| g.undirected(v), update)
}

fn edge_map_over<I: Iterator<Item = VertexId>>(
    g: &Graph,
    frontier: &Frontier,
    threads: usize,
    edges: impl Fn(VertexId) -> I + Sync,
    update: impl Fn(VertexId, VertexId) -> bool + Sync,
) -> Frontier {
    let n = g.num_vertices();
    let activated: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    let dense = frontier.len() > n / DENSE_FRACTION;
    let body = |v: &VertexId| {
        let v = *v;
        for u in edges(v) {
            if update(v, u) {
                activated[u as usize].store(true, Ordering::Relaxed);
            }
        }
    };
    if dense {
        // Dense mode: sweep all vertices, process frontier members.
        let in_frontier: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
        for &v in frontier.members() {
            in_frontier[v as usize].store(true, Ordering::Relaxed);
        }
        par_for(threads, n, |i| {
            if in_frontier[i].load(Ordering::Relaxed) {
                body(&(i as VertexId));
            }
        });
    } else {
        par_for_slice(threads, frontier.members(), body);
    }
    let members = (0..n as VertexId)
        .filter(|&v| activated[v as usize].load(Ordering::Relaxed))
        .collect();
    Frontier { members }
}

/// Apply `f` to every frontier member in parallel.
pub fn vertex_map(frontier: &Frontier, threads: usize, f: impl Fn(VertexId) + Sync) {
    par_for_slice(threads, frontier.members(), |&v| f(v));
}

// ---------------------------------------------------------------------------
// The paper's workloads on this engine.
// ---------------------------------------------------------------------------

/// BFS hop distances from `source` (frontier-synchronous).
pub fn bfs(g: &Graph, source: VertexId, threads: usize) -> Vec<u64> {
    let dist = atomic_vec(g.num_vertices(), u64::MAX);
    if g.num_vertices() == 0 {
        return Vec::new();
    }
    dist[source as usize].store(0, Ordering::Relaxed);
    let mut frontier = Frontier::single(source);
    let mut level = 0u64;
    while !frontier.is_empty() {
        level += 1;
        frontier = edge_map(g, &frontier, threads, |_, dst| {
            dist[dst as usize]
                .compare_exchange(u64::MAX, level, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
        });
    }
    dist.into_iter().map(|d| d.into_inner()).collect()
}

/// Synchronous PageRank to `eps` (L∞) or `max_iters`. Requires in-edges.
pub fn pagerank(g: &Graph, damping: f64, eps: f64, max_iters: usize, threads: usize) -> Vec<f64> {
    let n = g.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    assert!(g.reverse().is_some(), "ligra::pagerank pulls over in-edges");
    let rank: Vec<AtomicU64> = atomic_vec(n, (1.0 / n as f64).to_bits());
    let next: Vec<AtomicU64> = atomic_vec(n, 0);
    let base = (1.0 - damping) / n as f64;
    for _ in 0..max_iters {
        let residual = AtomicU64::new(0f64.to_bits());
        par_for(threads, n, |v| {
            let mut sum = 0.0;
            for &u in g.in_neighbors(v as VertexId) {
                let ru = f64::from_bits(rank[u as usize].load(Ordering::Relaxed));
                sum += ru / g.degree(u) as f64;
            }
            let new = base + damping * sum;
            let old = f64::from_bits(rank[v].load(Ordering::Relaxed));
            next[v].store(new.to_bits(), Ordering::Relaxed);
            let delta = (new - old).abs();
            // Max-reduce via CAS on the f64 bits (non-negative, so the bit
            // pattern order matches numeric order).
            let mut cur = residual.load(Ordering::Relaxed);
            while delta > f64::from_bits(cur) {
                match residual.compare_exchange_weak(
                    cur,
                    delta.to_bits(),
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(seen) => cur = seen,
                }
            }
        });
        par_for(threads, n, |v| {
            rank[v].store(next[v].load(Ordering::Relaxed), Ordering::Relaxed);
        });
        if f64::from_bits(residual.load(Ordering::Relaxed)) < eps {
            break;
        }
    }
    rank.into_iter()
        .map(|r| f64::from_bits(r.into_inner()))
        .collect()
}

/// Weakly connected components by frontier label propagation. For directed
/// graphs build with in-edges.
pub fn wcc(g: &Graph, threads: usize) -> Vec<u64> {
    let n = g.num_vertices();
    let label: Vec<AtomicU64> = (0..n).map(|v| AtomicU64::new(v as u64)).collect();
    let mut frontier = Frontier::all(g);
    let push = |src: VertexId, dst: VertexId| {
        let ls = label[src as usize].load(Ordering::Relaxed);
        atomic_min(&label[dst as usize], ls)
    };
    while !frontier.is_empty() {
        frontier = edge_map_undirected(g, &frontier, threads, push);
    }
    label.into_iter().map(|l| l.into_inner()).collect()
}

/// Bellman-Ford over frontiers (the BSP shape the paper contrasts with
/// SPFA: no intra-round prioritisation is possible).
pub fn sssp(g: &Graph, source: VertexId, threads: usize) -> Vec<u64> {
    assert!(g.has_weights(), "ligra::sssp needs edge weights");
    let n = g.num_vertices();
    let dist = atomic_vec(n, u64::MAX);
    dist[source as usize].store(0, Ordering::Relaxed);
    let mut frontier = Frontier::single(source);
    while !frontier.is_empty() {
        frontier = edge_map_weighted(g, &frontier, threads, &dist);
    }
    dist.into_iter().map(|d| d.into_inner()).collect()
}

fn edge_map_weighted(
    g: &Graph,
    frontier: &Frontier,
    threads: usize,
    dist: &[AtomicU64],
) -> Frontier {
    let n = g.num_vertices();
    let activated: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    par_for_slice(threads, frontier.members(), |&v| {
        let dv = dist[v as usize].load(Ordering::Relaxed);
        if dv == u64::MAX {
            return;
        }
        for (u, w) in g.weighted_neighbors(v) {
            if atomic_min(&dist[u as usize], dv + u64::from(w)) {
                activated[u as usize].store(true, Ordering::Relaxed);
            }
        }
    });
    Frontier::from_vec(
        (0..n as VertexId)
            .filter(|&v| activated[v as usize].load(Ordering::Relaxed))
            .collect(),
    )
}

/// Triangle count (ordered intersection; embarrassingly parallel).
pub fn triangle(g: &Graph, threads: usize) -> u64 {
    let total = AtomicU64::new(0);
    par_for(threads, g.num_vertices(), |v| {
        let v = v as VertexId;
        let nv = g.neighbors(v);
        let mut local = 0u64;
        for &u in nv.iter().filter(|&&u| u > v) {
            let nu = g.neighbors(u);
            let (mut i, mut j) = (
                nv.partition_point(|&x| x <= u),
                nu.partition_point(|&x| x <= u),
            );
            while i < nv.len() && j < nu.len() {
                match nv[i].cmp(&nu[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        local += 1;
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
        total.fetch_add(local, Ordering::Relaxed);
    });
    total.load(Ordering::Relaxed)
}

/// Greedy MIS by rounds of the id-priority rule (BSP flavour: a vertex
/// decides in round `k` if all smaller neighbours decided by round `k-1`).
/// Same fixpoint as the sequential id-greedy.
pub fn mis(g: &Graph, threads: usize) -> Vec<u64> {
    const UNDECIDED: u64 = 0;
    const IN_SET: u64 = 1;
    const OUT: u64 = 2;
    let n = g.num_vertices();
    let state = atomic_vec(n, UNDECIDED);
    loop {
        let decided_this_round = AtomicU64::new(0);
        let undecided_left = AtomicU64::new(0);
        par_for(threads, n, |v| {
            let v = v as VertexId;
            if state[v as usize].load(Ordering::Relaxed) != UNDECIDED {
                return;
            }
            let mut blocked = false;
            for &u in g.neighbors(v) {
                if u < v {
                    match state[u as usize].load(Ordering::Relaxed) {
                        IN_SET => blocked = true,
                        OUT => {}
                        _ => {
                            undecided_left.fetch_add(1, Ordering::Relaxed);
                            return; // wait for the next round
                        }
                    }
                }
            }
            state[v as usize].store(if blocked { OUT } else { IN_SET }, Ordering::Release);
            decided_this_round.fetch_add(1, Ordering::Relaxed);
        });
        if undecided_left.load(Ordering::Relaxed) == 0 {
            break;
        }
        assert!(
            decided_this_round.load(Ordering::Relaxed) > 0,
            "no progress in MIS round (cycle in the id order is impossible)"
        );
    }
    state.into_iter().map(|s| s.into_inner()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tufast_graph::{gen, GraphBuilder};

    #[test]
    fn bfs_matches_hop_counts_on_grid() {
        let g = gen::grid2d(9, 9);
        let d = bfs(&g, 0, 4);
        assert_eq!(d[0], 0);
        assert_eq!(d[8], 8); // corner to corner along the top row
        assert_eq!(d[80], 16); // opposite corner: manhattan distance
    }

    #[test]
    fn frontier_switches_to_dense_without_changing_results() {
        // Star from the hub: frontier of size n-1 in round one forces the
        // dense path.
        let g = gen::star(1000);
        let d = bfs(&g, 0, 4);
        assert!(d[1..].iter().all(|&x| x == 1));
    }

    #[test]
    fn pagerank_cycle_is_uniform() {
        let mut b = GraphBuilder::new(4);
        for v in 0..4 {
            b.add_edge(v, (v + 1) % 4);
        }
        let g = b.with_in_edges().build();
        let r = pagerank(&g, 0.85, 1e-12, 500, 4);
        for v in 1..4 {
            assert!((r[v] - r[0]).abs() < 1e-9);
        }
    }

    #[test]
    fn wcc_labels_components_by_min_id() {
        let mut b = GraphBuilder::new(6);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(4, 5);
        let g = b.symmetric().build();
        let labels = wcc(&g, 4);
        assert_eq!(labels, vec![0, 0, 0, 3, 4, 4]);
    }

    #[test]
    fn sssp_matches_reference() {
        let g = gen::with_random_weights(&gen::grid2d(8, 8), 20, 5);
        let d = sssp(&g, 0, 4);
        // Cross-check against a simple sequential Bellman-Ford.
        let mut expected = vec![u64::MAX; g.num_vertices()];
        expected[0] = 0;
        for _ in 0..g.num_vertices() {
            for v in g.vertices() {
                if expected[v as usize] == u64::MAX {
                    continue;
                }
                for (u, w) in g.weighted_neighbors(v) {
                    let cand = expected[v as usize] + u64::from(w);
                    if cand < expected[u as usize] {
                        expected[u as usize] = cand;
                    }
                }
            }
        }
        assert_eq!(d, expected);
    }

    #[test]
    fn triangle_count_on_complete_graph() {
        let mut b = GraphBuilder::new(6);
        for v in 0..6u32 {
            for u in 0..v {
                b.add_edge(v, u);
            }
        }
        let g = b.symmetric().build();
        assert_eq!(triangle(&g, 4), 20); // C(6,3)
    }

    #[test]
    fn mis_matches_id_greedy() {
        let g = gen::grid2d(5, 1);
        let s = mis(&g, 4);
        assert_eq!(s, vec![1, 2, 1, 2, 1]);
    }
}
