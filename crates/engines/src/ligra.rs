//! A Ligra-like frontier BSP engine: `edge_map` / `vertex_map` with
//! sparse↔dense frontier switching, plus the paper's six workloads.
//!
//! This is the paradigm the paper contrasts with TM: updates buffered
//! between synchronous steps ("they do not have to wait until next
//! super-step to read updates, which is the case in BSP-like systems like
//! Ligra" — §VI-A). Values live in plain atomic arrays; the engine is given
//! every standard Ligra optimisation (CAS-deduplicated frontiers, dense
//! mode above a density threshold).
//!
//! Each workload is written once, under the crate's `Sched` policy (how a
//! round's vertices go to threads): `Dynamic` here and in [`crate::gas`],
//! whose callback charges each frontier; `Static` in [`crate::polymer`].

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use tufast_graph::{Graph, VertexId};

use crate::common::{atomic_min, atomic_vec, par_for};
use crate::polymer::static_vertex_map;

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
    Sched::Dynamic.edge_map(g, frontier, threads, false, update)
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
    Sched::Dynamic.edge_map(g, frontier, threads, true, update)
}

/// Apply `f` to every frontier member in parallel.
pub fn vertex_map(frontier: &Frontier, threads: usize, f: impl Fn(VertexId) + Sync) {
    par_for(threads, frontier.len(), |i| f(frontier.members[i]));
}

/// BFS hop distances from `source` (frontier-synchronous).
pub fn bfs(g: &Graph, source: VertexId, threads: usize) -> Vec<u64> {
    Sched::Dynamic.bfs(g, source, threads, |_| {})
}

/// Synchronous PageRank to `eps` (L∞) or `max_iters`. Requires in-edges.
pub fn pagerank(g: &Graph, damping: f64, eps: f64, max_iters: usize, threads: usize) -> Vec<f64> {
    Sched::Dynamic.pagerank(g, damping, eps, max_iters, threads)
}

/// Weakly connected components by frontier label propagation. For directed
/// graphs build with in-edges.
pub fn wcc(g: &Graph, threads: usize) -> Vec<u64> {
    Sched::Dynamic.wcc(g, threads, |_| {})
}

/// Bellman-Ford over frontiers (the BSP shape the paper contrasts with
/// SPFA: no intra-round prioritisation is possible).
pub fn sssp(g: &Graph, source: VertexId, threads: usize) -> Vec<u64> {
    Sched::Dynamic.sssp(g, source, threads, |_| {})
}

/// Triangle count (ordered intersection; embarrassingly parallel).
pub fn triangle(g: &Graph, threads: usize) -> u64 {
    Sched::Dynamic.triangle(g, threads)
}

/// How a round's vertices are handed to threads: all that tells Ligra
/// from Polymer (paper §VI-A).
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Sched {
    /// Ligra: guided chunks of the members, and `edge_map` sweeps every
    /// vertex instead once the frontier holds more than `n / DENSE_FRACTION`.
    Dynamic,
    /// Polymer: [`static_vertex_map`]'s owner-computes ranges over the
    /// members, and never a dense sweep.
    Static,
}

fn flags(n: usize) -> Vec<AtomicBool> {
    (0..n).map(|_| AtomicBool::new(false)).collect()
}

impl Sched {
    /// Run `f` on every member of `front`; `n` is the vertex count.
    fn vertex_map(self, n: usize, front: &Frontier, threads: usize, f: impl Fn(VertexId) + Sync) {
        match self {
            Sched::Dynamic => par_for(threads, front.len(), |i| f(front.members[i])),
            Sched::Static => static_vertex_map(n, front, threads, f),
        }
    }

    /// One round: `scan(v, next)` for every member `v`, setting the flags
    /// in `next` of what it activates, which are read back ascending as the
    /// next frontier. A `dense` round of `Dynamic` sweeps every vertex once
    /// the frontier holds more than `n / DENSE_FRACTION`.
    fn round(
        self,
        n: usize,
        frontier: &Frontier,
        threads: usize,
        dense: bool,
        scan: impl Fn(VertexId, &[AtomicBool]) + Sync,
    ) -> Frontier {
        let next = flags(n);
        let body = |v| scan(v, &next);
        if dense && self == Sched::Dynamic && frontier.len() > n / DENSE_FRACTION {
            // Dense mode: sweep all vertices, process frontier members.
            let in_frontier = flags(n);
            for &v in frontier.members() {
                in_frontier[v as usize].store(true, Ordering::Relaxed);
            }
            par_for(threads, n, |i| {
                if in_frontier[i].load(Ordering::Relaxed) {
                    body(i as VertexId);
                }
            });
        } else {
            self.vertex_map(n, frontier, threads, body);
        }
        let members = (0..n as VertexId)
            .filter(|&v| next[v as usize].load(Ordering::Relaxed))
            .collect();
        Frontier { members }
    }

    /// [`edge_map`] under this policy, over the out-edges or, with
    /// `undirected`, over [`Graph::undirected`].
    pub(crate) fn edge_map(
        self,
        g: &Graph,
        frontier: &Frontier,
        threads: usize,
        undirected: bool,
        update: impl Fn(VertexId, VertexId) -> bool + Sync,
    ) -> Frontier {
        let visit = |v, u, next: &[AtomicBool]| {
            if update(v, u) {
                next[u as usize].store(true, Ordering::Relaxed);
            }
        };
        self.round(g.num_vertices(), frontier, threads, true, |v, next| {
            if undirected {
                g.undirected(v).for_each(|u| visit(v, u, next));
            } else {
                g.neighbors(v).iter().for_each(|&u| visit(v, u, next));
            }
        })
    }

    /// [`bfs`]; `on_round` sees each level's frontier before it expands.
    pub(crate) fn bfs(
        self,
        g: &Graph,
        source: VertexId,
        threads: usize,
        mut on_round: impl FnMut(&Frontier),
    ) -> Vec<u64> {
        let dist = atomic_vec(g.num_vertices(), u64::MAX);
        if g.num_vertices() == 0 {
            return Vec::new();
        }
        dist[source as usize].store(0, Ordering::Relaxed);
        let mut frontier = Frontier::single(source);
        let mut level = 0u64;
        while !frontier.is_empty() {
            on_round(&frontier);
            level += 1;
            frontier = self.edge_map(g, &frontier, threads, false, |_, dst| {
                dist[dst as usize]
                    .compare_exchange(u64::MAX, level, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
            });
        }
        dist.into_iter().map(AtomicU64::into_inner).collect()
    }

    /// [`pagerank`]: two whole-graph sweeps per iteration.
    pub(crate) fn pagerank(
        self,
        g: &Graph,
        damping: f64,
        eps: f64,
        max_iters: usize,
        threads: usize,
    ) -> Vec<f64> {
        let n = g.num_vertices();
        if n == 0 {
            return Vec::new();
        }
        assert!(g.reverse().is_some(), "pagerank pulls over in-edges");
        let rank: Vec<AtomicU64> = atomic_vec(n, (1.0 / n as f64).to_bits());
        let next: Vec<AtomicU64> = atomic_vec(n, 0);
        let base = (1.0 - damping) / n as f64;
        let all = Frontier::all(g);
        for _ in 0..max_iters {
            let residual = AtomicU64::new(0f64.to_bits());
            self.vertex_map(n, &all, threads, |v| {
                let mut sum = 0.0;
                for &u in g.in_neighbors(v) {
                    let ru = f64::from_bits(rank[u as usize].load(Ordering::Relaxed));
                    sum += ru / g.degree(u) as f64;
                }
                let new = base + damping * sum;
                let old = f64::from_bits(rank[v as usize].load(Ordering::Relaxed));
                next[v as usize].store(new.to_bits(), Ordering::Relaxed);
                let delta = (new - old).abs();
                // Max-reduce on the f64 bits (non-negative, so the bit
                // pattern order matches numeric order), with an RMW only
                // for a delta above the one seen.
                if delta > f64::from_bits(residual.load(Ordering::Relaxed)) {
                    residual.fetch_max(delta.to_bits(), Ordering::Relaxed);
                }
            });
            self.vertex_map(n, &all, threads, |v| {
                rank[v as usize].store(next[v as usize].load(Ordering::Relaxed), Ordering::Relaxed);
            });
            if f64::from_bits(residual.load(Ordering::Relaxed)) < eps {
                break;
            }
        }
        rank.into_iter()
            .map(|r| f64::from_bits(r.into_inner()))
            .collect()
    }

    /// [`wcc`]; `on_round` sees each round's frontier before it expands.
    pub(crate) fn wcc(
        self,
        g: &Graph,
        threads: usize,
        mut on_round: impl FnMut(&Frontier),
    ) -> Vec<u64> {
        let label: Vec<AtomicU64> = g.vertices().map(|v| AtomicU64::new(v.into())).collect();
        let mut frontier = Frontier::all(g);
        while !frontier.is_empty() {
            on_round(&frontier);
            frontier = self.edge_map(g, &frontier, threads, true, |src, dst| {
                let ls = label[src as usize].load(Ordering::Relaxed);
                atomic_min(&label[dst as usize], ls)
            });
        }
        label.into_iter().map(AtomicU64::into_inner).collect()
    }

    /// [`sssp`], every round sparse; `on_round` sees each round's frontier
    /// before it expands.
    pub(crate) fn sssp(
        self,
        g: &Graph,
        source: VertexId,
        threads: usize,
        mut on_round: impl FnMut(&Frontier),
    ) -> Vec<u64> {
        assert!(g.has_weights(), "sssp needs edge weights");
        let n = g.num_vertices();
        let dist = atomic_vec(n, u64::MAX);
        dist[source as usize].store(0, Ordering::Relaxed);
        let mut frontier = Frontier::single(source);
        while !frontier.is_empty() {
            on_round(&frontier);
            frontier = self.round(n, &frontier, threads, false, |v, next| {
                let dv = dist[v as usize].load(Ordering::Relaxed);
                if dv == u64::MAX {
                    return;
                }
                for (u, w) in g.weighted_neighbors(v) {
                    if atomic_min(&dist[u as usize], dv + u64::from(w)) {
                        next[u as usize].store(true, Ordering::Relaxed);
                    }
                }
            });
        }
        dist.into_iter().map(AtomicU64::into_inner).collect()
    }

    /// [`triangle`]: one whole-graph sweep.
    pub(crate) fn triangle(self, g: &Graph, threads: usize) -> u64 {
        let total = AtomicU64::new(0);
        self.vertex_map(g.num_vertices(), &Frontier::all(g), threads, |v| {
            let nv = g.neighbors(v);
            let mut local = 0u64;
            for &u in nv.iter().filter(|&&u| u > v) {
                let nu = g.neighbors(u);
                let (mut i, mut j) = (
                    nv.partition_point(|&x| x <= u),
                    nu.partition_point(|&x| x <= u),
                );
                while let (Some(&a), Some(&b)) = (nv.get(i), nu.get(j)) {
                    i += usize::from(a <= b);
                    j += usize::from(b <= a);
                    local += u64::from(a == b);
                }
            }
            total.fetch_add(local, Ordering::Relaxed);
        });
        total.load(Ordering::Relaxed)
    }
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
