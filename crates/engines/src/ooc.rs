//! A simulated out-of-core shard-sweep engine — the GraphChi stand-in for
//! the paper's Figure 12.
//!
//! GraphChi processes a graph in `P` shards with parallel sliding windows:
//! every iteration streams the whole edge set (plus vertex values) through
//! the storage device. Values are computed correctly in memory here; each
//! full pass charges the analytic disk cost `bytes / bandwidth + seeks`.
//! The paper's observation this reproduces: "GraphChi fails to utilize the
//! memory efficiently although memory is sufficient" — its architecture
//! pays the streaming pass structure regardless.

use tufast_graph::{Graph, VertexId};

use crate::common::{mis_round_count, timed, SimCost};
use crate::ligra;

/// Simulated storage parameters. Defaults model the paper's r3.8xlarge
/// SSD (the paper excludes *initial load* I/O but the engine still pays
/// per-iteration shard traffic, as GraphChi's execution model requires).
#[derive(Clone, Copy, Debug)]
pub struct DiskConfig {
    /// Number of shards (GraphChi's P).
    pub shards: usize,
    /// Sequential bandwidth in bytes/second.
    pub bandwidth_bps: f64,
    /// Seek / window-reposition latency (seconds).
    pub seek_s: f64,
    /// Bytes per edge on disk (two 4-byte ids, or id+weight).
    pub bytes_per_edge: u64,
    /// Bytes per vertex value on disk.
    pub bytes_per_vertex: u64,
}

impl Default for DiskConfig {
    fn default() -> Self {
        DiskConfig {
            shards: 32,
            bandwidth_bps: 450e6, // SATA SSD class
            seek_s: 100e-6,
            bytes_per_edge: 8,
            bytes_per_vertex: 8,
        }
    }
}

/// The simulated out-of-core engine over one graph.
pub struct OocEngine<'g> {
    g: &'g Graph,
    config: DiskConfig,
}

impl<'g> OocEngine<'g> {
    /// Wrap `g` with the disk model.
    pub fn new(g: &'g Graph, config: DiskConfig) -> Self {
        OocEngine { g, config }
    }

    /// Charge one full pass over the graph (all shards in and out).
    fn charge_pass(&self, cost: &mut SimCost) {
        let bytes = self.g.num_edges() * self.config.bytes_per_edge
            + self.g.num_vertices() as u64 * self.config.bytes_per_vertex * 2; // read + write values
        cost.rounds += 1;
        cost.bytes_moved += bytes;
        // Each shard repositions the window once per subinterval: P² seeks
        // per pass in the classic parallel-sliding-windows analysis.
        let seeks = (self.config.shards * self.config.shards) as f64;
        cost.disk_s += bytes as f64 / self.config.bandwidth_bps + seeks * self.config.seek_s;
    }

    /// Time `run` as the compute, then charge `passes(&result)` full
    /// passes.
    fn passes<T>(&self, run: impl FnOnce() -> T, passes: impl FnOnce(&T) -> u64) -> (T, SimCost) {
        let (out, mut cost) = timed(run);
        for _ in 0..passes(&out) {
            self.charge_pass(&mut cost);
        }
        (out, cost)
    }

    /// PageRank: `iters` full passes. Requires in-edges.
    pub fn pagerank(&self, damping: f64, iters: usize, threads: usize) -> (Vec<f64>, SimCost) {
        let run = || ligra::pagerank(self.g, damping, 0.0, iters, threads);
        self.passes(run, |_| iters as u64)
    }

    /// BFS: one full pass per level (GraphChi's selective scheduling still
    /// sweeps the shard structure).
    pub fn bfs(&self, source: VertexId, threads: usize) -> (Vec<u64>, SimCost) {
        self.passes(
            || ligra::bfs(self.g, source, threads),
            |dist| {
                dist.iter()
                    .filter(|&&d| d != u64::MAX)
                    .max()
                    .map_or(0, |&d| d)
                    + 1
            },
        )
    }

    /// WCC: label-propagation passes until quiescent.
    pub fn wcc(&self, threads: usize) -> (Vec<u64>, SimCost) {
        self.passes(|| ligra::wcc(self.g, threads), |_| wcc_pass_count(self.g))
    }

    /// SSSP: one pass per Bellman-Ford round.
    pub fn sssp(&self, source: VertexId, threads: usize) -> (Vec<u64>, SimCost) {
        let run = || ligra::sssp(self.g, source, threads);
        self.passes(run, |_| sssp_round_count(self.g, source))
    }

    /// Triangle counting: GraphChi's algorithm makes `P` passes joining
    /// shard pairs; charge one pass per shard.
    pub fn triangle(&self, threads: usize) -> (u64, SimCost) {
        let run = || ligra::triangle(self.g, threads);
        self.passes(run, |_| self.config.shards as u64)
    }

    /// Greedy MIS: one pass per dependency round.
    pub fn mis(&self, threads: usize) -> (Vec<u64>, SimCost) {
        self.passes(|| ligra::mis(self.g, threads), |_| mis_round_count(self.g))
    }
}

/// Synchronous label-propagation pass count for WCC.
fn wcc_pass_count(g: &Graph) -> u64 {
    // One synchronous pass halves the worst-case label distance; the exact
    // count is the eccentricity of the min-id vertex per component. Measure
    // it directly with a cheap sweep simulation on ids only.
    let n = g.num_vertices();
    let mut label: Vec<u64> = (0..n as u64).collect();
    let mut passes = 0;
    loop {
        passes += 1;
        let mut changed = false;
        let snapshot = label.clone();
        for v in 0..n as VertexId {
            let lv = snapshot[v as usize];
            for &u in g.neighbors(v) {
                if label[u as usize] > lv {
                    label[u as usize] = lv;
                    changed = true;
                }
            }
        }
        if !changed || passes > n as u64 {
            break;
        }
    }
    passes
}

/// Bellman-Ford round count from `source`.
fn sssp_round_count(g: &Graph, source: VertexId) -> u64 {
    if !g.has_weights() || g.num_vertices() == 0 {
        return 1;
    }
    let n = g.num_vertices();
    let mut dist = vec![u64::MAX; n];
    dist[source as usize] = 0;
    let mut rounds = 0;
    loop {
        rounds += 1;
        let mut changed = false;
        let snapshot = dist.clone();
        for v in 0..n as VertexId {
            let dv = snapshot[v as usize];
            if dv == u64::MAX {
                continue;
            }
            for (u, w) in g.weighted_neighbors(v) {
                let cand = dv + u64::from(w);
                if cand < dist[u as usize] {
                    dist[u as usize] = cand;
                    changed = true;
                }
            }
        }
        if !changed || rounds > n as u64 {
            break;
        }
    }
    rounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use tufast_graph::gen;

    #[test]
    fn results_match_shared_memory() {
        let g = gen::grid2d(7, 7);
        let engine = OocEngine::new(&g, DiskConfig::default());
        let (d, cost) = engine.bfs(0, 2);
        assert_eq!(d, crate::ligra::bfs(&g, 0, 2));
        assert!(cost.disk_s > 0.0);
        assert!(cost.rounds >= 12, "one pass per BFS level");
    }

    fn grid_with_in_edges(w: usize, h: usize) -> Graph {
        let base = gen::grid2d(w, h);
        let mut b = tufast_graph::GraphBuilder::new(base.num_vertices());
        for (s, d) in base.edges() {
            b.add_edge(s, d);
        }
        b.with_in_edges().build()
    }

    #[test]
    fn disk_cost_scales_with_graph_size() {
        let small = grid_with_in_edges(5, 5);
        let big = grid_with_in_edges(40, 40);
        let cost_of = |g: &Graph| {
            let engine = OocEngine::new(g, DiskConfig::default());
            let (_, c) = engine.pagerank(0.85, 3, 2);
            c
        };
        let cs = cost_of(&small);
        let cb = cost_of(&big);
        assert!(cb.bytes_moved > cs.bytes_moved);
        assert!(cb.disk_s > cs.disk_s);
    }

    #[test]
    fn per_iteration_passes_are_charged() {
        let g = grid_with_in_edges(6, 6);
        let engine = OocEngine::new(&g, DiskConfig::default());
        let (_, c3) = engine.pagerank(0.85, 3, 2);
        let (_, c9) = engine.pagerank(0.85, 9, 2);
        assert_eq!(c3.rounds, 3);
        assert_eq!(c9.rounds, 9);
        assert!(c9.disk_s > 2.5 * c3.disk_s);
    }

    /// What each pass charges, pinned at one thread (see the GAS pin).
    #[test]
    fn charged_costs_are_pinned_at_one_thread() {
        let g = gen::grid2d(12, 9);
        let w = gen::with_random_weights(&g, 20, 7);
        let engine = OocEngine::new(&g, DiskConfig::default());
        let weighted = OocEngine::new(&w, DiskConfig::default());
        let pin = |c: SimCost| (c.rounds, c.messages, c.bytes_moved);
        assert_eq!(
            [
                pin(engine.bfs(0, 1).1),
                pin(engine.wcc(1).1),
                pin(weighted.sssp(0, 1).1),
                pin(engine.mis(1).1),
            ],
            [(20, 0, 96_960); 4]
        );
    }

    #[test]
    fn wcc_pass_count_on_path_is_diameterish() {
        let g = gen::grid2d(10, 1); // path of 10
        let passes = wcc_pass_count(&g);
        // Forward sweep order collapses a path in few passes; must be at
        // least 2 (one to propagate, one to detect quiescence).
        assert!((2..=10).contains(&passes), "passes = {passes}");
    }
}
