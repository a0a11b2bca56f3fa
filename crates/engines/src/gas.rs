//! A simulated distributed gather-apply-scatter engine — the
//! PowerGraph / PowerLyra stand-in for the paper's Figure 12.
//!
//! The real systems are clusters; here the *values* are computed correctly
//! in shared memory while the distributed costs are charged analytically
//! (DESIGN.md §2): every BSP round pays two barrier latencies
//! (gather + scatter) plus the wire time of synchronising each active
//! vertex with its mirrors. The partition strategy is the knob that
//! differentiates the two baselines:
//!
//! * [`PartitionKind::Hash`] — random (edge-cut) placement: PowerGraph's
//!   default.
//! * [`PartitionKind::Hybrid`] — PowerLyra's hybrid-cut (vertex-cut only
//!   for high-degree vertices), which lowers the replication factor and
//!   therefore the communication volume.
//!
//! The values come from [`crate::ligra`]'s loops; BFS, WCC and SSSP charge
//! each frontier from the loop's per-round callback.
//!
//! The paper's qualitative result this must reproduce: the distributed
//! systems lose to shared-memory TuFast by orders of magnitude because
//! "graph applications' computing bottleneck is the communication".

use std::time::Instant;

use tufast_graph::partition::{hash_partition, hybrid_partition, Partition};
use tufast_graph::{Graph, VertexId};

use crate::common::{mis_round_count, timed, SimCost};
use crate::ligra::{self, Frontier, Sched};

/// Partition strategy (differentiates PowerGraph from PowerLyra).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartitionKind {
    /// Random hash placement (PowerGraph).
    Hash,
    /// Hybrid-cut with the given high-degree threshold (PowerLyra's θ).
    Hybrid(usize),
}

/// Simulated cluster parameters. Defaults model the paper's testbed:
/// 16 × m3.2xlarge on EC2-class networking.
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// Number of machines.
    pub machines: usize,
    /// Partition strategy.
    pub partition: PartitionKind,
    /// Barrier/communication latency per BSP phase (seconds).
    pub phase_latency_s: f64,
    /// Aggregate network bandwidth (bytes/second).
    pub bandwidth_bps: f64,
    /// Bytes per mirror-synchronisation message.
    pub msg_bytes: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            machines: 16,
            partition: PartitionKind::Hash,
            phase_latency_s: 500e-6, // EC2-class barrier latency
            bandwidth_bps: 1.25e9,   // 10 GbE aggregate
            msg_bytes: 16,           // vertex id + value
        }
    }
}

/// The simulated GAS cluster over one graph.
pub struct GasCluster<'g> {
    g: &'g Graph,
    partition: Partition,
    config: ClusterConfig,
}

impl<'g> GasCluster<'g> {
    /// Partition `g` over the simulated cluster.
    pub fn new(g: &'g Graph, config: ClusterConfig) -> Self {
        let partition = match config.partition {
            PartitionKind::Hash => hash_partition(g, config.machines),
            PartitionKind::Hybrid(theta) => hybrid_partition(g, config.machines, theta),
        };
        GasCluster {
            g,
            partition,
            config,
        }
    }

    /// The replication factor of the active partition (PowerLyra's edge).
    pub fn replication_factor(&self) -> f64 {
        self.partition.replication_factor()
    }

    /// Charge one BSP round that exchanges `msgs` messages (gather +
    /// apply + scatter ⇒ two network phases).
    fn charge_round(&self, cost: &mut SimCost, msgs: u64) {
        cost.rounds += 1;
        cost.messages += msgs;
        let bytes = msgs * self.config.msg_bytes;
        cost.bytes_moved += bytes;
        cost.network_s +=
            2.0 * self.config.phase_latency_s + bytes as f64 / self.config.bandwidth_bps;
    }

    /// The messages of a round in which `active` synchronise their
    /// mirrors: gather collects one partial per mirror, and scatter pushes
    /// the new value back to every mirror.
    fn sync_msgs(&self, active: impl Iterator<Item = VertexId>) -> u64 {
        active
            .map(|v| 2 * u64::from(self.partition.mirrors[v as usize]))
            .sum()
    }

    /// Time `run` as the compute, then charge `rounds` rounds in which
    /// every vertex is active.
    fn sweeps<T>(&self, rounds: u64, run: impl FnOnce() -> T) -> (T, SimCost) {
        let (out, mut cost) = timed(run);
        for _ in 0..rounds {
            self.charge_round(&mut cost, self.sync_msgs(self.g.vertices()));
        }
        (out, cost)
    }

    /// PageRank: `iters` synchronous rounds, every vertex active.
    /// Requires in-edges. Returns ranks and the simulated cost.
    pub fn pagerank(&self, damping: f64, iters: usize, threads: usize) -> (Vec<f64>, SimCost) {
        self.sweeps(iters as u64, || {
            ligra::pagerank(self.g, damping, 0.0, iters, threads)
        })
    }

    /// Run one of Ligra's frontier loops, charging a round for each
    /// frontier it expands, with `compute_s` timed around the whole run.
    fn frontier_run<T>(&self, run: impl FnOnce(&mut dyn FnMut(&Frontier)) -> T) -> (T, SimCost) {
        let mut cost = SimCost::default();
        let t0 = Instant::now();
        let out =
            run(&mut |f| self.charge_round(&mut cost, self.sync_msgs(f.members().iter().copied())));
        cost.compute_s = t0.elapsed().as_secs_f64();
        (out, cost)
    }

    /// BFS with per-level rounds; only frontier vertices synchronise.
    pub fn bfs(&self, source: VertexId, threads: usize) -> (Vec<u64>, SimCost) {
        self.frontier_run(|charge| Sched::Dynamic.bfs(self.g, source, threads, charge))
    }

    /// WCC by rounds of label propagation (symmetric graphs).
    pub fn wcc(&self, threads: usize) -> (Vec<u64>, SimCost) {
        self.frontier_run(|charge| Sched::Dynamic.wcc(self.g, threads, charge))
    }

    /// SSSP (Bellman-Ford rounds).
    pub fn sssp(&self, source: VertexId, threads: usize) -> (Vec<u64>, SimCost) {
        self.frontier_run(|charge| Sched::Dynamic.sssp(self.g, source, threads, charge))
    }

    /// Triangle counting: one round, but gathering requires shipping
    /// adjacency lists to mirrors — the message volume is degree-weighted.
    pub fn triangle(&self, threads: usize) -> (u64, SimCost) {
        let (count, mut cost) = timed(|| ligra::triangle(self.g, threads));
        let msgs = self
            .g
            .vertices()
            .map(|v| u64::from(self.partition.mirrors[v as usize]) * self.g.degree(v) as u64);
        self.charge_round(&mut cost, msgs.sum());
        (count, cost)
    }

    /// Greedy MIS by rounds (symmetric graphs).
    pub fn mis(&self, threads: usize) -> (Vec<u64>, SimCost) {
        self.sweeps(mis_round_count(self.g), || ligra::mis(self.g, threads))
    }
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
        // In-edges so the PageRank workloads can pull.
        b.symmetric().with_in_edges().build()
    }

    #[test]
    fn results_match_shared_memory_engines() {
        let g = symmetric_rmat(8, 6, 3);
        let cluster = GasCluster::new(&g, ClusterConfig::default());
        let (labels, cost) = cluster.wcc(2);
        assert_eq!(labels, crate::ligra::wcc(&g, 2));
        assert!(cost.rounds >= 1);
        assert!(cost.network_s > 0.0);
    }

    #[test]
    fn hybrid_cut_moves_fewer_bytes_on_power_law() {
        let g = symmetric_rmat(11, 12, 5);
        let pg = GasCluster::new(
            &g,
            ClusterConfig {
                partition: PartitionKind::Hash,
                ..Default::default()
            },
        );
        let pl = GasCluster::new(
            &g,
            ClusterConfig {
                partition: PartitionKind::Hybrid(64),
                ..Default::default()
            },
        );
        assert!(pl.replication_factor() <= pg.replication_factor());
        let (_, cost_pg) = pg.pagerank(0.85, 5, 2);
        let (_, cost_pl) = pl.pagerank(0.85, 5, 2);
        assert!(
            cost_pl.bytes_moved <= cost_pg.bytes_moved,
            "PowerLyra {} vs PowerGraph {}",
            cost_pl.bytes_moved,
            cost_pg.bytes_moved
        );
    }

    #[test]
    fn network_dominates_compute_like_the_paper_says() {
        // Moderate graph, many rounds: the simulated network time must be a
        // large multiple of local compute — the paper's core claim about
        // distributed graph processing.
        let g = symmetric_rmat(10, 8, 9);
        let cluster = GasCluster::new(&g, ClusterConfig::default());
        let (_, cost) = cluster.pagerank(0.85, 20, 2);
        assert!(cost.network_s > 0.0);
        assert!(cost.messages > 0);
    }

    #[test]
    fn bfs_distances_are_correct_under_simulation() {
        let g = gen::grid2d(8, 8);
        let cluster = GasCluster::new(&g, ClusterConfig::default());
        let (d, cost) = cluster.bfs(0, 2);
        assert_eq!(d, crate::ligra::bfs(&g, 0, 2));
        assert_eq!(
            cost.rounds as usize, 15,
            "grid 8x8 has 14 BFS levels + source round"
        );
    }

    #[test]
    fn single_machine_cluster_pays_latency_but_no_bytes() {
        let g = {
            let base = gen::grid2d(5, 5);
            let mut b = GraphBuilder::new(base.num_vertices());
            for (s, d) in base.edges() {
                b.add_edge(s, d);
            }
            b.with_in_edges().build()
        };
        let cluster = GasCluster::new(
            &g,
            ClusterConfig {
                machines: 1,
                ..Default::default()
            },
        );
        let (_, cost) = cluster.pagerank(0.85, 3, 2);
        assert_eq!(cost.bytes_moved, 0, "no mirrors on one machine");
        assert!(cost.network_s > 0.0, "barrier latency still applies");
    }

    /// What each round charges, pinned at one thread, where every run is
    /// deterministic: a change to a round's frontier or to its charge
    /// moves these.
    #[test]
    fn charged_costs_are_pinned_at_one_thread() {
        let g = gen::grid2d(12, 9);
        let w = gen::with_random_weights(&g, 20, 7);
        let cluster = GasCluster::new(&g, ClusterConfig::default());
        let weighted = GasCluster::new(&w, ClusterConfig::default());
        let pin = |c: SimCost| (c.rounds, c.messages, c.bytes_moved);
        assert_eq!(
            [
                pin(cluster.bfs(0, 1).1),
                pin(cluster.wcc(1).1),
                pin(weighted.sssp(0, 1).1),
                pin(cluster.mis(1).1),
            ],
            [
                (20, 780, 12_480),
                (2, 1_556, 24_896),
                (20, 990, 15_840),
                (20, 15_600, 249_600),
            ]
        );
    }

    #[test]
    fn mis_round_count_on_path_is_linear() {
        let g = gen::grid2d(6, 1);
        assert_eq!(mis_round_count(&g), 6);
    }
}
