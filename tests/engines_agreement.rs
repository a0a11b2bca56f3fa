//! Cross-engine agreement: the comparator engines and the transactional
//! algorithms must compute the same answers on the same graphs — otherwise
//! the Figure 11/12 timings compare different work.

use std::sync::Arc;

use tufast_suite::algos::{self, setup};
use tufast_suite::engines::{galois, gas, ligra, ooc, polymer};
use tufast_suite::graph::{gen, Graph, GraphBuilder};
use tufast_suite::tufast::TuFast;

const THREADS: usize = 4;

fn symmetric_with_in(scale: u32, ef: usize, seed: u64) -> Graph {
    let base = gen::rmat(scale, ef, seed);
    let mut b = GraphBuilder::new(base.num_vertices());
    for (s, d) in base.edges() {
        b.add_edge(s, d);
    }
    b.symmetric().with_in_edges().build()
}

#[test]
fn bfs_agrees_across_all_engines() {
    let g = symmetric_with_in(9, 6, 41);
    let built = setup(&g, algos::bfs::BfsSpace::alloc);
    let tufast = TuFast::new(Arc::clone(&built.sys));
    let tm = algos::bfs::parallel(&g, &tufast, &built.sys, &built.space, 0, THREADS);
    assert_eq!(tm, ligra::bfs(&g, 0, THREADS));
    assert_eq!(tm, polymer::bfs(&g, 0, THREADS));
    assert_eq!(tm, galois::bfs(&g, 0, THREADS));
    let cluster = gas::GasCluster::new(&g, gas::ClusterConfig::default());
    assert_eq!(tm, cluster.bfs(0, THREADS).0);
    let engine = ooc::OocEngine::new(&g, ooc::DiskConfig::default());
    assert_eq!(tm, engine.bfs(0, THREADS).0);
}

#[test]
fn wcc_agrees_across_all_engines() {
    let g = symmetric_with_in(9, 3, 43);
    let built = setup(&g, algos::wcc::WccSpace::alloc);
    let tufast = TuFast::new(Arc::clone(&built.sys));
    let tm = algos::wcc::parallel(&g, &tufast, &built.sys, &built.space, THREADS);
    assert_eq!(tm, ligra::wcc(&g, THREADS));
    assert_eq!(tm, polymer::wcc(&g, THREADS));
    assert_eq!(tm, galois::wcc(&g, THREADS));
}

#[test]
fn triangle_count_agrees_across_all_engines() {
    let g = symmetric_with_in(9, 8, 47);
    let built = setup(&g, |l, _| l.alloc("unused", 1));
    let tufast = TuFast::new(Arc::clone(&built.sys));
    let tm = algos::triangle::parallel(&g, &tufast, &built.sys, THREADS);
    assert_eq!(tm, ligra::triangle(&g, THREADS));
    assert_eq!(tm, polymer::triangle(&g, THREADS));
    assert_eq!(tm, galois::triangle(&g, THREADS));
    assert!(tm > 0);
}

#[test]
fn sssp_agrees_across_all_engines() {
    let g = gen::with_random_weights(&symmetric_with_in(9, 5, 51), 60, 5);
    let built = setup(&g, algos::sssp::SsspSpace::alloc);
    let tufast = TuFast::new(Arc::clone(&built.sys));
    let tm = algos::sssp::parallel(
        &g,
        &tufast,
        &built.sys,
        &built.space,
        0,
        THREADS,
        algos::sssp::QueueKind::Priority,
    );
    assert_eq!(tm, ligra::sssp(&g, 0, THREADS));
    assert_eq!(tm, polymer::sssp(&g, 0, THREADS));
    assert_eq!(tm, galois::sssp(&g, 0, THREADS));
}

#[test]
fn pagerank_fixpoints_agree_within_tolerance() {
    let g = symmetric_with_in(9, 6, 53);
    let built = setup(&g, algos::pagerank::PageRankSpace::alloc);
    let tufast = TuFast::new(Arc::clone(&built.sys));
    let tm = algos::pagerank::parallel(&g, &tufast, &built.sys, &built.space, THREADS, 0.85, 1e-11);
    let reference = ligra::pagerank(&g, 0.85, 1e-13, 2000, THREADS);
    let others = [
        polymer::pagerank(&g, 0.85, 1e-13, 2000, THREADS),
        galois::pagerank(&g, 0.85, 1e-12, THREADS),
    ];
    for v in 0..g.num_vertices() {
        assert!(
            (tm[v] - reference[v]).abs() < 1e-6,
            "tufast vs ligra at {v}"
        );
        for (i, o) in others.iter().enumerate() {
            assert!(
                (o[v] - reference[v]).abs() < 1e-6,
                "engine {i} vs ligra at {v}"
            );
        }
    }
}

#[test]
fn mis_agrees_across_engines_with_deterministic_greedy() {
    let g = symmetric_with_in(9, 5, 59);
    let built = setup(&g, algos::mis::MisSpace::alloc);
    let tufast = TuFast::new(Arc::clone(&built.sys));
    let tm = algos::mis::parallel(&g, &tufast, &built.sys, &built.space, THREADS);
    assert_eq!(tm, ligra::mis(&g, THREADS));
    assert_eq!(tm, galois::mis(&g, THREADS));
    algos::mis::validate(&g, &tm).unwrap();
}

#[test]
fn simulated_engines_charge_nonzero_costs() {
    let g = symmetric_with_in(9, 6, 61);
    let cluster = gas::GasCluster::new(&g, gas::ClusterConfig::default());
    let (_, cost) = cluster.wcc(THREADS);
    assert!(cost.network_s > 0.0 && cost.messages > 0);
    let engine = ooc::OocEngine::new(&g, ooc::DiskConfig::default());
    let (_, cost) = engine.wcc(THREADS);
    assert!(cost.disk_s > 0.0 && cost.bytes_moved > 0);
    // The paper's Figure 12 shape at miniature scale: the charged medium
    // dominates the measured compute.
    assert!(cost.disk_s > cost.compute_s / 10.0);
}
