//! The shared BFS / Components / SSSP item body under duplicate-heavy load:
//! many pool items per vertex, most of them stale by the time they run, on
//! every queue kind and pool implementation — always the sequential answer.

mod support;

use proptest::prelude::*;
use support::all_drivers_match_sequential;
use tufast_graph::{Graph, GraphBuilder, VertexId};

/// A weighted two-way star on `n` vertices whose first `clique` leaves are
/// also pairwise connected (`tufast_check::recovery::star_plus_clique`,
/// which this crate cannot depend on). The hub's spokes are long and the
/// clique's edges short, so distances (and labels) reach every clique
/// member once per neighbour — each an improvement that queues the member
/// again — and the hub once per leaf.
fn star_plus_clique(n: u32, clique: u32) -> Graph {
    assert!(n >= 1 && clique < n);
    let mut b = GraphBuilder::new(n as usize);
    for v in 1..n {
        b.add_weighted_edge(0, v, 1000 + v);
        b.add_weighted_edge(v, 0, 1 + v % 7);
    }
    for u in 1..=clique {
        for v in 1..=clique {
            if u != v {
                b.add_weighted_edge(u, v, 1 + (u * 31 + v * 17) % 23);
            }
        }
    }
    b.build()
}

#[test]
fn duplicate_heavy_star_plus_clique_equals_sequential_on_four_threads() {
    let g = star_plus_clique(600, 40);
    // From the hub, from a clique member, and from a plain leaf (whose
    // only way out is through the hub).
    for source in [0, 7, 599] {
        all_drivers_match_sequential(&g, &g, source, 4);
    }
}

/// Up to 47 vertices; endpoints are drawn over the largest size and folded
/// into `0..n` (the vendored proptest has no `prop_flat_map`).
fn weighted_graph() -> impl Strategy<Value = (Graph, VertexId)> {
    let edge = (0u32..48, 0u32..48, 1u32..40);
    (2u32..48, prop::collection::vec(edge, 1..300), 0u32..48).prop_map(|(n, edges, source)| {
        let mut b = GraphBuilder::new(n as usize);
        for (s, d, w) in edges {
            b.add_weighted_edge(s % n, d % n, w);
        }
        (b.build(), source % n)
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn random_weighted_graphs_equal_sequential((g, source) in weighted_graph()) {
        for threads in [1, 4] {
            all_drivers_match_sequential(&g, &g, source, threads);
        }
    }
}
