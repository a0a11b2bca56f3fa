//! Differential test of the counting-sort builder against the reference
//! in `support`: every combination of the five switches, on edge lists
//! with the shapes that stress a bucketed build.

mod support;

use proptest::prelude::*;
use tufast_graph::{gen, GraphBuilder};

/// Vertices that edges touch; ids from here up to `n` stay isolated.
const CORE: u32 = 24;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// `shape` turns the random triples into: themselves, a graph whose
    /// vertex 0 holds half the edges, mutual pairs with different weights,
    /// every edge twice with one weight, or no edge at all. Weights come
    /// from a small range so that duplicates tie as well as differ.
    #[test]
    fn builder_matches_reference(
        random in prop::collection::vec((0..CORE, 0..CORE, 0u32..4), 0..160),
        shape in 0u32..5,
        isolated in 0usize..40,
    ) {
        let mut edges = random.clone();
        match shape {
            1 => edges.extend(random.iter().map(|&(_, d, w)| (0, d, w))),
            2 => edges.extend(random.iter().map(|&(s, d, w)| (d, s, w + 1))),
            3 => edges.extend(random.iter().copied()),
            4 => edges.clear(),
            _ => {}
        }
        support::assert_matches_reference(CORE as usize + isolated, &edges);
    }

    /// `with_random_weights` attaches weights without building; the result
    /// is the graph a weighted rebuild of the same edges gives, parallel
    /// edges and self-loops included.
    #[test]
    fn attached_weights_equal_a_weighted_rebuild(
        edges in prop::collection::vec((0..CORE, 0..CORE), 0..160),
        switches in 0u32..32,
        seed in any::<u64>(),
    ) {
        let plain: Vec<_> = edges.iter().map(|&(s, d)| (s, d, 0)).collect();
        let flags = support::Flags { weighted: false, ..support::Flags::from_bits(switches) };
        let g = support::build(CORE as usize, &plain, flags);
        let weighted = gen::with_random_weights(&g, 10, seed);

        let mut b = GraphBuilder::new(CORE as usize).keep_duplicates().keep_self_loops();
        if flags.in_edges {
            b = b.with_in_edges();
        }
        let attached = weighted.weights().unwrap_or(&[]);
        for ((s, d), &w) in g.edges().zip(attached) {
            prop_assert!((1..=10).contains(&w));
            b.add_weighted_edge(s, d, w);
        }
        prop_assert!(weighted == b.build());
    }
}

#[test]
fn edgeless_and_vertexless_graphs_build() {
    support::assert_matches_reference(0, &[]);
    support::assert_matches_reference(5, &[]);
    // Nothing but self-loops: weighted, yet every edge may be dropped.
    support::assert_matches_reference(3, &[(1, 1, 7), (1, 1, 2), (2, 2, 0)]);
}
