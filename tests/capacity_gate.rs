//! Capacity gate: PageRank allocates its rank region paired with the
//! vertex lock words (`MemoryLayout::alloc_paired`, DESIGN.md §2), so a
//! vertex is one line and a hardware transaction holds ~210 random
//! vertices — ~120 with the lock words in a region of their own (staggered
//! across sets), 59 if the two regions alias. If the layout regresses, the
//! hubs of a power-law graph overflow H and O again and finish under 2PL —
//! which still computes the right ranks, only slower — so nothing but a
//! counter would notice. At one thread the counters repeat exactly: this
//! is a count, not a timing test. Tier-1 `cargo test` runs it in the dev
//! profile; CI runs it again in release, where the counts must be the same.

mod counted;

use counted::Counted;
use tufast::ModeClass;
use tufast_algos::{pagerank, setup};
use tufast_graph::{gen, Graph, GraphBuilder, VertexId};
use tufast_htm::word_to_f64;

const DAMPING: f64 = 0.85;
const SWEEPS: usize = 2;
/// 126 paired, 186 separate (the regions staggered), 878 with `lock[v]`
/// and `value[v]` in one set (16 384 transactions).
const CAPACITY_ABORTS_CEILING: u64 = 160;
/// 0 paired, 20 separate, 748 aliased.
const O_TO_L_CEILING: u64 = 5;

/// The benchmark's `pagerank` topology (twitter-s/8) with in-edges.
fn twitter_s8() -> Graph {
    let raw = gen::rmat(13, 37, 0x7117);
    let mut b = GraphBuilder::new(raw.num_vertices()).with_edge_capacity(raw.num_edges() as usize);
    for (s, d) in raw.edges() {
        b.add_edge(s, d);
    }
    b.with_in_edges().build()
}

/// Gauss–Seidel PageRank in vertex order: what `parallel_sweeps` computes
/// at one thread — same operations in the same order, so bitwise equal.
fn sequential_sweeps(g: &Graph) -> Vec<f64> {
    let n = g.num_vertices();
    let base = (1.0 - DAMPING) / n as f64;
    let mut rank = vec![1.0 / n as f64; n];
    for _ in 0..SWEEPS {
        for v in 0..n {
            let mut sum = 0.0;
            for &u in g.in_neighbors(v as VertexId) {
                sum += rank[u as usize] / g.degree(u) as f64;
            }
            rank[v] = base + DAMPING * sum;
        }
    }
    rank
}

#[test]
fn pagerank_hubs_stay_out_of_l_mode() {
    let g = twitter_s8();
    let built = setup(&g, pagerank::PageRankSpace::alloc);
    let sched = Counted::new(&built.sys);
    drop(pagerank::parallel_sweeps(
        &g,
        &sched,
        &built.sys,
        &built.space,
        1,
        DAMPING,
        SWEEPS,
    ));
    let mem = built.sys.mem();
    let ranks: Vec<f64> = built
        .space
        .rank
        .iter()
        .map(|a| word_to_f64(mem.load_direct(a)))
        .collect();
    assert_eq!(ranks, sequential_sweeps(&g));

    let stats = sched.take();
    let transactions = (SWEEPS * g.num_vertices()) as u64;
    assert_eq!(stats.sched.commits, transactions);
    let (aborts, o_to_l) = (stats.htm.aborts_capacity, stats.modes.txns(ModeClass::O2L));
    assert!(
        aborts <= CAPACITY_ABORTS_CEILING,
        "{aborts} capacity aborts over {transactions} transactions, above {CAPACITY_ABORTS_CEILING}"
    );
    assert!(
        o_to_l <= O_TO_L_CEILING,
        "{o_to_l} of {transactions} transactions overflowed O and finished in L, above {O_TO_L_CEILING}"
    );
}
