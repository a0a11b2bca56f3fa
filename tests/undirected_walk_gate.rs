//! Undirected-walk gate: Components walks every neighbour once. A
//! symmetric graph is its own transpose, so building it with in-edges adds
//! nothing to walk — the job is the same job, transaction for transaction,
//! as on the graph built without them (DESIGN.md §4.6, §7 "Settled
//! neighbours"). While the in-edges were a second copy of the out-edges,
//! every neighbour was peeked, filtered and (as a candidate) read twice. At
//! one thread the counters repeat exactly — this is a count, not a timing
//! test.

mod counted;

use counted::{seeded_inputs, Counted};
use tufast_algos::{setup, wcc};
use tufast_graph::{Graph, GraphBuilder};
use tufast_txn::SchedStats;

fn one_thread_wcc(g: &Graph) -> (Vec<u64>, SchedStats) {
    let built = setup(g, wcc::WccSpace::alloc);
    let sched = Counted::new(&built.sys);
    let labels = wcc::parallel(g, &sched, &built.sys, &built.space, 1);
    (labels, sched.take().sched)
}

#[test]
fn in_edges_of_a_symmetric_graph_add_nothing_to_walk() {
    let (_, sym, _) = seeded_inputs();
    let with_in_edges = {
        let mut b = GraphBuilder::new(sym.num_vertices()).symmetric();
        sym.edges().for_each(|(s, d)| b.add_edge(s, d));
        b.with_in_edges().build()
    };
    assert!(sym.reverse().is_none() && with_in_edges.reverse_is_forward());
    assert_eq!(with_in_edges.forward(), sym.forward());
    for v in sym.vertices() {
        assert!(with_in_edges.undirected(v).eq(sym.undirected(v)));
    }

    let (labels, stats) = one_thread_wcc(&sym);
    let (labels_in, stats_in) = one_thread_wcc(&with_in_edges);
    assert_eq!(labels, wcc::sequential(&sym));
    assert_eq!(labels_in, labels);
    assert_eq!(wcc::sequential(&with_in_edges), labels);
    assert_eq!(
        (stats_in.commits, stats_in.reads, stats_in.writes),
        (stats.commits, stats.reads, stats.writes),
        "commits / reads / writes with in-edges vs without"
    );
}
