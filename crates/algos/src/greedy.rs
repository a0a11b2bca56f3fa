//! The driver and reference loop of [`crate::mis`] and [`crate::coloring`]:
//! a vertex's value is a [`Rule`] over its smaller-id neighbours' values. A
//! vertex decides in a transaction once they have, then wakes its larger
//! neighbours, so the drain's result is the id-order reference's.

use std::cell::RefCell;

use tufast::par::{parallel_drain, FifoPool, WorkPool};
use tufast_graph::{Graph, VertexId};
use tufast_htm::MemRegion;
use tufast_txn::{GraphScheduler, TxnSystem, TxnWorker};

use crate::common::read_u64_region;

/// An undecided vertex's value, and the decision from the smaller neighbours'.
pub(crate) struct Rule(pub(crate) u64, pub(crate) fn(&mut Vec<u64>) -> u64);

thread_local! {
    /// The smaller neighbours' values of this thread's item: one per worker.
    static SMALLER: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn below(g: &Graph, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
    g.neighbors(v).iter().copied().filter(move |&u| u < v)
}

/// The id-order reference.
pub(crate) fn sequential(g: &Graph, Rule(_, decide): Rule) -> Vec<u64> {
    let mut value = vec![0; g.num_vertices()];
    let mut smaller = Vec::new();
    for v in g.vertices() {
        smaller.clear();
        smaller.extend(below(g, v).map(|u| value[u as usize]));
        value[v as usize] = decide(&mut smaller);
    }
    value
}

/// The drain over `value`: the same result as [`sequential`].
pub(crate) fn parallel<S: GraphScheduler>(
    g: &Graph,
    sched: &S,
    sys: &TxnSystem,
    value: &MemRegion<2>,
    threads: usize,
    Rule(undecided, decide): Rule,
) -> Vec<u64> {
    sys.mem().fill_region(value, undecided);
    let pool = FifoPool::new();
    for v in g.vertices().filter(|&v| below(g, v).next().is_none()) {
        pool.push(v);
    }
    let addr = |v: VertexId| value.addr(u64::from(v));
    parallel_drain(sched, &pool, threads, |worker, pool, v| {
        let mut decided = false;
        SMALLER.with_borrow_mut(|smaller| {
            worker.execute(TxnSystem::neighborhood_hint(g.degree(v)), &mut |ops| {
                decided = false;
                if ops.read(v, addr(v))? != undecided {
                    return Ok(()); // duplicate wake-up
                }
                smaller.clear();
                for u in below(g, v) {
                    match ops.read(u, addr(u))? {
                        x if x == undecided => return Ok(()), // its decision wakes us
                        x => smaller.push(x),
                    }
                }
                ops.write(v, addr(v), decide(smaller))?;
                decided = true;
                Ok(())
            });
        });
        if decided {
            for &u in g.neighbors(v).iter().filter(|&&u| u > v) {
                pool.push(u);
            }
        }
    });
    read_u64_region(sys.mem(), value)
}
