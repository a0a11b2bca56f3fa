//! Shared by `stale_items.rs` here and the umbrella crate's tier-1
//! `tests/stale_items_gate.rs` (which includes this file by path).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tufast::par::{FifoPool, PriorityPool, WorkPool};
use tufast::{AbortReason, StealPool, TuFast};
use tufast_algos::checkpoint::{Ckpt, CkptReport};
use tufast_algos::{bfs, setup, sssp, wcc};
use tufast_graph::snapshot::SnapshotStore;
use tufast_graph::{Graph, VertexId};

/// BFS and SSSP from `source` over `g`, and Components over `undirected`,
/// at `threads` threads on every pool a caller can build — FIFO-class and
/// keyed — each run plain, checkpointed, and cancelled then resumed:
/// always the sequential reference, bitwise.
pub fn all_drivers_match_sequential(
    g: &Graph,
    undirected: &Graph,
    source: VertexId,
    threads: usize,
) {
    let inputs = Inputs {
        g,
        undirected,
        source,
        threads,
    };
    inputs.check_on("FifoPool", FifoPool::new);
    inputs.check_on("StealPool", || StealPool::new(threads));
    inputs.check_on("PriorityPool", PriorityPool::new);
    inputs.check_on("bucket_pool", || sssp::bucket_pool(g));
}

#[derive(Clone, Copy, Debug)]
enum Algo {
    Bfs,
    Wcc,
    Sssp,
}

#[derive(Clone, Copy)]
struct Inputs<'a> {
    g: &'a Graph,
    undirected: &'a Graph,
    source: VertexId,
    threads: usize,
}

impl Inputs<'_> {
    fn sequential(self, algo: Algo) -> Vec<u64> {
        match algo {
            Algo::Bfs => bfs::sequential(self.g, self.source),
            Algo::Wcc => wcc::sequential(self.undirected),
            Algo::Sssp => sssp::sequential(self.g, self.source),
        }
    }

    /// One job on a fresh system, cancelled before it starts if `cancel`.
    fn run<P: WorkPool>(
        self,
        algo: Algo,
        pool: &P,
        ckpt: Option<Ckpt<'_>>,
        cancel: bool,
    ) -> (Vec<u64>, CkptReport) {
        let Inputs {
            g,
            undirected,
            source,
            threads,
        } = self;
        let prepare = |sys: &Arc<tufast::TxnSystem>| {
            if cancel {
                sys.cancel_token().cancel();
            }
            TuFast::new(Arc::clone(sys))
        };
        match algo {
            Algo::Bfs => {
                let b = setup(g, bfs::BfsSpace::alloc);
                let sched = prepare(&b.sys);
                bfs::parallel_on(g, &sched, &b.sys, &b.space, source, threads, pool, ckpt)
            }
            Algo::Wcc => {
                let b = setup(undirected, wcc::WccSpace::alloc);
                let sched = prepare(&b.sys);
                wcc::parallel_on(undirected, &sched, &b.sys, &b.space, threads, pool, ckpt)
            }
            Algo::Sssp => {
                let b = setup(g, sssp::SsspSpace::alloc);
                let sched = prepare(&b.sys);
                sssp::parallel_on(g, &sched, &b.sys, &b.space, source, threads, pool, ckpt)
            }
        }
        .expect("a resume finds the snapshot the cancelled run left")
    }

    fn check_on<P: WorkPool>(self, pool_name: &str, new_pool: impl Fn() -> P) {
        for algo in [Algo::Bfs, Algo::Wcc, Algo::Sssp] {
            let what = format!("{algo:?} on {pool_name}, {} threads", self.threads);
            let (plain, _) = self.run(algo, &new_pool(), None, false);
            assert_eq!(plain, self.sequential(algo), "{what}");

            let (dir, store) = temp_store();
            let ckpt = |resume| {
                Some(Ckpt {
                    store: &store,
                    every_items: 16,
                    resume,
                })
            };
            let (checkpointed, _) = self.run(algo, &new_pool(), ckpt(false), false);
            assert_eq!(checkpointed, plain, "{what}, checkpointed");

            let (_, report) = self.run(algo, &new_pool(), ckpt(false), true);
            assert_eq!(report.aborted, Some(AbortReason::Cancelled), "{what}");
            assert_eq!(report.final_snapshots, 1, "{what}");
            let (resumed, report) = self.run(algo, &new_pool(), ckpt(true), false);
            assert_eq!((report.aborted, report.recoveries), (None, 1), "{what}");
            assert_eq!(resumed, plain, "{what}, cancelled then resumed");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

fn temp_store() -> (std::path::PathBuf, SnapshotStore) {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let unique = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("tufast-drivers-{}-{unique}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = SnapshotStore::open(&dir, "drivers").unwrap();
    (dir, store)
}
