//! The one driver and the one work-item body behind BFS, Components and
//! SSSP.
//!
//! All three are the paper's Figure 3 queue loop over a *monotone-min*
//! value array: pop `v`, read `value[v]`, offer `value[v] + len(v, u)` to
//! every neighbour `u`, push whatever improved. They differ only in the
//! initial values and in the edge set and edge length (1 per hop, 0 for a
//! label, the weight for a distance) — [`run`]'s `seeds` and `edges`. The
//! scheduling queue is the caller's: [`run`] drains whatever [`WorkPool`]
//! it is handed, keyed by the values pushed, checkpointing if asked to.
//!
//! # Item ownership and stale items
//!
//! Whoever lowers `value[u]` pushes `u`, so a vertex improved `k` times
//! before it is popped sits in the pool `k` times, and `k - 1` of those
//! items would re-scan the neighbourhood to write nothing. Each run keeps
//! a per-vertex **scan watermark**: the smallest value at which a
//! scan of `v`'s edges *completed* (`u64::MAX`: never). An item whose
//! committed load finds `watermark[v] <= value[v]` ends there, without a
//! transaction. That is safe because values only decrease: a scan at `m`
//! left every neighbour at `<= m + len`, for good, so at `value[v] >= m`
//! a second scan cannot write; and if `value[v]` later drops below `m`,
//! the writer's push owns that work. A scan that writes records its
//! watermark only after its commit, so an aborted or health-stopped
//! attempt leaves it untouched (and re-pushes `v`); dying between the
//! commit and the record merely costs one redundant scan. A scan that
//! finds nothing to write records it at once: there is nothing to roll
//! back. The watermarks are per run and never snapshotted — a resumed run
//! starts with none, which is again only redundant scans (DESIGN.md §7).
//!
//! # Settled neighbours
//!
//! A tracked read costs a lock-word subscription and a footprint insert,
//! and nearly all of a scan's reads find `value[u] <= value[v] + len` and
//! write nothing. The same monotonicity lets the item rule those
//! out *before* its transaction opens, with one untracked load of each
//! committed value ([`TxnSystem::load_committed`]: no committer stores a
//! data word before its point of no return, so the word in memory is
//! committed), and walk only the rest inside it. An item left with no
//! candidate — a stale or unreached item, or a scan whose neighbours are
//! all settled — opens no transaction at all: unlike the paper's Figure 3,
//! a pool item is a transaction only if it may write. See
//! [`MinDrain::item`] and DESIGN.md §7, "Settled neighbours".

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

use tufast::par::{parallel_drain, WorkPool};
use tufast_graph::snapshot::SnapshotError;
use tufast_graph::VertexId;
use tufast_htm::MemRegion;
use tufast_txn::{GraphScheduler, TxnSystem, TxnWorker};

use crate::checkpoint::{self, Ckpt, CkptReport};

thread_local! {
    /// Scratch of the item in flight on this thread, reused across items
    /// so a drain allocates once per worker: the edge positions the filter
    /// kept, and the vertices the transaction improved.
    static SCRATCH: RefCell<(Vec<u32>, Vec<VertexId>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Run one monotone-min job, the algorithm `tag` names, to its fixpoint
/// on `pool` and read `value` back.
///
/// A fresh run starts each `(vertex, value)` of `seeds` — in ascending
/// vertex order — at its value and every other vertex at `u64::MAX`, in
/// one publish of the region, then queues the seeds in the same order (so
/// `seeds` is walked twice); with `ckpt.resume` the values and the queue
/// come from the latest valid snapshot of a `tag` run instead. Either
/// way `pool` is drained through [`MinDrain::item`], quiescing every
/// `ckpt.every_items` items to snapshot `(value, frontier)` when there is
/// a `ckpt`. Only a resume can fail.
///
/// # Panics
/// If a seed is not a vertex of the `value` region, or below its predecessor.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run<S, P, E, I>(
    sched: &S,
    sys: &TxnSystem,
    tag: &str,
    value: MemRegion<2>,
    edges: E,
    pool: &P,
    threads: usize,
    ckpt: Option<Ckpt<'_>>,
    seeds: impl IntoIterator<Item = (VertexId, u64)> + Clone,
) -> Result<(Vec<u64>, CkptReport), SnapshotError>
where
    S: GraphScheduler,
    P: WorkPool,
    E: Fn(VertexId) -> I + Sync,
    I: Iterator<Item = (VertexId, u64)>,
{
    let mem = sys.mem();
    let n = value.len();
    let mut report = CkptReport::default();
    if n == 0 {
        return Ok((Vec::new(), report));
    }
    // `MemRegion::addr` and the watermarks index by vertex unchecked (in
    // release) or on a worker thread: every queued vertex is checked here,
    // or by `recover`.
    let start_epoch = match ckpt.filter(|c| c.resume) {
        Some(c) => checkpoint::recover(c.store, mem, tag, &value, pool, &mut report)?,
        None => {
            // The whole region in one publish (one tick, one lock per
            // line): the seeds ascend, so one pass over them in step with
            // the vertices finds each seed's value.
            let mut seeded = seeds.clone().into_iter().peekable();
            let mut next = 0;
            mem.fill_region_with(&value, |u| {
                let seed = seeded.next_if(|&(v, _)| u64::from(v) == u);
                seed.map_or(u64::MAX, |(_, val)| {
                    next = u + 1;
                    val
                })
            });
            // A seed the pass did not take is out of range or out of order.
            if let Some((v, _)) = seeded.next() {
                panic!(
                    "seed vertex {v} is out of range: the graph has {n} vertices, \
                     and seeds ascend from {next}"
                );
            }
            pool.push_all(seeds);
            0
        }
    };
    let drain = MinDrain::new(sys, value, edges);
    let item = |worker: &mut S::Worker, pool: &P, v| drain.item(worker, pool, v);
    match ckpt {
        Some(c) => checkpoint::run_checkpointed(
            sched,
            sys,
            pool,
            threads,
            c,
            tag,
            &value,
            start_epoch,
            &mut report,
            item,
        ),
        None => drop(parallel_drain(sched, pool, threads, item)),
    }
    Ok((mem.snapshot_region(&value), report))
}

/// One monotone-min run: the value region, the edges and the watermarks.
pub(crate) struct MinDrain<'a, E> {
    sys: &'a TxnSystem,
    value: MemRegion<2>,
    edges: E,
    watermark: Vec<AtomicU64>,
}

impl<'a, E, I> MinDrain<'a, E>
where
    E: Fn(VertexId) -> I + Sync,
    I: Iterator<Item = (VertexId, u64)>,
{
    /// `edges(v)` yields `(neighbour, edge length)`, the same sequence at
    /// every call: the filter remembers the edges it kept by position.
    pub(crate) fn new(sys: &'a TxnSystem, value: MemRegion<2>, edges: E) -> Self {
        MinDrain {
            sys,
            value,
            edges,
            watermark: (0..value.len()).map(|_| AtomicU64::new(u64::MAX)).collect(),
        }
    }

    /// One pool item: relax `v`'s candidate edges in one transaction and
    /// push every vertex whose value improved, keyed by its value now
    /// (what this item wrote, or less if someone has improved on it since)
    /// — or, if `v` has no candidate, return without a transaction.
    ///
    /// Only *candidate* edges are read inside the transaction. Before it
    /// opens, the item loads the committed `dv0 = value[v]` and, unless
    /// the watermark covers `dv0`, every neighbour
    /// ([`TxnSystem::load_committed`]: one untracked load, nothing
    /// acquired) and drops the settled ones, `value[u] <= dv0 + len`. A
    /// loaded value is always committed — no committer stores a data word
    /// before its point of no return — and values only decrease, so a
    /// settled neighbour stays settled; the transaction reads `value[v] <=
    /// dv0`, and if it reads less, whoever lowered `v` pushed it again and
    /// owns the lower offer. The same argument makes an item with no
    /// candidate complete without a transaction: it records the scan at
    /// `dv0` if it made one, and owes nothing else.
    pub(crate) fn item(&self, worker: &mut impl TxnWorker, pool: &impl WorkPool, v: VertexId) {
        let (sys, value) = (self.sys, self.value);
        let addr = |u: VertexId| value.addr(u64::from(u));
        let mark = &self.watermark[v as usize];
        SCRATCH.with_borrow_mut(|(candidates, improved)| {
            // The edges the transaction will walk: the unsettled ones at
            // the committed `dv0`. A watermark at or below `dv0` means a
            // completed scan already covered them (a stale item: whatever
            // lowers `v` after this load pushes it again); it is also the
            // never-reached case, `u64::MAX <= u64::MAX`.
            let dv0 = sys.load_committed(addr(v));
            candidates.clear();
            // Acquire pairs with the Releases below, though the skip needs
            // only the fact that a scan at `mark` completed.
            let scan = mark.load(Ordering::Acquire) > dv0;
            if scan {
                let edges = (self.edges)(v);
                candidates.reserve(edges.size_hint().0);
                for (at, (u, len)) in edges.enumerate() {
                    if sys.load_committed(addr(u)) > dv0 + len {
                        candidates.push(u32::try_from(at).expect("edge positions fit 32 bits"));
                    }
                }
            }
            if candidates.is_empty() {
                // Every neighbour is `<= dv0 + len` for good: the scan is
                // complete at `dv0` without a transaction.
                if scan {
                    mark.fetch_min(dv0, Ordering::Release);
                }
                return;
            }
            // Room for every write up front (exact, where `push` would
            // double): the body never reallocates.
            improved.clear();
            improved.reserve(candidates.len());
            let hint = TxnSystem::neighborhood_hint(candidates.len());
            let mut seen = 0u64;
            let out = worker.execute(hint, &mut |ops| {
                improved.clear();
                let dv = ops.read(v, addr(v))?;
                seen = dv;
                let mut edges = (self.edges)(v);
                let mut next = 0;
                for &at in candidates.iter() {
                    let (u, len) = edges.nth((at - next) as usize).expect("a kept edge");
                    next = at + 1;
                    let cand = dv + len;
                    if cand < ops.read(u, addr(u))? {
                        ops.write(u, addr(u), cand)?;
                        improved.push(u);
                    }
                }
                Ok(())
            });
            if !out.committed {
                // A job-level stop aborted the attempt: nothing landed, so
                // `v` still owns its relaxations. Re-queue it (keyed by the
                // last value observed; a stale key only affects ordering)
                // so an abort snapshot's frontier keeps every outstanding
                // relaxation owned by a queued item — that invariant is
                // what makes resume bitwise exact.
                pool.push_keyed(v, seen);
                return;
            }
            // The value the *whole* neighbourhood was scanned at: dropped
            // neighbours were `<= dv0 + len` for good, and candidates are
            // now `<= seen + len` with `seen <= dv0`. If `seen < dv0`,
            // whoever lowered `v` pushed it, and that item finds the
            // watermark above its value. Recorded only after the commit,
            // so an aborted attempt leaves it untouched.
            mark.fetch_min(dv0, Ordering::Release);
            for &u in improved.iter() {
                pool.push_keyed(u, sys.load_committed(addr(u)));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tufast::par::FifoPool;
    use tufast_graph::{gen, Graph};
    use tufast_txn::{SchedStats, TwoPhaseLocking, TxnBody, TxnHint, TxnOutcome};

    const MAX: u64 = u64::MAX;

    /// Hop-length edges of a directed path 0 → 1 → 2 → 3, source at 0.
    struct Fixture {
        g: Graph,
        built: crate::AlgoSystem<MemRegion<2>>,
    }

    impl Fixture {
        fn new() -> Self {
            Self::on(gen::path(4))
        }

        /// Every value unreached but vertex 0's, which is 0.
        fn on(g: Graph) -> Self {
            let built = crate::setup(&g, |layout, n| layout.alloc_paired("value", n as u64));
            let mem = built.sys.mem();
            mem.fill_region(&built.space, MAX);
            mem.store_direct(built.space.addr(0), 0);
            Fixture { g, built }
        }

        fn drain<'a>(&'a self) -> MinDrain<'a, impl Fn(VertexId) -> HopIter<'a> + Sync> {
            let g = &self.g;
            MinDrain::new(&self.built.sys, self.built.space, move |v| hops(g, v))
        }

        fn values(&self) -> Vec<u64> {
            self.built.sys.mem().snapshot_region(&self.built.space)
        }

        fn set(&self, v: VertexId, val: u64) {
            let addr = self.built.space.addr(u64::from(v));
            self.built.sys.mem().store_direct(addr, val);
        }
    }

    type HopIter<'a> = Box<dyn Iterator<Item = (VertexId, u64)> + 'a>;

    fn hops(g: &Graph, v: VertexId) -> HopIter<'_> {
        Box::new(g.neighbors(v).iter().map(|&u| (u, 1)))
    }

    fn marks<E>(drain: &MinDrain<'_, E>) -> Vec<u64> {
        let load = |m: &AtomicU64| m.load(Ordering::Acquire);
        drain.watermark.iter().map(load).collect()
    }

    fn queued(pool: &FifoPool) -> Vec<VertexId> {
        pool.pending_items().into_iter().map(|(v, _)| v).collect()
    }

    /// A worker for items that must not open a transaction.
    #[derive(Default)]
    struct NoTxn(SchedStats);

    impl TxnWorker for NoTxn {
        fn execute_hinted(&mut self, _: TxnHint, _: &mut TxnBody<'_>) -> TxnOutcome {
            panic!("an item with nothing to relax opened a transaction")
        }
        fn stats(&self) -> &SchedStats {
            &self.0
        }
        fn take_stats(&mut self) -> SchedStats {
            std::mem::take(&mut self.0)
        }
    }

    #[test]
    fn scans_while_the_watermark_is_above_the_value_and_skips_once_it_is_not() {
        let fx = Fixture::new();
        let drain = fx.drain();
        let sched = TwoPhaseLocking::new(Arc::clone(&fx.built.sys));
        let mut w = sched.worker();
        let pool = FifoPool::new();

        // Never scanned (watermark MAX > value 0): a full scan.
        drain.item(&mut w, &pool, 0);
        assert_eq!(fx.values(), [0, 1, MAX, MAX]);
        assert_eq!(marks(&drain), [0, MAX, MAX, MAX]);
        assert_eq!(queued(&pool), [1]);
        assert_eq!(w.stats().reads, 2);

        // Scanned at this value: no transaction, nothing pushed.
        drain.item(&mut NoTxn::default(), &pool, 0);
        assert_eq!(queued(&pool), [1]);

        // Unreached (value MAX): no transaction either, and no watermark.
        drain.item(&mut NoTxn::default(), &pool, 2);
        assert_eq!(marks(&drain), [0, MAX, MAX, MAX]);

        // Scan 1 at value 1, then lower it behind the watermark's back:
        // watermark 1 > value 0 must scan again and move down with it.
        drain.item(&mut w, &pool, 1);
        assert_eq!(fx.values(), [0, 1, 2, MAX]);
        fx.set(1, 0);
        drain.item(&mut w, &pool, 1);
        assert_eq!(fx.values(), [0, 0, 1, MAX]);
        assert_eq!(marks(&drain), [0, 0, MAX, MAX]);
        assert_eq!(queued(&pool), [1, 2, 2]);
    }

    #[test]
    fn a_health_stopped_item_records_nothing_and_requeues_itself() {
        let fx = Fixture::new();
        let drain = fx.drain();
        fx.built.sys.health().cancel();
        let sched = TwoPhaseLocking::new(Arc::clone(&fx.built.sys));
        let pool = FifoPool::new();
        drain.item(&mut sched.worker(), &pool, 0);
        assert_eq!(fx.values(), [0, MAX, MAX, MAX]);
        assert_eq!(marks(&drain), [MAX; 4]);
        assert_eq!(queued(&pool), [0]);
    }

    /// Runs the whole body, then aborts instead of committing.
    struct AbortAtCommit<W>(W);

    impl<W: TxnWorker> TxnWorker for AbortAtCommit<W> {
        fn execute_hinted(&mut self, hint: TxnHint, body: &mut TxnBody<'_>) -> TxnOutcome {
            self.0.execute_hinted(hint, &mut |ops| {
                body(ops)?;
                Err(ops.user_abort())
            })
        }
        fn stats(&self) -> &SchedStats {
            self.0.stats()
        }
        fn take_stats(&mut self) -> SchedStats {
            self.0.take_stats()
        }
    }

    #[test]
    fn a_scan_that_aborts_at_commit_records_nothing_and_requeues_itself() {
        let fx = Fixture::new();
        let drain = fx.drain();
        let sched = TwoPhaseLocking::new(Arc::clone(&fx.built.sys));
        let mut w = AbortAtCommit(sched.worker());
        let pool = FifoPool::new();
        drain.item(&mut w, &pool, 0);
        assert_eq!(w.stats().writes, 1, "the body did scan and write");
        assert_eq!(fx.values(), [0, MAX, MAX, MAX], "and was rolled back");
        assert_eq!(marks(&drain), [MAX; 4]);
        assert_eq!(queued(&pool), [0], "v again, not the vertex it improved");

        // The re-queued item then scans for real.
        drain.item(&mut sched.worker(), &pool, 0);
        assert_eq!(fx.values(), [0, 1, MAX, MAX]);
        assert_eq!(marks(&drain), [0, MAX, MAX, MAX]);
    }

    #[test]
    fn a_settled_neighbour_is_never_read_transactionally() {
        // Hub 0 at value 0; leaves at 1 (settled: 1 <= 0 + 1), 0 (settled),
        // 2 and unreached (candidates).
        let fx = Fixture::on(gen::star(5));
        for (leaf, val) in [(1, 1), (2, 0), (3, 2)] {
            fx.set(leaf, val);
        }
        let drain = fx.drain();
        let sched = TwoPhaseLocking::new(Arc::clone(&fx.built.sys));
        let mut w = sched.worker();
        let pool = FifoPool::new();
        drain.item(&mut w, &pool, 0);
        assert_eq!(fx.values(), [0, 1, 0, 1, 1]);
        assert_eq!(queued(&pool), [3, 4]);
        let s = w.stats();
        assert_eq!(
            (s.reads, s.writes, s.commits),
            (3, 2, 1),
            "v and two candidates"
        );
        assert_eq!(
            marks(&drain)[0],
            0,
            "the whole neighbourhood counts as scanned"
        );

        // Every leaf settled (fresh watermarks): no transaction, and the
        // scan still counts.
        let drain = fx.drain();
        drain.item(&mut NoTxn::default(), &pool, 0);
        assert_eq!(marks(&drain)[0], 0);
        assert_eq!(queued(&pool), [3, 4]);
    }

    /// Runs a hook between the item's filter and its transaction.
    struct Before<W, F>(W, F);

    impl<W: TxnWorker, F: FnMut()> TxnWorker for Before<W, F> {
        fn execute_hinted(&mut self, hint: TxnHint, body: &mut TxnBody<'_>) -> TxnOutcome {
            (self.1)();
            self.0.execute_hinted(hint, body)
        }
        fn stats(&self) -> &SchedStats {
            self.0.stats()
        }
        fn take_stats(&mut self) -> SchedStats {
            self.0.take_stats()
        }
    }

    #[test]
    fn a_neighbour_under_an_uncommitted_in_place_write_stays_a_candidate() {
        use std::sync::mpsc::channel;
        let fx = Fixture::new();
        let drain = fx.drain();
        let sched = TwoPhaseLocking::new(Arc::clone(&fx.built.sys));
        let pool = FifoPool::new();
        let (held_tx, held_rx) = channel();
        let (finish_tx, finish_rx) = channel();
        let (done_tx, done_rx) = channel();
        let (fx, sched) = (&fx, &sched);
        std::thread::scope(|s| {
            // A 2PL writer lowers value[1] to 0 — settled for the item on
            // 0, if it counted — and holds the lock, its store buffered,
            // until told to roll back.
            s.spawn(move || {
                let out = sched.worker().execute(2, &mut |ops| {
                    ops.write(1, fx.built.space.addr(1), 0)?;
                    held_tx.send(()).unwrap();
                    finish_rx.recv().unwrap();
                    Err(ops.user_abort())
                });
                assert!(!out.committed);
                done_tx.send(()).unwrap();
            });
            held_rx.recv().unwrap();
            assert_eq!(fx.values(), [0, MAX, MAX, MAX], "not in memory");
            let mut w = Before(sched.worker(), || {
                finish_tx.send(()).unwrap();
                done_rx.recv().unwrap();
            });
            drain.item(&mut w, &pool, 0);
            assert_eq!(
                w.stats().reads,
                2,
                "the neighbour was read in the transaction"
            );
        });
        assert_eq!(
            fx.values(),
            [0, 1, MAX, MAX],
            "and relaxed after the rollback"
        );
        assert_eq!(queued(&pool), [1]);
    }

    #[test]
    fn a_neighbour_settled_by_a_commit_mid_publish_is_dropped() {
        let fx = Fixture::new();
        let drain = fx.drain();
        let pool = FifoPool::new();
        // A committer past its point of no return: vertex 1's line locked,
        // its settled value (1 <= 0 + 1) stored, the unlock still to come.
        let (mem, addr) = (fx.built.sys.mem(), fx.built.space.addr(1));
        let mut batch = tufast_htm::LineBatch::with_capacity(1);
        batch.push(addr.line());
        mem.lock_lines(&mut batch);
        mem.store_locked(addr, 1);
        drain.item(&mut NoTxn::default(), &pool, 0);
        mem.unlock_lines(&mut batch, Some(mem.clock_tick_pub()));
        assert_eq!(fx.values(), [0, 1, MAX, MAX]);
        assert_eq!(marks(&drain)[0], 0);
        assert!(queued(&pool).is_empty());
    }

    #[test]
    fn a_value_lowered_after_the_peek_relaxes_lower_and_marks_the_peeked_value() {
        let fx = Fixture::new();
        fx.set(0, 5);
        let drain = fx.drain();
        let sched = TwoPhaseLocking::new(Arc::clone(&fx.built.sys));
        let pool = FifoPool::new();
        // Loaded at 5, lowered to 3 before the transaction reads it.
        let mut w = Before(sched.worker(), || fx.set(0, 3));
        drain.item(&mut w, &pool, 0);
        assert_eq!(fx.values(), [3, 4, MAX, MAX], "offered 3 + 1, not 5 + 1");
        assert_eq!(
            marks(&drain)[0],
            5,
            "only dv0 covers the neighbours the filter dropped"
        );
        assert_eq!(queued(&pool), [1]);

        // Whoever lowered 0 pushed it: that item finds 5 > 3 and scans —
        // nothing left to write, so no transaction.
        drain.item(&mut NoTxn::default(), &pool, 0);
        assert_eq!(marks(&drain)[0], 3);
        assert_eq!(queued(&pool), [1]);
    }

    #[test]
    fn a_settled_item_under_a_cancelled_job_records_its_watermark_and_queues_nothing() {
        let fx = Fixture::new();
        fx.set(1, 1);
        let drain = fx.drain();
        fx.built.sys.health().cancel();
        let pool = FifoPool::new();
        drain.item(&mut NoTxn::default(), &pool, 0);
        assert_eq!(fx.values(), [0, 1, MAX, MAX]);
        assert_eq!(marks(&drain), [0, MAX, MAX, MAX]);
        assert!(queued(&pool).is_empty());
    }
}
