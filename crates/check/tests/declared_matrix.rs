//! The declared-footprint matrix: graph mutations that take their three
//! vertices in one batch through 2PL (`TxnWorker::execute_declared`) must
//! stay conflict-serializable against every kind of peer that shares their
//! lock words — incremental 2PL writers, TuFast's H- and O-mode writers,
//! OCC readers and R-mode snapshot readers of the same vertices — and must
//! terminate with every mutation applied when the fault plan fails and
//! stalls their acquisitions.

#![cfg(feature = "faults")]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tufast::TuFast;
use tufast_check::{check, CheckReport, Recorder};
use tufast_graph::mutable::{MutationOutcome, MUTATION_HINT};
use tufast_graph::wal::Mutation;
use tufast_graph::{GraphBuilder, MutableGraph, OverlayConfig};
use tufast_htm::MemoryLayout;
use tufast_txn::{
    Declared, FaultKind, FaultPlan, FaultSpec, GraphScheduler, Occ, SystemConfig, TwoPhaseLocking,
    TxnHint, TxnObserver, TxnSystem, TxnWorker, VertexId,
};

/// Live vertices every run starts with (added inside recorded
/// transactions, so no read is ever attributed to unticketed state).
const LIVE: u32 = 6;
const CAPACITY: usize = 64;

struct Cell {
    mg: MutableGraph,
    sys: Arc<TxnSystem>,
    recorder: Arc<Recorder>,
}

/// An empty overlay of two stripes (so stripe tags coincide with vertices 0
/// and 1 and every mutator contends on them), [`LIVE`] vertices added
/// through a declared worker, observer installed.
fn cell(faults: Option<FaultSpec>) -> Cell {
    let mut layout = MemoryLayout::new();
    let overlay = OverlayConfig {
        slot_cap: 4096,
        stripes: 2,
    };
    let base = GraphBuilder::new(0).build();
    let mg = MutableGraph::carve(base, CAPACITY, overlay, &mut layout);
    let sys = TxnSystem::build(CAPACITY, layout, SystemConfig::default());
    mg.init(sys.mem());
    let recorder = Arc::new(Recorder::new());
    sys.set_observer(Some(Arc::clone(&recorder) as Arc<dyn TxnObserver>));
    let mut seeder = TwoPhaseLocking::new(Arc::clone(&sys)).worker();
    for v in 0..LIVE {
        assert_eq!(mg.add_vertex(&mut seeder), Some(v));
    }
    // Workers snapshot the plan when they are created: after the seeding.
    sys.set_fault_plan(faults.map(FaultPlan::new));
    Cell { mg, sys, recorder }
}

impl Cell {
    /// Detach the observer and check what it recorded; every lock word
    /// must be free and the overlay must hold exactly `edges` deltas and
    /// `LIVE + vertices` vertices.
    fn finish(self, edges: u64, vertices: u32) -> CheckReport {
        self.sys.set_observer(None);
        let mem = self.sys.mem();
        for v in 0..CAPACITY as VertexId {
            assert!(self.sys.locks().peek(mem, v).is_free(), "lock {v} leaked");
        }
        assert_eq!(self.mg.slots_used(mem), edges);
        assert_eq!(self.mg.num_vertices(mem), (LIVE + vertices) as usize);
        // The chains are walkable and hold only live targets.
        let g = self.mg.materialize(mem);
        assert!(g
            .edges()
            .all(|(s, d)| s < LIVE + vertices && d < LIVE + vertices));
        let mut history = self.recorder.take_history();
        history.tag_mutations(self.mg.overlay_word_range());
        check(&history)
    }
}

/// Thread `t`'s `k`-th mutation: mostly edges among the first [`LIVE`]
/// vertices (every one applies), now and then a new vertex.
fn mutation(t: u32, k: u32) -> Mutation {
    let (src, dst) = ((t + k) % LIVE, (t + 3 * k + 1) % LIVE);
    match k % 10 {
        9 => Mutation::AddVertex,
        3 | 6 => Mutation::RemoveEdge { src, dst },
        _ => Mutation::AddEdge {
            src,
            dst,
            weight: (t << 16) | k,
        },
    }
}

/// Apply `m` through the declared entry point of `w`'s scheduler.
fn apply_declared(mg: &MutableGraph, w: &mut impl TxnWorker, m: Mutation) {
    let applied = match m {
        Mutation::AddEdge { src, dst, weight } => mg.add_edge(w, src, dst, weight),
        Mutation::RemoveEdge { src, dst } => mg.remove_edge(w, src, dst),
        Mutation::AddVertex => mg
            .add_vertex(w)
            .map_or(MutationOutcome::OverlayFull, |_| MutationOutcome::Applied),
    };
    assert_eq!(applied, MutationOutcome::Applied, "{m:?}");
}

/// Apply `m` as an ordinary body under size hint `hint`: the incremental
/// path of whatever scheduler `w` belongs to.
fn apply_incremental(mg: &MutableGraph, w: &mut impl TxnWorker, hint: usize, m: Mutation) {
    let mut applied = MutationOutcome::OutOfBounds;
    let out = w.execute(hint, &mut |ops| {
        applied = mg.txn_apply(ops, m)?;
        Ok(())
    });
    assert!(out.committed);
    assert_eq!(applied, MutationOutcome::Applied, "{m:?}");
}

/// How many of the first `n` mutations of threads `0..threads` are edge
/// deltas, and how many are new vertices.
fn tally(threads: u32, n: u32) -> (u64, u32) {
    let all = (0..threads).flat_map(|t| (0..n).map(move |k| mutation(t, k)));
    let vertices = all.filter(|&m| m == Mutation::AddVertex).count() as u32;
    (u64::from(threads * n - vertices), vertices)
}

#[test]
fn declared_mutators_serialize_against_every_peer_on_their_lock_words() {
    const TXNS: u32 = 60;
    let cell = cell(None);
    let (mg, sys) = (&cell.mg, &cell.sys);
    let tpl = TwoPhaseLocking::new(Arc::clone(sys));
    let tufast = TuFast::new(Arc::clone(sys));
    let occ = Occ::new(Arc::clone(sys));
    let reads = 2 * TXNS;
    std::thread::scope(|s| {
        // Writers 0 and 1 declare; 2 is incremental 2PL; 3 runs in H mode
        // (TuFast takes the default, footprint ignored), 4 in O mode.
        for t in 0..2 {
            let mut w = tpl.worker();
            s.spawn(move || (0..TXNS).for_each(|k| apply_declared(mg, &mut w, mutation(t, k))));
        }
        let mut w = tpl.worker();
        s.spawn(move || {
            (0..TXNS).for_each(|k| apply_incremental(mg, &mut w, MUTATION_HINT, mutation(2, k)))
        });
        let mut w = tufast.worker();
        s.spawn(move || (0..TXNS).for_each(|k| apply_declared(mg, &mut w, mutation(3, k))));
        let mut w = tufast.worker();
        s.spawn(move || {
            (0..TXNS).for_each(|k| apply_incremental(mg, &mut w, 8192, mutation(4, k)))
        });
        // Readers of the same chains: OCC, and R mode on a 2PL worker.
        let mut w = occ.worker();
        s.spawn(move || {
            let mut out = Vec::new();
            for k in 0..reads {
                let res = w.execute(MUTATION_HINT, &mut |ops| {
                    mg.txn_neighbors(ops, k % LIVE, &mut out)
                });
                assert!(res.committed);
            }
        });
        let mut w = tpl.worker();
        s.spawn(move || {
            let mut out = Vec::new();
            for k in 0..reads {
                let hint = TxnHint::read_only(MUTATION_HINT);
                let res =
                    w.execute_hinted(hint, &mut |ops| mg.txn_neighbors(ops, k % LIVE, &mut out));
                assert!(res.committed);
            }
            assert!(w.stats().r_commits > 0, "no read stayed on the R path");
        });
    });
    let (edges, vertices) = tally(5, TXNS);
    let report = cell.finish(edges, vertices);
    assert_eq!(report.committed as u32, LIVE + 5 * TXNS + 2 * reads);
    report.assert_ok();
}

/// Write skew in the making: every transaction reads one cell and
/// overwrites its neighbour with a globally unique stamp, half the threads
/// one way round and half the other, half of them declaring
/// `{read a, write b}` and half discovering it incrementally. Only the
/// shared hold on the cell read keeps `T1: r(a) w(b)` and `T2: r(b) w(a)`
/// from both committing on stale reads; a mutation's footprint cannot show
/// that (its one read-declared vertex guards a single word).
#[test]
fn declared_shared_holds_prevent_write_skew() {
    const TXNS: u64 = 1_000;
    const CELLS: u64 = 4;
    let mut layout = MemoryLayout::new();
    let data = layout.alloc("cells", CELLS);
    let sys = TxnSystem::build(CELLS as usize, layout, SystemConfig::default());
    let recorder = Arc::new(Recorder::new());
    sys.set_observer(Some(Arc::clone(&recorder) as Arc<dyn TxnObserver>));
    let tpl = TwoPhaseLocking::new(Arc::clone(&sys));
    let stamp = AtomicU64::new(1);
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let (mut w, stamp) = (tpl.worker(), &stamp);
            s.spawn(move || {
                for k in 0..TXNS {
                    let a = (k + t / 2) % CELLS;
                    let (read, write) = if t % 2 == 0 { (a, a ^ 1) } else { (a ^ 1, a) };
                    let (rv, wv) = (read as VertexId, write as VertexId);
                    let body = &mut |ops: &mut dyn tufast_txn::TxnOps| {
                        let seen = ops.read(rv, data.addr(read))?;
                        let unique = stamp.fetch_add(1, Ordering::Relaxed);
                        ops.write(wv, data.addr(write), (unique << 8) | (seen & 0xFF))
                    };
                    let out = if t < 2 {
                        w.execute_declared(&[Declared::write(wv), Declared::read(rv)], body)
                    } else {
                        w.execute(4, body)
                    };
                    assert!(out.committed);
                }
            });
        }
    });
    sys.set_observer(None);
    let report = check(&recorder.take_history());
    assert_eq!(report.committed as u64, 4 * TXNS);
    report.assert_ok();
}

#[test]
fn declared_mutators_survive_failed_and_stalled_acquisitions() {
    const TXNS: u32 = 80;
    const THREADS: u32 = 4;
    let spec = FaultSpec {
        seed: 0xC4A0_7001,
        lock_fail_permille: 400,
        lock_stall_permille: 300,
        lock_stall_spins: 64,
        preempt_permille: 200,
        preempt_spins: 128,
        ..FaultSpec::default()
    };
    let cell = cell(Some(spec));
    let (mg, sys) = (&cell.mg, &cell.sys);
    let tpl = TwoPhaseLocking::new(Arc::clone(sys));
    let restarts = AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (mut w, restarts) = (tpl.worker(), &restarts);
            s.spawn(move || {
                (0..TXNS).for_each(|k| apply_declared(mg, &mut w, mutation(t, k)));
                restarts.fetch_add(w.stats().restarts, Ordering::Relaxed);
            });
        }
    });
    let plan = sys.fault_plan().expect("installed above");
    assert!(
        plan.injected(FaultKind::LockFail) > 0,
        "the plan never fired"
    );
    assert_eq!(
        restarts.into_inner(),
        0,
        "a failed acquisition is busy, not a restart"
    );
    let (edges, vertices) = tally(THREADS, TXNS);
    let report = cell.finish(edges, vertices);
    assert_eq!(report.committed as u32, LIVE + THREADS * TXNS);
    report.assert_ok();
}
