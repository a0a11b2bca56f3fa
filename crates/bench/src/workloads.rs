//! The paper's micro-benchmark workloads (§VI-B): every transaction visits
//! one vertex and its whole out-neighbourhood.
//!
//! * **RM (Read Mostly)** — reads `v` and its neighbours, writes only `v`.
//! * **RW (Read and Write)** — reads and writes `v` and all neighbours.
//!
//! The same closures run through every scheduler (Figures 7, 13, 14, 15,
//! 16); vertex selection is a pluggable picker so Figure 7 can control the
//! contention rate through the size of a hot vertex pool.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use tufast_graph::Graph;
use tufast_htm::{MemRegion, MemoryLayout};
use tufast_txn::{GraphScheduler, SchedStats, TxnSystem, TxnWorker, VertexId};

/// The two §VI-B access patterns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MicroWorkload {
    /// Read neighbourhood, write the centre vertex.
    ReadMostly,
    /// Read and write the whole neighbourhood.
    ReadWrite,
}

impl MicroWorkload {
    /// Paper label.
    pub fn label(self) -> &'static str {
        match self {
            MicroWorkload::ReadMostly => "RM",
            MicroWorkload::ReadWrite => "RW",
        }
    }
}

/// Build the shared system with one value word per vertex.
pub fn setup_micro(g: &Graph) -> (Arc<TxnSystem>, MemRegion) {
    let mut layout = MemoryLayout::new();
    let values = layout.alloc("micro-values", g.num_vertices() as u64);
    let sys = TxnSystem::with_defaults(g.num_vertices(), layout);
    (sys, values)
}

/// Result of one micro-benchmark run.
#[derive(Clone, Debug)]
pub struct MicroResult {
    /// Wall-clock seconds.
    pub secs: f64,
    /// Committed transactions per second (raw wall time — emulation tax
    /// included for HTM-using schedulers).
    pub throughput: f64,
    /// Merged per-worker statistics.
    pub stats: SchedStats,
    /// Emulated hardware-transaction operations performed.
    pub htm_ops: u64,
}

impl MicroResult {
    /// Hardware-calibrated throughput: subtract the measured emulation tax
    /// of the hardware-transactional operations (on real TSX they cost a
    /// cache hit; under emulation each pays `tax_s` seconds of software
    /// bookkeeping). Schedulers with no HTM ops are unchanged. See
    /// [`calibrate_htm_tax`] and EXPERIMENTS.md §"Emulation calibration".
    pub fn calibrated_throughput(&self, tax_s: f64) -> f64 {
        let discounted = (self.secs - self.htm_ops as f64 * tax_s).max(self.secs * 0.02);
        self.stats.commits as f64 / discounted
    }
}

/// Measure the per-operation *emulation tax*: the software cost of one
/// emulated-HTM transactional read beyond a plain L1 load. Used to report
/// hardware-calibrated throughput (real RTM's transactional loads cost the
/// same as plain loads; the emulation's TL2 bookkeeping does not exist on
/// hardware).
pub fn calibrate_htm_tax() -> f64 {
    use tufast_htm::{Addr, HtmConfig, HtmRuntime};
    // Arena sized like the workloads' value+lock regions (fits L2, so the
    // measured delta is bookkeeping, not DRAM).
    let arena_words: u64 = 128 * 1024;
    let mut layout = MemoryLayout::new();
    layout.alloc("calib", arena_words);
    let rt = HtmRuntime::new(layout, HtmConfig::default());
    let mut ctx = rt.ctx();
    // Random distinct-ish lines per transaction, like a scattered
    // neighbourhood: each new line pays read-set + capacity bookkeeping at
    // unpredictable table slots, which is what the workloads do.
    let reads_per_txn: u64 = 64;
    let txns: u64 = 20_000;
    let lines_total = arena_words / 8;

    let mut sink = 0u64;
    let mut emu = 0.0;
    for _round in 0..2 {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let t0 = std::time::Instant::now();
        for _ in 0..txns {
            ctx.begin().unwrap();
            for _ in 0..reads_per_txn {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                match ctx.read(Addr((x % lines_total) * 8)) {
                    Ok(v) => sink = sink.wrapping_add(v),
                    Err(_) => {
                        // Rare capacity abort (64 random lines can overload
                        // one set); restart the transaction.
                        ctx.begin().unwrap();
                    }
                }
            }
            let _ = ctx.commit();
        }
        emu = t0.elapsed().as_secs_f64(); // round 0 = warm-up, round 1 kept
    }
    // Plain-load baseline over the same access pattern (same RNG cost, so
    // it cancels out of the delta).
    let mem = rt.memory();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let t0 = std::time::Instant::now();
    for _ in 0..txns {
        for _ in 0..reads_per_txn {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            sink = sink.wrapping_add(mem.load_direct(Addr((x % lines_total) * 8)));
        }
    }
    let plain = t0.elapsed().as_secs_f64();
    std::hint::black_box(sink);
    ((emu - plain) / (txns * reads_per_txn) as f64).max(0.0)
}

/// Deterministic vertex picker: maps a global transaction index to a
/// vertex, uniformly over the first `pool` vertices (pool = n reproduces
/// the RM/RW workloads; smaller pools raise contention for Figure 7).
pub fn uniform_picker(pool: usize) -> impl Fn(u64) -> VertexId + Sync {
    let pool = pool.max(1) as u64;
    move |i: u64| {
        let mut x = i.wrapping_mul(0xFF51_AFD7_ED55_8CCD) ^ 0x9E37_79B9_7F4A_7C15;
        x ^= x >> 33;
        x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        x ^= x >> 29;
        (x % pool) as VertexId
    }
}

/// Deterministic Zipfian vertex picker over the first `pool` vertices,
/// Gray et al.'s rejection-free inversion (the YCSB generator): rank 0 is
/// the hottest key and popularity decays as `1/rank^theta`. The mapping
/// from global transaction index to vertex is a pure seeded function
/// (splitmix64 of the index), so two arms of a comparison replay the
/// *identical* query stream — which is what lets Figure 20 cross-check
/// its R-mode and H-mode checksums bitwise.
pub fn zipfian_picker(pool: usize, theta: f64, seed: u64) -> impl Fn(u64) -> VertexId + Sync {
    assert!(
        theta > 0.0 && theta < 1.0,
        "zipfian theta must lie in (0, 1), got {theta}"
    );
    let n = pool.max(1) as u64;
    // One-time O(n) zeta precompute; per-draw work is then constant.
    let zetan: f64 = (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum();
    let zeta2 = 1.0 + 0.5f64.powf(theta);
    let alpha = 1.0 / (1.0 - theta);
    let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
    move |i: u64| {
        let mut z = seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let u = (z >> 11) as f64 / (1u64 << 53) as f64;
        let uz = u * zetan;
        let rank = if uz < 1.0 {
            0
        } else if uz < zeta2 {
            1
        } else {
            (n as f64 * (eta * u - eta + 1.0).powf(alpha)) as u64
        };
        rank.min(n - 1) as VertexId
    }
}

/// Result of a read-only point-query run (Figure 20).
#[derive(Clone, Debug)]
pub struct ReadRunResult {
    /// Wall-clock seconds.
    pub secs: f64,
    /// Committed queries per second (raw wall time).
    pub throughput: f64,
    /// Merged per-worker statistics.
    pub stats: SchedStats,
    /// Emulated hardware-transaction operations performed.
    pub htm_ops: u64,
    /// Order-independent sum of every query's value checksum — bitwise
    /// comparable between two arms that replay the same query stream
    /// against quiesced values.
    pub checksum: u64,
}

impl ReadRunResult {
    /// Hardware-calibrated throughput (see
    /// [`MicroResult::calibrated_throughput`]).
    pub fn calibrated_throughput(&self, tax_s: f64) -> f64 {
        let discounted = (self.secs - self.htm_ops as f64 * tax_s).max(self.secs * 0.02);
        self.stats.commits as f64 / discounted
    }
}

/// Run `txns` k-hop point queries through `sched` on `threads` threads.
///
/// Query `i` starts at `picker(i)`, folds the value word of each visited
/// vertex into a running checksum, and hops to the neighbour the checksum
/// selects — the walk is a deterministic function of the values read, as
/// re-executed transaction bodies must be. `declared_pure` picks the
/// dispatch: [`TxnHint::read_only`](tufast_txn::TxnHint) rides the R-mode
/// snapshot path, a plain sized hint takes the scheduler's ordinary
/// (H-mode, for TuFast) read path. Both arms of a Figure 20 comparison
/// run this exact function, differing only in that flag.
#[allow(clippy::too_many_arguments)]
pub fn run_point_queries<S: GraphScheduler>(
    g: &Graph,
    sched: &S,
    values: &MemRegion,
    threads: usize,
    txns: usize,
    hops: usize,
    picker: impl Fn(u64) -> VertexId + Sync,
    declared_pure: bool,
) -> ReadRunResult {
    use tufast_txn::TxnHint;

    let threads = threads.max(1);
    let cursor = AtomicUsize::new(0);
    let checksum = std::sync::atomic::AtomicU64::new(0);
    let t0 = std::time::Instant::now();
    let workers: Vec<S::Worker> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let cursor = &cursor;
                let checksum = &checksum;
                let picker = &picker;
                let mut worker = sched.worker();
                s.spawn(move || {
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= txns {
                            break;
                        }
                        let start = picker(i as u64);
                        let size = 2 * (hops + 1);
                        let hint = if declared_pure {
                            TxnHint::read_only(size)
                        } else {
                            TxnHint::sized(size)
                        };
                        let mut acc = 0u64;
                        let out = worker.execute_hinted(hint, &mut |ops| {
                            acc = 0;
                            let mut v = start;
                            for _ in 0..=hops {
                                let x = ops.read(v, values.addr(u64::from(v)))?;
                                acc = acc.wrapping_add(x).rotate_left(7);
                                let nbrs = g.neighbors(v);
                                if nbrs.is_empty() {
                                    break;
                                }
                                v = nbrs[(acc % nbrs.len() as u64) as usize];
                            }
                            Ok(())
                        });
                        debug_assert!(out.committed, "point queries never user-abort");
                        checksum.fetch_add(acc, Ordering::Relaxed);
                    }
                    worker
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("point-query worker panicked"))
            .collect()
    });
    let secs = t0.elapsed().as_secs_f64();
    let mut stats = SchedStats::default();
    let mut htm_ops = 0;
    for w in &workers {
        stats.merge(w.stats());
        htm_ops += w.htm_ops();
    }
    ReadRunResult {
        secs,
        throughput: txns as f64 / secs.max(1e-12),
        stats,
        htm_ops,
        checksum: checksum.load(Ordering::Relaxed),
    }
}

/// Run `txns` transactions of `workload` through `sched` on `threads`
/// threads. Returns the result plus the workers (for scheduler-specific
/// statistics such as TuFast's mode breakdown).
pub fn run_micro<S: GraphScheduler>(
    g: &Graph,
    sched: &S,
    values: &MemRegion,
    threads: usize,
    txns: usize,
    workload: MicroWorkload,
    picker: impl Fn(u64) -> VertexId + Sync,
) -> (MicroResult, Vec<S::Worker>) {
    run_micro_opts(g, sched, values, threads, txns, workload, picker, false)
}

/// [`run_micro`] with an optional *conflict window*: the body yields the
/// CPU between its reads and its writes. On machines with fewer cores than
/// workers, plain micro-transactions are too short to overlap across
/// preemption, structurally muting contention; the yield guarantees that
/// concurrently issued transactions really do interleave — used by the
/// Figure 7 contention sweep and documented in EXPERIMENTS.md.
#[allow(clippy::too_many_arguments)]
pub fn run_micro_opts<S: GraphScheduler>(
    g: &Graph,
    sched: &S,
    values: &MemRegion,
    threads: usize,
    txns: usize,
    workload: MicroWorkload,
    picker: impl Fn(u64) -> VertexId + Sync,
    conflict_window: bool,
) -> (MicroResult, Vec<S::Worker>) {
    let threads = threads.max(1);
    let cursor = AtomicUsize::new(0);
    let t0 = std::time::Instant::now();
    let workers: Vec<S::Worker> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let cursor = &cursor;
                let picker = &picker;
                let mut worker = sched.worker();
                s.spawn(move || {
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= txns {
                            break;
                        }
                        let v = picker(i as u64);
                        run_one(g, values, &mut worker, v, workload, conflict_window);
                    }
                    worker
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("micro worker panicked"))
            .collect()
    });
    let secs = t0.elapsed().as_secs_f64();
    let mut stats = SchedStats::default();
    let mut htm_ops = 0;
    for w in &workers {
        stats.merge(w.stats());
        htm_ops += w.htm_ops();
    }
    (
        MicroResult {
            secs,
            throughput: txns as f64 / secs.max(1e-12),
            stats,
            htm_ops,
        },
        workers,
    )
}

/// Execute one neighbourhood transaction, with the conflict window if
/// asked (see [`run_micro_opts`]).
fn run_one<W: TxnWorker>(
    g: &Graph,
    values: &MemRegion,
    worker: &mut W,
    v: VertexId,
    workload: MicroWorkload,
    conflict_window: bool,
) {
    let degree = g.degree(v);
    let hint = TxnSystem::neighborhood_hint(degree);
    worker.execute(hint, &mut |ops| {
        let mut acc = ops.read(v, values.addr(u64::from(v)))?;
        for &u in g.neighbors(v) {
            acc = acc.wrapping_add(ops.read(u, values.addr(u64::from(u)))?);
        }
        if conflict_window {
            // Hand the core to a competitor mid-transaction so transactions
            // genuinely interleave even when cores < workers.
            std::thread::yield_now();
        }
        if workload == MicroWorkload::ReadWrite {
            for &u in g.neighbors(v) {
                let x = ops.read(u, values.addr(u64::from(u)))?;
                ops.write(u, values.addr(u64::from(u)), x.wrapping_add(1))?;
            }
        }
        ops.write(v, values.addr(u64::from(v)), acc.wrapping_add(1))
    });
}

/// Run the full §VI-B scheduler suite (the paper's Figures 13/14 bars) on
/// one graph and workload: TuFast, 2PL, OCC, STM, HSync, H-TO. Each
/// scheduler gets a fresh system (fresh lock words and timestamps).
pub fn run_scheduler_suite(
    g: &Graph,
    threads: usize,
    txns: usize,
    workload: MicroWorkload,
) -> Vec<(&'static str, MicroResult)> {
    use tufast::TuFast;
    use tufast_txn::{
        HSyncLike, HTimestampOrdering, Occ, SoftwareTm, TimestampOrdering, TwoPhaseLocking,
    };

    let picker = || uniform_picker(g.num_vertices());
    let mut out = Vec::new();
    macro_rules! measure {
        ($name:expr, $ctor:expr) => {{
            let (sys, values) = setup_micro(g);
            let sched = $ctor(Arc::clone(&sys));
            let (result, _) = run_micro(g, &sched, &values, threads, txns, workload, picker());
            out.push(($name, result));
        }};
    }
    measure!("TuFast", TuFast::new);
    measure!("2PL", TwoPhaseLocking::new);
    measure!("OCC", Occ::new);
    measure!("TO", TimestampOrdering::new);
    measure!("STM", SoftwareTm::new);
    measure!("HSync", HSyncLike::new);
    measure!("H-TO", HTimestampOrdering::new);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tufast::TuFast;
    use tufast_graph::gen;
    use tufast_txn::TwoPhaseLocking;

    #[test]
    fn picker_is_deterministic_and_bounded() {
        let pick = uniform_picker(100);
        let a: Vec<VertexId> = (0..50).map(&pick).collect();
        let b: Vec<VertexId> = (0..50).map(&pick).collect();
        assert_eq!(a, b);
        assert!(a.iter().all(|&v| v < 100));
        // Spread: at least a handful of distinct vertices.
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert!(uniq.len() > 10);
    }

    #[test]
    fn zipfian_picker_is_deterministic_and_skewed() {
        let pick = zipfian_picker(1000, 0.8, 42);
        let a: Vec<VertexId> = (0..2000).map(&pick).collect();
        let b: Vec<VertexId> = (0..2000).map(&pick).collect();
        assert_eq!(a, b);
        assert!(a.iter().all(|&v| v < 1000));
        // Zipf(0.8) over 1000 keys puts ≈ 21% of draws on the top 10.
        let hot = a.iter().filter(|&&v| v < 10).count();
        assert!(
            hot * 6 > a.len(),
            "top-1% of keys drew only {hot} of {} queries",
            a.len()
        );
        // A different seed permutes the stream.
        let other = zipfian_picker(1000, 0.8, 43);
        let c: Vec<VertexId> = (0..2000).map(&other).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn point_query_arms_agree_bitwise_on_a_quiesced_graph() {
        let g = gen::rmat(8, 8, 5);
        let (sys, values) = setup_micro(&g);
        for v in 0..g.num_vertices() as u64 {
            sys.mem()
                .store_direct(values.addr(v), v.wrapping_mul(0x9E37) + 1);
        }
        let sched = TuFast::new(Arc::clone(&sys));
        let n = g.num_vertices();
        let pure = run_point_queries(
            &g,
            &sched,
            &values,
            4,
            2_000,
            3,
            zipfian_picker(n, 0.8, 7),
            true,
        );
        let ordinary = run_point_queries(
            &g,
            &sched,
            &values,
            4,
            2_000,
            3,
            zipfian_picker(n, 0.8, 7),
            false,
        );
        assert_eq!(
            pure.checksum, ordinary.checksum,
            "R and H arms must read identical values on a quiesced graph"
        );
        assert_eq!(pure.stats.commits, 2_000);
        assert_eq!(
            pure.stats.r_commits, 2_000,
            "declared-pure queries all ride the R fast path"
        );
        assert_eq!(ordinary.stats.r_commits, 0);
    }

    #[test]
    fn rm_workload_runs_on_tufast_and_2pl() {
        let g = gen::rmat(8, 8, 3);
        let check = |result: MicroResult| {
            assert_eq!(result.stats.commits, 2_000);
            assert!(result.throughput > 0.0);
        };
        let (sys, values) = setup_micro(&g);
        let sched = TuFast::new(Arc::clone(&sys));
        let (result, _) = run_micro(
            &g,
            &sched,
            &values,
            4,
            2_000,
            MicroWorkload::ReadMostly,
            uniform_picker(g.num_vertices()),
        );
        check(result);
        let (sys, values) = setup_micro(&g);
        let sched = TwoPhaseLocking::new(Arc::clone(&sys));
        let (result, _) = run_micro(
            &g,
            &sched,
            &values,
            4,
            2_000,
            MicroWorkload::ReadMostly,
            uniform_picker(g.num_vertices()),
        );
        check(result);
    }

    #[test]
    fn rw_workload_counts_writes() {
        let g = gen::star(64);
        let (sys, values) = setup_micro(&g);
        let sched = TuFast::new(Arc::clone(&sys));
        let (result, _) = run_micro(
            &g,
            &sched,
            &values,
            2,
            500,
            MicroWorkload::ReadWrite,
            uniform_picker(64),
        );
        assert_eq!(result.stats.commits, 500);
        assert!(
            result.stats.writes > result.stats.commits,
            "RW writes the neighbourhood"
        );
    }
}
