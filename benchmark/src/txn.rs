//! `txn-rw` and `txn-ro`: the scheduler API with no algorithm and no work
//! pool, one transaction class per workload on a `TuFast` system over
//! twitter-s:
//!
//! * `RW` — the centre gives one unit to every out-neighbour (wrapping
//!   arithmetic), so the sum of all values is conserved at any thread count.
//!   A chunk takes every vertex as centre once, in a seeded order: centres
//!   drawn with replacement made the work of a chunk depend on how often
//!   the seed drew a hub (`job_s` 1.62 s or 1.84 s by seed alone);
//! * `RO` — declared-pure Zipfian 3-hop point queries (`TxnHint::read_only`,
//!   the R-mode path); its traced pass also runs the identical stream with
//!   a sized hint (the H arm).
//!
//! Each class is a workload of its own so that its `job_s` is that class
//! alone: a gain for `RO` that costs `RW` fails `txn-rw`'s bound instead of
//! hiding in a sum. The read-mostly class of the paper's Figure 13 (read
//! the neighbourhood, write the centre) is the transaction `pagerank` runs
//! 327 680 times per job and has no workload here.
//!
//! RW writes one value word per vertex; the queries read a second word per
//! vertex that nothing writes, so a query's walk — and with it every
//! counter — is the same in every chunk and every run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tufast::{JobDeadline, TuFast, TuFastStats, TuFastWorker};
use tufast_graph::{Graph, VertexId};
use tufast_htm::{MemRegion, MemoryLayout};
use tufast_txn::{GraphScheduler, TxnHint, TxnSystem, TxnWorker};

use crate::counters;
use crate::harness::{peak_rss_mb, summarize, Run};
use crate::heap::peak_heap_mb;
use crate::inputs::{binio_roundtrip, mix, permutation, zipfian_picker, GraphSetup, Shape};
use crate::probes;
use crate::stats::{self, latency_summary};

const EDGE_FACTOR: usize = 37;
const THETA: f64 = 0.9;
const HOPS: usize = 3;
/// Every value starts here.
const INITIAL: u64 = 1 << 32;
/// In the traced pass every this-many-th `execute` is timed. A query takes
/// 0.2 µs: timing every 16th slowed the traced chunks by 5–9 %.
const SAMPLE_EVERY: u64 = 64;
const DEADLINE_FACTOR: f64 = 32.0;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Class {
    Rw,
    /// Point queries on the R-mode path.
    Ro,
    /// The same queries with a sized hint (H mode); `txn-ro`'s traced pass.
    RoH,
}

/// Queries per chunk, at every scale: 15 ms of work at the gated scale,
/// 32 ms at the paper scale. (A chunk starts its worker thread inside the
/// timer, as `parallel_for` does; shrinking the chunk with the graph made
/// that a twentieth of a 2 ms chunk.)
const QUERY_CHUNK: u64 = 200_000;

impl Class {
    /// Chunks of the nominal job `job_s` is quoted for: six passes over the
    /// vertices (49 152 RW transactions at the gated scale) or 2 M queries.
    fn nominal_chunks(self) -> f64 {
        match self {
            Class::Rw => 6.0,
            Class::Ro | Class::RoH => 10.0,
        }
    }

    fn span(self) -> &'static str {
        match self {
            Class::Rw => "txn.rw",
            Class::Ro => "txn.ro",
            Class::RoH => "txn.ro_h",
        }
    }
}

struct Bench {
    g: Graph,
    sys: Arc<TxnSystem>,
    sched: TuFast,
    /// Written by RW.
    values: MemRegion,
    /// Read by the point queries; constant.
    keys: MemRegion,
    /// Centre of RW transaction `i` is `centres[i % n]`: every vertex once
    /// per chunk, in a seeded order.
    centres: Vec<VertexId>,
    seed: u64,
}

/// What one chunk did.
struct Chunk {
    secs: f64,
    stats: TuFastStats,
    /// Sum of the point queries' checksums (0 for RW).
    checksum: u64,
    /// `(start_ns, end_ns)` of the sampled executes, against `origin`.
    samples: Vec<(u64, u64)>,
}

impl Bench {
    /// Execute transactions `0..count` of `class`, one thread per worker;
    /// transaction `i` is a pure function of `(seed, class, i)`. Every chunk
    /// of a class replays the same transactions (RW on the values the
    /// previous chunks left), so every chunk is the same work. The workers
    /// outlive the chunk, as a client's do (and a system hands out only
    /// `max_workers` ids in its lifetime).
    fn chunk(
        &self,
        class: Class,
        count: u64,
        workers: &mut [TuFastWorker],
        sample_from: Option<Instant>,
    ) -> Chunk {
        let g = &self.g;
        let (values, keys) = (&self.values, &self.keys);
        let n = g.num_vertices();
        let centres = &self.centres;
        let zipf = zipfian_picker(n, THETA, self.seed);
        let cursor = AtomicU64::new(0);
        let checksum = AtomicU64::new(0);
        let end = count;
        let t = Instant::now();
        let per_thread: Vec<(TuFastStats, Vec<(u64, u64)>)> = std::thread::scope(|s| {
            let handles: Vec<_> = workers
                .iter_mut()
                .map(|worker| {
                    let (cursor, checksum, zipf) = (&cursor, &checksum, &zipf);
                    s.spawn(move || {
                        let mut samples = Vec::new();
                        let mut sum = 0u64;
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= end {
                                break;
                            }
                            let sampled = sample_from.filter(|_| i % SAMPLE_EVERY == 0);
                            let t0 = sampled.map(|o| o.elapsed().as_nanos() as u64);
                            match class {
                                Class::Rw => {
                                    let v = centres[i as usize % n];
                                    read_write(g, values, worker, v);
                                }
                                Class::Ro | Class::RoH => {
                                    sum = sum.wrapping_add(point_query(
                                        g,
                                        keys,
                                        worker,
                                        zipf(i),
                                        class == Class::Ro,
                                    ));
                                }
                            }
                            if let (Some(o), Some(t0)) = (sampled, t0) {
                                samples.push((t0, o.elapsed().as_nanos() as u64));
                            }
                        }
                        checksum.fetch_add(sum, Ordering::Relaxed);
                        (worker.take_tufast_stats(), samples)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        let secs = t.elapsed().as_secs_f64();
        let mut stats = TuFastStats::default();
        let mut samples = Vec::new();
        for (s, mut sm) in per_thread {
            stats.merge(&s);
            samples.append(&mut sm);
        }
        Chunk {
            secs,
            stats,
            checksum: checksum.load(Ordering::Relaxed),
            samples,
        }
    }

    fn snapshot(&self) -> Vec<u64> {
        self.sys.mem().snapshot_region(&self.values)
    }
}

fn read_write(g: &Graph, values: &MemRegion, worker: &mut impl TxnWorker, v: VertexId) {
    worker.execute(TxnSystem::neighborhood_hint(g.degree(v)), &mut |ops| {
        let nbrs = g.neighbors(v);
        let x = ops.read(v, values.addr(u64::from(v)))?;
        ops.write(
            v,
            values.addr(u64::from(v)),
            x.wrapping_sub(nbrs.len() as u64),
        )?;
        for &u in nbrs {
            let y = ops.read(u, values.addr(u64::from(u)))?;
            ops.write(u, values.addr(u64::from(u)), y.wrapping_add(1))?;
        }
        Ok(())
    });
}

/// One 3-hop walk: fold each visited value into a checksum and let the
/// checksum pick the next hop, so the walk is a function of what it read.
fn point_query(
    g: &Graph,
    keys: &MemRegion,
    worker: &mut impl TxnWorker,
    start: VertexId,
    declared_pure: bool,
) -> u64 {
    let size = 2 * (HOPS + 1);
    let hint = if declared_pure {
        TxnHint::read_only(size)
    } else {
        TxnHint::sized(size)
    };
    let mut acc = 0u64;
    worker.execute_hinted(hint, &mut |ops| {
        acc = 0;
        let mut v = start;
        for _ in 0..=HOPS {
            acc = acc
                .wrapping_add(ops.read(v, keys.addr(u64::from(v)))?)
                .rotate_left(7);
            let nbrs = g.neighbors(v);
            if nbrs.is_empty() {
                break;
            }
            v = nbrs[(acc % nbrs.len() as u64) as usize];
        }
        Ok(())
    });
    acc
}

/// The same bodies on a plain `Vec<u64>`: what memory must hold after
/// the T=1 chunks, and what every query must have returned.
struct Replay<'a> {
    g: &'a Graph,
    values: Vec<u64>,
    keys: Vec<u64>,
    centres: &'a [VertexId],
    seed: u64,
}

impl Replay<'_> {
    fn apply(&mut self, class: Class, count: u64) -> u64 {
        let n = self.g.num_vertices();
        let zipf = zipfian_picker(n, THETA, self.seed);
        let mut checksum = 0u64;
        for i in 0..count {
            match class {
                Class::Rw => {
                    let v = self.centres[i as usize % n];
                    let nbrs = self.g.neighbors(v);
                    self.values[v as usize] =
                        self.values[v as usize].wrapping_sub(nbrs.len() as u64);
                    for &u in nbrs {
                        self.values[u as usize] = self.values[u as usize].wrapping_add(1);
                    }
                }
                Class::Ro | Class::RoH => {
                    let mut acc = 0u64;
                    let mut v = zipf(i);
                    for _ in 0..=HOPS {
                        acc = acc.wrapping_add(self.keys[v as usize]).rotate_left(7);
                        let nbrs = self.g.neighbors(v);
                        if nbrs.is_empty() {
                            break;
                        }
                        v = nbrs[(acc % nbrs.len() as u64) as usize];
                    }
                    checksum = checksum.wrapping_add(acc);
                }
            }
        }
        checksum
    }
}

fn wrapping_sum(values: &[u64]) -> u64 {
    values.iter().fold(0, |a, &b| a.wrapping_add(b))
}

/// Chunk rates of one class at T=1, and the counters of one chunk (every
/// chunk of a class counts the same).
#[derive(Default)]
struct Phase {
    rates: Vec<f64>,
    stats: TuFastStats,
    exec_ns: Vec<u64>,
}

/// Transactions per chunk of `class`: one per vertex, or `QUERY_CHUNK`.
fn chunk_len(run: &Run, class: Class) -> u64 {
    match class {
        Class::Rw => 1 << run.graph_scale(),
        Class::Ro | Class::RoH => QUERY_CHUNK,
    }
}

pub fn run(run: &mut Run, class: Class) {
    let mut setup = GraphSetup::new(EDGE_FACTOR, Shape::InEdges);
    let (g, setup_times) = setup.build(run);

    let n = g.num_vertices();
    let mut layout = MemoryLayout::new();
    let values = layout.alloc("values", n as u64);
    let keys = layout.alloc("keys", n as u64);
    let sys = TxnSystem::with_defaults(n, layout);
    sys.mem().fill_region(&values, INITIAL);
    let key_words: Vec<u64> = (0..n as u64).map(|v| mix(run.args.seed ^ v)).collect();
    for (addr, &k) in keys.iter().zip(&key_words) {
        sys.mem().store_direct(addr, k);
    }
    let bench = Bench {
        sched: TuFast::new(Arc::clone(&sys)),
        sys,
        values,
        keys,
        centres: permutation(n, mix(run.args.seed)),
        seed: run.args.seed,
        g,
    };
    let mut replay = Replay {
        g: &bench.g,
        values: vec![INITIAL; n],
        keys: key_words,
        centres: &bench.centres,
        seed: run.args.seed,
    };
    println!(
        "graph: {} vertices, {} edges; chunks of {} {class:?} transactions",
        n,
        bench.g.num_edges(),
        chunk_len(run, class),
    );

    // T=1: chunk after chunk of the workload's class. In the traced pass
    // half the budget goes to T=tn and the probes, rounds alternate traced /
    // untraced, and `txn-ro` runs its H arm beside every R chunk.
    let classes: &[Class] = if run.args.trace && class == Class::Ro {
        &[Class::Ro, Class::RoH]
    } else {
        &[class]
    };
    // Per class: `[untraced, traced]`.
    let mut phases: Vec<(Class, [Phase; 2])> = classes
        .iter()
        .map(|&c| (c, [Phase::default(), Phase::default()]))
        .collect();
    let share = if run.args.trace { 0.5 } else { 1.0 };
    // The keys never change, so every query chunk must return this.
    let mut query_checksum = None;
    let mut round = 0u64;
    let mut worker = [bench.sched.worker()];
    run.repeat(share, 9, |run| {
        let traced = run.args.trace && round.is_multiple_of(2);
        round += 1;
        for (class, halves) in &mut phases {
            let class = *class;
            let count = chunk_len(run, class);
            let span = run.tracer.begin("chunk");
            let origin = traced.then(|| run.tracer.origin());
            let c = bench.chunk(class, count, &mut worker, origin);
            for &(a, b) in &c.samples {
                run.tracer.add_closed(class.span(), a, b);
            }
            run.tracer.end(span);
            let want = run.verifying(|_| match class {
                Class::Rw => replay.apply(class, count),
                Class::Ro | Class::RoH => {
                    *query_checksum.get_or_insert_with(|| replay.apply(class, count))
                }
            });
            run.tally.attempt(count);
            for _ in 0..count.saturating_sub(c.stats.sched.commits) {
                run.tally
                    .fail(format!("{class:?}: transaction did not commit"));
            }
            run.tally.check(c.checksum == want, || {
                format!("{class:?}: query checksum differs from the plain replay")
            });
            if class == Class::Ro {
                run.tally
                    .check(c.stats.sched.r_commits == c.stats.sched.commits, || {
                        format!(
                            "RO: {} of {} queries left the R path",
                            c.stats.sched.commits - c.stats.sched.r_commits,
                            c.stats.sched.commits
                        )
                    });
            }
            let phase = &mut halves[usize::from(traced)];
            phase.rates.push(count as f64 / c.secs);
            phase
                .exec_ns
                .extend(c.samples.iter().map(|(a, b)| b.saturating_sub(*a)));
            phase.stats = c.stats;
        }
        setup.between_reps(run, |_, _| 0.0);
    });
    // Final memory, bitwise, after every chunk.
    run.tally.attempt(1);
    let same = run.verifying(|_| bench.snapshot() == replay.values);
    run.tally
        .check(same, || "memory differs from the plain replay".into());

    // The least disturbed chunk (see `harness::Summary`).
    let rates_of = |class: Class, which: &[usize]| -> Vec<f64> {
        phases
            .iter()
            .filter(|(c, _)| *c == class)
            .flat_map(|(_, halves)| which.iter().flat_map(|&w| halves[w].rates.iter().copied()))
            .collect()
    };
    for &c in classes {
        println!("T=1 {c:?} txns/s: {}", summarize(&rates_of(c, &[0, 1])));
    }
    let rate = stats::max(&rates_of(class, &[0, 1]));
    // Time the nominal job takes at that rate.
    let nominal = class.nominal_chunks() * chunk_len(run, class) as f64;
    let job_s = nominal / rate.max(1e-9);
    run.metrics.set("job_s", job_s);
    run.metrics.set("txn.txns_per_s", rate);
    if run.args.trace {
        let all = rates_of(class, &[0, 1]);
        run.metrics.set("bench.reps", all.len() as f64);
        run.metrics.set("bench.rel_iqr", summarize(&all).rel_iqr);
        // Rates, so untraced over traced is the ratio of times.
        if let Some(ratio) = stats::paired_ratio(&rates_of(class, &[0]), &rates_of(class, &[1])) {
            run.metrics.set("bench.trace_overhead_ratio", ratio - 1.0);
        }
        if class == Class::Ro {
            let h_rate = stats::max(&rates_of(Class::RoH, &[0, 1]));
            run.metrics.set("txn.ro_h_arm_queries_per_s", h_rate);
            run.metrics.set("txn.r_over_h", rate / h_rate.max(1e-9));
            run.metrics.set("txn.r_read_ns", probes::r_read_ns());
        }
        binio_roundtrip(run, &bench.g);
        traced_pass(run, &bench, class, &phases[0].1, rate);
        run.metrics.set("bench.peak_rss_mb", peak_rss_mb());
    } else {
        run.metrics.set("peak_heap_mb", peak_heap_mb());
    }
    drop(replay);
    drop(bench);
    setup.record(run, setup_times, 0.0, |_, _| 0.0);
}

/// Latencies and counters of the T=1 chunks, the parallel picture at `tn`
/// threads, and the probes.
fn traced_pass(run: &mut Run, bench: &Bench, class: Class, halves: &[Phase; 2], t1_rate: f64) {
    let mut ns = halves[1].exec_ns.clone();
    let (p50, top, p_top) = latency_summary(&mut ns);
    println!(
        "{class:?} execute: p50 {p50} ns, p{top} {p_top} ns over {} sampled calls",
        ns.len()
    );
    run.metrics.set("txn.exec_p50_ns", p50 as f64);
    run.metrics.set("txn.exec_p99_ns", p_top as f64);
    // Counters of one chunk (every chunk counts the same).
    let stats = &halves[usize::from(!halves[1].rates.is_empty())].stats;
    counters::record(&mut run.metrics, stats, &tufast::PoolCounters::default());
    let count = chunk_len(run, class);
    let chunk_ns = count as f64 / t1_rate.max(1e-9) * 1e9;

    // The parallel picture: the same chunks on `tn` threads.
    let tn = run.tn;
    run.metrics.set("core.tn_threads", tn as f64);
    let deadline = Duration::from_secs_f64((DEADLINE_FACTOR * chunk_ns / 1e9).max(1.0));
    let mut tn_stats = TuFastStats::default();
    let mut rates = Vec::new();
    let mut workers: Vec<TuFastWorker> = (0..tn).map(|_| bench.sched.worker()).collect();
    run.repeat(0.4, 2, |run| {
        let before = (class == Class::Rw).then(|| wrapping_sum(&bench.snapshot()));
        bench.sys.begin_job(Some(JobDeadline(deadline)));
        let c = bench.chunk(class, count, &mut workers, None);
        let missed = bench.sys.cancel_token().reason().is_some();
        bench.sys.begin_job(None);
        run.tally.attempt(count);
        run.tally
            .check(!missed, || format!("{class:?} T={tn}: deadline missed"));
        for _ in 0..count.saturating_sub(c.stats.sched.commits) {
            run.tally
                .fail(format!("{class:?} T={tn}: transaction did not commit"));
        }
        if let Some(before) = before {
            run.tally
                .check(wrapping_sum(&bench.snapshot()) == before, || {
                    format!("RW T={tn}: the sum of all values changed")
                });
        }
        rates.push(count as f64 / c.secs);
        tn_stats.merge(&c.stats);
    });
    let s = summarize(&rates);
    println!("T={tn} {class:?} txns/s: {s}");
    run.metrics.set("core.tn_txns_per_s", s.median);
    run.metrics.set(
        "txn.tn_attempts_per_commit",
        counters::attempts_per_commit(&tn_stats),
    );
    run.metrics.set(
        "core.tn_job_s",
        class.nominal_chunks() * count as f64 / s.median.max(1e-9),
    );
    run.metrics
        .set("core.tn_speedup", s.median / t1_rate.max(1e-9));

    // Probes and the estimated split of one chunk at T=1.
    let htm = probes::htm();
    let empty_txn_ns = probes::empty_txn_ns();
    htm.record(&mut run.metrics);
    run.metrics.set("txn.empty_txn_ns", empty_txn_ns);
    run.metrics
        .set("htm.est_share", htm.tax_ns(&stats.htm) / chunk_ns);
    run.metrics.set(
        "txn.est_fixed_share",
        stats.sched.commits as f64 * empty_txn_ns / chunk_ns,
    );
}
