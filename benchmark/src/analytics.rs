//! The four analytics workloads: `pagerank`, `bfs`, `wcc`, `sssp`.
//!
//! One job is what a caller of `tufast-algos` does after the graph is
//! ready: `algos::setup` (layout + `TxnSystem`), scheduler construction,
//! and the crate's own `parallel*` driver including result read-back.
//! Verification runs on every repetition, outside the timers.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tufast::{JobDeadline, PoolCounters, TuFastStats};
use tufast_algos::{self as algos, bfs, pagerank, sssp, wcc};
use tufast_graph::{Graph, VertexId};
use tufast_htm::MemoryLayout;
use tufast_txn::{GraphScheduler, TxnSystem};

use crate::counters;
use crate::harness::{peak_rss_mb, summarize, timed, Run, Tally};
use crate::heap::peak_heap_mb;
use crate::inputs::{binio_roundtrip, max_out_degree_vertex, GraphSetup, Shape};
use crate::probes;
use crate::sched::{Harvest, Plain};
use crate::stats::{self, median};
use crate::trace::Tracer;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    PageRank,
    Bfs,
    Wcc,
    Sssp,
}

const DAMPING: f64 = 0.85;
/// Every sweep is the same work (one transaction per vertex over all its
/// in-edges); more of them only lengthen the timed piece, and the shorter
/// it is the more often it runs undisturbed (see `harness::Summary`).
const SWEEPS: usize = 2;
/// A parallel job may take this many T=1 medians before it counts as failed.
const DEADLINE_FACTOR: f64 = 32.0;
/// Edge factor of twitter-s (twitter-mpi has 37.3 edges per vertex).
const EDGE_FACTOR: usize = 37;

/// What a job returns.
#[derive(PartialEq)]
enum Output {
    Words(Vec<u64>),
    Ranks(Vec<f64>),
}

struct Prepared {
    algo: Algo,
    g: Graph,
    source: VertexId,
    reference: Output,
}

/// Wall times of one job and what it produced.
struct JobRun {
    job_s: f64,
    system_build_s: f64,
    run_s: f64,
    out: Output,
    deadline_missed: bool,
}

/// Gauss–Seidel PageRank in vertex order: what `parallel_sweeps` computes
/// at one thread, as plain code — same operations in the same order, so
/// the comparison is bitwise.
fn pagerank_reference(g: &Graph) -> Vec<f64> {
    let n = g.num_vertices();
    let base = (1.0 - DAMPING) / n.max(1) as f64;
    let mut rank = vec![1.0 / n.max(1) as f64; n];
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

fn reference(algo: Algo, g: &Graph, source: VertexId) -> Output {
    match algo {
        Algo::PageRank => Output::Ranks(pagerank_reference(g)),
        Algo::Bfs => Output::Words(bfs::sequential(g, source)),
        Algo::Wcc => Output::Words(wcc::sequential(g)),
        Algo::Sssp => Output::Words(sssp::sequential(g, source)),
    }
}

/// Build the system, the scheduler, and run `body`, timing each stage.
fn stage<W, S: GraphScheduler>(
    g: &Graph,
    alloc: impl FnOnce(&mut MemoryLayout, usize) -> W,
    ctor: impl FnOnce(Arc<TxnSystem>) -> S,
    deadline: Option<JobDeadline>,
    tr: &mut Tracer,
    body: impl FnOnce(&S, &TxnSystem, &W) -> Output,
) -> (JobRun, S) {
    let t0 = Instant::now();
    let built = tr.span("algos.system_build", || algos::setup(g, alloc));
    let sched = tr.span("core.sched_new", || ctor(Arc::clone(&built.sys)));
    let system_build_s = t0.elapsed().as_secs_f64();
    if deadline.is_some() {
        built.sys.begin_job(deadline);
    }
    let t1 = Instant::now();
    let out = tr.span("algos.run", || body(&sched, &built.sys, &built.space));
    let run_s = t1.elapsed().as_secs_f64();
    let job_s = t0.elapsed().as_secs_f64();
    let deadline_missed = built.sys.cancel_token().reason().is_some();
    (
        JobRun {
            job_s,
            system_build_s,
            run_s,
            out,
            deadline_missed,
        },
        sched,
    )
}

/// One complete job on `threads` threads through the scheduler `ctor` builds.
fn job<S: GraphScheduler>(
    p: &Prepared,
    threads: usize,
    deadline: Option<JobDeadline>,
    tr: &mut Tracer,
    ctor: impl FnOnce(Arc<TxnSystem>) -> S,
) -> (JobRun, S) {
    let g = &p.g;
    match p.algo {
        Algo::PageRank => stage(
            g,
            pagerank::PageRankSpace::alloc,
            ctor,
            deadline,
            tr,
            |s, sys, space| {
                drop(pagerank::parallel_sweeps(
                    g, s, sys, space, threads, DAMPING, SWEEPS,
                ));
                let mem = sys.mem();
                Output::Ranks(
                    space
                        .rank
                        .iter()
                        .map(|a| f64::from_bits(mem.load_direct(a)))
                        .collect(),
                )
            },
        ),
        Algo::Bfs => stage(
            g,
            bfs::BfsSpace::alloc,
            ctor,
            deadline,
            tr,
            |s, sys, space| Output::Words(bfs::parallel(g, s, sys, space, p.source, threads)),
        ),
        Algo::Wcc => stage(
            g,
            wcc::WccSpace::alloc,
            ctor,
            deadline,
            tr,
            |s, sys, space| Output::Words(wcc::parallel(g, s, sys, space, threads)),
        ),
        Algo::Sssp => stage(
            g,
            sssp::SsspSpace::alloc,
            ctor,
            deadline,
            tr,
            |s, sys, space| {
                Output::Words(sssp::parallel(
                    g,
                    s,
                    sys,
                    space,
                    p.source,
                    threads,
                    sssp::QueueKind::Priority,
                ))
            },
        ),
    }
}

/// Vertices a traversal result reached.
fn reached(out: &Output) -> usize {
    match out {
        Output::Words(w) => w.iter().filter(|&&d| d != u64::MAX).count(),
        Output::Ranks(r) => r.len(),
    }
}

/// Check one repetition's output; a mismatch is one failed operation.
/// `exact` (one thread) demands bitwise equality everywhere; a parallel
/// PageRank is only bounded (f64 addition order varies).
fn verify(p: &Prepared, run: &JobRun, exact: bool, what: &str, tally: &mut Tally) {
    let ok = match (&run.out, &p.reference) {
        (Output::Ranks(got), Output::Ranks(want)) if exact => {
            got.len() == want.len()
                && got
                    .iter()
                    .zip(want)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        }
        (Output::Ranks(got), Output::Ranks(want)) => {
            let mass: f64 = got.iter().sum();
            got.len() == want.len()
                && got.iter().all(|x| x.is_finite())
                && mass > 0.0
                && mass <= 1.0 + 1e-9
                && got.iter().zip(want).all(|(a, b)| (a - b).abs() <= 1e-3)
        }
        (got, want) => got == want,
    };
    let traversal = matches!(p.algo, Algo::Bfs | Algo::Sssp);
    let reach_ok = !traversal || 2 * reached(&run.out) >= p.g.num_vertices();
    tally.attempt(1);
    if run.deadline_missed {
        tally.fail(format!("{what}: deadline missed after {:.3} s", run.job_s));
    } else if !ok {
        tally.fail(format!("{what}: output differs from the reference"));
    } else if !reach_ok {
        tally.fail(format!(
            "{what}: reached {} of {} vertices, below the 50 % guard",
            reached(&run.out),
            p.g.num_vertices()
        ));
    }
}

/// Run one TuFast job, verify it, and return its times and counters. A
/// panic anywhere inside is one failed operation.
fn tufast_rep(
    p: &Prepared,
    threads: usize,
    deadline: Option<JobDeadline>,
    what: &str,
    run: &mut Run,
) -> Option<(JobRun, TuFastStats, PoolCounters)> {
    let _ = tufast::take_sched_counters();
    run.tracer.next_job();
    let span = run.tracer.begin("job");
    let tracer = &mut run.tracer;
    let result = catch_unwind(AssertUnwindSafe(|| {
        let (jr, sched) = job(p, threads, deadline, tracer, Harvest::new);
        (jr, sched.take())
    }));
    let pool = tufast::take_sched_counters();
    let Ok((jr, stats)) = result else {
        run.tracer.end(span);
        run.tally.attempt(1);
        run.tally.fail(format!("{what}: panicked"));
        return None;
    };
    let verify_span = run.tracer.begin("bench.verify");
    run.verifying(|run| verify(p, &jr, threads == 1, what, &mut run.tally));
    run.tracer.end(verify_span);
    run.tracer.attach(span, counters::snapshot(&stats, &pool));
    run.tracer.end(span);
    Some((jr, stats, pool))
}

/// Times of the T=1 repetitions plus the counters of the last one (at
/// one thread every repetition counts the same).
#[derive(Default)]
struct T1 {
    job_s: Vec<f64>,
    system_build_s: Vec<f64>,
    run_s: Vec<f64>,
    last: Option<(TuFastStats, PoolCounters, usize)>,
}

/// T=1 repetitions for `share` of the budget, returned as `[untraced,
/// traced]`. When tracing, every second repetition records spans, so slow
/// drift of the host hits both halves alike.
fn t1_reps(
    p: &Prepared,
    run: &mut Run,
    setup: &mut GraphSetup,
    share: f64,
    min_reps: usize,
) -> [T1; 2] {
    let mut halves = [T1::default(), T1::default()];
    let tracing = run.args.trace;
    let mut rep_no = 0usize;
    run.repeat(share, min_reps, |run| {
        let traced = tracing && rep_no.is_multiple_of(2);
        rep_no += 1;
        run.tracer.set_enabled(traced);
        if let Some((jr, stats, pool)) = tufast_rep(p, 1, None, "T=1", run) {
            let t1 = &mut halves[usize::from(traced)];
            t1.job_s.push(jr.job_s);
            t1.system_build_s.push(jr.system_build_s);
            t1.run_s.push(jr.run_s);
            t1.last = Some((stats, pool, reached(&jr.out)));
        }
        setup.between_reps(run, |_, _| 0.0);
    });
    run.tracer.set_enabled(tracing);
    halves
}

pub fn run(run: &mut Run, algo: Algo) {
    let (shape, min_reps) = match algo {
        Algo::PageRank | Algo::Bfs => (Shape::InEdges, 5),
        Algo::Wcc => (Shape::Symmetric, 5),
        // SSSP's T=1 repetitions spread the most.
        Algo::Sssp => (Shape::Weighted, 9),
    };

    let mut setup = GraphSetup::new(EDGE_FACTOR, shape);
    let (g, setup_times) = setup.build(run);

    // The source: vertex 0 of an R-MAT graph may have no out-edges.
    let source = match algo {
        Algo::Bfs | Algo::Sssp => max_out_degree_vertex(&g),
        Algo::PageRank | Algo::Wcc => 0,
    };
    let (reference, reference_s) = timed(|| reference(algo, &g, source));
    run.metrics.set("bench.reference_s", reference_s);
    run.metrics.set("algos.seq_s", reference_s);
    let p = Prepared {
        algo,
        g,
        source,
        reference,
    };
    println!(
        "graph: {} vertices, {} edges; source {} (out-degree {}); reference reaches {}",
        p.g.num_vertices(),
        p.g.num_edges(),
        source,
        p.g.degree(source),
        reached(&p.reference)
    );

    if !run.args.trace {
        let [t1, _] = t1_reps(&p, run, &mut setup, 1.0, min_reps);
        let s = summarize(&t1.job_s);
        println!("T=1 job_s: {s}");
        run.metrics.set("job_s", s.min);
        run.metrics.set("peak_heap_mb", peak_heap_mb());
    } else {
        traced_pass(&p, run, &mut setup, min_reps);
        run.metrics.set("bench.peak_rss_mb", peak_rss_mb());
    }
    setup.record(run, setup_times, 0.0, |_, _| 0.0);
}

/// The `--trace 1` pass: untraced and traced T=1 repetitions, the parallel
/// picture at `tn` threads, the plain run and the layer probes.
fn traced_pass(p: &Prepared, run: &mut Run, setup: &mut GraphSetup, min_reps: usize) {
    binio_roundtrip(run, &p.g);
    let [untraced, traced] = t1_reps(p, run, setup, 0.5, min_reps.max(4));

    let all_jobs: Vec<f64> = untraced
        .job_s
        .iter()
        .chain(&traced.job_s)
        .copied()
        .collect();
    let s = summarize(&all_jobs);
    println!("T=1 job_s: {s}");
    let job_s = s.min;
    let run_s = stats::min(&[&untraced.run_s[..], &traced.run_s[..]].concat());
    run.metrics.set("bench.reps", s.n as f64);
    run.metrics.set("bench.rel_iqr", s.rel_iqr);
    if let Some(ratio) = stats::paired_ratio(&traced.job_s, &untraced.job_s) {
        run.metrics.set("bench.trace_overhead_ratio", ratio - 1.0);
    }
    run.metrics.set(
        "algos.system_build_s",
        stats::min(&[&untraced.system_build_s[..], &traced.system_build_s[..]].concat()),
    );
    run.metrics.set("algos.run_s", run_s);
    let seq_s = run.metrics.get("algos.seq_s").unwrap_or(0.0);
    run.metrics
        .set("algos.tm_overhead_x", job_s / seq_s.max(1e-12));
    let edges = match p.algo {
        Algo::PageRank => (SWEEPS as u64) * p.g.num_edges(),
        _ => p.g.num_edges(),
    };
    run.metrics
        .set("algos.edges_per_s", edges as f64 / job_s.max(1e-12));

    // The parallel picture. Verified as strictly, bounded by a deadline,
    // never gated: on a shared host its medians move 2x between processes.
    let deadline = JobDeadline(Duration::from_secs_f64((DEADLINE_FACTOR * job_s).max(1.0)));
    run.tracer.set_enabled(false);
    let mut tn_jobs = Vec::new();
    let mut tn_attempts = Vec::new();
    let tn = run.tn;
    run.repeat(0.25, 2, |run| {
        if let Some((jr, stats, _)) = tufast_rep(p, tn, Some(deadline), "T=tn", run) {
            tn_jobs.push(jr.job_s);
            tn_attempts.push(counters::attempts_per_commit(&stats));
        }
    });
    run.tracer.set_enabled(true);
    let tn_s = summarize(&tn_jobs);
    println!("T={tn} job_s: {tn_s}");
    run.metrics.set("core.tn_threads", tn as f64);
    run.metrics.set("core.tn_job_s", tn_s.median);
    run.metrics
        .set("core.tn_speedup", job_s / tn_s.median.max(1e-12));
    run.metrics
        .set("txn.tn_attempts_per_commit", median(&tn_attempts));

    // The same driver and bodies with no TM at all: dispatch + body.
    let mut plain = Vec::new();
    for _ in 0..3 {
        let (jr, _) = job(p, 1, None, &mut Tracer::new(false), Plain::new);
        run.verifying(|run| verify(p, &jr, true, "plain", &mut run.tally));
        plain.push(jr.run_s);
    }
    let plain_run_s = stats::min(&plain);
    run.metrics.set("algos.plain_run_s", plain_run_s);

    let Some((stats, pool, reach)) = traced.last.or(untraced.last) else {
        return;
    };
    counters::record(&mut run.metrics, &stats, &pool);
    let items = stats.sched.commits as f64;
    run.metrics.set("algos.items", items);
    run.metrics
        .set("algos.reactivation_ratio", items / (reach as f64).max(1.0));

    // Probe x count: the estimated split of `algos.run`.
    let htm = probes::htm();
    let empty_txn_ns = probes::empty_txn_ns();
    let dispatch = probes::dispatch();
    htm.record(&mut run.metrics);
    dispatch.record(&mut run.metrics);
    run.metrics.set("txn.empty_txn_ns", empty_txn_ns);

    let run_ns = run_s * 1e9;
    let htm_share = htm.tax_ns(&stats.htm) / run_ns;
    let fixed_share = items * empty_txn_ns / run_ns;
    let per_item = match p.algo {
        Algo::PageRank => dispatch.parfor_ns,
        Algo::Bfs | Algo::Wcc => dispatch.steal_ns,
        Algo::Sssp => dispatch.bucket_ns,
    };
    let dispatch_share = items * per_item / run_ns;
    let body_share = (plain_run_s / run_s - dispatch_share).max(0.0);
    run.metrics.set("htm.est_share", htm_share);
    run.metrics.set("txn.est_fixed_share", fixed_share);
    run.metrics.set("core.est_dispatch_share", dispatch_share);
    run.metrics.set("algos.est_body_share", body_share);
    run.metrics.set(
        "algos.residual_share",
        1.0 - htm_share - fixed_share - dispatch_share - body_share,
    );
}
