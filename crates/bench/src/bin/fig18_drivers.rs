//! Figure 18 (repo extension): work-distribution head-to-head.
//!
//! The same four algorithm drivers (BFS, Components, SSSP-FIFO,
//! SSSP-priority) run on the *centralized* pools (one shared queue / one
//! global mutexed heap) and on the *scalable* pools (per-worker stealing
//! deques / delta-stepping buckets), same graph, same scheduler, same
//! process. Results are cross-checked bitwise; throughput (edges/s) plus
//! the new scheduling counters go to stdout and — with `--json <path>` —
//! into a machine-readable record per row, so the drivers' perf
//! trajectory is tracked across PRs (`BENCH_drivers.json`).

use std::sync::Arc;

use tufast::par::{FifoPool, PriorityPool, WorkPool};
use tufast::{PoolCounters, StealPool, TuFast};
use tufast_algos as algos;
use tufast_bench::datasets::{dataset, symmetric_view};
use tufast_bench::harness::{banner, fmt_rate, parse_args, print_counters, time, Table};
use tufast_bench::json::{append_record, commit_id, JsonRecord};
use tufast_graph::{gen, Graph, VertexId};

/// Timed repetitions per cell; best-of to damp scheduler noise.
const REPS: usize = 5;

/// Datasets for the head-to-head: one social-skew, one web-skew graph.
const DATASETS: [&str; 2] = ["twitter-s", "sk-s"];

fn main() {
    let args = parse_args();
    banner(
        "Figure 18",
        "algorithm drivers on centralized vs work-stealing/bucketed pools (edges/s, higher is better)",
        "stealing FIFO driver and bucketed SSSP each beat the centralized baseline",
    );
    let mut table = Table::new(&["dataset", "algorithm", "centralized", "scalable", "speedup"]);
    let mut merged = PoolCounters::default();
    let commit = commit_id();
    for name in DATASETS {
        let d = dataset(name, args.scale_delta);
        let sym = symmetric_view(&d.graph);
        let weighted = gen::with_random_weights(&d.graph, 100, 0x5EED);
        println!(
            "\n--- dataset {} (|V|={}, |E|={}) ---",
            name,
            d.graph.num_vertices(),
            d.graph.num_edges()
        );
        for algo in ["BFS", "Components", "SSSP-fifo", "SSSP-delta"] {
            let row = run_cell(algo, &d.graph, &sym, &weighted, args.threads, &mut merged);
            let speedup = row.scalable_eps / row.centralized_eps.max(1e-9);
            table.row(&[
                name.to_string(),
                algo.to_string(),
                fmt_rate(row.centralized_eps),
                fmt_rate(row.scalable_eps),
                format!("{speedup:.2}x"),
            ]);
            if let Some(path) = &args.json {
                for (pool, eps, secs, counters) in [
                    (
                        "centralized",
                        row.centralized_eps,
                        row.centralized_secs,
                        &row.centralized_counters,
                    ),
                    (
                        "scalable",
                        row.scalable_eps,
                        row.scalable_secs,
                        &row.scalable_counters,
                    ),
                ] {
                    let rec = JsonRecord::new()
                        .str("figure", "fig18_drivers")
                        .str("commit", &commit)
                        .str("dataset", name)
                        .str("algorithm", algo)
                        .str("pool", pool)
                        .num_u("threads", args.threads as u64)
                        .num_u("edges", row.edges)
                        .num_f("secs", secs)
                        .num_f("edges_per_sec", eps)
                        .counters(PoolCounters::NAMES, counters.values());
                    append_record(path, &rec)
                        .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
                }
            }
        }
    }
    println!();
    table.print();
    print_counters("scheduling", PoolCounters::NAMES, merged.values());
    println!(
        "\n(best of {REPS} reps per cell; {} threads; scale {})",
        args.threads, args.scale_delta
    );
}

/// The max-out-degree vertex, lowest id on ties.
fn hub(g: &Graph) -> VertexId {
    (0..g.num_vertices() as VertexId)
        .rev()
        .max_by_key(|&v| g.degree(v))
        .unwrap_or(0)
}

struct Cell {
    edges: u64,
    centralized_secs: f64,
    centralized_eps: f64,
    centralized_counters: PoolCounters,
    scalable_secs: f64,
    scalable_eps: f64,
    scalable_counters: PoolCounters,
}

/// Best-of-REPS timing of `algo` on pools from `new_pool`, with the last
/// result and the pools' counters.
///
/// Setup (layout + system build) happens per rep *outside* the timed
/// section — it is identical for both pools and would only dilute the
/// dispatch-path difference this figure measures. The pool is built
/// inside it, as the library's own drivers build theirs.
fn best_of<P: WorkPool>(
    algo: &str,
    (g, sym, weighted): (&Graph, &Graph, &Graph),
    source: VertexId,
    threads: usize,
    new_pool: impl Fn() -> P,
) -> (Vec<u64>, f64, PoolCounters) {
    let mut best = f64::MAX;
    let mut out = Vec::new();
    let mut counters = PoolCounters::default();
    for _ in 0..REPS {
        let _ = tufast::take_sched_counters(); // clear residue
        let (result, secs) = match algo {
            "BFS" => {
                let b = algos::setup(g, algos::bfs::BfsSpace::alloc);
                let sched = TuFast::new(Arc::clone(&b.sys));
                let (sys, space) = (&b.sys, &b.space);
                time(|| {
                    let pool = new_pool();
                    algos::bfs::parallel_on(g, &sched, sys, space, source, threads, &pool, None)
                })
            }
            "Components" => {
                let b = algos::setup(sym, algos::wcc::WccSpace::alloc);
                let sched = TuFast::new(Arc::clone(&b.sys));
                let (sys, space) = (&b.sys, &b.space);
                time(|| {
                    let pool = new_pool();
                    algos::wcc::parallel_on(sym, &sched, sys, space, threads, &pool, None)
                })
            }
            "SSSP-fifo" | "SSSP-delta" => {
                let b = algos::setup(weighted, algos::sssp::SsspSpace::alloc);
                let sched = TuFast::new(Arc::clone(&b.sys));
                let (g, sys, space) = (weighted, &b.sys, &b.space);
                time(|| {
                    let pool = new_pool();
                    algos::sssp::parallel_on(g, &sched, sys, space, source, threads, &pool, None)
                })
            }
            other => panic!("unknown algorithm {other}"),
        };
        counters.merge(&tufast::take_sched_counters());
        if secs < best {
            best = secs;
        }
        out = result.expect("only a resume can fail").0;
    }
    (out, best, counters)
}

/// Run one `(algorithm, pool)` matrix cell: both pool implementations,
/// bitwise cross-check, best-of-REPS timing each.
fn run_cell(
    algo: &str,
    g: &Graph,
    sym: &Graph,
    weighted: &Graph,
    threads: usize,
    merged: &mut PoolCounters,
) -> Cell {
    // Vertex 0 of an R-MAT graph may have no out-edges, which would make
    // the traversal cells time a one-vertex job.
    let source = hub(g);
    let graphs = (g, sym, weighted);
    let ((r_central, t_central, c_central), (r_scalable, t_scalable, c_scalable)) =
        if algo == "SSSP-delta" {
            let buckets = || algos::sssp::bucket_pool(weighted);
            (
                best_of(algo, graphs, source, threads, PriorityPool::new),
                best_of(algo, graphs, source, threads, buckets),
            )
        } else {
            (
                best_of(algo, graphs, source, threads, FifoPool::new),
                best_of(algo, graphs, source, threads, || StealPool::new(threads)),
            )
        };
    assert_eq!(
        r_central, r_scalable,
        "{algo}: pool implementations disagree"
    );
    if algo != "Components" {
        let reached = r_scalable.iter().filter(|&&d| d != u64::MAX).count();
        assert!(
            2 * reached >= g.num_vertices(),
            "{algo}: source {source} reaches {reached} of {} vertices, below the 50 % guard",
            g.num_vertices()
        );
    }

    let edges = match algo {
        "Components" => sym.num_edges(),
        _ => g.num_edges(),
    };
    merged.merge(&c_central);
    merged.merge(&c_scalable);
    Cell {
        edges,
        centralized_secs: t_central,
        centralized_eps: edges as f64 / t_central.max(1e-9),
        centralized_counters: c_central,
        scalable_secs: t_scalable,
        scalable_eps: edges as f64 / t_scalable.max(1e-9),
        scalable_counters: c_scalable,
    }
}
