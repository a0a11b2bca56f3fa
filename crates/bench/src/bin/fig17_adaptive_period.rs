//! Figure 17: adaptive vs static `period` over a PageRank execution.
//!
//! Paper setup: PageRank on uk-2007-05; as the computation progresses,
//! converged low-degree vertices drop out and the remaining work
//! concentrates on high-degree, high-contention vertices — a static
//! `period` (1000) loses throughput, while the adaptive one tracks the
//! workload. Reported per sweep: throughput for both settings and the
//! adaptive period's value.

use std::sync::Arc;

use tufast::{TuFast, TuFastConfig, TxnSystem, TxnWorker};
use tufast_bench::datasets::dataset;
use tufast_bench::harness::{banner, fmt_rate, parse_args, Table};
use tufast_htm::{f64_to_word, word_to_f64};

fn main() {
    let args = parse_args();
    banner(
        "Figure 17",
        "adaptive vs static period across PageRank sweeps on uk-s",
        "adaptive ≥ static throughput, gap widening in late sweeps; period drifts with contention",
    );
    let d = dataset("uk-s", args.scale_delta);
    let g = &d.graph;
    let sweeps = 8;

    let run = |adaptive: bool| -> Vec<(f64, f64)> {
        // Returns per-sweep (throughput, mean period).
        let mut layout = tufast_htm::MemoryLayout::new();
        let rank = layout.alloc("rank", g.num_vertices() as u64);
        let sys = TxnSystem::with_defaults(g.num_vertices(), layout);
        let config = if adaptive {
            TuFastConfig::default()
        } else {
            TuFastConfig::static_config(1000)
        };
        let sched = TuFast::with_config(Arc::clone(&sys), config);
        sys.mem()
            .fill_region(&rank, f64_to_word(1.0 / g.num_vertices() as f64));
        let base = (1.0 - 0.85) / g.num_vertices() as f64;

        let mut series = Vec::new();
        for _ in 0..sweeps {
            let t0 = std::time::Instant::now();
            let mut workers =
                tufast::par::parallel_for(&sched, args.threads, g.num_vertices(), |worker, v| {
                    let degree = g.in_degree(v) + 1;
                    worker.execute(TxnSystem::neighborhood_hint(degree), &mut |ops| {
                        let mut sum = 0.0;
                        for &u in g.in_neighbors(v) {
                            let ru = word_to_f64(ops.read(u, rank.addr(u64::from(u)))?);
                            sum += ru / g.degree(u) as f64;
                        }
                        ops.write(v, rank.addr(u64::from(v)), f64_to_word(base + 0.85 * sum))
                    });
                });
            let secs = t0.elapsed().as_secs_f64();
            let mut stats = tufast::TuFastStats::default();
            for w in &mut workers {
                stats.merge(&w.take_tufast_stats());
            }
            series.push((g.num_vertices() as f64 / secs, stats.mean_period()));
        }
        series
    };

    let adaptive = run(true);
    let static_ = run(false);

    let mut table = Table::new(&[
        "sweep",
        "adaptive tput",
        "static tput",
        "adaptive/static",
        "mean period (adaptive)",
    ]);
    for i in 0..sweeps {
        table.row(&[
            (i + 1).to_string(),
            fmt_rate(adaptive[i].0),
            fmt_rate(static_[i].0),
            format!("{:.2}x", adaptive[i].0 / static_[i].0.max(1e-9)),
            format!("{:.0}", adaptive[i].1),
        ]);
    }
    table.print();
    let sum = |s: &[(f64, f64)]| s.iter().map(|x| x.0).sum::<f64>();
    println!(
        "\noverall adaptive/static speedup: {:.2}x  (paper: 'adaptive parameter selection increases the throughput significantly')",
        sum(&adaptive) / sum(&static_).max(1e-9)
    );
}
