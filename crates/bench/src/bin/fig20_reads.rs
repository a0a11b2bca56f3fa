//! Figure 20 (repo extension): R-mode read throughput.
//!
//! Two pure-read workloads run twice through the same TuFast scheduler on
//! a quiesced graph, differing only in the `BEGIN` hint:
//!
//! * **R arm** — `TxnHint::read_only`: the body is declared pure and
//!   rides the R-mode snapshot path (no locks, no read-set logging, no
//!   hardware transaction);
//! * **H arm** — a plain sized hint: the identical body takes TuFast's
//!   ordinary route (H-mode hardware transactions for these small
//!   read sets).
//!
//! Workloads:
//!
//! 1. **PageRank-pull** — one pull-only rank round over in-neighbours
//!    (`pagerank::pull_round`), the paper's flagship pull pattern;
//! 2. **Zipfian k-hop point queries** — seeded skewed point lookups
//!    walking 3 hops from a Zipf(0.8)-drawn start vertex
//!    (`zipfian_picker` + `run_point_queries`).
//!
//! Both arms replay identical work, so results are cross-checked bitwise
//! (rank vectors / query checksums). Raw wall-clock ratio is the
//! headline; the hardware-calibrated ratio (emulation tax refunded to the
//! H arm, see EXPERIMENTS.md) is printed beside it. With `--json <path>`
//! records go to `BENCH_reads.json`, tracking the R fast path across PRs.

use std::sync::Arc;

use tufast::TuFast;
use tufast_algos::pagerank::{self, PageRankSpace};
use tufast_bench::datasets::dataset;
use tufast_bench::harness::{banner, fmt_rate, parse_args, Table};
use tufast_bench::json::{append_record, JsonRecord};
use tufast_bench::workloads::{calibrate_htm_tax, run_point_queries, setup_micro, zipfian_picker};
use tufast_htm::{f64_to_word, MemoryLayout};
use tufast_txn::{SchedStats, TxnSystem, TxnWorker};

/// Point-query walk length.
const HOPS: usize = 3;

/// Zipf skew for the point-query start vertices (YCSB's default shape).
const THETA: f64 = 0.8;

fn main() {
    let args = parse_args();
    banner(
        "Figure 20",
        "R-mode read throughput: declared-pure snapshot reads vs the ordinary H path, PageRank-pull and Zipfian point queries on twitter-s",
        "R well above H raw (no per-read HTM bookkeeping); still ahead calibrated (no read-set logging at all)",
    );
    let d = dataset("twitter-s", args.scale_delta);
    let tax = calibrate_htm_tax();
    println!(
        "\n|V|={} |E|={}, {} threads, emulation tax {:.1}ns/htm-op\n",
        d.graph.num_vertices(),
        d.graph.num_edges(),
        args.threads,
        tax * 1e9
    );

    let mut table = Table::new(&[
        "workload",
        "arm",
        "txns",
        "secs",
        "raw tput",
        "calibrated",
        "r-commits",
        "r-retries",
    ]);
    let mut ratios: Vec<(String, f64, f64)> = Vec::new();

    // --- Workload 1: PageRank-pull rounds -------------------------------
    {
        let mut layout = MemoryLayout::new();
        let space = PageRankSpace::alloc(&mut layout, d.graph.num_vertices());
        let sys = TxnSystem::with_defaults(d.graph.num_vertices(), layout);
        // Quiesced non-uniform ranks: every pull mixes real values.
        sys.mem()
            .fill_region_with(&space.rank, |v| f64_to_word(1.0 / (v + 2) as f64));
        let sched = TuFast::new(Arc::clone(&sys));
        let n = d.graph.num_vertices();
        let rounds = (args.txns / n).clamp(2, 20);

        let mut arms = Vec::new();
        for (arm, pure) in [("R", true), ("H", false)] {
            let t0 = std::time::Instant::now();
            let mut ranks = Vec::new();
            let mut stats = SchedStats::default();
            let mut htm_ops = 0u64;
            for _ in 0..rounds {
                let (next, workers) =
                    pagerank::pull_round(&d.graph, &sched, &space, args.threads, 0.85, pure);
                ranks = next;
                for mut w in workers {
                    stats.merge(&w.take_stats());
                    htm_ops += w.htm_ops();
                }
            }
            let secs = t0.elapsed().as_secs_f64();
            arms.push((arm, secs, stats, htm_ops, ranks));
        }
        let (r, h) = (&arms[0], &arms[1]);
        assert!(
            r.4.iter()
                .zip(h.4.iter())
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "R and H pull rounds diverged on a quiesced graph"
        );
        let txns = (rounds * n) as u64;
        report(
            &mut table,
            &mut ratios,
            &args,
            "pagerank-pull",
            txns,
            tax,
            arms.iter().map(|(a, s, st, ho, _)| (*a, *s, st, *ho)),
        );
    }

    // --- Workload 2: Zipfian k-hop point queries ------------------------
    {
        let (sys, values) = setup_micro(&d.graph);
        sys.mem()
            .fill_region_with(&values, |v| v.wrapping_mul(0x9E37_79B9) + 1);
        let sched = TuFast::new(Arc::clone(&sys));
        let n = d.graph.num_vertices();
        let txns = args.txns.max(1);

        let mut arms = Vec::new();
        for (arm, pure) in [("R", true), ("H", false)] {
            let res = run_point_queries(
                &d.graph,
                &sched,
                &values,
                args.threads,
                txns,
                HOPS,
                zipfian_picker(n, THETA, 0x20F1),
                pure,
            );
            arms.push((arm, res));
        }
        assert_eq!(
            arms[0].1.checksum, arms[1].1.checksum,
            "R and H point-query checksums diverged on a quiesced graph"
        );
        report(
            &mut table,
            &mut ratios,
            &args,
            "zipfian-khop",
            txns as u64,
            tax,
            arms.iter().map(|(a, r)| (*a, r.secs, &r.stats, r.htm_ops)),
        );
    }

    println!();
    table.print();
    println!();
    for (workload, raw, calibrated) in &ratios {
        println!("  {workload}: R/H throughput ratio {raw:.2}x raw, {calibrated:.2}x calibrated");
    }
    println!("\n(identical bodies and query streams; arms differ only in the read_only hint)");
}

/// Fold one workload's two arms into the table, the ratio list, and the
/// JSON log.
fn report<'a>(
    table: &mut Table,
    ratios: &mut Vec<(String, f64, f64)>,
    args: &tufast_bench::harness::BenchArgs,
    workload: &str,
    txns: u64,
    tax: f64,
    arms: impl Iterator<Item = (&'a str, f64, &'a SchedStats, u64)>,
) {
    let mut rates = Vec::new();
    for (arm, secs, stats, htm_ops) in arms {
        let raw = stats.commits as f64 / secs.max(1e-12);
        let discounted = (secs - htm_ops as f64 * tax).max(secs * 0.02);
        let calibrated = stats.commits as f64 / discounted;
        table.row(&[
            workload.to_string(),
            arm.to_string(),
            txns.to_string(),
            format!("{secs:.4}"),
            fmt_rate(raw),
            fmt_rate(calibrated),
            stats.r_commits.to_string(),
            stats.r_retries.to_string(),
        ]);
        if arm == "R" {
            assert_eq!(
                stats.r_commits, stats.commits,
                "{workload}: declared-pure reads fell off the R fast path"
            );
        }
        if let Some(path) = &args.json {
            let rec = JsonRecord::new()
                .str("figure", "fig20_reads")
                .str("workload", workload)
                .str("arm", arm)
                .num_u("threads", args.threads as u64)
                .num_u("txns", txns)
                .num_f("secs", secs)
                .num_f("throughput", raw)
                .num_f("calibrated_throughput", calibrated)
                .num_u("htm_ops", htm_ops)
                .num_u("r_commits", stats.r_commits)
                .num_u("r_retries", stats.r_retries);
            append_record(path, &rec).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        }
        rates.push((raw, calibrated));
    }
    let raw_ratio = rates[0].0 / rates[1].0.max(1e-12);
    let cal_ratio = rates[0].1 / rates[1].1.max(1e-12);
    ratios.push((workload.to_string(), raw_ratio, cal_ratio));
    if let Some(path) = &args.json {
        let rec = JsonRecord::new()
            .str("figure", "fig20_reads")
            .str("workload", workload)
            .str("arm", "ratio")
            .num_u("threads", args.threads as u64)
            .num_f("r_over_h_raw", raw_ratio)
            .num_f("r_over_h_calibrated", cal_ratio);
        append_record(path, &rec).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    }
}
