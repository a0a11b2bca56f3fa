//! Figure 15: TuFast execution-trace breakdown by mode class.
//!
//! For RM and RW, report committed transactions and committed operations
//! per class H / O / O+ / O2L / L. Expected shape: transaction *counts*
//! overwhelmingly H (power law: most vertices are small); operation
//! *counts* show H and O both major, with L a small share of transactions
//! whose individual sizes are huge.

use std::sync::Arc;

use tufast::{ModeClass, TuFast, TuFastStats};
use tufast_bench::datasets::dataset;
use tufast_bench::harness::{banner, parse_args, print_counters, Table};
use tufast_bench::json::{append_record, JsonRecord};
use tufast_bench::workloads::{run_micro, setup_micro, uniform_picker, MicroWorkload};
use tufast_htm::HtmStats;
use tufast_txn::{HealthCounters, SchedStats};

fn main() {
    let args = parse_args();
    banner(
        "Figure 15",
        "TuFast mode breakdown (committed txns and ops per class), RM and RW on twitter-s",
        "txn counts dominated by H; op counts split across H and O; L few txns but huge ones",
    );
    let d = dataset("twitter-s", args.scale_delta);
    for workload in [MicroWorkload::ReadMostly, MicroWorkload::ReadWrite] {
        let (sys, values) = setup_micro(&d.graph);
        let sched = TuFast::new(Arc::clone(&sys));
        let (result, mut workers) = run_micro(
            &d.graph,
            &sched,
            &values,
            args.threads,
            args.txns,
            workload,
            uniform_picker(d.graph.num_vertices()),
        );
        let mut stats = TuFastStats::default();
        for w in &mut workers {
            stats.merge(&w.take_tufast_stats());
        }
        println!(
            "\n--- workload {} ({} committed txns) ---",
            workload.label(),
            result.stats.commits
        );
        let mut table = Table::new(&["class", "txns", "txn share", "ops", "op share"]);
        let total_txns = stats.modes.total_txns().max(1);
        let total_ops = stats.modes.total_ops().max(1);
        for class in ModeClass::ALL {
            table.row(&[
                class.label().to_string(),
                stats.modes.txns(class).to_string(),
                format!(
                    "{:.2}%",
                    100.0 * stats.modes.txns(class) as f64 / total_txns as f64
                ),
                stats.modes.ops(class).to_string(),
                format!(
                    "{:.2}%",
                    100.0 * stats.modes.ops(class) as f64 / total_ops as f64
                ),
            ]);
        }
        table.print();
        let health = sys.health().counters();
        print_counters("htm", HtmStats::NAMES, stats.htm.values());
        print_counters("txn", SchedStats::NAMES, stats.sched.values());
        print_counters("tufast", TuFastStats::NAMES, stats.values());
        print_counters("health", HealthCounters::NAMES, health.values());
        if let Some(path) = &args.json {
            let rec = JsonRecord::new()
                .str("figure", "fig15_mode_breakdown")
                .str("workload", workload.label())
                .num_u("threads", args.threads as u64)
                .counters(SchedStats::NAMES, stats.sched.values())
                .counters(TuFastStats::NAMES, stats.values())
                .counters(HealthCounters::NAMES, health.values());
            append_record(path, &rec).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        }
    }
}
