//! Figure 16: parameter sensitivity under a static workload.
//!
//! Sweeps the static `period` and the H-mode retry budget on the RM
//! workload. Expected shape (paper §VI-D): "TuFast is insensitive to
//! parameter selection when the workload is static" — throughput varies
//! only mildly across reasonable settings.

use std::sync::Arc;

use tufast::{TuFast, TuFastConfig};
use tufast_bench::datasets::dataset;
use tufast_bench::harness::{banner, fmt_rate, parse_args, Table};
use tufast_bench::workloads::{run_micro, setup_micro, uniform_picker, MicroWorkload};

fn main() {
    let args = parse_args();
    banner(
        "Figure 16",
        "sensitivity to static `period` and H-retry budget (RM workload, twitter-s)",
        "mild variation only: TuFast is insensitive to static parameter choice",
    );
    let d = dataset("twitter-s", args.scale_delta);

    let measure = |config: TuFastConfig| {
        let (sys, values) = setup_micro(&d.graph);
        let sched = TuFast::with_config(Arc::clone(&sys), config);
        let (result, _) = run_micro(
            &d.graph,
            &sched,
            &values,
            args.threads,
            args.txns / 2,
            MicroWorkload::ReadMostly,
            uniform_picker(d.graph.num_vertices()),
        );
        result.throughput
    };

    println!("\nStatic `period` sweep (adaptive selection off):");
    let mut table = Table::new(&["period", "throughput"]);
    for period in [100u32, 250, 500, 1000, 2000, 4000] {
        let t = measure(TuFastConfig::static_config(period));
        table.row(&[period.to_string(), fmt_rate(t)]);
    }
    table.print();

    println!("\nH-mode retry budget sweep (adaptive period on):");
    let mut table = Table::new(&["h_retries", "throughput"]);
    for h_retries in [1u32, 2, 4, 8, 16] {
        let t = measure(TuFastConfig {
            h_retries,
            ..TuFastConfig::default()
        });
        table.row(&[h_retries.to_string(), fmt_rate(t)]);
    }
    table.print();
    println!("\n(the paper studies both knobs and finds a plateau; large deviations at the");
    println!(" extremes — period 100 or 1 retry — are expected and match §IV-D's analysis)");
}
