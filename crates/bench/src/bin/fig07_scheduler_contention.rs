//! Figure 7: classical schedulers vs contention rate.
//!
//! Paper setup: a synthetic even-degree graph; the contention rate is
//! controlled through the workload (here: the size of the hot vertex pool
//! every transaction samples from). Expected shape: *no consistent
//! winner* — OCC wins near zero contention, 2PL wins at high contention,
//! TO in between; all three cross.

use std::sync::Arc;

use tufast_bench::harness::{banner, fmt_rate, parse_args, Table};
use tufast_bench::workloads::{run_micro_opts, setup_micro, uniform_picker, MicroWorkload};
use tufast_graph::gen;
use tufast_txn::{Occ, TimestampOrdering, TwoPhaseLocking};

fn main() {
    let args = parse_args();
    banner(
        "Figure 7",
        "2PL vs OCC vs TO throughput across contention rates (even-degree synthetic graph)",
        "no consistent winner: OCC best at ~zero contention, 2PL best at high contention",
    );

    // Even-degree synthetic graph (Erdős–Rényi), per the paper. Large
    // enough that uniformly random degree-8 neighbourhoods essentially
    // never overlap — the "~0 contention" end of the sweep must be real.
    let n = 1usize << (17 + args.scale_delta.max(-6)).max(10);
    let g = gen::erdos_renyi(n, n * 8, 0xF167);

    // Contention knob: the hot-pool size every transaction samples from
    // (descending pool = ascending contention).
    let mut pools: Vec<usize> = vec![n, n / 8, n / 64, n / 512, 16, 4];
    pools.sort_unstable_by(|a, b| b.cmp(a));
    pools.dedup();

    let mut table = Table::new(&[
        "hot pool",
        "contention",
        "2PL",
        "eff",
        "OCC",
        "eff",
        "TO",
        "eff",
        "winner",
    ]);
    for &pool in &pools {
        let mut best = ("-", 0.0f64);
        let mut rates = Vec::new();
        let mut effs = Vec::new();
        // Each scheduler gets a fresh system (fresh locks and timestamps).
        macro_rules! measure {
            ($name:expr, $ctor:expr) => {{
                let (sys, values) = setup_micro(&g);
                let sched = $ctor(Arc::clone(&sys));
                // conflict_window = true: transactions yield mid-body so
                // they genuinely interleave even with cores < workers (see
                // run_micro_opts docs and EXPERIMENTS.md).
                let (result, _) = run_micro_opts(
                    &g,
                    &sched,
                    &values,
                    args.threads,
                    args.txns / 4,
                    MicroWorkload::ReadWrite,
                    uniform_picker(pool),
                    true,
                );
                if result.throughput > best.1 {
                    best = ($name, result.throughput);
                }
                rates.push(result.throughput);
                effs.push(result.stats.efficiency());
            }};
        }
        measure!("2PL", TwoPhaseLocking::new);
        measure!("OCC", Occ::new);
        measure!("TO", TimestampOrdering::new);
        let contention = if pool >= n {
            "~0".to_string()
        } else {
            format!("1/{pool}")
        };
        table.row(&[
            pool.to_string(),
            contention,
            fmt_rate(rates[0]),
            format!("{:.2}", effs[0]),
            fmt_rate(rates[1]),
            format!("{:.2}", effs[1]),
            fmt_rate(rates[2]),
            format!("{:.2}", effs[2]),
            best.0.to_string(),
        ]);
    }
    table.print();
    println!(
        "\n(throughput = committed RW neighbourhood transactions/second, {} threads;",
        args.threads
    );
    println!(" eff = commits / attempts — falling efficiency is the contention taking hold.");
    println!(" Single-core caveat: blocking degenerates under preemption, so which scheduler");
    println!(" wins the high-contention end differs from the paper's multicore result — the");
    println!(" schedulers still differentiate sharply with contention; see EXPERIMENTS.md.)");
}
