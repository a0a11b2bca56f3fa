//! Figure 19 (repo extension): durable graph-mutation throughput.
//!
//! A scripted stream of `add_edge`/`remove_edge`/`add_vertex`
//! transactions runs through three commit paths over the same base
//! graph:
//!
//! * `volatile`   — the delta overlay alone (no WAL): the upper bound,
//!   what mutations cost before durability;
//! * `wal-every`  — durable commits with an fsync per commit
//!   (`SyncPolicy::EveryCommit`): the safest and slowest configuration;
//! * `wal-group`  — durable commits with group-commit fsync batching
//!   (`SyncPolicy::Group`): one fsync amortized over a batch, the
//!   configuration the durability matrix exercises under power cuts.
//!
//! All three paths are cross-checked: the materialized graphs must be
//! identical. Throughput (mutations/s) goes to stdout and — with
//! `--json <path>` — to `BENCH_mutations.json`, tracking the durable
//! commit path's perf across PRs.

use std::path::PathBuf;
use std::sync::Arc;

use tufast_bench::harness::{banner, fmt_rate, parse_args, time, Table};
use tufast_bench::json::{append_record, JsonRecord};
use tufast_graph::durable::{self, DurableOpen};
use tufast_graph::mutable::{MutableGraph, MutationOutcome, OverlayConfig};
use tufast_graph::wal::{Mutation, SyncPolicy, WalIoCounts};
use tufast_graph::{gen, Graph, VertexId};
use tufast_htm::MemoryLayout;
use tufast_txn::{GraphScheduler, SystemConfig, TwoPhaseLocking, TxnSystem};

/// Timed repetitions per row; best-of to damp fsync jitter.
const REPS: usize = 3;

/// Group-commit batch size for the `wal-group` row.
const GROUP: u32 = 32;

fn main() {
    let args = parse_args();
    // Mutations are fsync-bound, not CPU-bound: scale the script with
    // --txns but keep the default laptop-friendly.
    let count = (args.txns / 40).clamp(500, 20_000);
    banner(
        "Figure 19",
        "durable mutation throughput: volatile overlay vs WAL per-commit fsync vs group commit (mutations/s)",
        "group commit recovers most of the volatile rate; per-commit fsync pays the full disk round-trip",
    );

    let base = gen::rmat(12, 8, 0x19F1);
    let capacity = base.num_vertices() + count;
    let overlay = OverlayConfig {
        slot_cap: (count as u64 * 2).next_power_of_two(),
        stripes: 64,
    };
    let script = mutation_script(base.num_vertices(), capacity, count, 0x19F2);
    println!(
        "\nbase |V|={} |E|={}, {} scripted mutations\n",
        base.num_vertices(),
        base.num_edges(),
        script.len()
    );

    let mut table = Table::new(&[
        "commit path",
        "writes",
        "fsyncs",
        "secs",
        "mutations/s",
        "vs volatile",
    ]);
    let mut rows: Vec<(String, WalIoCounts, f64, f64)> = Vec::new();
    let mut graphs: Vec<Graph> = Vec::new();

    for mode in ["volatile", "wal-every", "wal-group"] {
        let mut best = f64::MAX;
        let mut io = WalIoCounts::default();
        let mut materialized = None;
        for rep in 0..REPS {
            let (g, secs, counts) = run_script(mode, &base, capacity, overlay, &script, rep);
            if secs < best {
                best = secs;
            }
            io = counts;
            materialized = Some(g);
        }
        rows.push((
            mode.to_string(),
            io,
            best,
            script.len() as f64 / best.max(1e-9),
        ));
        graphs.push(materialized.expect("at least one rep"));
    }
    let all_equal = graphs.windows(2).all(|w| w[0] == w[1]);
    assert!(all_equal, "commit paths must produce identical graphs");

    let volatile_rate = rows[0].3;
    for (mode, io, secs, rate) in &rows {
        table.row(&[
            mode.clone(),
            io.writes.to_string(),
            io.fsyncs.to_string(),
            format!("{secs:.4}"),
            fmt_rate(*rate),
            format!("{:.2}x", rate / volatile_rate.max(1e-9)),
        ]);
        if let Some(path) = &args.json {
            let rec = JsonRecord::new()
                .str("figure", "fig19_mutations")
                .str("path", mode)
                .num_u("mutations", script.len() as u64)
                .num_u(
                    "group_size",
                    if mode == "wal-group" {
                        u64::from(GROUP)
                    } else {
                        1
                    },
                )
                .num_u("writes", io.writes)
                .num_u("fsyncs", io.fsyncs)
                .num_f("secs", *secs)
                .num_f("mutations_per_sec", *rate);
            append_record(path, &rec).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        }
    }
    println!();
    table.print();
    println!("\n(best of {REPS} reps; single mutator — the commit lock serializes writers)");
}

/// Deterministic mutation mix: 70% adds, 25% removes, 5% vertex adds.
fn mutation_script(base_nv: usize, capacity: usize, count: usize, seed: u64) -> Vec<Mutation> {
    let mut state = seed;
    let mut rng = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut live = base_nv as u32;
    let mut script = Vec::with_capacity(count);
    while script.len() < count {
        let roll = rng() % 100;
        let src = (rng() % u64::from(live)) as VertexId;
        let mut dst = (rng() % u64::from(live)) as VertexId;
        if dst == src {
            dst = (dst + 1) % live;
        }
        if roll < 70 {
            script.push(Mutation::AddEdge {
                src,
                dst,
                weight: 0,
            });
        } else if roll < 95 {
            script.push(Mutation::RemoveEdge { src, dst });
        } else if (live as usize) < capacity {
            live += 1;
            script.push(Mutation::AddVertex);
        }
    }
    script
}

/// Run the script through one commit path; returns (materialized graph,
/// seconds, the log writer's measured write and fsync counts).
fn run_script(
    mode: &str,
    base: &Graph,
    capacity: usize,
    overlay: OverlayConfig,
    script: &[Mutation],
    rep: usize,
) -> (Graph, f64, WalIoCounts) {
    if mode == "volatile" {
        let mut layout = MemoryLayout::new();
        let mg = MutableGraph::carve(base.clone(), capacity, overlay, &mut layout);
        let sys = TxnSystem::build(capacity, layout, SystemConfig::default());
        mg.init(sys.mem());
        let sched = TwoPhaseLocking::new(Arc::clone(&sys));
        let mut w = sched.worker();
        let (_, secs) = time(|| {
            for m in script {
                apply_volatile(&mg, &mut w, *m);
            }
        });
        return (mg.materialize(sys.mem()), secs, WalIoCounts::default());
    }

    let policy = match mode {
        "wal-every" => SyncPolicy::EveryCommit,
        "wal-group" => SyncPolicy::Group { max_pending: GROUP },
        other => panic!("unknown mode {other}"),
    };
    let dir = bench_dir(mode, rep);
    durable::init_dir(&dir, base, capacity, overlay).expect("init durable dir");
    let mut layout = MemoryLayout::new();
    let prep = DurableOpen::begin(&dir, policy, &mut layout).expect("durable open");
    let sys = TxnSystem::build(prep.capacity(), layout, SystemConfig::default());
    let (dg, _) = prep.finish(&sys).expect("durable recovery");
    let sched = TwoPhaseLocking::new(Arc::clone(&sys));
    let mut w = sched.worker();
    let (_, secs) = time(|| {
        for m in script {
            let outcome = match *m {
                Mutation::AddEdge { src, dst, weight } => {
                    dg.add_edge(&mut w, src, dst, weight).expect("wal io")
                }
                Mutation::RemoveEdge { src, dst } => {
                    dg.remove_edge(&mut w, src, dst).expect("wal io")
                }
                Mutation::AddVertex => dg
                    .add_vertex(&mut w)
                    .expect("wal io")
                    .map_or(MutationOutcome::OverlayFull, |_| MutationOutcome::Applied),
            };
            assert_eq!(outcome, MutationOutcome::Applied, "script sized to fit");
        }
        dg.sync().expect("final sync"); // drain the last group
    });
    let io = dg.wal_io_counts();
    let g = dg.materialize();
    let _ = std::fs::remove_dir_all(&dir);
    (g, secs, io)
}

fn apply_volatile(mg: &MutableGraph, w: &mut impl tufast_txn::TxnWorker, m: Mutation) {
    let outcome = match m {
        Mutation::AddEdge { src, dst, weight } => mg.add_edge(w, src, dst, weight),
        Mutation::RemoveEdge { src, dst } => mg.remove_edge(w, src, dst),
        Mutation::AddVertex => mg
            .add_vertex(w)
            .map_or(MutationOutcome::OverlayFull, |_| MutationOutcome::Applied),
    };
    assert_eq!(outcome, MutationOutcome::Applied, "script sized to fit");
}

fn bench_dir(mode: &str, rep: usize) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("tufast-fig19-{mode}-{rep}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}
