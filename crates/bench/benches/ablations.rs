//! Criterion ablations of TuFast design choices called out in DESIGN.md:
//!
//! * H-mode retry budget (paper §IV-D / Figure 16);
//! * adaptive vs static period.

use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use tufast::{TuFast, TuFastConfig};
use tufast_bench::workloads::{run_one, uniform_picker, MicroWorkload};
use tufast_graph::gen;
use tufast_htm::MemoryLayout;
use tufast_txn::{GraphScheduler, TxnSystem};

const THREADS: usize = 4;
const TXNS_PER_ITER: usize = 2_000;

/// One multi-threaded batch of RM transactions under the given config.
fn run_batch(g: &tufast_graph::Graph, tf_config: TuFastConfig) {
    let mut layout = MemoryLayout::new();
    let values = layout.alloc("values", g.num_vertices() as u64);
    let sys = TxnSystem::with_defaults(g.num_vertices(), layout);
    let sched = TuFast::with_config(Arc::clone(&sys), tf_config);
    let picker = uniform_picker(g.num_vertices());
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let cursor = &cursor;
            let picker = &picker;
            let sys = &sys;
            let values = &values;
            let mut worker = sched.worker();
            s.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= TXNS_PER_ITER {
                    break;
                }
                run_one(
                    g,
                    sys,
                    values,
                    &mut worker,
                    picker(i as u64),
                    MicroWorkload::ReadMostly,
                );
            });
        }
    });
}

fn bench_ablations(c: &mut Criterion) {
    let g = gen::rmat(12, 16, 99);

    let mut group = c.benchmark_group("ablations");
    group.sample_size(10);

    for retries in [1u32, 4, 16] {
        group.bench_function(format!("h_retries_{retries}"), |b| {
            b.iter(|| {
                run_batch(
                    &g,
                    TuFastConfig {
                        h_retries: retries,
                        ..TuFastConfig::default()
                    },
                )
            });
        });
    }

    group.bench_function("period_adaptive", |b| {
        b.iter(|| run_batch(&g, TuFastConfig::default()));
    });
    group.bench_function("period_static_1000", |b| {
        b.iter(|| run_batch(&g, TuFastConfig::static_config(1000)));
    });

    group.finish();
}

fn short() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(1))
        .sample_size(10)
}

criterion_group! {
    name = benches;
    config = short();
    targets = bench_ablations
}
criterion_main!(benches);
