//! The TuFast benchmark: eight seeded workloads, each one path through
//! the library, measured from outside the crates through their public
//! functions and counters. See `README.md`.
//!
//! ```text
//! tufast-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!                  [--scale D] [--reps N] [--smoke]
//! tufast-benchmark --calibrate                # two sets of runs, writes bounds
//! ```
//!
//! The last line of standard output of a workload run is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod analytics;
mod calibrate;
mod counters;
mod harness;
mod heap;
mod inputs;
mod json;
mod mutations;
mod probes;
mod registry;
mod sched;
mod stats;
mod trace;
mod txn;

use std::process::ExitCode;

use analytics::Algo;
use harness::{header, work_root, Run, RunArgs, DEFAULT_SEED, GATED_SCALE};
use json::Json;
use mutations::Gated;
use registry::registry;
use txn::Class;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

enum Mode {
    Run(RunArgs),
    Calibrate,
}

/// The code behind a workload name of `BENCHMARK.json`.
#[derive(Clone, Copy)]
enum Workload {
    Analytics(Algo),
    Txn(Class),
    Mutations(Gated),
}

impl Workload {
    fn from_name(name: &str) -> Option<Workload> {
        Some(match name {
            "pagerank" => Workload::Analytics(Algo::PageRank),
            "bfs" => Workload::Analytics(Algo::Bfs),
            "wcc" => Workload::Analytics(Algo::Wcc),
            "sssp" => Workload::Analytics(Algo::Sssp),
            "txn-rw" => Workload::Txn(Class::Rw),
            "txn-ro" => Workload::Txn(Class::Ro),
            "mut-volatile" => Workload::Mutations(Gated::Volatile),
            "mut-durable" => Workload::Mutations(Gated::Durable),
            _ => return None,
        })
    }
}

fn usage() -> String {
    format!(
        "usage: tufast-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] \
         [--scale D] [--reps N] [--smoke]\n       tufast-benchmark --calibrate",
        registry().workloads.join("|")
    )
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(argv: &[String]) -> Result<Mode, String> {
    let mut args = RunArgs {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: registry().run_seconds as f64,
        trace: false,
        scale: GATED_SCALE,
        reps: None,
    };
    let mut calibrate = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}\n{}", usage()))
        };
        let bad = |v: &str| format!("bad value {v:?} for {flag}\n{}", usage());
        match flag.as_str() {
            "--workload" => args.workload = value("a name")?.clone(),
            "--seed" => {
                let v = value("a number")?;
                args.seed = parse_u64(v).ok_or_else(|| bad(v))?;
            }
            "--seconds" => {
                let v = value("a number")?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad(v))?;
            }
            "--trace" => {
                let v = value("0 or 1")?;
                args.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(v)),
                };
            }
            "--scale" => {
                let v = value("a number")?;
                args.scale = v
                    .parse()
                    .ok()
                    .filter(|d| (-8..=2).contains(d))
                    .ok_or_else(|| bad(v))?;
            }
            "--reps" => {
                let v = value("a count")?;
                args.reps = Some(v.parse().ok().filter(|n| *n >= 1).ok_or_else(|| bad(v))?);
            }
            "--smoke" => {
                args.scale = -4;
                args.reps = Some(1);
            }
            "--calibrate" => calibrate = true,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    if calibrate {
        return Ok(Mode::Calibrate);
    }
    if Workload::from_name(&args.workload).is_none() {
        return Err(format!("unknown workload {:?}\n{}", args.workload, usage()));
    }
    Ok(Mode::Run(args))
}

/// Run one workload and print its report; the result line comes last.
fn run_workload(args: RunArgs) -> ExitCode {
    let mut run = Run::new(args);
    let head = header(&run);
    println!("# {}", head.compact());
    match Workload::from_name(&run.args.workload) {
        Some(Workload::Analytics(algo)) => analytics::run(&mut run, algo),
        Some(Workload::Txn(class)) => txn::run(&mut run, class),
        Some(Workload::Mutations(path)) => mutations::run(&mut run, path),
        None => unreachable!("parse_args admitted {:?}", run.args.workload),
    }
    let ratio = run.tally.failed as f64 / run.tally.attempted.max(1) as f64;
    run.metrics.set("bench.failed_ratio", ratio);
    run.metrics.set("bench.verify_s", run.verify_s);

    if run.args.trace {
        let path = work_root()
            .join("trace")
            .join(format!("{}.json", run.args.workload));
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, run.tracer.to_json(head).compact()));
        match written {
            Ok(()) => println!(
                "trace: {} spans in {}",
                run.tracer.spans().len(),
                path.display()
            ),
            Err(e) => {
                run.tally.attempt(1);
                run.tally.fail(format!("writing {}: {e}", path.display()));
            }
        }
        println!("self time by span name:");
        for (name, ns, count) in run.tracer.self_time_by_name() {
            println!("  {name:<24} {:>12.6} s  ({count} spans)", ns as f64 / 1e9);
        }
    }

    // Every measured value by name and unit, then the contract's line.
    println!("metrics:");
    let reg = registry();
    for d in reg.all_metrics() {
        if let Some(v) = run.metrics.get(&d.name) {
            println!("  {:<36} {v:>18.6} {}", d.name, d.unit);
        }
    }
    for msg in &run.tally.messages {
        println!("FAILED: {msg}");
    }
    let reported = if run.args.trace {
        &reg.per_layer
    } else {
        &reg.end_to_end
    };
    let mut correct = run.tally.failed == 0 && run.tally.attempted > 0;
    let metrics: Vec<(String, Json)> = reported
        .iter()
        .map(|d| {
            // A layer the workload does not exercise reports 0; an
            // end-to-end metric must have been measured.
            let v = run.metrics.get(&d.name).filter(|v| v.is_finite());
            if v.is_none() && !run.args.trace {
                correct = false;
            }
            (
                d.name.clone(),
                Json::obj([
                    ("value", Json::Num(v.unwrap_or(0.0))),
                    ("unit", Json::str(d.unit.clone())),
                ]),
            )
        })
        .collect();
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(run.tally.attempted.max(1) as f64)),
        ("failed", Json::Num(run.tally.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", line.compact());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv) {
        Ok(Mode::Run(args)) => run_workload(args),
        Ok(Mode::Calibrate) => calibrate::run(),
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_of_the_manifest_has_code() {
        for name in &registry().workloads {
            assert!(Workload::from_name(name).is_some(), "{name}");
        }
    }
}
