//! `--calibrate`: what the driver does, done here first. Two sets of
//! untraced runs of every workload (each run a fresh process, the same
//! seeds in both sets) and one traced run per workload and set; the spread
//! and the median-to-median gap of every end-to-end metric, bounds derived
//! from them into `BENCHMARK.json`, the one-thread counters of the two
//! traced runs compared exactly, and one entry appended to the trajectory.
//! It fails when a metric's spread is above a third of the widest bound.

use std::process::{Command, ExitCode};

use crate::harness::{commit_id, nproc, repo_root};
use crate::json::{self, Json};
use crate::registry::{registry, DEFAULT_BOUND, MANIFEST, MAX_BOUND};
use crate::stats::{median, quartiles, rel_iqr};

/// Untraced runs per workload and set, as the driver makes.
const RUNS: usize = 10;

/// One-thread counters that must be identical between the two sets
/// (besides every `core.mode_*`).
const EXACT: &[&str] = &["txn.commits", "txn.restarts", "htm.ops"];

/// One child run: the parsed result line.
fn child(workload: &str, seed: u64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &registry().run_seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().rev().find(|l| !l.trim().is_empty());
    let line = last.ok_or_else(|| format!("{workload} seed {seed}: no output"))?;
    let result = json::parse(line).map_err(|e| format!("{workload} seed {seed}: {e}"))?;
    if !out.status.success() || result.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("{workload} seed {seed}: run failed: {line}"));
    }
    Ok(result)
}

fn metric_value(metrics: &Json, name: &str) -> Option<f64> {
    metrics.get(name)?.get("value")?.as_f64()
}

/// Relative change of `b` against `a` in the worse direction (positive =
/// worse).
fn worse_by(a: f64, b: f64, better: &str) -> f64 {
    if a == 0.0 {
        0.0
    } else if better == "lower" {
        (b - a) / a
    } else {
        (a - b) / a
    }
}

/// The compiled-in manifest with `bound_of(name)` as each end-to-end
/// metric's bound; everything else as it was.
fn manifest_with_bounds(bound_of: impl Fn(&str) -> f64) -> Json {
    let mut manifest = json::parse(MANIFEST).expect("BENCHMARK.json is valid JSON");
    let Json::Obj(keys) = &mut manifest else {
        unreachable!("the registry parsed it as an object");
    };
    for (key, value) in keys {
        let (true, Json::Arr(metrics)) = (key == "end_to_end", value) else {
            continue;
        };
        for metric in metrics {
            let name = metric.get("name").and_then(Json::as_str).map(String::from);
            let (Some(name), Json::Obj(fields)) = (name, metric) else {
                continue;
            };
            for (field, v) in fields {
                if field == "bound" {
                    *v = Json::Num(bound_of(&name));
                }
            }
        }
    }
    manifest
}

pub fn run() -> ExitCode {
    let reg = registry();
    println!(
        "calibrating: 2 sets x ({RUNS} untraced + 1 traced) runs x {} workloads, {} s each, nproc {}",
        reg.workloads.len(),
        reg.run_seconds,
        nproc()
    );
    // values[set][workload][metric] = one value per run;
    // layers[set][workload] = the traced run's metrics.
    let mut values = vec![vec![vec![Vec::new(); reg.end_to_end.len()]; reg.workloads.len()]; 2];
    let mut layers = [Vec::new(), Vec::new()];
    for set in 0..2 {
        for (w, workload) in reg.workloads.iter().enumerate() {
            let runs = (1..=RUNS as u64)
                .map(|seed| child(workload, seed, false))
                .chain([child(workload, 1, true)]);
            let mut results = match runs.collect::<Result<Vec<_>, _>>() {
                Ok(results) => results,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            let traced = results.pop().expect("the traced run is last");
            layers[set].push(traced.get("metrics").cloned().unwrap_or(Json::Null));
            for result in &results {
                let metrics = result.get("metrics").unwrap_or(&Json::Null);
                for (d, slot) in reg.end_to_end.iter().zip(values[set][w].iter_mut()) {
                    slot.extend(metric_value(metrics, &d.name));
                }
            }
            println!("set {} {workload}: done", set + 1);
        }
    }
    let mut accepted = true;

    // At one thread every counter must repeat exactly between processes.
    for (w, workload) in reg.workloads.iter().enumerate() {
        for d in &reg.per_layer {
            if !(EXACT.contains(&d.name.as_str()) || d.name.starts_with("core.mode_")) {
                continue;
            }
            let (a, b) = (
                metric_value(&layers[0][w], &d.name),
                metric_value(&layers[1][w], &d.name),
            );
            if a != b {
                accepted = false;
                println!(
                    "{workload}: {} differs between the sets: {a:?} and {b:?}",
                    d.name
                );
            }
        }
    }
    if accepted {
        println!("one-thread counters (txn.commits, txn.restarts, htm.ops, core.mode_*): identical in both sets");
    }

    // Per metric, the bound its worst workload asks for: three times the
    // spread (so the spread stays below a third of the bound) and twice the
    // gap between the two sets' medians.
    let mut wanted = vec![0.0f64; reg.end_to_end.len()];
    println!(
        "\n{:<13} {:<12} {:>12} {:>12} {:>8} {:>8} {:>8}",
        "workload", "metric", "median A", "median B", "gap", "iqr A", "iqr B"
    );
    for (w, workload) in reg.workloads.iter().enumerate() {
        for (m, d) in reg.end_to_end.iter().enumerate() {
            let (a, b) = (&values[0][w][m], &values[1][w][m]);
            let gap = worse_by(median(a), median(b), &d.better);
            // The driver does not hold the spread of `setup_s` against it.
            let spread = if d.name == "setup_s" {
                0.0
            } else {
                rel_iqr(a).max(rel_iqr(b))
            };
            wanted[m] = wanted[m].max(3.0 * spread).max(2.0 * gap.abs());
            println!(
                "{workload:<13} {:<12} {:>12.6} {:>12.6} {:>+8.3} {:>8.3} {:>8.3}",
                d.name,
                median(a),
                median(b),
                gap,
                rel_iqr(a),
                rel_iqr(b)
            );
        }
    }
    println!();
    let mut bounds = Vec::new();
    for (d, want) in reg.end_to_end.iter().zip(&wanted) {
        // Round up to the next 0.05 step; never tighter than the default,
        // never past the ceiling. A time gets the widest bound there is
        // whatever this calibration saw: the driver's first check of this
        // benchmark read four times the spread the calibration before it
        // had (the host's noisy hours), and a bound it overruns refuses the
        // benchmark. The rule below still has to hold for it.
        let stepped = ((want / 0.05).ceil() * 0.05 * 100.0).round() / 100.0;
        let bound = if d.unit == "s" {
            MAX_BOUND
        } else {
            stepped.clamp(DEFAULT_BOUND, MAX_BOUND)
        };
        println!(
            "{:<12} bound {bound:.2} (measured spread and gap ask for {want:.3})",
            d.name
        );
        if *want > MAX_BOUND {
            accepted = false;
            println!(
                "{}: {want:.3} is past the {MAX_BOUND} ceiling: this host is too noisy for the \
                 metric, or it needs more repetitions; the bound is not widened",
                d.name
            );
        }
        bounds.push((d.name.as_str(), bound));
    }
    let bound_of = |name: &str| {
        bounds
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(DEFAULT_BOUND, |(_, b)| *b)
    };
    let manifest_path = repo_root().join("BENCHMARK.json");
    if let Err(e) = std::fs::write(&manifest_path, manifest_with_bounds(bound_of).pretty()) {
        eprintln!("writing {}: {e}", manifest_path.display());
        return ExitCode::FAILURE;
    }
    println!("wrote the bounds into {}", manifest_path.display());

    // The trajectory entry: both sets pooled, plus the first traced run.
    let workloads = reg.workloads.iter().enumerate().map(|(w, workload)| {
        let end_to_end = reg.end_to_end.iter().enumerate().map(|(m, d)| {
            let pooled = [&values[0][w][m][..], &values[1][w][m][..]].concat();
            let [q1, q2, q3] = quartiles(&pooled);
            (
                d.name.clone(),
                Json::obj([
                    ("median", Json::Num(q2)),
                    ("q1", Json::Num(q1)),
                    ("q3", Json::Num(q3)),
                    ("n", Json::Num(pooled.len() as f64)),
                    ("unit", Json::str(d.unit.clone())),
                ]),
            )
        });
        (
            workload.clone(),
            Json::obj([
                ("end_to_end", Json::obj(end_to_end)),
                ("per_layer", layers[0][w].clone()),
            ]),
        )
    });
    let entry = Json::obj([
        ("commit", Json::str(commit_id())),
        ("nproc", Json::Num(nproc() as f64)),
        ("rustc", Json::str(env!("BENCH_RUSTC_VERSION"))),
        ("runs_per_set", Json::Num(RUNS as f64)),
        ("run_seconds", Json::Num(reg.run_seconds as f64)),
        ("workloads", Json::obj(workloads)),
    ]);
    let trajectory = concat!(env!("CARGO_MANIFEST_DIR"), "/trajectory.jsonl");
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(trajectory)
        .and_then(|mut f| {
            use std::io::Write;
            writeln!(f, "{}", entry.compact())
        });
    match appended {
        Ok(()) => println!("appended one entry to {trajectory}"),
        Err(e) => {
            eprintln!("appending to {trajectory}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if accepted {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
