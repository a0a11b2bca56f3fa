//! What every workload shares: the run context, the metric table, the
//! failure tally, repetition loops and the record header.

use std::path::PathBuf;
use std::time::Instant;

use crate::json::Json;
use crate::registry::registry;
use crate::stats::{self, median, quartiles, rel_iqr};
use crate::trace::Tracer;

/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 0x7117;

/// Default `--scale`, the one every gated number is taken at: twitter-s
/// shrunk eightfold (8 192 vertices, 231 353 edges, 2 MB of CSR). On the
/// shared host the driver runs on, a job is steady only if it is short and
/// its data stays in the core's own 2 MiB L2 (see [`Summary`]); `--scale 0`
/// is the paper scale.
pub const GATED_SCALE: i32 = -3;

/// What one run was asked to do.
#[derive(Clone, Debug)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    /// Measuring budget in seconds (`--seconds`).
    pub seconds: f64,
    /// `--trace 1`: the traced pass with per-layer metrics.
    pub trace: bool,
    /// Power-of-two shift of every graph against the paper scale
    /// (default [`GATED_SCALE`]).
    pub scale: i32,
    /// Fixed repetition count instead of a time budget.
    pub reps: Option<usize>,
}

/// State of one run.
pub struct Run {
    pub args: RunArgs,
    /// Threads of the parallel picture: `min(nproc, 4)`.
    pub tn: usize,
    pub tracer: Tracer,
    pub metrics: Metrics,
    pub tally: Tally,
    /// Seconds spent checking outputs (always outside the timers).
    pub verify_s: f64,
}

impl Run {
    pub fn new(args: RunArgs) -> Run {
        Run {
            tn: nproc().min(4),
            tracer: Tracer::new(args.trace),
            metrics: Metrics::default(),
            tally: Tally::default(),
            verify_s: 0.0,
            args,
        }
    }

    /// `log2` of the vertex count of the paper-scale graphs, shifted by
    /// `--scale` (never below 2^8).
    pub fn graph_scale(&self) -> u32 {
        (16 + self.args.scale).max(8) as u32
    }

    /// Run a verification step, adding its time to `bench.verify_s`.
    pub fn verifying<T>(&mut self, check: impl FnOnce(&mut Run) -> T) -> T {
        let t = Instant::now();
        let out = check(self);
        self.verify_s += t.elapsed().as_secs_f64();
        out
    }

    /// Repeat `rep` until `share` of the budget is used, at least
    /// `min_reps` times (or exactly `--reps` times).
    pub fn repeat(&mut self, share: f64, min_reps: usize, mut rep: impl FnMut(&mut Run)) {
        let budget = self.args.seconds * share;
        let start = Instant::now();
        for done in 1.. {
            rep(self);
            let enough = match self.args.reps {
                Some(n) => done >= n,
                None => done >= min_reps && start.elapsed().as_secs_f64() >= budget,
            };
            if enough {
                return;
            }
        }
    }
}

/// Named values measured by a run. Setting a name twice overwrites.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            registry().all_metrics().any(|d| d.name == name),
            "{name} is not in BENCHMARK.json"
        );
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// Operations attempted and failed. An operation is a job repetition, a
/// transaction or a mutation; a failure is a wrong output, a user-visible
/// abort, a full overlay, a missed deadline or a panic.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// First few failure descriptions, for the report.
    pub messages: Vec<String>,
}

impl Tally {
    /// Count `n` attempted operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Count one failed operation.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        if self.messages.len() < 8 {
            self.messages.push(what.into());
        }
    }

    /// Count a failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }
}

/// Extremes, median, quartiles, spread and count of one timed quantity.
///
/// At one thread every repetition executes the same operations (the
/// counters repeat exactly), so all variation between repetitions is the
/// host's. On a shared host it is one-sided and of two kinds (README, "What
/// is reported", has the measurements). A fast one: for most of the time
/// something else shares the core and code of any kind runs a third slower,
/// in stretches of tens of milliseconds with quiet gaps of the same length
/// between them. A slow one: other tenants' traffic through the shared L3
/// and the memory controllers, which moves over seconds to minutes and has
/// no gaps. A timed piece of 10–50 ms that stays in the core's own L2 falls
/// into a quiet gap many times in a run, and its fastest repetition repeats
/// within 1–3 % between processes; a 0.5 s job on 16 MB never does (10–27 %).
/// So the gated metrics report the `min` of a time and the `max` of a rate,
/// at [`GATED_SCALE`], and the report prints the median and quartiles
/// beside it.
pub struct Summary {
    pub min: f64,
    pub max: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub rel_iqr: f64,
    pub n: usize,
}

pub fn summarize(samples: &[f64]) -> Summary {
    let [q1, _, q3] = quartiles(samples);
    Summary {
        min: stats::min(samples),
        max: stats::max(samples),
        median: median(samples),
        q1,
        q3,
        rel_iqr: rel_iqr(samples),
        n: samples.len(),
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "min {:.6}, median {:.6} (q1 {:.6}, q3 {:.6}, iqr/median {:.3}), max {:.6}, n={}",
            self.min, self.median, self.q1, self.q3, self.rel_iqr, self.max, self.n
        )
    }
}

/// Time `f` in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The repository root: the parent of this package, wherever the
/// benchmark is started from.
pub fn repo_root() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
}

/// Where scratch files go: the build's target directory, which both cargo
/// and the repository's `.gitignore` already treat as disposable.
pub fn work_root() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(
        || PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target")),
        PathBuf::from,
    )
}

/// This process's scratch directory; `remove_scratch` deletes it.
fn scratch_root() -> PathBuf {
    work_root()
        .join("work")
        .join(std::process::id().to_string())
}

/// A fresh, not yet created scratch path `name` for this process.
pub fn scratch(name: &str) -> PathBuf {
    let path = scratch_root().join(name);
    let _ = std::fs::remove_dir_all(&path);
    path
}

/// Delete everything `scratch` handed out.
pub fn remove_scratch() {
    let _ = std::fs::remove_dir_all(scratch_root());
}

fn cache_sizes() -> String {
    let mut out = Vec::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| {
            std::fs::read_to_string(format!("{dir}/{f}"))
                .map(|s| s.trim().to_string())
                .ok()
        };
        if let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size")) {
            out.push(format!("L{level}{}={size}", &kind[..1].to_lowercase()));
        }
    }
    if out.is_empty() {
        "unknown".into()
    } else {
        out.join(" ")
    }
}

/// Commit id of the checkout the benchmark was built in, read from its
/// `.git` (the driver's checkouts have none).
pub fn commit_id() -> String {
    let git = repo_root().join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

/// The record header carried by every output.
pub fn header(run: &Run) -> Json {
    Json::obj([
        ("commit", Json::str(commit_id())),
        ("workload", Json::str(run.args.workload.clone())),
        ("seed", Json::Num(run.args.seed as f64)),
        ("scale", Json::Num(f64::from(run.args.scale))),
        ("seconds", Json::Num(run.args.seconds)),
        ("trace", Json::Bool(run.args.trace)),
        ("nproc", Json::Num(nproc() as f64)),
        ("tn", Json::Num(run.tn as f64)),
        ("rustc", Json::str(env!("BENCH_RUSTC_VERSION"))),
        ("profile", Json::str(env!("BENCH_PROFILE"))),
        ("features", Json::str("default")),
        ("caches", Json::str(cache_sizes())),
    ])
}
