//! Argument parsing, timing, and table printing for the figure binaries.

use std::time::Instant;

/// Common benchmark arguments.
#[derive(Clone, Debug)]
pub struct BenchArgs {
    /// Graph scale adjustment (`--scale -3` shrinks 8×; default −3, which
    /// keeps the full suite under a few minutes).
    pub scale_delta: i32,
    /// Worker threads (`--threads`). Default: available parallelism capped
    /// at 8 (the paper's per-socket core count), but at least 4 — on boxes
    /// with fewer cores the suite *oversubscribes*, which preserves the
    /// contention behaviour the paper studies (conflicts arise through
    /// preemption) at reduced absolute throughput.
    pub threads: usize,
    /// Transactions per microbenchmark measurement (`--txns`).
    pub txns: usize,
    /// Destination for machine-readable benchmark records (`--json
    /// <path>`); each figure binary that supports it appends its results
    /// to the JSON array at this path. `None` disables JSON output.
    pub json: Option<std::path::PathBuf>,
}

impl Default for BenchArgs {
    fn default() -> Self {
        let available = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4);
        BenchArgs {
            scale_delta: -3,
            threads: available.clamp(4, 8),
            txns: 200_000,
            json: None,
        }
    }
}

/// Parse `--scale N --threads N --txns N` from `std::env::args`.
///
/// # Panics
/// On malformed values (these are developer-facing binaries).
pub fn parse_args() -> BenchArgs {
    let mut out = BenchArgs::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut take = |what: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{what} needs a value"))
        };
        match flag.as_str() {
            "--scale" => {
                out.scale_delta = take("--scale").parse().expect("--scale takes an integer")
            }
            "--threads" => {
                out.threads = take("--threads").parse().expect("--threads takes a count")
            }
            "--txns" => out.txns = take("--txns").parse().expect("--txns takes a count"),
            "--json" => out.json = Some(take("--json").into()),
            "--help" | "-h" => {
                eprintln!("flags: --scale <int ≤ 0> --threads <n> --txns <n> --json <path>");
                std::process::exit(0);
            }
            other => panic!("unknown flag {other:?} (try --help)"),
        }
    }
    out
}

/// Time a closure, returning (result, seconds).
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// A simple aligned text table.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Render to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            let cols: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:>width$}", width = widths[i]))
                .collect();
            println!("  {}", cols.join("  "));
        };
        line(&self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        println!("  {}", "-".repeat(total));
        for row in &self.rows {
            line(row);
        }
    }
}

/// Human-readable seconds.
pub fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.1}us", s * 1e6)
    }
}

/// Human-readable operations/second.
pub fn fmt_rate(per_sec: f64) -> String {
    if per_sec >= 1e6 {
        format!("{:.2}M/s", per_sec / 1e6)
    } else if per_sec >= 1e3 {
        format!("{:.1}K/s", per_sec / 1e3)
    } else {
        format!("{per_sec:.0}/s")
    }
}

/// Print one declared counter struct as `  label: name=value …`, every
/// counter in declaration order: pass the struct's `NAMES` and `values()`.
pub fn print_counters<const N: usize>(label: &str, names: [&str; N], values: [u64; N]) {
    let parts: Vec<String> = names
        .iter()
        .zip(values)
        .map(|(name, v)| format!("{name}={v}"))
        .collect();
    println!("  {label}: {}", parts.join(" "));
}

/// Standard experiment banner.
pub fn banner(figure: &str, description: &str, expectation: &str) {
    println!("================================================================");
    println!("{figure}: {description}");
    println!("Paper expectation: {expectation}");
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_without_panicking() {
        let mut t = Table::new(&["a", "bb"]);
        t.row(&["1".into(), "2222".into()]);
        t.print();
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_rejects_wrong_arity() {
        let mut t = Table::new(&["a"]);
        t.row(&["1".into(), "2".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_secs(2.5), "2.50s");
        assert_eq!(fmt_secs(0.0025), "2.50ms");
        assert_eq!(fmt_secs(25e-6), "25.0us");
        assert_eq!(fmt_rate(2_500_000.0), "2.50M/s");
        assert_eq!(fmt_rate(2500.0), "2.5K/s");
        assert_eq!(fmt_rate(25.0), "25/s");
    }

    #[test]
    fn timing_returns_result() {
        let (x, s) = time(|| 41 + 1);
        assert_eq!(x, 42);
        assert!(s >= 0.0);
    }
}
