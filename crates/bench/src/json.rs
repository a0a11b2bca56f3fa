//! Minimal JSON emission for benchmark records — hand-rolled because the
//! workspace is offline (no serde); the schema is flat key/value objects
//! appended to one top-level array per file, so the perf trajectory of
//! the drivers is machine-readable across PRs (`BENCH_drivers.json`).

use std::io::Write;
use std::path::Path;

/// One flat JSON object under construction, field order preserved.
#[derive(Clone, Debug, Default)]
pub struct JsonRecord {
    fields: Vec<(String, String)>,
}

/// Escape a string for a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl JsonRecord {
    /// An empty record.
    pub fn new() -> Self {
        Self::default()
    }

    fn raw(mut self, key: &str, rendered: String) -> Self {
        self.fields.push((key.to_string(), rendered));
        self
    }

    /// Add a string field.
    pub fn str(self, key: &str, value: &str) -> Self {
        let rendered = format!("\"{}\"", escape(value));
        self.raw(key, rendered)
    }

    /// Add an unsigned integer field.
    pub fn num_u(self, key: &str, value: u64) -> Self {
        self.raw(key, value.to_string())
    }

    /// Add a float field (non-finite values become `null` — JSON has no
    /// NaN/Inf literals).
    pub fn num_f(self, key: &str, value: f64) -> Self {
        let rendered = if value.is_finite() {
            format!("{value:.6}")
        } else {
            "null".to_string()
        };
        self.raw(key, rendered)
    }

    /// Add one declared counter struct as unsigned fields keyed by counter
    /// name, in declaration order: pass the struct's `NAMES` and
    /// `values()`.
    pub fn counters<const N: usize>(self, names: [&str; N], values: [u64; N]) -> Self {
        names
            .iter()
            .zip(values)
            .fold(self, |rec, (name, v)| rec.num_u(name, v))
    }

    /// Render as a single-line JSON object.
    pub fn render(&self) -> String {
        let parts: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{}\": {v}", escape(k)))
            .collect();
        format!("{{{}}}", parts.join(", "))
    }
}

/// The checkout a record was measured on, as `git describe --always
/// --dirty` prints it (`"unknown"` outside a repository) — the key that
/// makes an appended `BENCH_*.json` a per-commit trajectory.
pub fn commit_id() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |id| id.trim().to_string())
}

/// Append `record` to the JSON array in `path`, creating the file (as a
/// one-element array) if absent. The file stays a valid JSON document
/// after every call, so a crashed bench run never leaves it unparsable.
pub fn append_record(path: &Path, record: &JsonRecord) -> std::io::Result<()> {
    let line = format!("  {}", record.render());
    let body = match std::fs::read_to_string(path) {
        Ok(existing) => {
            let trimmed = existing.trim_end();
            match trimmed.strip_suffix(']') {
                Some(head) if head.trim_end().ends_with('[') => {
                    // Empty array: first record, no separating comma.
                    format!("[\n{line}\n]\n")
                }
                Some(head) => format!("{},\n{line}\n]\n", head.trim_end()),
                // Unrecognized content (e.g. empty file): start fresh.
                None => format!("[\n{line}\n]\n"),
            }
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => format!("[\n{line}\n]\n"),
        Err(e) => return Err(e),
    };
    let mut f = std::fs::File::create(path)?;
    f.write_all(body.as_bytes())?;
    f.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tufast-json-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("bench.json")
    }

    #[test]
    fn record_renders_all_field_kinds() {
        let r = JsonRecord::new()
            .str("name", "fig18")
            .num_u("threads", 4)
            .num_f("throughput", 1234.5)
            .num_f("bad", f64::NAN)
            .str("quote", "a\"b\\c\n");
        let s = r.render();
        assert!(s.starts_with('{') && s.ends_with('}'));
        assert!(s.contains("\"name\": \"fig18\""));
        assert!(s.contains("\"threads\": 4"));
        assert!(s.contains("\"throughput\": 1234.5"));
        assert!(s.contains("\"bad\": null"));
        assert!(s.contains("a\\\"b\\\\c\\n"));
    }

    #[test]
    fn counters_are_keyed_by_name_in_declaration_order() {
        let pool = tufast::PoolCounters {
            steals: 1,
            steal_fails: 2,
            bucket_advances: 3,
            parked_wakeups: 4,
        };
        let r = JsonRecord::new()
            .str("pool", "steal")
            .counters(tufast::PoolCounters::NAMES, pool.values());
        assert_eq!(
            r.render(),
            "{\"pool\": \"steal\", \"steals\": 1, \"steal_fails\": 2, \
             \"bucket_advances\": 3, \"parked_wakeups\": 4}"
        );
    }

    #[test]
    fn append_grows_a_valid_array() {
        let path = scratch("append");
        append_record(&path, &JsonRecord::new().str("run", "first")).unwrap();
        append_record(&path, &JsonRecord::new().str("run", "second")).unwrap();
        append_record(&path, &JsonRecord::new().num_u("n", 3)).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.trim_start().starts_with('['));
        assert!(body.trim_end().ends_with(']'));
        assert_eq!(body.matches("\"run\"").count(), 2);
        assert_eq!(body.matches('{').count(), 3);
        // Commas separate exactly n-1 records at line ends.
        assert_eq!(body.matches("},").count(), 2);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn garbage_file_restarts_cleanly() {
        let path = scratch("garbage");
        std::fs::write(&path, "not json at all").unwrap();
        append_record(&path, &JsonRecord::new().num_u("ok", 1)).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.trim_start().starts_with('['));
        assert!(body.contains("\"ok\": 1"));
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }
}
