//! The benchmark's names — workloads, end-to-end metrics, per-layer
//! metrics — read from `BENCHMARK.json` at the repository root, the one
//! place they are declared. The file is compiled in, so the program prints
//! exactly the metrics the manifest of its own checkout names.

use std::sync::OnceLock;

use crate::json::{self, Json};

/// `BENCHMARK.json` of the checkout this program was built from.
pub const MANIFEST: &str = include_str!("../../BENCHMARK.json");

/// Regression bound of an end-to-end metric unless calibration asks for more.
pub const DEFAULT_BOUND: f64 = 0.10;
/// No bound may be wider than this.
pub const MAX_BOUND: f64 = 0.25;

/// One metric of the manifest.
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
}

pub struct Registry {
    /// Seconds one run measures for.
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    /// Metrics a user of the library sees; every workload reports every one.
    pub end_to_end: Vec<MetricDef>,
    /// Metrics of single layers, prefixed by crate. A workload that does
    /// not exercise a layer reports 0 for it.
    pub per_layer: Vec<MetricDef>,
}

impl Registry {
    pub fn all_metrics(&self) -> impl Iterator<Item = &MetricDef> {
        self.end_to_end.iter().chain(&self.per_layer)
    }
}

fn field<'a>(obj: &'a Json, key: &str) -> &'a str {
    obj.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("BENCHMARK.json: an entry has no string {key:?}"))
}

fn entries<'a>(manifest: &'a Json, key: &str) -> &'a [Json] {
    manifest
        .get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json: no array {key:?}"))
}

fn metrics(manifest: &Json, key: &str) -> Vec<MetricDef> {
    entries(manifest, key)
        .iter()
        .map(|m| MetricDef {
            name: field(m, "name").to_string(),
            unit: field(m, "unit").to_string(),
            better: field(m, "better").to_string(),
        })
        .collect()
}

/// The parsed manifest. A malformed `BENCHMARK.json` is a broken checkout:
/// the first use panics with what is missing.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let manifest = json::parse(MANIFEST).expect("BENCHMARK.json is valid JSON");
        Registry {
            run_seconds: manifest
                .get("run_seconds")
                .and_then(Json::as_f64)
                .expect("BENCHMARK.json: run_seconds") as u64,
            workloads: entries(&manifest, "workloads")
                .iter()
                .map(|w| field(w, "name").to_string())
                .collect(),
            end_to_end: metrics(&manifest, "end_to_end"),
            per_layer: metrics(&manifest, "per_layer"),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// The limits the driver refuses a manifest for.
    #[test]
    fn manifest_fits_the_contract() {
        assert!(MANIFEST.len() <= 64 * 1024);
        let manifest = json::parse(MANIFEST).expect("valid JSON");
        let Json::Obj(pairs) = &manifest else {
            panic!("BENCHMARK.json is not an object");
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let reg = registry();
        let mut seen = std::collections::BTreeSet::new();
        for w in entries(&manifest, "workloads") {
            let (name, why) = (field(w, "name"), field(w, "why"));
            assert!(valid_name(name), "{name}");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why too long"
            );
            assert!(seen.insert(name.to_string()), "{name} used twice");
        }
        for d in reg.all_metrics() {
            assert!(valid_name(&d.name), "{}", d.name);
            assert!(seen.insert(d.name.clone()), "{} used twice", d.name);
            assert!(
                !d.unit.is_empty()
                    && d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}: unit {:?}",
                d.name,
                d.unit
            );
            assert!(
                matches!(d.better.as_str(), "lower" | "higher"),
                "{}",
                d.name
            );
        }
        for m in entries(&manifest, "end_to_end") {
            let bound = m.get("bound").and_then(Json::as_f64).expect("a bound");
            assert!(bound > 0.0 && bound <= MAX_BOUND, "{}", field(m, "name"));
        }
        assert!((2..=8).contains(&reg.workloads.len()));
        assert!((1..=16).contains(&reg.end_to_end.len()));
        assert!((1..=128).contains(&reg.per_layer.len()));
        assert!(reg
            .end_to_end
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == "lower"));
        assert!((1..=60).contains(&reg.run_seconds));
    }

    /// The README documents every name.
    #[test]
    fn readme_mentions_every_name() {
        let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
            .expect("benchmark/README.md");
        let reg = registry();
        for name in &reg.workloads {
            assert!(readme.contains(&format!("`{name}`")), "workload {name}");
        }
        for d in reg.all_metrics() {
            assert!(
                readme.contains(&format!("`{}`", d.name)),
                "metric {}",
                d.name
            );
        }
    }
}
