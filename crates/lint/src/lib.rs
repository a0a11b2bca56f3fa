//! `tufast-lint`: a dependency-free static TM-safety analyzer for the
//! TuFast workspace.
//!
//! Five rule families (see `rules/`):
//!
//! 1. `htm-hazard` — allocation, I/O, and panics inside HTM scopes.
//! 2. `memory-ordering` — `SeqCst` on hot paths needs justification;
//!    `Relaxed` on cross-thread hand-off flags is flagged.
//! 3. `unwind-containment` — scheduler entry points must route worker
//!    closures through `catch_unwind`.
//! 4. `read-purity` — bodies dispatched as `read_only` never reach
//!    `TxnOps::write`.
//! 5. `untracked-peek` — `peek_committed` and `load_committed` stay
//!    outside dispatched transaction bodies.
//!
//! Lock order is not linted: `tufast_htm::witness` checks it where each
//! lock is taken, in every debug build.
//!
//! [`check`] is the one verdict, shared by the binary and the root
//! crate's `tests/lint_gate.rs`: a tree passes only with zero findings.
//! The one way to suppress a finding is an inline
//! `// tufast-lint: allow(<rule>) -- <reason>` comment, whose reason is
//! mandatory.

pub mod finding;
pub mod lexer;
pub mod rules;
pub mod scan;

use std::fs;
use std::path::{Path, PathBuf};

use finding::Finding;
use scan::FileModel;

/// Rule name for diagnostics about the lint's own directives.
pub const DIRECTIVE_RULE: &str = "lint-directive";

/// What to analyze and where the per-rule scopes lie.
pub struct Config {
    /// Workspace root; all reported paths are relative to it.
    pub root: PathBuf,
    /// Directories (relative to `root`) whose `.rs` files are scanned.
    pub scan_dirs: Vec<String>,
    /// Path substrings inside which the memory-ordering rule applies.
    pub ordering_scope: Vec<String>,
    /// Path substrings inside which unwind containment is demanded.
    pub unwind_scope: Vec<String>,
}

impl Config {
    /// The production configuration: every `crates/*/src` tree, with the
    /// ordering rule scoped to the work-distribution and HTM cores and
    /// unwind containment demanded of the scheduler crates.
    pub fn for_workspace(root: PathBuf) -> Config {
        let mut scan_dirs = Vec::new();
        if let Ok(entries) = fs::read_dir(root.join("crates")) {
            let mut names: Vec<String> = entries
                .flatten()
                .filter_map(|e| e.file_name().into_string().ok())
                .collect();
            names.sort();
            for n in names {
                if root.join("crates").join(&n).join("src").is_dir() {
                    scan_dirs.push(format!("crates/{n}/src"));
                }
            }
        }
        Config {
            root,
            scan_dirs,
            ordering_scope: vec!["crates/core/src".into(), "crates/htm/src".into()],
            unwind_scope: vec!["crates/txn/src".into(), "crates/core/src".into()],
        }
    }
}

/// Full analysis output.
pub struct Report {
    /// Unsuppressed findings, sorted.
    pub findings: Vec<Finding>,
}

/// Collect the `.rs` files under `dir`, recursively, in sorted order.
fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            if p.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            walk(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Scan the configured directories into file models.
pub fn load_files(cfg: &Config) -> Result<Vec<FileModel>, String> {
    let mut files = Vec::new();
    for dir in &cfg.scan_dirs {
        let mut paths = Vec::new();
        walk(&cfg.root.join(dir), &mut paths);
        for p in paths {
            let src = fs::read_to_string(&p).map_err(|e| format!("read {}: {e}", p.display()))?;
            let rel = p
                .strip_prefix(&cfg.root)
                .unwrap_or(&p)
                .to_string_lossy()
                .replace('\\', "/");
            files.push(scan::scan_file(rel, &src));
        }
    }
    Ok(files)
}

/// Run every pass over `files` and apply suppressions.
pub fn analyze(cfg: &Config, files: &[FileModel]) -> Report {
    let mut findings = Vec::new();
    findings.extend(rules::htm::run(files));
    findings.extend(rules::ordering::run(files, &cfg.ordering_scope));
    findings.extend(rules::unwind::run(files, &cfg.unwind_scope));
    findings.extend(rules::readpurity::run(files));
    findings.extend(rules::untrackedpeek::run(files));

    // Inline suppressions (line-accurate, per rule).
    findings.retain(|f| {
        files
            .iter()
            .find(|m| m.path == f.file)
            .is_none_or(|m| !m.suppressed(&f.rule, f.line))
    });

    // The directives themselves are linted: a suppression without a
    // reason and a malformed/dangling marker are findings, so fixing
    // them cannot be forgotten.
    for m in files {
        for s in &m.suppressions {
            if !s.has_reason {
                findings.push(Finding {
                    rule: DIRECTIVE_RULE.to_string(),
                    file: m.path.clone(),
                    line: s.line,
                    function: "<module>".to_string(),
                    code: "missing-reason".to_string(),
                    detail: format!("allow({}) without a `-- <reason>` justification", s.rule),
                });
            }
        }
        for (line, msg) in &m.directive_errors {
            findings.push(Finding {
                rule: DIRECTIVE_RULE.to_string(),
                file: m.path.clone(),
                line: *line,
                function: "<module>".to_string(),
                code: "malformed-directive".to_string(),
                detail: msg.clone(),
            });
        }
    }

    findings.sort();
    Report { findings }
}

/// Convenience: load + analyze.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let files = load_files(cfg)?;
    Ok(analyze(cfg, &files))
}

/// The verdict on the tree `cfg` describes: its findings after inline
/// allows, one line each, or nothing if it passes. `Err` means the tree
/// could not be read.
pub fn check(cfg: &Config) -> Result<Vec<String>, String> {
    Ok(run(cfg)?.findings.iter().map(Finding::human).collect())
}
