//! Golden-fixture tests: the known-bad snippets must produce exactly the
//! committed diagnostics (at least one true positive per rule family),
//! the known-clean lookalikes must produce zero findings, and
//! [`tufast_lint::check`] must fail a tree for each finding.
//!
//! Regenerate the golden file after an intentional rule change with:
//! `UPDATE_GOLDEN=1 cargo test -p tufast-lint --test fixtures`

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;

use tufast_lint::{analyze, check, load_files, Config, Report};

fn fixture_config(which: &str) -> Config {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(which);
    Config {
        root,
        scan_dirs: vec![String::new()],
        ordering_scope: vec![String::new()],
        unwind_scope: vec![String::new()],
    }
}

/// The findings' identities (no line numbers), sorted: two lists are
/// equal as multisets exactly when these are equal.
fn identities(report: &Report) -> Vec<String> {
    let mut ids: Vec<String> = report.findings.iter().map(|f| f.identity()).collect();
    ids.sort();
    ids
}

#[test]
fn known_bad_matches_golden() {
    let cfg = fixture_config("known_bad");
    let files = load_files(&cfg).expect("fixtures readable");
    let live = identities(&analyze(&cfg, &files));

    let golden_path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/known_bad/expected.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::write(&golden_path, live.join("\n") + "\n").expect("write golden");
        return;
    }
    let golden = fs::read_to_string(&golden_path).expect("golden file committed");
    assert_eq!(
        live,
        golden.lines().collect::<Vec<_>>(),
        "known-bad diagnostics drifted from the golden file"
    );
}

#[test]
fn known_bad_covers_every_rule_family() {
    let cfg = fixture_config("known_bad");
    let files = load_files(&cfg).expect("fixtures readable");
    let report = analyze(&cfg, &files);
    let rules: BTreeSet<&str> = report.findings.iter().map(|f| f.rule.as_str()).collect();
    for family in [
        "htm-hazard",
        "memory-ordering",
        "unwind-containment",
        "read-purity",
        "untracked-peek",
        "lint-directive",
    ] {
        assert!(
            rules.contains(family),
            "no true positive for rule family `{family}`; got {rules:?}"
        );
    }
}

#[test]
fn known_clean_is_silent() {
    let cfg = fixture_config("known_clean");
    let files = load_files(&cfg).expect("fixtures readable");
    let report = analyze(&cfg, &files);
    assert!(
        report.findings.is_empty(),
        "false positives on known-clean fixtures:\n{}",
        report
            .findings
            .iter()
            .map(|f| f.human())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn check_fails_the_known_bad_tree_for_each_finding() {
    let cfg = fixture_config("known_bad");
    let report = tufast_lint::run(&cfg).expect("fixtures readable");
    let reasons = check(&cfg).expect("fixtures readable");
    for f in &report.findings {
        assert!(reasons.contains(&f.human()), "{} not reported", f.human());
    }
}
