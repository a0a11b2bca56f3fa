//! Golden-fixture tests: the known-bad snippets must produce exactly the
//! committed diagnostics (at least one true positive per rule family),
//! the known-clean lookalikes must produce zero findings, and
//! [`tufast_lint::check`] must fail a tree for a finding and for a stale
//! or missing lock-order artifact.
//!
//! Regenerate the golden file after an intentional rule change with:
//! `UPDATE_GOLDEN=1 cargo test -p tufast-lint --test fixtures`

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;

use tufast_lint::rules::lockorder::artifact_json;
use tufast_lint::scan::{scan_file, FileModel};
use tufast_lint::{analyze, check, load_files, Config, Report, LOCK_ORDER_FILE};

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
        "lock-order",
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
fn known_bad_finds_the_deadlock_cycle() {
    let cfg = fixture_config("known_bad");
    let files = load_files(&cfg).expect("fixtures readable");
    let report = analyze(&cfg, &files);
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.code == "deadlock-cycle" && f.detail.contains("accounts")),
        "AB/BA mutex cycle not detected"
    );
    assert!(
        report.findings.iter().any(|f| f.code == "self-cycle"),
        "mutex self-cycle not detected"
    );
    assert!(
        report.lock_order.order.is_empty(),
        "a cyclic graph must not yield a topological order"
    );
}

/// `m` rescanned with a blank line before every `fn`: each function moves
/// down one line further than the one above it.
fn shifted(cfg: &Config, m: &FileModel) -> FileModel {
    let src = std::fs::read_to_string(cfg.root.join(&m.path)).expect("scanned file readable");
    let mut out = String::new();
    for line in src.lines() {
        let mut words = line.split_whitespace();
        let qualifier = |w: &&str| matches!(*w, "pub" | "pub(crate)" | "const" | "unsafe");
        if words.find(|w| !qualifier(w)) == Some("fn") {
            out.push('\n');
        }
        out.push_str(line);
        out.push('\n');
    }
    scan_file(m.path.clone(), &out)
}

/// The lock-order artifact carries no line numbers: moving every function
/// of every scanned file — the workspace's and the known-bad fixtures' —
/// leaves it byte-identical, while the findings keep their (moved) lines.
#[test]
fn shifted_functions_leave_the_lock_order_artifact_byte_identical() {
    let workspace = Config::for_workspace(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."));
    for cfg in [workspace, fixture_config("known_bad")] {
        let files = load_files(&cfg).expect("scanned files readable");
        let moved: Vec<FileModel> = files.iter().map(|m| shifted(&cfg, m)).collect();
        let (before, after) = (analyze(&cfg, &files), analyze(&cfg, &moved));
        assert!(
            !before.lock_order.edges.is_empty(),
            "{}",
            cfg.root.display()
        );
        assert_eq!(
            artifact_json(&before.lock_order),
            artifact_json(&after.lock_order),
            "{}: the artifact moved with the functions",
            cfg.root.display()
        );
        assert_eq!(identities(&before), identities(&after));
        let lines = |r: &Report| r.findings.iter().map(|f| f.line).collect::<Vec<_>>();
        assert!(before.findings.is_empty() || lines(&before) != lines(&after));
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

/// A clean tree passes only with its artifact committed and current.
#[test]
fn check_fails_a_stale_or_missing_lock_order_artifact() {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("lint_artifact_tree");
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(&root).expect("scratch tree");
    let clean = fixture_config("known_clean").root.join("clean.rs");
    fs::copy(clean, root.join("clean.rs")).expect("copy clean fixture");
    let cfg = Config {
        root: root.clone(),
        ..fixture_config("known_clean")
    };
    let artifact = root.join(LOCK_ORDER_FILE);
    let one_reason_naming_the_artifact =
        |reasons: Vec<String>| reasons.len() == 1 && reasons[0].starts_with(LOCK_ORDER_FILE);

    assert!(
        one_reason_naming_the_artifact(check(&cfg).unwrap()),
        "missing"
    );
    let report = tufast_lint::run(&cfg).unwrap();
    fs::write(&artifact, artifact_json(&report.lock_order)).unwrap();
    assert_eq!(check(&cfg).unwrap(), Vec::<String>::new(), "current");
    fs::write(&artifact, artifact_json(&report.lock_order) + " ").unwrap();
    assert!(
        one_reason_naming_the_artifact(check(&cfg).unwrap()),
        "stale"
    );
    fs::remove_dir_all(&root).unwrap();
}
