//! Self-check: the live workspace's lock-order graph yields a
//! topological order whenever it has a dangerous edge. Whether the tree
//! passes the lint is [`tufast_lint::check`]'s verdict, asserted by the
//! root crate's `tests/lint_gate.rs`.

use std::path::PathBuf;

use tufast_lint::Config;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

#[test]
fn live_lock_order_is_acyclic() {
    let cfg = Config::for_workspace(workspace_root());
    let report = tufast_lint::run(&cfg).expect("workspace scans");
    let dangerous = report
        .lock_order
        .edges
        .iter()
        .filter(|e| e.blocking_target && !e.suppressed && e.from != e.to)
        .count();
    assert!(
        dangerous == 0 || !report.lock_order.order.is_empty(),
        "dangerous lock edges exist but no topological order was derived"
    );
}
