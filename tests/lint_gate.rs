//! Lint gate: plain `cargo test` from the workspace root fails unless
//! the tree passes `tufast_lint::check` — zero TM-safety findings — the
//! same verdict the CI `tm-lint` job gets from `cargo run -p tufast-lint`.

use std::path::PathBuf;

use tufast_lint::Config;

#[test]
fn tree_passes_the_lint_verdict() {
    let cfg = Config::for_workspace(PathBuf::from(env!("CARGO_MANIFEST_DIR")));
    let reasons = tufast_lint::check(&cfg).expect("workspace scans");
    assert!(
        reasons.is_empty(),
        "the tree fails the lint (fix a finding or suppress it with a \
         reasoned `// tufast-lint: allow(..)` — see DESIGN.md §11):\n{}",
        reasons.join("\n")
    );
}
