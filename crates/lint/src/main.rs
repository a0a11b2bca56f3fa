//! CLI for `tufast-lint`.
//!
//! ```text
//! tufast-lint [--root DIR] [--write-lock-order]
//! ```
//!
//! Without `--write-lock-order` it prints [`tufast_lint::check`]'s
//! verdict. Exit codes: 0 the tree passes, 1 it fails (a finding, or a
//! stale or missing `lint-lock-order.json`), 2 usage or I/O error.

use std::env;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use tufast_lint::rules::lockorder::artifact_json;
use tufast_lint::{Config, LOCK_ORDER_FILE};

fn usage() -> ExitCode {
    eprintln!("usage: tufast-lint [--root DIR] [--write-lock-order]");
    ExitCode::from(2)
}

/// Walk up from the current directory to the workspace root (the first
/// ancestor whose `Cargo.toml` declares `[workspace]`).
fn find_root() -> Option<PathBuf> {
    let mut dir = env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn main() -> ExitCode {
    let mut root = None;
    let mut write_lock_order = false;
    let mut args = env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage(),
            },
            "--write-lock-order" => write_lock_order = true,
            "--help" | "-h" => return usage(),
            other => {
                eprintln!("unknown argument `{other}`");
                return usage();
            }
        }
    }
    let Some(root) = root.or_else(find_root) else {
        eprintln!("tufast-lint: could not locate the workspace root (pass --root)");
        return ExitCode::from(2);
    };
    let cfg = Config::for_workspace(root);

    if write_lock_order {
        let path = cfg.root.join(LOCK_ORDER_FILE);
        let written = tufast_lint::run(&cfg).and_then(|r| {
            fs::write(&path, artifact_json(&r.lock_order)).map_err(|e| e.to_string())
        });
        return match written {
            Ok(()) => {
                eprintln!("tufast-lint: wrote {}", path.display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("tufast-lint: write {}: {e}", path.display());
                ExitCode::from(2)
            }
        };
    }

    match tufast_lint::check(&cfg) {
        Ok(reasons) if reasons.is_empty() => {
            println!("tufast-lint: 0 findings, {LOCK_ORDER_FILE} up to date");
            ExitCode::SUCCESS
        }
        Ok(reasons) => {
            for r in &reasons {
                println!("{r}");
            }
            println!("tufast-lint: the tree fails on the lines above");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("tufast-lint: {e}");
            ExitCode::from(2)
        }
    }
}
