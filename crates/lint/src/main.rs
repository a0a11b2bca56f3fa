//! CLI for `tufast-lint`.
//!
//! ```text
//! tufast-lint [--root DIR]
//! ```
//!
//! It prints [`tufast_lint::check`]'s verdict. Exit codes: 0 the tree
//! passes, 1 it has a finding, 2 usage or I/O error.

use std::env;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use tufast_lint::Config;

fn usage() -> ExitCode {
    eprintln!("usage: tufast-lint [--root DIR]");
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
    let mut args = env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage(),
            },
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
    match tufast_lint::check(&Config::for_workspace(root)) {
        Ok(reasons) if reasons.is_empty() => {
            println!("tufast-lint: 0 findings");
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
