//! Memory-ordering: guard the Acquire/Release discipline of the hot
//! paths (PR 4's downgrade pass) in both directions.
//!
//! * `SeqCst` in scoped files (the work-distribution and HTM cores) is
//!   flagged: every remaining `SeqCst` there must carry an inline
//!   suppression explaining *why* it is load-bearing (the Chase–Lev
//!   top CAS, the Dekker-style park/wake counter). New `SeqCst` cannot
//!   land silently.
//! * `Relaxed` on a `.load`/`.store` of a flag that gates cross-thread
//!   hand-off (names like `done`, `pause`, `available`) is flagged: a
//!   relaxed flag read orders nothing, so the data it publishes may not
//!   be visible to the observer.

use crate::finding::Finding;
use crate::rules::{ident_at, is_punct};
use crate::scan::FileModel;

pub const RULE: &str = "memory-ordering";

/// Identifiers that name cross-thread hand-off flags.
const HANDOFF_FLAGS: &[&str] = &[
    "done",
    "ready",
    "stop",
    "stopped",
    "pause",
    "paused",
    "shutdown",
    "finished",
    "quit",
    "closed",
    "crashed",
    "available",
    "terminated",
];

/// How many tokens past `.load(`/`.store(` to look for the ordering
/// (a fully qualified `std::sync::atomic::Ordering::Relaxed` is 13).
const ORDERING_WINDOW: usize = 16;

pub fn run(files: &[FileModel], scope: &[String]) -> Vec<Finding> {
    let mut out = Vec::new();
    for m in files {
        if !scope.iter().any(|s| m.path.contains(s.as_str())) {
            continue;
        }
        let t = &m.tokens;
        for i in 0..t.len() {
            let Some(name) = ident_at(t, i) else { continue };
            let in_test = m.fn_at(i).map(|fi| m.fns[fi].in_test).unwrap_or(false);
            if in_test {
                continue;
            }
            if name == "SeqCst" {
                out.push(Finding {
                    rule: RULE.to_string(),
                    file: m.path.clone(),
                    line: t[i].line,
                    function: enclosing(m, i),
                    code: "seqcst-hot-path".to_string(),
                    detail: "SeqCst on a hot-path atomic; justify with an inline allow or \
                             downgrade to Acquire/Release"
                        .to_string(),
                });
                continue;
            }
            // `flag . load|store ( .. Relaxed .. )`
            if HANDOFF_FLAGS.contains(&name)
                && is_punct(t, i + 1, '.')
                && matches!(ident_at(t, i + 2), Some("load") | Some("store"))
                && is_punct(t, i + 3, '(')
            {
                let relaxed = (i + 4..(i + 4 + ORDERING_WINDOW).min(t.len()))
                    .take_while(|&j| !is_punct(t, j, ';'))
                    .any(|j| ident_at(t, j) == Some("Relaxed"));
                if relaxed {
                    let op = ident_at(t, i + 2).unwrap_or("load");
                    out.push(Finding {
                        rule: RULE.to_string(),
                        file: m.path.clone(),
                        line: t[i].line,
                        function: enclosing(m, i),
                        code: "relaxed-handoff-flag".to_string(),
                        detail: format!(
                            "Relaxed `{op}` on hand-off flag `{name}`; the data it gates \
                             needs Acquire/Release to be visible"
                        ),
                    });
                }
            }
        }
    }
    out
}

fn enclosing(m: &FileModel, idx: usize) -> String {
    m.fn_at(idx)
        .map(|fi| m.fns[fi].name.clone())
        .unwrap_or_else(|| "<module>".to_string())
}
