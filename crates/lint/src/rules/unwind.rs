//! Unwind-containment: every scheduler entry point and work-pool drain
//! loop must route the user-supplied closure through `catch_unwind` (or
//! re-raise joined panics with `resume_unwind`) — PR 2's liveness
//! guarantee that a panicking body cannot strand locks, tokens, or pool
//! bookkeeping.
//!
//! Entry points are `execute`/`execute_hinted`/`execute_declared`
//! functions taking a `TxnBody`, anything named `parallel_*`, and fns
//! carrying a `// tufast-lint: unwind-entry` marker. Containment is checked over a
//! name-based transitive call graph: an entry is contained when its body
//! — or any function it (transitively) may call — mentions
//! `catch_unwind` or `resume_unwind`.

use std::collections::{BTreeMap, BTreeSet};

use crate::finding::Finding;
use crate::rules::callee_names;
use crate::scan::{params_contain, FileModel};

pub const RULE: &str = "unwind-containment";

pub fn run(files: &[FileModel], scope: &[String]) -> Vec<Finding> {
    // Global name → set of (file idx, fn idx), non-test fns only.
    let mut by_name: BTreeMap<&str, Vec<(usize, usize)>> = BTreeMap::new();
    for (mi, m) in files.iter().enumerate() {
        for (fi, f) in m.fns.iter().enumerate() {
            if !f.in_test && f.body.is_some() {
                by_name.entry(f.name.as_str()).or_default().push((mi, fi));
            }
        }
    }

    // contains: the body itself mentions a containment primitive.
    let contains = |mi: usize, fi: usize| -> bool {
        let m = &files[mi];
        let (s, e) = m.fns[fi].body.unwrap();
        m.tokens[s..e].iter().any(|t| {
            matches!(&t.tok, crate::lexer::Tok::Ident(n)
                if n == "catch_unwind" || n == "resume_unwind")
        })
    };

    // Fixpoint over `reaches`: seed with direct containment, then
    // propagate backwards along call edges until stable.
    let mut reaches: BTreeSet<(usize, usize)> = BTreeSet::new();
    let mut callees: BTreeMap<(usize, usize), BTreeSet<(usize, usize)>> = BTreeMap::new();
    for (mi, m) in files.iter().enumerate() {
        for (fi, f) in m.fns.iter().enumerate() {
            let Some(body) = f.body else { continue };
            if f.in_test {
                continue;
            }
            if contains(mi, fi) {
                reaches.insert((mi, fi));
            }
            let mut set = BTreeSet::new();
            for (name, _) in callee_names(m, body) {
                if let Some(defs) = by_name.get(name.as_str()) {
                    set.extend(defs.iter().copied());
                }
            }
            callees.insert((mi, fi), set);
        }
    }
    loop {
        let mut changed = false;
        for (caller, set) in &callees {
            if !reaches.contains(caller) && set.iter().any(|c| reaches.contains(c)) {
                reaches.insert(*caller);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let mut out = Vec::new();
    for (mi, m) in files.iter().enumerate() {
        if !scope.iter().any(|s| m.path.contains(s.as_str())) {
            continue;
        }
        for (fi, f) in m.fns.iter().enumerate() {
            if f.in_test || f.body.is_none() {
                continue;
            }
            let scheduler_entry = matches!(
                f.name.as_str(),
                "execute" | "execute_hinted" | "execute_declared"
            ) && params_contain(m, f, "TxnBody");
            let drain_entry = f.name.starts_with("parallel_");
            if !(scheduler_entry || drain_entry || f.unwind_entry) {
                continue;
            }
            if !reaches.contains(&(mi, fi)) {
                out.push(Finding {
                    rule: RULE.to_string(),
                    file: m.path.clone(),
                    line: f.line,
                    function: f.name.clone(),
                    code: "missing-catch-unwind".to_string(),
                    detail: "entry point never reaches catch_unwind/resume_unwind; a \
                             panicking body would strand locks or pool bookkeeping"
                        .to_string(),
                });
            }
        }
    }
    out
}
