//! Read-purity: a transaction body dispatched with `read_only = true`
//! must never reach `TxnOps::write`.
//!
//! The `TxnHint::read_only` declaration routes the body to the R-mode
//! snapshot path; a body that writes anyway is caught at runtime and
//! demoted to the ordinary path (correct but wasted work — the R attempt
//! runs, trips, and restarts), so the declaration is a latent lie this
//! pass catches statically.
//!
//! A dispatch site is a call `execute_hinted(...)` whose argument tokens
//! contain `read_only(` (the `TxnHint::read_only` constructor) or
//! `read_only: true` (a struct literal). Within that argument range —
//! which includes the body closure — the pass flags:
//!
//! * a direct `.write(` method call, and
//! * a call to any function whose parameters mention `TxnOps` and whose
//!   body (transitively, through further `TxnOps`-taking functions) may
//!   write.
//!
//! Name-based and type-blind like every pass here; `#[cfg(test)]` code is
//! exempt (tests deliberately exercise the demotion path).

use std::collections::{BTreeMap, BTreeSet};

use crate::finding::Finding;
use crate::rules::{argument_range, callee_names, ident_at, is_punct};
use crate::scan::{params_contain, FileModel};

pub const RULE: &str = "read-purity";

pub fn run(files: &[FileModel]) -> Vec<Finding> {
    // Global name → definitions, restricted to functions that take a
    // TxnOps-ish parameter: only those can smuggle a transactional write
    // into a body on the caller's behalf.
    let mut ops_fns: BTreeMap<&str, Vec<(usize, usize)>> = BTreeMap::new();
    for (mi, m) in files.iter().enumerate() {
        for (fi, f) in m.fns.iter().enumerate() {
            if !f.in_test && f.body.is_some() && params_contain(m, f, "TxnOps") {
                ops_fns.entry(f.name.as_str()).or_default().push((mi, fi));
            }
        }
    }

    // Fixpoint over `may_write`: seed with direct `.write(` calls, then
    // propagate backwards along calls into TxnOps-taking functions.
    let direct_write = |m: &FileModel, body: (usize, usize)| -> Option<u32> {
        let t = &m.tokens;
        (body.0..body.1).find_map(|i| {
            (ident_at(t, i) == Some("write")
                && i > body.0
                && is_punct(t, i - 1, '.')
                && is_punct(t, i + 1, '('))
            .then(|| t[i].line)
        })
    };
    let mut may_write: BTreeSet<(usize, usize)> = BTreeSet::new();
    let mut callees: BTreeMap<(usize, usize), BTreeSet<(usize, usize)>> = BTreeMap::new();
    for defs in ops_fns.values() {
        for &(mi, fi) in defs {
            let m = &files[mi];
            let body = m.fns[fi].body.expect("ops_fns keeps bodied fns only");
            if direct_write(m, body).is_some() {
                may_write.insert((mi, fi));
            }
            let mut set = BTreeSet::new();
            for (name, _) in callee_names(m, body) {
                if let Some(next) = ops_fns.get(name.as_str()) {
                    set.extend(next.iter().copied());
                }
            }
            callees.insert((mi, fi), set);
        }
    }
    loop {
        let mut changed = false;
        for (caller, set) in &callees {
            if !may_write.contains(caller) && set.iter().any(|c| may_write.contains(c)) {
                may_write.insert(*caller);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let mut out = Vec::new();
    for m in files {
        for f in &m.fns {
            if f.in_test {
                continue;
            }
            let Some((start, end)) = f.body else { continue };
            let t = &m.tokens;
            for i in start..end {
                if ident_at(t, i) != Some("execute_hinted") || !is_punct(t, i + 1, '(') {
                    continue;
                }
                let args = match argument_range(m, i + 1, end) {
                    Some(r) => r,
                    None => continue,
                };
                if !declares_read_only(m, args) {
                    continue;
                }
                if let Some(line) = direct_write(m, args) {
                    out.push(finding(
                        m,
                        f,
                        line,
                        "write-in-pure-body",
                        "body dispatched with read_only = true calls TxnOps::write; \
                         the R attempt always trips and demotes",
                    ));
                }
                for (name, at) in callee_names(m, args) {
                    if let Some(defs) = ops_fns.get(name.as_str()) {
                        if defs.iter().any(|d| may_write.contains(d)) {
                            out.push(finding(
                                m,
                                f,
                                t[at].line,
                                "write-reachable-from-pure-body",
                                &format!(
                                    "body dispatched with read_only = true calls `{name}`, \
                                     which (transitively) performs TxnOps::write"
                                ),
                            ));
                        }
                    }
                }
            }
        }
    }
    out
}

/// Whether the argument tokens declare purity: `read_only(` (the
/// `TxnHint::read_only` constructor) or `read_only : true` (struct
/// literal syntax).
fn declares_read_only(m: &FileModel, args: (usize, usize)) -> bool {
    let t = &m.tokens;
    (args.0..args.1).any(|i| {
        ident_at(t, i) == Some("read_only")
            && (is_punct(t, i + 1, '(')
                || (is_punct(t, i + 1, ':') && ident_at(t, i + 2) == Some("true")))
    })
}

fn finding(m: &FileModel, f: &crate::scan::FnInfo, line: u32, code: &str, why: &str) -> Finding {
    Finding {
        rule: RULE.to_string(),
        file: m.path.clone(),
        line,
        function: f.name.clone(),
        code: code.to_string(),
        detail: why.to_string(),
    }
}
