//! Untracked peek: `TxnSystem::peek_committed` must stay outside
//! transaction bodies.
//!
//! The peek is a plain load behind a line seqlock — no lock, no
//! read-set entry. On RTM every load after `XBEGIN` is tracked, so a peek
//! inside a body would shrink the *emulated* footprint but not the real
//! one: the capacity model, the H/O/L router and every counter would
//! under-count what the hardware holds. Filter first, then dispatch
//! (`tufast-algos`' `MinDrain::item`).
//!
//! A dispatch site is a call `execute(...)`, `execute_hinted(...)` or
//! `execute_declared(...)`; the pass flags any
//! `peek_committed(` inside its argument range — which includes the body
//! closure (the same range walk as `read-purity`). Direct calls only;
//! `#[cfg(test)]` code is exempt (tests peek mid-body to observe an open
//! writer).

use crate::baseline::Finding;
use crate::rules::{argument_range, ident_at, is_ident, is_punct};
use crate::scan::FileModel;

pub const RULE: &str = "untracked-peek";

const DISPATCHES: &[&str] = &["execute", "execute_hinted", "execute_declared"];

pub fn run(files: &[FileModel]) -> Vec<Finding> {
    let mut out = Vec::new();
    for m in files {
        let t = &m.tokens;
        for f in m.fns.iter().filter(|f| !f.in_test) {
            let Some((start, end)) = f.body else { continue };
            for i in start..end {
                let dispatch = ident_at(t, i).is_some_and(|name| DISPATCHES.contains(&name))
                    && is_punct(t, i + 1, '(')
                    && !(i > 0 && is_ident(t, i - 1, "fn"));
                if !dispatch {
                    continue;
                }
                let Some((from, to)) = argument_range(m, i + 1, end) else {
                    continue;
                };
                for at in (from..to)
                    .filter(|&at| is_ident(t, at, "peek_committed") && is_punct(t, at + 1, '('))
                {
                    out.push(Finding {
                        rule: RULE.to_string(),
                        file: m.path.clone(),
                        line: t[at].line,
                        function: f.name.clone(),
                        code: "peek-in-transaction-body".to_string(),
                        detail: "peek_committed inside a dispatched transaction body: an \
                                 untracked load under-counts the RTM footprint; filter before \
                                 the dispatch"
                            .to_string(),
                    });
                }
            }
        }
    }
    out
}
