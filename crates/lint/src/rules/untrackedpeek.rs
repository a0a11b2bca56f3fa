//! Untracked peek: `TxnSystem::peek_committed` and
//! `TxnSystem::load_committed` must stay outside transaction bodies.
//!
//! Both are plain loads — the peek behind a line seqlock, the committed
//! load bare — with no lock and no read-set entry. On RTM every load
//! after `XBEGIN` is tracked, so either inside a body would shrink the
//! *emulated* footprint but not the real one: the capacity model, the
//! H/O/L router and every counter would under-count what the hardware
//! holds. Filter first, then dispatch (`tufast-algos`' `MinDrain::item`).
//!
//! A dispatch site is a call `execute(...)`, `execute_hinted(...)` or
//! `execute_declared(...)`; the pass flags any `peek_committed(` or
//! `load_committed(` inside its argument range — which includes the body
//! closure (the same range walk as `read-purity`). Direct calls only;
//! `#[cfg(test)]` code is exempt (tests peek mid-body to observe an open
//! writer).

use crate::finding::Finding;
use crate::rules::{argument_range, ident_at, is_ident, is_punct};
use crate::scan::FileModel;

pub const RULE: &str = "untracked-peek";

const DISPATCHES: &[&str] = &["execute", "execute_hinted", "execute_declared"];
const UNTRACKED: &[&str] = &["peek_committed", "load_committed"];

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
                for at in from..to {
                    let Some(name) = ident_at(t, at).filter(|name| UNTRACKED.contains(name)) else {
                        continue;
                    };
                    if !is_punct(t, at + 1, '(') {
                        continue;
                    }
                    out.push(Finding {
                        rule: RULE.to_string(),
                        file: m.path.clone(),
                        line: t[at].line,
                        function: f.name.clone(),
                        code: "peek-in-transaction-body".to_string(),
                        detail: format!(
                            "{name} inside a dispatched transaction body: an untracked load \
                             under-counts the RTM footprint; filter before the dispatch"
                        ),
                    });
                }
            }
        }
    }
    out
}
