//! Lock-order: extract the static lock-acquisition graph and fail on
//! potential deadlock cycles; the discovered order is emitted as a
//! machine-checked artifact (`lint-lock-order.json`).
//!
//! ## Model
//!
//! Acquisition *sites* are recognized per function:
//!
//! * `try_shared(..)` / `try_exclusive(..)` / `try_upgrade(..)` — the
//!   per-vertex 2PL lock words (class `vertex_lock`, try-only at the
//!   call itself; the blocking wrappers in `tpl.rs` — the incremental
//!   acquisition and the declared path's wait — carry
//!   `lock-acquire(vertex_lock)` markers).
//! * `try_lock_line(..)` / `try_lock_lines(..)` — the HTM emulation's
//!   per-line commit locks (class `htm_line_lock`, bounded-try,
//!   address-sorted); the waiting acquisitions — `lock_lines` in the
//!   HSync fallback's commit batch and in 2PL's declared acquire and
//!   release —
//!   carry `lock-acquire(htm_line_lock)` markers.
//! * `recv.lock(..)` — a mutex, classed `mutex:<file>.<recv>`.
//! * `// tufast-lint: lock-acquire(<class>)` — a blocking acquisition
//!   the patterns cannot see (CAS spin loops on token words, and the line
//!   that takes an RAII hold such as `SerialHold`, which stays held after
//!   the call that took it returns).
//!
//! A *summary* (which classes a function may acquire, transitively) is
//! propagated over a name-based call graph, with one semantic bridge:
//! `run_body` dispatches the transaction body through `dyn TxnOps`, so
//! it may call every `fn` defined in an `impl TxnOps for ..` block.
//!
//! Edges `A -> B` mean "B acquired while A may be held": A must come
//! from a *direct* site (locks acquired inside callees are assumed
//! released on return — the one deliberate under-approximation, noted
//! in the artifact); B may come from a direct site or a callee summary.
//! A cycle among blocking targets is a potential deadlock. Classes with
//! a documented intra-class discipline (`vertex_lock`: runtime deadlock
//! detection; `htm_line_lock`: sorted + bounded-try) are exempt from
//! self-edges.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use crate::finding::Finding;
use crate::rules::{callee_names, ident_at, is_punct};
use crate::scan::FileModel;

pub const RULE: &str = "lock-order";

/// Raw try-acquisition patterns: callee name → class.
const TRY_PATTERNS: &[(&str, &str)] = &[
    ("try_shared", "vertex_lock"),
    ("try_exclusive", "vertex_lock"),
    ("try_upgrade", "vertex_lock"),
    ("try_lock_line", "htm_line_lock"),
    ("try_lock_lines", "htm_line_lock"),
];

/// Classes whose intra-class (self-edge) discipline is established
/// elsewhere and documented in the artifact notes.
const SELF_ORDERED: &[&str] = &["vertex_lock", "htm_line_lock"];

/// Documentation notes keyed by class (carried into the artifact).
const CLASS_NOTES: &[(&str, &str)] = &[
    (
        "vertex_lock",
        "per-vertex 2PL lock words; discovered acquisitions take them in any order and rely on \
         runtime deadlock detection/victimization; declared acquisitions (2PL execute_declared) \
         are all-or-nothing under their sorted line locks and wait with nothing held, so they \
         close no cycle; both orders release every hold in one line-lock batch; the optimistic \
         commit paths (O mode, OCC, TO) take none and test the words under their line locks \
         instead",
    ),
    (
        "htm_line_lock",
        "per-line commit locks of the HTM/STM commits and the schedulers' commit batches; always \
         acquired in sorted address order, bounded-try by every optimistic committer, waited for \
         only by the one release batch of 2PL (both lock orders) and the HSync fallback and by \
         2PL's declared acquire batch, whose holders never wait for a vertex lock (a declared \
         acquire that finds one busy lets its lines go first); never held across user code",
    ),
    (
        "serial_token",
        "the single global stop-the-world word (serial-fallback ladder and epoch coordinator)",
    ),
    (
        "hsync_fallback",
        "HSync's global fallback lock word; subscription makes it mutually safe with the HTM path",
    ),
    (
        "mutex:durable.wal",
        "the durable-graph commit lock: WAL append + fsync + transactional apply happen under it, \
         so log order is commit order; it may wait on scheduler locks but never the reverse",
    ),
];

/// Callee names never resolved when propagating lock summaries: common
/// std-collection/iterator methods whose names collide with first-party
/// functions (`Vec::push` vs `Band::push`) or that cannot take locks.
const RESOLVE_BLOCKLIST: &[&str] = &[
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "get_mut",
    "clear",
    "drain",
    "extend",
    "len",
    "iter",
    "iter_mut",
    "next",
    "map",
    "take",
    "drop",
    "clone",
    "store",
    "load",
    "swap",
    "read",
    "write",
    "send",
    "recv",
    "fmt",
    "eq",
    "cmp",
    "hash",
    "min",
    "max",
    "new",
    "default",
    "from",
    "into",
    "unwrap",
    "expect",
    "unwrap_or",
    "unwrap_or_else",
    "is_some",
    "is_none",
    "is_ok",
    "is_err",
    "ok",
    "err",
    "as_ref",
    "as_mut",
    "collect",
    "filter",
    "fold",
    "for_each",
    "find",
    "any",
    "all",
    "sum",
    "count",
    "enumerate",
    "zip",
    "contains",
    "sort",
    "sort_unstable",
    "dedup",
    "with_capacity",
    "reserve",
    "resize",
    "truncate",
    "is_empty",
    "last",
    "first",
];

/// One acquisition site (direct or via a callee summary).
struct Site {
    line: u32,
    /// (class, acquired-blocking).
    classes: Vec<(String, bool)>,
    direct: bool,
}

/// One acquisition of `to` while `from` may be held, at `line`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct SiteEdge {
    from: String,
    to: String,
    file: String,
    function: String,
    line: u32,
    blocking_target: bool,
    suppressed: bool,
}

/// A lock-order edge for the artifact: every site in one function where
/// `to` is acquired while `from` may be held. No line numbers, so the
/// artifact changes only when the lock hierarchy does. The flags describe
/// the most dangerous sites: `blocking_target` if any site's acquisition
/// blocks, `suppressed` if every such site carries a reasoned allow.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Edge {
    pub from: String,
    pub to: String,
    pub file: String,
    pub function: String,
    pub sites: u32,
    pub blocking_target: bool,
    pub suppressed: bool,
}

/// The lock-order analysis result.
pub struct LockOrder {
    /// class → (blocking seen, direct site count).
    pub classes: BTreeMap<String, (bool, u32)>,
    pub edges: Vec<Edge>,
    /// Topological order over the unsuppressed blocking-target subgraph;
    /// empty when that graph is cyclic (the findings carry the cycles).
    pub order: Vec<String>,
}

fn file_stem(path: &str) -> &str {
    path.rsplit('/')
        .next()
        .unwrap_or(path)
        .trim_end_matches(".rs")
}

/// Direct sites of one function, and the token indices they occupy
/// (excluded from callee resolution).
fn direct_sites(m: &FileModel, body: (usize, usize)) -> (Vec<(usize, Site)>, BTreeSet<usize>) {
    let t = &m.tokens;
    let stem = file_stem(&m.path);
    let mut sites = Vec::new();
    let mut occupied = BTreeSet::new();
    for i in body.0..body.1 {
        let Some(name) = ident_at(t, i) else { continue };
        if !is_punct(t, i + 1, '(') {
            continue;
        }
        if let Some((_, class)) = TRY_PATTERNS.iter().find(|(n, _)| *n == name) {
            sites.push((
                i,
                Site {
                    line: t[i].line,
                    classes: vec![((*class).to_string(), false)],
                    direct: true,
                },
            ));
            occupied.insert(i);
        } else if name == "lock" && i > body.0 && is_punct(t, i - 1, '.') {
            let recv = ident_at(t, i.wrapping_sub(2)).unwrap_or("expr");
            sites.push((
                i,
                Site {
                    line: t[i].line,
                    classes: vec![(format!("mutex:{stem}.{recv}"), true)],
                    direct: true,
                },
            ));
            occupied.insert(i);
        }
    }
    // lock-acquire(<class>) marks landing inside this body.
    for mark in &m.acquire_marks {
        if let Some(idx) = (body.0..body.1).find(|&j| t[j].line == mark.line) {
            sites.push((
                idx,
                Site {
                    line: mark.line,
                    classes: vec![(mark.class.clone(), true)],
                    direct: true,
                },
            ));
        }
    }
    (sites, occupied)
}

/// Run the pass over all files; returns findings plus the artifact data.
pub fn run(files: &[FileModel]) -> (Vec<Finding>, LockOrder) {
    // ---- function universe -------------------------------------------------
    let mut by_name: BTreeMap<&str, Vec<(usize, usize)>> = BTreeMap::new();
    let mut txn_ops_impls: Vec<(usize, usize)> = Vec::new();
    for (mi, m) in files.iter().enumerate() {
        for (fi, f) in m.fns.iter().enumerate() {
            if f.in_test || f.body.is_none() {
                continue;
            }
            by_name.entry(f.name.as_str()).or_default().push((mi, fi));
            if f.impl_of.as_deref() == Some("TxnOps") {
                txn_ops_impls.push((mi, fi));
            }
        }
    }

    // ---- per-fn direct sites + resolvable callees --------------------------
    // (token idx, line, resolved definitions) of one call site.
    type Callee = (usize, u32, Vec<(usize, usize)>);
    struct FnData {
        sites: Vec<(usize, Site)>,
        callees: Vec<Callee>,
    }
    let mut data: BTreeMap<(usize, usize), FnData> = BTreeMap::new();
    for (mi, m) in files.iter().enumerate() {
        for (fi, f) in m.fns.iter().enumerate() {
            if f.in_test {
                continue;
            }
            let Some(body) = f.body else { continue };
            let (sites, occupied) = direct_sites(m, body);
            let mut callees = Vec::new();
            for (name, idx) in callee_names(m, body) {
                if occupied.contains(&idx) || RESOLVE_BLOCKLIST.contains(&name.as_str()) {
                    continue;
                }
                let mut defs = by_name.get(name.as_str()).cloned().unwrap_or_default();
                if name == "run_body" {
                    // Dynamic-dispatch bridge: the body may call any TxnOps impl.
                    defs.extend(txn_ops_impls.iter().copied());
                }
                if !defs.is_empty() {
                    callees.push((idx, m.tokens[idx].line, defs));
                }
            }
            data.insert((mi, fi), FnData { sites, callees });
        }
    }

    // ---- transitive may-acquire summaries (fixpoint) -----------------------
    let mut summary: BTreeMap<(usize, usize), BTreeMap<String, bool>> = BTreeMap::new();
    for (key, d) in &data {
        let mut s = BTreeMap::new();
        for (_, site) in &d.sites {
            for (c, blocking) in &site.classes {
                let e = s.entry(c.clone()).or_insert(false);
                *e = *e || *blocking;
            }
        }
        summary.insert(*key, s);
    }
    loop {
        let mut changed = false;
        let keys: Vec<_> = data.keys().copied().collect();
        for key in keys {
            let mut add: Vec<(String, bool)> = Vec::new();
            for (_, _, defs) in &data[&key].callees {
                for def in defs {
                    if *def == key {
                        continue;
                    }
                    if let Some(s) = summary.get(def) {
                        for (c, b) in s {
                            add.push((c.clone(), *b));
                        }
                    }
                }
            }
            let s = summary.get_mut(&key).unwrap();
            for (c, b) in add {
                let e = s.entry(c).or_insert_with(|| {
                    changed = true;
                    b
                });
                if b && !*e {
                    *e = true;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // ---- edges -------------------------------------------------------------
    let mut classes: BTreeMap<String, (bool, u32)> = BTreeMap::new();
    for d in data.values() {
        for (_, site) in &d.sites {
            for (c, blocking) in &site.classes {
                let e = classes.entry(c.clone()).or_insert((false, 0));
                e.0 = e.0 || *blocking;
                e.1 += 1;
            }
        }
    }

    let mut edges: BTreeSet<SiteEdge> = BTreeSet::new();
    for ((mi, fi), d) in &data {
        let m = &files[*mi];
        let f = &m.fns[*fi];
        // Ordered site list: direct sites plus callee-summary sites.
        let mut all: Vec<Site> = Vec::new();
        for (idx, site) in &d.sites {
            let _ = idx;
            all.push(Site {
                line: site.line,
                classes: site.classes.clone(),
                direct: true,
            });
        }
        let mut order_keys: Vec<(usize, usize)> = d
            .sites
            .iter()
            .enumerate()
            .map(|(k, (idx, _))| (*idx, k))
            .collect();
        for (idx, line, defs) in &d.callees {
            let mut cl: BTreeMap<String, bool> = BTreeMap::new();
            for def in defs {
                if let Some(s) = summary.get(def) {
                    for (c, b) in s {
                        let e = cl.entry(c.clone()).or_insert(false);
                        *e = *e || *b;
                    }
                }
            }
            if cl.is_empty() {
                continue;
            }
            order_keys.push((*idx, all.len()));
            all.push(Site {
                line: *line,
                classes: cl.into_iter().collect(),
                direct: false,
            });
        }
        order_keys.sort();
        let ordered: Vec<&Site> = order_keys.iter().map(|(_, k)| &all[*k]).collect();
        for i in 0..ordered.len() {
            if !ordered[i].direct {
                continue; // callee-held locks assumed released on return
            }
            for j in (i + 1)..ordered.len() {
                for (a, _) in &ordered[i].classes {
                    for (b, b_blocking) in &ordered[j].classes {
                        if a == b && SELF_ORDERED.contains(&a.as_str()) {
                            continue;
                        }
                        edges.insert(SiteEdge {
                            from: a.clone(),
                            to: b.clone(),
                            file: m.path.clone(),
                            function: f.name.clone(),
                            line: ordered[j].line,
                            blocking_target: *b_blocking,
                            suppressed: m.suppressed(RULE, ordered[j].line),
                        });
                    }
                }
            }
        }
    }

    // ---- findings: self-edges and cycles ----------------------------------
    let mut findings = Vec::new();
    let live: Vec<&SiteEdge> = edges
        .iter()
        .filter(|e| !e.suppressed && e.blocking_target)
        .collect();
    for e in &live {
        if e.from == e.to {
            findings.push(Finding {
                rule: RULE.to_string(),
                file: e.file.clone(),
                line: e.line,
                function: e.function.clone(),
                code: "self-cycle".to_string(),
                detail: format!(
                    "lock class `{}` re-acquired (blocking) while already held, with no \
                     documented intra-class order",
                    e.from
                ),
            });
        }
    }
    // Cycle detection (iterative DFS, deterministic order).
    let mut adj: BTreeMap<&str, Vec<&SiteEdge>> = BTreeMap::new();
    for e in &live {
        if e.from != e.to {
            adj.entry(e.from.as_str()).or_default().push(e);
        }
    }
    let mut seen_cycles: BTreeSet<Vec<String>> = BTreeSet::new();
    let nodes: Vec<&str> = adj.keys().copied().collect();
    for &start in &nodes {
        // DFS from `start`, only reporting cycles that return to `start`
        // and only when `start` is the lexicographically smallest class in
        // the cycle (canonical form, so each cycle is reported once).
        let mut stack: Vec<(&str, usize)> = vec![(start, 0)];
        let mut path: Vec<&SiteEdge> = Vec::new();
        while let Some((node, next)) = stack.pop() {
            let succ = adj.get(node).map(|v| v.as_slice()).unwrap_or(&[]);
            if next < succ.len() {
                stack.push((node, next + 1));
                let e = succ[next];
                if e.to == start {
                    let mut cyc: Vec<String> = path.iter().map(|p| p.from.clone()).collect();
                    cyc.push(node.to_string());
                    if cyc.iter().min().map(String::as_str) == Some(start)
                        && seen_cycles.insert(cyc.clone())
                    {
                        let mut chain = cyc.join(" -> ");
                        chain.push_str(" -> ");
                        chain.push_str(start);
                        findings.push(Finding {
                            rule: RULE.to_string(),
                            file: e.file.clone(),
                            line: e.line,
                            function: e.function.clone(),
                            code: "deadlock-cycle".to_string(),
                            detail: format!("lock acquisition cycle: {chain}"),
                        });
                    }
                } else if e.to.as_str() > start
                    && !path.iter().any(|p| p.from == e.to)
                    && node != e.to
                {
                    path.push(e);
                    stack.push((e.to.as_str(), 0));
                }
            } else if path.last().map(|p| p.to.as_str()) == Some(node) {
                path.pop();
            }
        }
    }

    // ---- dangling lock-acquire marks --------------------------------------
    for (mi, m) in files.iter().enumerate() {
        let _ = mi;
        for mark in &m.acquire_marks {
            let bound = m.fns.iter().any(|f| {
                f.body
                    .is_some_and(|(s, e)| (s..e).any(|j| m.tokens[j].line == mark.line))
                    && !f.in_test
            });
            let in_test_fn = m.fns.iter().any(|f| {
                f.in_test
                    && f.body
                        .is_some_and(|(s, e)| (s..e).any(|j| m.tokens[j].line == mark.line))
            });
            if !bound && !in_test_fn {
                findings.push(Finding {
                    rule: RULE.to_string(),
                    file: m.path.clone(),
                    line: mark.line,
                    function: "<module>".to_string(),
                    code: "dangling-directive".to_string(),
                    detail: format!(
                        "lock-acquire({}) marker does not land inside any function body",
                        mark.class
                    ),
                });
            }
        }
    }

    // ---- topological order -------------------------------------------------
    let order = topo_order(&live);

    // ---- artifact edges: a function's sites of one edge, counted -----------
    let mut merged: BTreeMap<(&str, &str, &str, &str), Edge> = BTreeMap::new();
    for s in &edges {
        let e = merged
            .entry((&s.from, &s.to, &s.file, &s.function))
            .or_insert_with(|| Edge {
                from: s.from.clone(),
                to: s.to.clone(),
                file: s.file.clone(),
                function: s.function.clone(),
                sites: 0,
                blocking_target: false,
                suppressed: true,
            });
        e.sites += 1;
        if s.blocking_target && !e.blocking_target {
            // Blocking sites outrank the try-only ones seen so far.
            (e.blocking_target, e.suppressed) = (true, true);
        }
        if s.blocking_target == e.blocking_target {
            e.suppressed &= s.suppressed;
        }
    }

    (
        findings,
        LockOrder {
            classes,
            edges: merged.into_values().collect(),
            order,
        },
    )
}

/// Kahn's algorithm over the blocking-target subgraph; empty on cycles.
fn topo_order(live: &[&SiteEdge]) -> Vec<String> {
    let mut nodes: BTreeSet<&str> = BTreeSet::new();
    let mut indeg: BTreeMap<&str, usize> = BTreeMap::new();
    let mut succ: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in live {
        if e.from == e.to {
            continue;
        }
        nodes.insert(e.from.as_str());
        nodes.insert(e.to.as_str());
        if succ
            .entry(e.from.as_str())
            .or_default()
            .insert(e.to.as_str())
        {
            *indeg.entry(e.to.as_str()).or_insert(0) += 1;
        }
        indeg.entry(e.from.as_str()).or_insert(0);
    }
    let mut ready: Vec<&str> = nodes
        .iter()
        .filter(|n| indeg.get(*n).copied().unwrap_or(0) == 0)
        .copied()
        .collect();
    let mut out = Vec::new();
    while let Some(n) = ready.pop() {
        out.push(n.to_string());
        for s in succ.get(n).cloned().unwrap_or_default() {
            let d = indeg.get_mut(s).unwrap();
            *d -= 1;
            if *d == 0 {
                ready.push(s);
                ready.sort();
                ready.reverse(); // pop smallest first → deterministic
            }
        }
    }
    if out.len() == nodes.len() {
        out
    } else {
        Vec::new()
    }
}

/// Class note for the artifact.
pub fn class_note(class: &str) -> &'static str {
    CLASS_NOTES
        .iter()
        .find(|(c, _)| *c == class)
        .map(|(_, n)| *n)
        .unwrap_or("")
}

/// Render the artifact as canonical JSON.
pub fn artifact_json(lo: &LockOrder) -> String {
    let mut out = String::from("{\n  \"version\": 2,\n  \"note\": \"A -> B means B is acquired while A may be held, at `sites` places in `function`. Locks acquired inside callees are assumed released on return; blocking_target=false edges end in bounded-try acquisitions and cannot deadlock; suppressed=true means every blocking site carries a reasoned allow.\",\n  \"classes\": [");
    for (i, (name, (blocking, sites))) in lo.classes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"name\": \"{}\", \"blocking\": {}, \"sites\": {}, \"note\": \"{}\"}}",
            esc(name),
            blocking,
            sites,
            esc(class_note(name))
        );
    }
    out.push_str("\n  ],\n  \"edges\": [");
    for (i, e) in lo.edges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"from\": \"{}\", \"to\": \"{}\", \"file\": \"{}\", \"function\": \"{}\", \"sites\": {}, \"blocking_target\": {}, \"suppressed\": {}}}",
            esc(&e.from),
            esc(&e.to),
            esc(&e.file),
            esc(&e.function),
            e.sites,
            e.blocking_target,
            e.suppressed
        );
    }
    out.push_str("\n  ],\n  \"order\": [");
    for (i, c) in lo.order.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\"", esc(c));
    }
    out.push_str("]\n}\n");
    out
}

/// Escape `s` as the inside of a JSON string literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn esc_escapes_quotes_backslashes_and_controls() {
        assert_eq!(super::esc("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
    }
}
