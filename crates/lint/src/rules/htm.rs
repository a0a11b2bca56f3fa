//! HTM-hazard: heap allocation, I/O, and panics inside code that runs
//! within a hardware transaction.
//!
//! Real HTM aborts on anything that escapes the transactional cache
//! footprint: `malloc` (allocation), syscalls (I/O), and unwinding
//! (`panic!`/`unwrap`). The emulation in `tufast-htm` tolerates all
//! three, so only this pass keeps the code honest about what would
//! survive on TSX-class hardware.
//!
//! A function is an HTM scope when its parameter list mentions `HtmCtx`
//! (the H/O attempt drivers) or when it carries a
//! `// tufast-lint: htm-scope` marker (ops structs that reach the HTM
//! through `self.ctx`). `#[cfg(test)]` code is exempt.

use crate::finding::Finding;
use crate::lexer::Tok;
use crate::rules::{ident_at, is_punct};
use crate::scan::{params_contain, FileModel};

pub const RULE: &str = "htm-hazard";

/// Banned macros: `name!` → (code, why).
const MACRO_BAN: &[(&str, &str, &str)] = &[
    (
        "format",
        "alloc-in-htm",
        "`format!` allocates; malloc aborts a real HTM transaction",
    ),
    (
        "vec",
        "alloc-in-htm",
        "`vec!` allocates; malloc aborts a real HTM transaction",
    ),
    (
        "println",
        "io-in-htm",
        "`println!` performs a write syscall; syscalls abort HTM",
    ),
    (
        "eprintln",
        "io-in-htm",
        "`eprintln!` performs a write syscall; syscalls abort HTM",
    ),
    (
        "print",
        "io-in-htm",
        "`print!` performs a write syscall; syscalls abort HTM",
    ),
    (
        "eprint",
        "io-in-htm",
        "`eprint!` performs a write syscall; syscalls abort HTM",
    ),
    (
        "dbg",
        "io-in-htm",
        "`dbg!` writes to stderr; syscalls abort HTM",
    ),
    (
        "panic",
        "panic-in-htm",
        "`panic!` unwinds through the open transaction",
    ),
    (
        "todo",
        "panic-in-htm",
        "`todo!` unwinds through the open transaction",
    ),
    (
        "unimplemented",
        "panic-in-htm",
        "`unimplemented!` unwinds through the open transaction",
    ),
];

/// Banned methods: `.name(` → (code, why). Token-exact, so `unwrap_or`
/// never matches `unwrap`.
const METHOD_BAN: &[(&str, &str, &str)] = &[
    (
        "unwrap",
        "panic-in-htm",
        "`.unwrap()` can unwind through the open transaction",
    ),
    (
        "expect",
        "panic-in-htm",
        "`.expect()` can unwind through the open transaction",
    ),
    (
        "clone",
        "alloc-in-htm",
        "`.clone()` on an owned collection allocates inside the transaction",
    ),
    (
        "push",
        "alloc-in-htm",
        "`.push()` may reallocate its buffer inside the transaction",
    ),
    (
        "insert",
        "alloc-in-htm",
        "`.insert()` may grow its table inside the transaction",
    ),
    (
        "entry",
        "alloc-in-htm",
        "`.entry()` inserts when the key is absent and may grow its table inside the transaction",
    ),
    (
        "collect",
        "alloc-in-htm",
        "`.collect()` allocates inside the transaction",
    ),
    (
        "to_string",
        "alloc-in-htm",
        "`.to_string()` allocates inside the transaction",
    ),
    (
        "to_owned",
        "alloc-in-htm",
        "`.to_owned()` allocates inside the transaction",
    ),
    (
        "to_vec",
        "alloc-in-htm",
        "`.to_vec()` allocates inside the transaction",
    ),
    (
        "reserve",
        "alloc-in-htm",
        "`.reserve()` reallocates inside the transaction",
    ),
    (
        "extend",
        "alloc-in-htm",
        "`.extend()` may reallocate inside the transaction",
    ),
    (
        "extend_from_slice",
        "alloc-in-htm",
        "`.extend_from_slice()` may reallocate inside the transaction",
    ),
    (
        "append",
        "io-in-htm",
        "`.append()` writes a WAL frame (or splices a buffer); durable I/O aborts HTM",
    ),
    (
        "commit_sync",
        "io-in-htm",
        "`.commit_sync()` may fsync the WAL; syscalls abort HTM",
    ),
    (
        "sync_now",
        "io-in-htm",
        "`.sync_now()` fsyncs the WAL; syscalls abort HTM",
    ),
    (
        "sync_data",
        "io-in-htm",
        "`.sync_data()` is an fdatasync syscall; syscalls abort HTM",
    ),
    (
        "sync_all",
        "io-in-htm",
        "`.sync_all()` is an fsync syscall; syscalls abort HTM",
    ),
];

/// Banned paths: `A::B` → (code, why).
const PATH_BAN: &[(&str, &str, &str, &str)] = &[
    (
        "Box",
        "new",
        "alloc-in-htm",
        "`Box::new` allocates inside the transaction",
    ),
    (
        "String",
        "from",
        "alloc-in-htm",
        "`String::from` allocates inside the transaction",
    ),
    (
        "String",
        "new",
        "alloc-in-htm",
        "`String::new` can allocate inside the transaction",
    ),
    (
        "Vec",
        "new",
        "alloc-in-htm",
        "`Vec::new` prepares an allocating buffer inside the transaction",
    ),
    (
        "Vec",
        "with_capacity",
        "alloc-in-htm",
        "`Vec::with_capacity` allocates inside the transaction",
    ),
    (
        "File",
        "open",
        "io-in-htm",
        "`File::open` is a syscall; syscalls abort HTM",
    ),
    (
        "File",
        "create",
        "io-in-htm",
        "`File::create` is a syscall; syscalls abort HTM",
    ),
    (
        "std",
        "fs",
        "io-in-htm",
        "`std::fs` operations are syscalls; syscalls abort HTM",
    ),
    (
        "std",
        "io",
        "io-in-htm",
        "`std::io` operations are syscalls; syscalls abort HTM",
    ),
    (
        "WalWriter",
        "create",
        "io-in-htm",
        "`WalWriter::create` opens and syncs a log file; syscalls abort HTM",
    ),
    (
        "WalWriter",
        "open",
        "io-in-htm",
        "`WalWriter::open` reads and truncates a log file; syscalls abort HTM",
    ),
];

pub fn run(files: &[FileModel]) -> Vec<Finding> {
    let mut out = Vec::new();
    for m in files {
        for f in &m.fns {
            if f.in_test {
                continue;
            }
            let scoped = f.htm_scope || params_contain(m, f, "HtmCtx");
            if !scoped {
                continue;
            }
            let Some((start, end)) = f.body else { continue };
            let t = &m.tokens;
            for i in start..end {
                let Some(name) = ident_at(t, i) else { continue };
                let line = t[i].line;
                // Macro bans: `name !`.
                if is_punct(t, i + 1, '!') {
                    if let Some((_, code, why)) = MACRO_BAN.iter().find(|(n, _, _)| *n == name) {
                        out.push(finding(m, f, line, code, why));
                    }
                    continue;
                }
                // Method bans: `. name (`.
                if i > start && is_punct(t, i - 1, '.') && is_punct(t, i + 1, '(') {
                    if let Some((_, code, why)) = METHOD_BAN.iter().find(|(n, _, _)| *n == name) {
                        out.push(finding(m, f, line, code, why));
                    }
                    continue;
                }
                // Path bans: `A :: B`.
                if is_punct(t, i + 1, ':')
                    && is_punct(t, i + 2, ':')
                    && matches!(t.get(i + 3).map(|x| &x.tok), Some(Tok::Ident(_)))
                {
                    let b = ident_at(t, i + 3).unwrap_or("");
                    if let Some((_, _, code, why)) = PATH_BAN
                        .iter()
                        .find(|(pa, pb, _, _)| *pa == name && *pb == b)
                    {
                        out.push(finding(m, f, line, code, why));
                    }
                }
            }
        }
    }
    out
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
