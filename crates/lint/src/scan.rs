//! The item scanner: walks a token stream and recovers the structure the
//! rules need — functions (name, parameter tokens, body token range),
//! `#[cfg(test)]` exclusion, and the `tufast-lint:` directives bound to
//! items or lines.
//!
//! Directives (in `//` or `/* */` comments):
//!
//! * `tufast-lint: allow(<rule>) -- <reason>` — suppress findings of
//!   `<rule>` on this line and the next code line. The reason is
//!   mandatory: a missing one is itself a finding.
//! * `tufast-lint: htm-scope` — the next `fn` (or every fn in the next
//!   `impl` block) runs inside a hardware transaction; the HTM-hazard
//!   rule scans it.
//! * `tufast-lint: unwind-entry` — the next `fn` is a scheduler entry
//!   point that must route worker closures through `catch_unwind`.

use crate::lexer::{lex, Comment, Tok, Token};

/// One scanned function.
#[derive(Debug)]
pub struct FnInfo {
    pub name: String,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Token index range of the parameter list (inside the parens).
    pub params: (usize, usize),
    /// Token index range of the body (inside the braces); `None` for
    /// bodyless trait declarations.
    pub body: Option<(usize, usize)>,
    /// Inside a `#[cfg(test)]` module or under `#[test]`.
    pub in_test: bool,
    /// Marked (directly or via its impl block) as an HTM scope.
    pub htm_scope: bool,
    /// Marked as an unwind-containment entry point.
    pub unwind_entry: bool,
}

/// An inline suppression.
#[derive(Debug)]
pub struct Suppression {
    pub rule: String,
    /// Lines the suppression covers (its own line + the next code line).
    pub lines: Vec<u32>,
    pub has_reason: bool,
    /// Line of the directive itself (for missing-reason findings).
    pub line: u32,
}

/// Everything the rules need from one source file.
pub struct FileModel {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    pub tokens: Vec<Token>,
    pub fns: Vec<FnInfo>,
    pub suppressions: Vec<Suppression>,
    /// Malformed directives: (line, message).
    pub directive_errors: Vec<(u32, String)>,
}

impl FileModel {
    /// Index of the function whose body contains token `idx`, if any.
    pub fn fn_at(&self, idx: usize) -> Option<usize> {
        self.fns
            .iter()
            .position(|f| f.body.is_some_and(|(s, e)| idx >= s && idx < e))
    }

    /// True if `line` of `rule` findings is suppressed.
    pub fn suppressed(&self, rule: &str, line: u32) -> bool {
        self.suppressions
            .iter()
            .any(|s| s.rule == rule && s.lines.contains(&line))
    }
}

#[derive(Debug)]
enum Directive {
    Allow { rule: String, has_reason: bool },
    HtmScope,
    UnwindEntry,
}

/// Parse the directives out of a file's comments.
type ParsedDirectives = (Vec<(u32, Directive)>, Vec<(u32, String)>);

fn parse_directives(comments: &[Comment]) -> ParsedDirectives {
    let mut out = Vec::new();
    let mut errors = Vec::new();
    for c in comments {
        // Only a comment that *starts* with the directive (after its
        // `//`/`/*`/doc sigils) counts — prose and backticked examples
        // in documentation never do.
        let head = c.text.trim_start_matches(['/', '*', '!', ' ', '\t']);
        let Some(tail) = head.strip_prefix("tufast-lint:") else {
            continue;
        };
        let rest = tail.trim().trim_end_matches("*/").trim();
        if let Some(args) = rest.strip_prefix("allow(") {
            let Some(close) = args.find(')') else {
                errors.push((c.line, "unterminated allow(...)".to_string()));
                continue;
            };
            let rule = args[..close].trim().to_string();
            let tail = args[close + 1..].trim();
            let has_reason = tail
                .strip_prefix("--")
                .is_some_and(|r| !r.trim().is_empty());
            out.push((c.line, Directive::Allow { rule, has_reason }));
        } else if rest.starts_with("htm-scope") {
            out.push((c.line, Directive::HtmScope));
        } else if rest.starts_with("unwind-entry") {
            out.push((c.line, Directive::UnwindEntry));
        } else {
            errors.push((c.line, format!("unknown directive `{rest}`")));
        }
    }
    (out, errors)
}

/// How far below its comment a marker directive may bind to an item
/// (attributes and doc lines may sit in between).
const MARKER_REACH: u32 = 6;

/// Scan one file into a [`FileModel`].
pub fn scan_file(path: String, src: &str) -> FileModel {
    let (tokens, comments) = lex(src);
    let (directives, mut directive_errors) = parse_directives(&comments);

    let mut suppressions = Vec::new();
    // Item markers still waiting for their fn/impl: (line, kind, consumed).
    let mut htm_marks: Vec<(u32, bool)> = Vec::new();
    let mut unwind_marks: Vec<(u32, bool)> = Vec::new();

    let next_code_line =
        |line: u32| -> Option<u32> { tokens.iter().map(|t| t.line).find(|&l| l > line) };

    for (line, d) in &directives {
        match d {
            Directive::Allow { rule, has_reason } => {
                let mut lines = vec![*line];
                if let Some(next) = next_code_line(*line) {
                    lines.push(next);
                }
                suppressions.push(Suppression {
                    rule: rule.clone(),
                    lines,
                    has_reason: *has_reason,
                    line: *line,
                });
            }
            Directive::HtmScope => htm_marks.push((*line, false)),
            Directive::UnwindEntry => unwind_marks.push((*line, false)),
        }
    }

    // Item pass: a tiny cursor machine over the token stream. Contexts
    // nest through an explicit stack so `mod tests { impl X { fn .. } }`
    // resolves flags correctly.
    #[derive(Clone)]
    struct Ctx {
        /// Token index at which this context's block closes.
        end: usize,
        in_test: bool,
        htm_scope: bool,
    }

    let take_mark = |marks: &mut Vec<(u32, bool)>, item_line: u32| -> bool {
        for m in marks.iter_mut() {
            if !m.1 && m.0 <= item_line && item_line.saturating_sub(m.0) <= MARKER_REACH {
                m.1 = true;
                return true;
            }
        }
        false
    };

    let mut fns: Vec<FnInfo> = Vec::new();
    let mut stack: Vec<Ctx> = vec![Ctx {
        end: tokens.len(),
        in_test: false,
        htm_scope: false,
    }];
    let mut pending_test = false;
    let mut i = 0usize;
    while i < tokens.len() {
        while stack.len() > 1 && i >= stack.last().unwrap().end {
            stack.pop();
        }
        let cur = stack.last().unwrap().clone();
        match &tokens[i].tok {
            Tok::Punct('#')
                if matches!(tokens.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('['))) =>
            {
                let close = match_bracket(&tokens, i + 1, '[', ']');
                let is_test_attr = tokens[i + 1..close]
                    .iter()
                    .any(|t| matches!(&t.tok, Tok::Ident(s) if s == "test"));
                if is_test_attr {
                    pending_test = true;
                }
                i = close + 1;
            }
            Tok::Ident(kw) if kw == "mod" => {
                // `mod name { .. }` or `mod name;`
                let mut j = i + 1;
                while j < tokens.len()
                    && !matches!(tokens[j].tok, Tok::Punct('{') | Tok::Punct(';'))
                {
                    j += 1;
                }
                if j < tokens.len() && tokens[j].tok == Tok::Punct('{') {
                    let end = match_bracket(&tokens, j, '{', '}');
                    stack.push(Ctx {
                        end,
                        in_test: cur.in_test || pending_test,
                        htm_scope: false,
                    });
                    pending_test = false;
                    i = j + 1;
                } else {
                    pending_test = false;
                    i = j + 1;
                }
            }
            Tok::Ident(kw) if kw == "impl" => {
                let marked = take_mark(&mut htm_marks, tokens[i].line);
                // The header runs to the opening brace.
                let mut j = i + 1;
                while j < tokens.len() && tokens[j].tok != Tok::Punct('{') {
                    j += 1;
                }
                if j < tokens.len() {
                    let end = match_bracket(&tokens, j, '{', '}');
                    stack.push(Ctx {
                        end,
                        in_test: cur.in_test || pending_test,
                        htm_scope: cur.htm_scope || marked,
                    });
                    pending_test = false;
                    i = j + 1;
                } else {
                    i = j;
                }
            }
            Tok::Ident(kw) if kw == "fn" => {
                let fn_line = tokens[i].line;
                let name = match tokens.get(i + 1).map(|t| &t.tok) {
                    Some(Tok::Ident(s)) => s.clone(),
                    _ => {
                        i += 1;
                        continue;
                    }
                };
                let mut j = i + 2;
                // Skip generic params (angle depth; `->` inside bounds has
                // its `>` preceded by `-`).
                if j < tokens.len() && tokens[j].tok == Tok::Punct('<') {
                    let mut depth = 0i32;
                    while j < tokens.len() {
                        match tokens[j].tok {
                            Tok::Punct('<') => depth += 1,
                            Tok::Punct('>') => {
                                let arrow = j > 0 && tokens[j - 1].tok == Tok::Punct('-');
                                if !arrow {
                                    depth -= 1;
                                    if depth == 0 {
                                        j += 1;
                                        break;
                                    }
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                }
                if j >= tokens.len() || tokens[j].tok != Tok::Punct('(') {
                    i += 1;
                    continue;
                }
                let params_close = match_bracket(&tokens, j, '(', ')');
                let params = (j + 1, params_close);
                // Find `{` or `;` at round/square bracket depth 0.
                let mut k = params_close + 1;
                let mut depth = 0i32;
                let mut body = None;
                let mut body_end = k;
                while k < tokens.len() {
                    match tokens[k].tok {
                        Tok::Punct('(') | Tok::Punct('[') => depth += 1,
                        Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
                        Tok::Punct(';') if depth == 0 => {
                            body_end = k + 1;
                            break;
                        }
                        Tok::Punct('{') if depth == 0 => {
                            let close = match_bracket(&tokens, k, '{', '}');
                            body = Some((k + 1, close));
                            body_end = close + 1;
                            break;
                        }
                        _ => {}
                    }
                    k += 1;
                }
                fns.push(FnInfo {
                    htm_scope: cur.htm_scope || take_mark(&mut htm_marks, fn_line),
                    unwind_entry: take_mark(&mut unwind_marks, fn_line),
                    name,
                    line: fn_line,
                    params,
                    body,
                    in_test: cur.in_test || pending_test,
                });
                pending_test = false;
                i = if body_end > i { body_end } else { i + 1 };
                // Note: bodies are not re-entered, so nested fns inside a
                // body are not itemized — the rules treat a body as one
                // region, which is what the passes want.
            }
            _ => i += 1,
        }
    }

    for (line, used) in htm_marks
        .iter()
        .filter(|(_, used)| !used)
        .map(|m| (m.0, m.1))
    {
        let _ = used;
        directive_errors.push((line, "htm-scope marker bound to no fn/impl".to_string()));
    }
    for (line, _) in unwind_marks.iter().filter(|(_, used)| !used) {
        directive_errors.push((*line, "unwind-entry marker bound to no fn".to_string()));
    }

    FileModel {
        path,
        tokens,
        fns,
        suppressions,
        directive_errors,
    }
}

/// Index of the bracket matching `tokens[open]` (which must be `open_c`);
/// returns `tokens.len()` when unbalanced.
fn match_bracket(tokens: &[Token], open: usize, open_c: char, close_c: char) -> usize {
    let mut depth = 0i32;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        match t.tok {
            Tok::Punct(c) if c == open_c => depth += 1,
            Tok::Punct(c) if c == close_c => {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
            _ => {}
        }
    }
    tokens.len()
}

/// True when the parameter list of `f` mentions identifier `name`.
pub fn params_contain(model: &FileModel, f: &FnInfo, name: &str) -> bool {
    model.tokens[f.params.0..f.params.1]
        .iter()
        .any(|t| matches!(&t.tok, Tok::Ident(s) if s == name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_fns_and_test_mods() {
        let src = r#"
            fn top(a: u32) -> u32 { a }
            impl TxnOps for W {
                fn read(&mut self) {}
            }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() {}
            }
        "#;
        let m = scan_file("x.rs".into(), src);
        let names: Vec<(&str, bool)> = m.fns.iter().map(|f| (f.name.as_str(), f.in_test)).collect();
        assert_eq!(names, vec![("top", false), ("read", false), ("t", true)]);
    }

    #[test]
    fn markers_bind_to_items() {
        let src = r#"
            // tufast-lint: htm-scope
            fn hot(ctx: &mut Thing) {}
            // tufast-lint: htm-scope
            impl Ops for W {
                fn inner(&mut self) {}
            }
            fn cold() {}
        "#;
        let m = scan_file("x.rs".into(), src);
        assert!(m.fns.iter().find(|f| f.name == "hot").unwrap().htm_scope);
        assert!(m.fns.iter().find(|f| f.name == "inner").unwrap().htm_scope);
        assert!(!m.fns.iter().find(|f| f.name == "cold").unwrap().htm_scope);
    }

    #[test]
    fn suppressions_cover_next_code_line() {
        let src = "// tufast-lint: allow(htm-hazard) -- scratch is presized\nlet x = v.push(1);\nlet y = 2;\n";
        let m = scan_file("x.rs".into(), src);
        assert!(m.suppressed("htm-hazard", 2));
        assert!(!m.suppressed("htm-hazard", 3));
        assert!(m.suppressions[0].has_reason);
    }

    #[test]
    fn trait_decl_has_no_body() {
        let m = scan_file(
            "x.rs".into(),
            "trait T { fn execute(&mut self, b: B) -> O; }",
        );
        assert!(m.fns[0].body.is_none());
    }

    #[test]
    fn return_type_array_semicolon_is_not_decl_end() {
        let m = scan_file("x.rs".into(), "fn f() -> [u8; 4] { [0; 4] }");
        assert!(m.fns[0].body.is_some());
    }
}
