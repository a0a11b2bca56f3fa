//! The five rule families plus shared token-walking helpers.

pub mod htm;
pub mod ordering;
pub mod readpurity;
pub mod untrackedpeek;
pub mod unwind;

use crate::lexer::{Tok, Token};
use crate::scan::FileModel;

/// True if `tokens[i]` is the identifier `name`.
pub(crate) fn is_ident(tokens: &[Token], i: usize, name: &str) -> bool {
    matches!(tokens.get(i).map(|t| &t.tok), Some(Tok::Ident(s)) if s == name)
}

/// The identifier at `tokens[i]`, if any.
pub(crate) fn ident_at(tokens: &[Token], i: usize) -> Option<&str> {
    match tokens.get(i).map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

/// True if `tokens[i]` is punctuation `c`.
pub(crate) fn is_punct(tokens: &[Token], i: usize, c: char) -> bool {
    matches!(tokens.get(i).map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c)
}

/// Token range strictly inside the parens opening at `open` (which must
/// hold `(`), clamped to `end`.
pub(crate) fn argument_range(m: &FileModel, open: usize, end: usize) -> Option<(usize, usize)> {
    let t = &m.tokens;
    let mut depth = 0usize;
    for i in open..end {
        if is_punct(t, i, '(') {
            depth += 1;
        } else if is_punct(t, i, ')') {
            depth -= 1;
            if depth == 0 {
                return Some((open + 1, i));
            }
        }
    }
    None
}

/// Keywords that look like `ident (` but are not calls.
pub(crate) const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "match", "for", "loop", "return", "in", "as", "move", "fn", "else", "let",
    "mut", "ref", "pub", "where", "impl", "dyn",
];

/// Collect the bare names of everything `body` calls: `name(...)` and
/// `.name(...)` alike. Name-based and type-blind by design — the
/// consumers treat the result as a may-call set.
pub(crate) fn callee_names(model: &FileModel, body: (usize, usize)) -> Vec<(String, usize)> {
    let t = &model.tokens;
    let mut out = Vec::new();
    for i in body.0..body.1 {
        let Some(name) = ident_at(t, i) else { continue };
        if !is_punct(t, i + 1, '(') {
            continue;
        }
        if NON_CALL_KEYWORDS.contains(&name) {
            continue;
        }
        // `fn name(` is a nested definition, not a call.
        if i > 0 && is_ident(t, i - 1, "fn") {
            continue;
        }
        // Skip obvious enum/struct constructors: a capitalized bare name
        // is almost always `Some(..)` / `Ok(..)` / a tuple struct.
        let method = i > 0 && is_punct(t, i - 1, '.');
        if !method && name.chars().next().is_some_and(char::is_uppercase) {
            continue;
        }
        out.push((name.to_string(), i));
    }
    out
}
