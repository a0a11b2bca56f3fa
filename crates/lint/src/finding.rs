//! One diagnostic and its line-free identity.
//!
//! A finding's *identity* deliberately excludes its line number, so the
//! known-bad golden file survives edits that shift code up or down.
//! Identity is `rule|file|function|code|detail`, compared as a multiset
//! so two identical hazards in one function are two findings.

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    pub rule: String,
    /// Workspace-relative path, forward slashes.
    pub file: String,
    pub line: u32,
    /// Enclosing function (or `<file>` for module-level findings).
    pub function: String,
    /// Short machine code, e.g. `alloc-in-htm`.
    pub code: String,
    pub detail: String,
}

impl Finding {
    pub fn identity(&self) -> String {
        format!(
            "{}|{}|{}|{}|{}",
            self.rule, self.file, self.function, self.code, self.detail
        )
    }

    pub fn human(&self) -> String {
        format!(
            "{}:{}: [{}/{}] in `{}`: {}",
            self.file, self.line, self.rule, self.code, self.function, self.detail
        )
    }
}
