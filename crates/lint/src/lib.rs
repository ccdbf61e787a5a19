//! `fcad-lint` — the repo-native static-analysis gate.
//!
//! Enforces the determinism, panic-policy, and report-schema invariants the
//! F-CAD reproduction's golden tests rely on, at the source level (see
//! README § Correctness tooling for the rule table and the allow syntax).
//! The library surface exists so the test battery can drive the same engine
//! the `fcad-lint` binary runs in CI.

pub mod lexer;
pub mod rules;
pub mod schema;
pub mod walk;

use rules::Diagnostic;
use std::fs;
use std::path::Path;

/// The outcome of linting a tree.
#[derive(Debug)]
pub struct LintReport {
    /// Number of `.rs` files scanned.
    pub files_checked: usize,
    /// Every finding, sorted by `(file, line, rule)`.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// True when nothing fired.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Renders the report as one machine-readable JSON line (insertion
    /// order, stable across runs — mirrors the serve report convention).
    pub fn to_json_line(&self) -> String {
        let diags: Vec<String> = self
            .diagnostics
            .iter()
            .map(|d| {
                format!(
                    "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
                    escape(d.rule),
                    escape(&d.file),
                    d.line,
                    escape(&d.message)
                )
            })
            .collect();
        format!(
            "{{\"tool\":\"fcad-lint\",\"version\":1,\"files_checked\":{},\"diagnostics\":[{}]}}",
            self.files_checked,
            diags.join(",")
        )
    }
}

/// Escapes `text` for a JSON string: `"` and `\` behind a backslash,
/// `\n`, `\r` and `\t` by name, and every other control character
/// (U+0000–U+001F), which JSON forbids raw inside a string, as `\u00XX`.
fn escape(text: &str) -> String {
    let mut escaped = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => escaped.push_str("\\\""),
            '\\' => escaped.push_str("\\\\"),
            '\n' => escaped.push_str("\\n"),
            '\r' => escaped.push_str("\\r"),
            '\t' => escaped.push_str("\\t"),
            c if c < ' ' => escaped.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => escaped.push(c),
        }
    }
    escaped
}

/// Lints one in-memory source file under a virtual repo-relative path.
/// (Token rules only — the schema rule needs the manifest; see
/// [`schema::check_schema`].)
pub fn lint_source(virtual_path: &str, source: &str) -> Vec<Diagnostic> {
    let mut lexed = lexer::lex(source);
    rules::check_file(virtual_path, &mut lexed)
}

/// Lints the whole tree under `root`: every token rule over every
/// scannable file, plus the schema rule over the report emitter and its
/// manifest.
pub fn lint_tree(root: &Path) -> std::io::Result<LintReport> {
    let files = walk::rust_files(root)?;
    let mut diagnostics = Vec::new();
    for rel in &files {
        let source = fs::read_to_string(root.join(rel))?;
        diagnostics.extend(lint_source(rel, &source));
    }
    diagnostics.extend(schema_rule(root)?);
    diagnostics.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(LintReport {
        files_checked: files.len(),
        diagnostics,
    })
}

/// Tree-level driver of `schema-append-only`: reads the emitter and the
/// manifest, skips silently when the tree has no serve report (fixture
/// roots), fails when the emitter exists but the manifest is gone.
fn schema_rule(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let report = root.join(schema::REPORT_PATH);
    if !report.exists() {
        return Ok(Vec::new());
    }
    let report_source = fs::read_to_string(report)?;
    let manifest = root.join(schema::MANIFEST_PATH);
    if !manifest.exists() {
        return Ok(vec![Diagnostic {
            rule: "schema-append-only",
            file: schema::MANIFEST_PATH.to_owned(),
            line: 1,
            message: format!(
                "manifest {} is missing while {} emits the serve report — restore it \
                 (the schema gate cannot run without its baseline)",
                schema::MANIFEST_PATH,
                schema::REPORT_PATH
            ),
        }]);
    }
    Ok(schema::check_schema(
        &report_source,
        &fs::read_to_string(manifest)?,
    ))
}
