//! The rule engine and the token-level rules.
//!
//! Every rule is a lexical approximation grounded in a real repo invariant
//! (see README § Correctness tooling). Rules run over the non-test token
//! stream of the files in their scope; a diagnostic on line `L` is
//! suppressed by an `allow(<rule>): <reason>` directive (behind the
//! `fcad-lint` comment marker) on line `L` or `L − 1`, and the reason
//! string is mandatory.

use crate::lexer::{Allow, LexedFile, Token, TokenKind};

/// One finding, pinned to a repo-relative `file:line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule that fired (a name from [`RULES`], or the engine-level
    /// `allow-syntax` / `unused-allow` checks).
    pub rule: &'static str,
    /// Repo-relative path with forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// What is wrong and what to do about it.
    pub message: String,
}

/// Names of the seven shipped rules, in documentation order.
pub const RULES: [&str; 7] = [
    "wall-clock",
    "unordered-iteration",
    "unseeded-rng",
    "panic-policy",
    "lossy-cast",
    "host-libm",
    "schema-append-only",
];

/// Engine-level checks that police the escape hatch itself.
pub const ENGINE_CHECKS: [&str; 2] = ["allow-syntax", "unused-allow"];

/// The `f32`/`f64` methods that call the platform's libm: logarithms,
/// exponentials, `powf`, the trigonometric and hyperbolic functions,
/// `cbrt` and `hypot`.
const LIBM_METHODS: [&str; 25] = [
    "ln", "ln_1p", "log", "log2", "log10", "exp", "exp2", "exp_m1", "powf", "sin", "cos", "tan",
    "sin_cos", "asin", "acos", "atan", "atan2", "sinh", "cosh", "tanh", "asinh", "acosh", "atanh",
    "cbrt", "hypot",
];

/// Integer and float type names a cast to which is potentially lossy.
const NUMERIC_TYPES: [&str; 12] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "f32",
];
// `f64` handled separately below so the message can say why it still counts.

/// Directive-to-rule aliases: `allow(panic)` reads better at a panic site
/// than `allow(panic-policy)`; both are accepted.
fn canonical(rule: &str) -> &str {
    match rule {
        "panic" => "panic-policy",
        other => other,
    }
}

/// True when `path` (repo-relative, forward slashes) is inside one of the
/// given directory prefixes.
fn in_scope(path: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| path.starts_with(p))
}

/// Scope of the deterministic simulation / DSE result paths: the crates
/// whose outputs are pinned byte-for-byte by golden tests. `crates/obs`
/// qualifies because trace files are part of the fixed-seed ⇒
/// byte-identical contract (events are stamped with sim-time only).
const DETERMINISTIC_CRATES: [&str; 4] = [
    "crates/dse/src/",
    "crates/serve/src/",
    "crates/cyclesim/src/",
    "crates/obs/src/",
];

/// Runs every token-level rule over one lexed file and applies the allow
/// directives. `path` must be repo-relative with forward slashes.
pub fn check_file(path: &str, lexed: &mut LexedFile) -> Vec<Diagnostic> {
    let mut raw = Vec::new();
    wall_clock(path, &lexed.tokens, &mut raw);
    unordered_iteration(path, &lexed.tokens, &mut raw);
    unseeded_rng(path, &lexed.tokens, &mut raw);
    panic_policy(path, &lexed.tokens, &mut raw);
    lossy_cast(path, &lexed.tokens, &mut raw);
    host_libm(path, &lexed.tokens, &mut raw);
    apply_allows(path, raw, &mut lexed.allows)
}

/// Suppresses diagnostics covered by a well-formed allow on the same or the
/// preceding line, then reports malformed and unused directives.
fn apply_allows(path: &str, raw: Vec<Diagnostic>, allows: &mut [Allow]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for diag in raw {
        let covered = allows.iter_mut().find(|a| {
            a.malformed.is_none()
                && canonical(&a.rule) == diag.rule
                && (a.line == diag.line || a.line + 1 == diag.line)
        });
        match covered {
            Some(allow) => allow.used = true,
            None => out.push(diag),
        }
    }
    for allow in allows.iter() {
        if let Some(why) = &allow.malformed {
            out.push(Diagnostic {
                rule: "allow-syntax",
                file: path.to_owned(),
                line: allow.line,
                message: format!("malformed fcad-lint directive: {why}"),
            });
        } else if !allow.used {
            out.push(Diagnostic {
                rule: "unused-allow",
                file: path.to_owned(),
                line: allow.line,
                message: format!(
                    "allow({}) suppresses nothing on line {} or {} — remove it (stale \
                     suppressions hide future regressions)",
                    allow.rule,
                    allow.line,
                    allow.line + 1
                ),
            });
        }
    }
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

/// `wall-clock`: no `Instant::now()` / `SystemTime` in the deterministic
/// simulation and DSE result paths — wall-clock reads make fixed-seed
/// outputs differ run-over-run (the bug this rule was born from lived at
/// `crates/dse/src/crossbranch.rs:219`).
fn wall_clock(path: &str, tokens: &[Token], out: &mut Vec<Diagnostic>) {
    if !in_scope(path, &DETERMINISTIC_CRATES) {
        return;
    }
    for (i, token) in tokens.iter().enumerate() {
        if token.in_test {
            continue;
        }
        if token.is_ident("Instant")
            && tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && tokens.get(i + 3).is_some_and(|t| t.is_ident("now"))
        {
            out.push(Diagnostic {
                rule: "wall-clock",
                file: path.to_owned(),
                line: token.line,
                message: "Instant::now() in a deterministic result path — inject elapsed time \
                          (see fcad_dse::ElapsedTimer) or annotate"
                    .to_owned(),
            });
        }
        if token.is_ident("SystemTime") {
            out.push(Diagnostic {
                rule: "wall-clock",
                file: path.to_owned(),
                line: token.line,
                message: "SystemTime in a deterministic result path — wall-clock time must not \
                          reach simulation or DSE results"
                    .to_owned(),
            });
        }
    }
}

/// `unordered-iteration`: no `HashMap` / `HashSet` in `crates/serve`,
/// `crates/dse` and `crates/obs` — their iteration order is randomized per
/// process, which breaks fixed-seed ⇒ bit-identical reports and trace
/// files. Use `BTreeMap` or a sorted `Vec`.
fn unordered_iteration(path: &str, tokens: &[Token], out: &mut Vec<Diagnostic>) {
    if !in_scope(
        path,
        &["crates/serve/src/", "crates/dse/src/", "crates/obs/src/"],
    ) {
        return;
    }
    for token in tokens {
        if token.in_test {
            continue;
        }
        if token.is_ident("HashMap") || token.is_ident("HashSet") {
            out.push(Diagnostic {
                rule: "unordered-iteration",
                file: path.to_owned(),
                line: token.line,
                message: format!(
                    "{} in a deterministic crate — iteration order is nondeterministic; use \
                     BTreeMap/BTreeSet or a sorted Vec",
                    token.text
                ),
            });
        }
    }
}

/// `unseeded-rng`: every RNG construction in `crates/serve` must derive its
/// seed from the scenario seed through the shared SplitMix64 `mix()`
/// finalizer (or the `session_seed` wrapper over it); ambient entropy
/// (`thread_rng`, `from_entropy`) is banned outright.
fn unseeded_rng(path: &str, tokens: &[Token], out: &mut Vec<Diagnostic>) {
    if !in_scope(path, &["crates/serve/src/"]) {
        return;
    }
    for (i, token) in tokens.iter().enumerate() {
        if token.in_test || token.kind != TokenKind::Ident {
            continue;
        }
        match token.text.as_str() {
            "thread_rng" | "from_entropy" | "from_os_rng" | "random" if is_call(tokens, i) => {
                out.push(Diagnostic {
                    rule: "unseeded-rng",
                    file: path.to_owned(),
                    line: token.line,
                    message: format!(
                        "{}() draws ambient entropy — serve RNGs must be seeded from the \
                         scenario seed via mix()",
                        token.text
                    ),
                });
            }
            "seed_from_u64" if is_call(tokens, i) => {
                let args = call_args(tokens, i + 1);
                let derived = args
                    .iter()
                    .any(|t| t.is_ident("mix") || t.is_ident("session_seed"));
                if !derived {
                    out.push(Diagnostic {
                        rule: "unseeded-rng",
                        file: path.to_owned(),
                        line: token.line,
                        message: "seed_from_u64 argument does not go through mix()/session_seed \
                                  — independent streams must use the shared SplitMix64 finalizer"
                            .to_owned(),
                    });
                }
            }
            _ => {}
        }
    }
}

/// `panic-policy`: library code (any `crates/*/src/` file outside `bin/`)
/// must not `unwrap()` or `panic!`-family — return `Result`, use
/// `expect("<invariant>")` with a message naming the invariant, or annotate
/// the intentional remainder.
fn panic_policy(path: &str, tokens: &[Token], out: &mut Vec<Diagnostic>) {
    let library = (path.starts_with("crates/") || path.starts_with("src/"))
        && path.contains("/src/")
        && !path.contains("/bin/");
    if !library {
        return;
    }
    for (i, token) in tokens.iter().enumerate() {
        if token.in_test || token.kind != TokenKind::Ident {
            continue;
        }
        let preceded_by_dot = i > 0 && tokens[i - 1].is_punct('.');
        match token.text.as_str() {
            "unwrap"
                if preceded_by_dot
                    && tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
                    && tokens.get(i + 2).is_some_and(|t| t.is_punct(')')) =>
            {
                out.push(Diagnostic {
                    rule: "panic-policy",
                    file: path.to_owned(),
                    line: token.line,
                    message: "unwrap() in library code — return Result, use \
                              expect(\"<invariant>\"), or annotate with a reason"
                        .to_owned(),
                });
            }
            "expect" if preceded_by_dot && is_call(tokens, i) => {
                let args = call_args(tokens, i + 1);
                let empty_literal =
                    args.len() == 1 && args[0].kind == TokenKind::Str && args[0].text.is_empty();
                if empty_literal {
                    out.push(Diagnostic {
                        rule: "panic-policy",
                        file: path.to_owned(),
                        line: token.line,
                        message: "expect(\"\") carries no invariant — name the condition that \
                                  makes the value present"
                            .to_owned(),
                    });
                }
            }
            "panic" | "unreachable" | "todo" | "unimplemented"
                if tokens.get(i + 1).is_some_and(|t| t.is_punct('!')) =>
            {
                out.push(Diagnostic {
                    rule: "panic-policy",
                    file: path.to_owned(),
                    line: token.line,
                    message: format!(
                        "{}! in library code — return an error, or annotate why this is \
                         unreachable by construction",
                        token.text
                    ),
                });
            }
            _ => {}
        }
    }
}

/// `lossy-cast`: no bare `as` numeric casts in `crates/serve` or
/// `crates/obs` — every conversion on a report or trace path must go
/// through the checked helpers in `fcad_obs::cast` (which
/// debug-assert losslessness) or carry an annotation saying why the cast
/// cannot lose information.
fn lossy_cast(path: &str, tokens: &[Token], out: &mut Vec<Diagnostic>) {
    if !in_scope(path, &["crates/serve/src/", "crates/obs/src/"]) {
        return;
    }
    for (i, token) in tokens.iter().enumerate() {
        if token.in_test || !token.is_ident("as") {
            continue;
        }
        let Some(target) = tokens.get(i + 1) else {
            continue;
        };
        let lossy = NUMERIC_TYPES.contains(&target.text.as_str()) || target.is_ident("f64");
        if lossy {
            out.push(Diagnostic {
                rule: "lossy-cast",
                file: path.to_owned(),
                line: token.line,
                message: format!(
                    "bare `as {}` cast — use the checked helpers in fcad_obs::cast (u64 → f64 is \
                     exact only below 2^53; float → int truncates) or annotate",
                    target.text
                ),
            });
        }
    }
}

/// `host-libm`: no transcendental float methods ([`LIBM_METHODS`]) in
/// first-party non-test code, called as `x.ln()` or `f64::ln(x)`. They
/// come from the platform's libm, whose last-bit rounding differs between
/// C libraries and their versions, so a fixed seed would pin the output
/// bytes only on one host; `fcad_obs::math` has the repo's own. The
/// IEEE-754 operations that round exactly on every host (`sqrt`, `round`,
/// `floor`, `ceil`, ...) are not flagged. Integration tests may compare
/// against the host's libm.
fn host_libm(path: &str, tokens: &[Token], out: &mut Vec<Diagnostic>) {
    if path.starts_with("tests/") || path.contains("/tests/") {
        return;
    }
    for (i, token) in tokens.iter().enumerate() {
        if token.in_test
            || token.kind != TokenKind::Ident
            || !LIBM_METHODS.contains(&token.text.as_str())
            || !is_call(tokens, i)
        {
            continue;
        }
        let method = i > 0 && tokens[i - 1].is_punct('.');
        let float_path = i >= 3
            && tokens[i - 1].is_punct(':')
            && tokens[i - 2].is_punct(':')
            && (tokens[i - 3].is_ident("f64") || tokens[i - 3].is_ident("f32"));
        if method || float_path {
            out.push(Diagnostic {
                rule: "host-libm",
                file: path.to_owned(),
                line: token.line,
                message: format!(
                    "float `{}` calls the host's libm, whose last bit differs between C \
                     libraries — use fcad_obs::math or annotate",
                    token.text
                ),
            });
        }
    }
}

/// True when the ident at `i` is immediately called: `ident(`.
fn is_call(tokens: &[Token], i: usize) -> bool {
    tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
}

/// The tokens between the balanced parens opening at `open` (which must
/// point at `(`).
fn call_args(tokens: &[Token], open: usize) -> &[Token] {
    let mut depth = 0usize;
    for (j, token) in tokens.iter().enumerate().skip(open) {
        if token.is_punct('(') {
            depth += 1;
        } else if token.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return &tokens[open + 1..j];
            }
        }
    }
    &tokens[open..open]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn diags(path: &str, source: &str) -> Vec<Diagnostic> {
        let mut lexed = lex(source);
        check_file(path, &mut lexed)
    }

    #[test]
    fn allow_on_same_or_previous_line_suppresses() {
        let source = "// fcad-lint: allow(panic): bounded by construction\n\
                      let x = v.unwrap();\n\
                      let y = w.unwrap(); // fcad-lint: allow(panic): also fine\n";
        assert!(diags("crates/serve/src/x.rs", source).is_empty());
    }

    #[test]
    fn allow_without_reason_is_itself_a_diagnostic() {
        let source = "let x = v.unwrap(); // fcad-lint: allow(panic)\n";
        let found = diags("crates/serve/src/x.rs", source);
        assert_eq!(found.len(), 2, "{found:?}"); // the unwrap AND the bad directive
        assert!(found.iter().any(|d| d.rule == "allow-syntax"));
        assert!(found.iter().any(|d| d.rule == "panic-policy"));
    }

    #[test]
    fn unused_allow_is_flagged() {
        let found = diags(
            "crates/serve/src/x.rs",
            "// fcad-lint: allow(wall-clock): nothing here needs it\nlet a = 1;\n",
        );
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, "unused-allow");
    }

    #[test]
    fn rules_respect_their_crate_scopes() {
        // A HashMap in nnir (out of scope) is fine; in serve it is not.
        let source = "use std::collections::HashMap;\n";
        assert!(diags("crates/nnir/src/graph.rs", source).is_empty());
        assert_eq!(diags("crates/serve/src/engine.rs", source).len(), 1);
    }

    #[test]
    fn obs_is_inside_the_determinism_scopes() {
        // Trace files are part of the fixed-seed contract: the wall-clock,
        // iteration-order and lossy-cast rules all police crates/obs.
        assert_eq!(
            diags("crates/obs/src/window.rs", "let t = SystemTime::now();\n").len(),
            1
        );
        assert_eq!(
            diags(
                "crates/obs/src/chrome.rs",
                "use std::collections::HashMap;\n"
            )
            .len(),
            1
        );
        assert_eq!(
            diags("crates/obs/src/window.rs", "let x = n as f64;\n").len(),
            1
        );
    }

    #[test]
    fn engine_rebuild_modules_are_inside_the_determinism_scopes() {
        // The engine rebuild added parallel.rs and reference.rs under
        // crates/serve/src, the deadline work added deadline.rs, the
        // windowed engine added window.rs, and engine.rs holds the event
        // heaps; the directory-prefix scope must keep policing them — a
        // bit-identity bug from a stray HashMap or bare cast in the hot
        // path is exactly what these rules exist to catch.
        for module in [
            "crates/serve/src/engine.rs",
            "crates/serve/src/deadline.rs",
            "crates/serve/src/parallel.rs",
            "crates/serve/src/reference.rs",
            "crates/serve/src/window.rs",
        ] {
            let unordered = diags(module, "use std::collections::HashMap;\n");
            assert_eq!(unordered.len(), 1, "{module}: {unordered:?}");
            assert_eq!(unordered[0].rule, "unordered-iteration");
            let lossy = diags(module, "let x = n as f64;\n");
            assert_eq!(lossy.len(), 1, "{module}: {lossy:?}");
            assert_eq!(lossy[0].rule, "lossy-cast");
        }
    }

    #[test]
    fn test_code_is_exempt() {
        let source = "#[cfg(test)]\nmod tests {\n fn f() { let x = v.unwrap() as u64; }\n}\n";
        assert!(diags("crates/serve/src/x.rs", source).is_empty());
    }
}
