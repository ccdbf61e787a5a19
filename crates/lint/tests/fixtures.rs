//! Fixture battery: every rule is demonstrated by a failing and a passing
//! snippet, the allow escape hatch by all three of its outcomes
//! (suppressed / malformed / stale), and the JSON output by a golden
//! string. The meta-test at the bottom holds the live tree itself to
//! `--deny all`.

use fcad_lint::rules::Diagnostic;
use fcad_lint::{lint_source, lint_tree, schema, LintReport};

/// Lints a fixture under a virtual repo-relative path (the path selects
/// which rule scopes apply).
fn lint(virtual_path: &str, source: &str) -> Vec<Diagnostic> {
    lint_source(virtual_path, source)
}

fn rules_of(diags: &[Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.rule).collect()
}

// ---------------------------------------------------------------- wall-clock

#[test]
fn wall_clock_fires_on_instant_and_system_time() {
    let diags = lint(
        "crates/dse/src/fixture.rs",
        include_str!("fixtures/wall_clock/bad.rs"),
    );
    assert!(diags.iter().all(|d| d.rule == "wall-clock"), "{diags:?}");
    let lines: Vec<u32> = diags.iter().map(|d| d.line).collect();
    assert!(lines.contains(&6), "Instant::now() site missed: {lines:?}");
    assert!(
        lines.contains(&7),
        "SystemTime::now() site missed: {lines:?}"
    );
}

#[test]
fn wall_clock_is_silent_on_injected_timers_and_out_of_scope_paths() {
    let good = include_str!("fixtures/wall_clock/good.rs");
    assert!(lint("crates/dse/src/fixture.rs", good).is_empty());
    // The same bad source outside the deterministic crates is out of scope.
    let bad = include_str!("fixtures/wall_clock/bad.rs");
    assert!(lint("crates/bench/src/fixture.rs", bad).is_empty());
}

// ---------------------------------------------------- unordered-iteration

#[test]
fn unordered_iteration_fires_on_hash_containers() {
    let diags = lint(
        "crates/serve/src/fixture.rs",
        include_str!("fixtures/unordered_iteration/bad.rs"),
    );
    assert!(!diags.is_empty());
    assert!(
        diags.iter().all(|d| d.rule == "unordered-iteration"),
        "{diags:?}"
    );
}

#[test]
fn unordered_iteration_is_silent_on_btree_containers() {
    let diags = lint(
        "crates/serve/src/fixture.rs",
        include_str!("fixtures/unordered_iteration/good.rs"),
    );
    assert!(diags.is_empty(), "{diags:?}");
}

// ----------------------------------------------------------- unseeded-rng

#[test]
fn unseeded_rng_fires_on_entropy_sources_and_raw_seeds() {
    let diags = lint(
        "crates/serve/src/fixture.rs",
        include_str!("fixtures/unseeded_rng/bad.rs"),
    );
    assert!(diags.iter().all(|d| d.rule == "unseeded-rng"), "{diags:?}");
    assert!(
        diags.len() >= 3,
        "thread_rng, from_entropy and the raw seed_from_u64 must all fire: {diags:?}"
    );
}

#[test]
fn unseeded_rng_accepts_mixed_and_derived_seeds() {
    let diags = lint(
        "crates/serve/src/fixture.rs",
        include_str!("fixtures/unseeded_rng/good.rs"),
    );
    assert!(diags.is_empty(), "{diags:?}");
}

// ----------------------------------------------------------- panic-policy

#[test]
fn panic_policy_fires_on_unwrap_empty_expect_and_the_panic_family() {
    let diags = lint(
        "crates/serve/src/fixture.rs",
        include_str!("fixtures/panic_policy/bad.rs"),
    );
    assert!(diags.iter().all(|d| d.rule == "panic-policy"), "{diags:?}");
    assert_eq!(
        diags.len(),
        5,
        "unwrap, expect(\"\"), panic!, unreachable!, todo! — and nothing \
         from the test module: {diags:?}"
    );
}

#[test]
fn panic_policy_accepts_invariant_naming_expects() {
    let diags = lint(
        "crates/serve/src/fixture.rs",
        include_str!("fixtures/panic_policy/good.rs"),
    );
    assert!(diags.is_empty(), "{diags:?}");
}

// ------------------------------------------------------------- lossy-cast

#[test]
fn lossy_cast_fires_on_every_bare_numeric_cast() {
    let diags = lint(
        "crates/serve/src/fixture.rs",
        include_str!("fixtures/lossy_cast/bad.rs"),
    );
    assert!(diags.iter().all(|d| d.rule == "lossy-cast"), "{diags:?}");
    assert_eq!(diags.len(), 4, "{diags:?}");
}

#[test]
fn lossy_cast_is_silent_on_checked_helpers() {
    let diags = lint(
        "crates/serve/src/fixture.rs",
        include_str!("fixtures/lossy_cast/good.rs"),
    );
    assert!(diags.is_empty(), "{diags:?}");
}

// -------------------------------------------------------------- host-libm

#[test]
fn host_libm_fires_on_transcendental_float_methods() {
    let diags = lint(
        "crates/bench/src/fixture.rs",
        include_str!("fixtures/host_libm/bad.rs"),
    );
    assert!(diags.iter().all(|d| d.rule == "host-libm"), "{diags:?}");
    assert_eq!(
        diags.len(),
        9,
        "ln, log10, exp_m1, powf, f64::sin, atan2, tanh, cbrt, hypot — and \
         nothing from the test module: {diags:?}"
    );
}

#[test]
fn host_libm_is_silent_on_exact_operations_and_the_repos_own_ln() {
    let good = include_str!("fixtures/host_libm/good.rs");
    assert!(lint("crates/serve/src/fixture.rs", good).is_empty());
    // Integration tests may compare against the host's libm.
    let bad = include_str!("fixtures/host_libm/bad.rs");
    assert!(lint("tests/fixture.rs", bad).is_empty());
}

// ------------------------------------------------------- the escape hatch

#[test]
fn allow_with_reason_suppresses_on_the_same_and_previous_line() {
    let diags = lint(
        "crates/serve/src/fixture.rs",
        include_str!("fixtures/allows/allowed.rs"),
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn allow_without_reason_is_void_and_reported() {
    let diags = lint(
        "crates/serve/src/fixture.rs",
        include_str!("fixtures/allows/missing_reason.rs"),
    );
    let rules = rules_of(&diags);
    assert!(rules.contains(&"allow-syntax"), "{diags:?}");
    assert!(
        rules.contains(&"panic-policy"),
        "a void directive must not suppress: {diags:?}"
    );
}

#[test]
fn stale_allow_is_reported_as_unused() {
    let diags = lint(
        "crates/serve/src/fixture.rs",
        include_str!("fixtures/allows/unused.rs"),
    );
    assert_eq!(rules_of(&diags), vec!["unused-allow"], "{diags:?}");
}

// ---------------------------------------------------- schema-append-only

#[test]
fn schema_matching_manifest_is_clean() {
    let diags = schema::check_schema(
        include_str!("fixtures/schema/emitter.rs"),
        include_str!("fixtures/schema/manifest_good.keys"),
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn schema_reorder_is_rejected() {
    let diags = schema::check_schema(
        include_str!("fixtures/schema/emitter.rs"),
        include_str!("fixtures/schema/manifest_reordered.keys"),
    );
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert!(
        diags[0].message.contains("non-append schema edit"),
        "{diags:?}"
    );
}

#[test]
fn schema_unrecorded_append_is_rejected() {
    let diags = schema::check_schema(
        include_str!("fixtures/schema/emitter.rs"),
        include_str!("fixtures/schema/manifest_stale.keys"),
    );
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert!(diags[0].message.contains("unrecorded key"), "{diags:?}");
}

// ------------------------------------------------------------ JSON golden

#[test]
fn json_line_is_byte_stable() {
    let diagnostics = lint(
        "crates/dse/src/fixture.rs",
        include_str!("fixtures/wall_clock/bad.rs"),
    );
    let report = LintReport {
        files_checked: 1,
        diagnostics,
    };
    let expected = concat!(
        "{\"tool\":\"fcad-lint\",\"version\":1,\"files_checked\":1,\"diagnostics\":[",
        "{\"rule\":\"wall-clock\",\"file\":\"crates/dse/src/fixture.rs\",\"line\":3,",
        "\"message\":\"SystemTime in a deterministic result path — wall-clock time ",
        "must not reach simulation or DSE results\"},",
        "{\"rule\":\"wall-clock\",\"file\":\"crates/dse/src/fixture.rs\",\"line\":6,",
        "\"message\":\"Instant::now() in a deterministic result path — inject elapsed ",
        "time (see fcad_dse::ElapsedTimer) or annotate\"},",
        "{\"rule\":\"wall-clock\",\"file\":\"crates/dse/src/fixture.rs\",\"line\":7,",
        "\"message\":\"SystemTime in a deterministic result path — wall-clock time ",
        "must not reach simulation or DSE results\"}]}"
    );
    assert_eq!(report.to_json_line(), expected);
}

#[test]
fn json_line_escapes_control_characters() {
    let diagnostics = lint(
        "crates/serve/src/fixture.rs",
        include_str!("fixtures/allows/control_character.rs"),
    );
    assert_eq!(
        rules_of(&diagnostics),
        vec!["unused-allow"],
        "{diagnostics:?}"
    );
    assert!(diagnostics[0].message.contains("allow(pa\tnic)"));
    let line = LintReport {
        files_checked: 1,
        diagnostics,
    }
    .to_json_line();
    assert!(line.contains("allow(pa\\tnic)"), "{line}");
    assert!(!line.chars().any(char::is_control), "{line:?}");
}

#[test]
fn clean_report_renders_an_empty_diagnostics_array() {
    let report = LintReport {
        files_checked: 1,
        diagnostics: Vec::new(),
    };
    assert_eq!(
        report.to_json_line(),
        "{\"tool\":\"fcad-lint\",\"version\":1,\"files_checked\":1,\"diagnostics\":[]}"
    );
}

// -------------------------------------------------------------- meta-test

#[test]
fn the_live_tree_is_clean_under_deny_all() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let report = lint_tree(&root).expect("linting the repo tree succeeds");
    assert!(report.files_checked > 50, "walk found too few files");
    assert!(
        report.is_clean(),
        "the tree must hold its own gate:\n{}",
        report
            .diagnostics
            .iter()
            .map(|d| format!("{}:{}: [{}] {}", d.file, d.line, d.rule, d.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
