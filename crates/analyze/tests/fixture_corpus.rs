//! The fixture corpus: every lint has known-bad snippets that must fire
//! with positioned diagnostics and fixed twins that must stay quiet.
//! The bad lock-scope fixture writes to a socket while a mutex guard is
//! live, the shape the lint exists to catch.

use stbpu_analyze::{lint_source, Finding, LintId};
use std::path::Path;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn run(lint: LintId, name: &str) -> Vec<Finding> {
    lint_source(name, &fixture(name), &[lint])
}

/// Every finding must be positioned: non-zero line/col, a non-empty
/// message, and a captured source line for allowlist anchoring.
fn assert_positioned(findings: &[Finding]) {
    for f in findings {
        assert!(f.line > 0 && f.col > 0, "unpositioned finding: {f:?}");
        assert!(!f.message.is_empty(), "empty message: {f:?}");
        assert!(!f.source_line.is_empty(), "no source line: {f:?}");
    }
}

#[test]
fn lock_scope_fires_on_the_pr6_wedge_pattern() {
    let findings = run(LintId::LockScope, "lock_scope_bad.rs");
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_positioned(&findings);
    let f = &findings[0];
    assert_eq!(f.lint, LintId::LockScope);
    assert!(
        f.source_line.contains("sock.write_all(&frame)"),
        "must point at the socket write under the guard: {f:?}"
    );
    assert!(
        f.message.contains("`st`"),
        "must name the live guard: {}",
        f.message
    );
}

#[test]
fn lock_scope_passes_the_fixed_twin() {
    let findings = run(LintId::LockScope, "lock_scope_good.rs");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn determinism_fires_on_hash_iteration_reaching_output() {
    let findings = run(LintId::Determinism, "determinism_bad.rs");
    assert_positioned(&findings);
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings[0].source_line.contains("per_session.iter()"));
    assert!(findings[1].source_line.contains("for id in &seen"));
}

#[test]
fn determinism_passes_the_fixed_twin() {
    let findings = run(LintId::Determinism, "determinism_good.rs");
    assert!(
        findings.is_empty(),
        "BTreeMap iteration and HashMap point lookups are fine: {findings:?}"
    );
}

#[test]
fn wall_clock_fires_on_host_clock_reads() {
    let findings = run(LintId::WallClock, "wall_clock_bad.rs");
    assert_positioned(&findings);
    assert!(
        findings.iter().any(|f| f.message.contains("Instant::now")),
        "{findings:?}"
    );
    assert!(
        findings.iter().any(|f| f.message.contains("SystemTime")),
        "{findings:?}"
    );
}

#[test]
fn wall_clock_passes_the_fixed_twin() {
    let findings = run(LintId::WallClock, "wall_clock_good.rs");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn panic_freedom_fires_on_every_panicking_construct() {
    let findings = run(LintId::PanicFreedom, "panic_freedom_bad.rs");
    assert_positioned(&findings);
    assert_eq!(findings.len(), 4, "{findings:?}");
    let lines: Vec<&str> = findings.iter().map(|f| f.source_line.as_str()).collect();
    assert!(lines[0].contains(".unwrap()"), "{lines:?}");
    assert!(lines[1].contains(".expect("), "{lines:?}");
    assert!(lines[2].contains("panic!"), "{lines:?}");
    assert!(lines[3].contains("body[2]"), "{lines:?}");
}

#[test]
fn panic_freedom_passes_the_fixed_twin() {
    let findings = run(LintId::PanicFreedom, "panic_freedom_good.rs");
    assert!(
        findings.is_empty(),
        "let-else, .get(), debug_assert! and test-module unwraps are fine: {findings:?}"
    );
}
