//! The live workspace must analyze clean against the checked-in
//! allowlist — the same check CI's `stbpu analyze` gate runs, as a plain
//! test so `cargo test` alone catches a violation.

use stbpu_analyze::{analyze_workspace, Allowlist};
use std::path::Path;

#[test]
fn live_workspace_analyzes_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/analyze sits two levels under the workspace root");
    assert!(
        root.join("Cargo.toml").is_file(),
        "workspace root not found at {}",
        root.display()
    );
    let allow = Allowlist::load(&root.join("ci").join("analyze-allow.toml"))
        .expect("checked-in allowlist must parse");
    let report = analyze_workspace(root, &allow).expect("analysis must complete");
    assert!(
        report.files_scanned > 50,
        "walker found too few files — broken?"
    );
    assert!(
        report.is_clean(),
        "the workspace must analyze clean; findings:\n{}",
        report.render_human()
    );
    assert!(
        report.unused_allows.is_empty(),
        "stale allowlist entries — remove or update them:\n{}",
        report
            .unused_allows
            .iter()
            .map(|e| format!(
                "  line {}: {} {} {:?}",
                e.line,
                e.lint.name(),
                e.path,
                e.pattern
            ))
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Every lint holds without exceptions: nothing is suppressed and the
    // allowlist is empty.
    assert!(
        report.suppressed.is_empty(),
        "expected no suppressions:\n{:?}",
        report.suppressed
    );
    assert!(
        allow.entries.is_empty(),
        "expected an empty allowlist, found {} entries",
        allow.entries.len()
    );
}
