//! `stbpu-analyze`: the workspace static-analysis pass behind
//! `stbpu analyze`.
//!
//! A hand-rolled, dependency-free lint engine that walks every workspace
//! crate's `src/` tree through a lightweight Rust tokenizer
//! ([`tokenizer`]) and a set of token-window lints ([`lints`]) enforcing
//! the invariants the OAE and byte-parity gates rely on:
//!
//! | lint | invariant |
//! |------|-----------|
//! | `lock-scope` | no blocking I/O while a `Mutex` guard is live |
//! | `determinism` | no hash-ordered iteration in report paths |
//! | `wall-clock` | no host-clock reads in OAE-affecting crates |
//! | `panic-freedom` | no panicking constructs in decoder and resume paths |
//!
//! Findings are suppressible only through the checked-in
//! `ci/analyze-allow.toml` ([`allowlist`]), where every entry carries a
//! written justification. The pass is a hard CI gate: see the "Static
//! analysis" section of the README for the catalog and the CONTRIBUTING
//! policy for the allowlist.
//!
//! Only `src/` subtrees are analyzed — `tests/`, `benches/` and
//! `examples/` may unwrap freely; the invariants target shipping code.

pub mod allowlist;
pub mod lints;
pub mod tokenizer;

pub use allowlist::{AllowEntry, Allowlist};
pub use lints::{lint_source, Finding, LintId};

use std::path::{Path, PathBuf};

/// A finding that an allowlist entry suppressed.
#[derive(Clone, Debug)]
pub struct Suppressed {
    /// The suppressed finding.
    pub finding: Finding,
    /// 1-based line of the matching `[[allow]]` entry.
    pub allow_line: u32,
}

/// The result of one workspace analysis.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Findings not covered by the allowlist — any of these fails the run.
    pub findings: Vec<Finding>,
    /// Findings the allowlist suppressed.
    pub suppressed: Vec<Suppressed>,
    /// Allowlist entries that suppressed nothing (stale — warned, not fatal).
    pub unused_allows: Vec<AllowEntry>,
}

impl Report {
    /// True when no unsuppressed finding remains.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Human diagnostics: one positioned block per finding, then a
    /// summary line and stale-allowlist warnings.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.render());
            out.push('\n');
        }
        for e in &self.unused_allows {
            out.push_str(&format!(
                "warning: unused allowlist entry (line {}): lint={} path={} pattern={:?} — \
                 the code it excused has changed; remove or update it\n",
                e.line,
                e.lint.name(),
                e.path,
                e.pattern
            ));
        }
        out.push_str(&format!(
            "stbpu analyze: {} finding{} ({} suppressed by allowlist) across {} files\n",
            self.findings.len(),
            if self.findings.len() == 1 { "" } else { "s" },
            self.suppressed.len(),
            self.files_scanned
        ));
        out
    }

    /// The machine-readable report (uploaded as a CI artifact).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str(&format!("  \"clean\": {},\n", self.is_clean()));
        out.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            out.push_str(&finding_json(f));
        }
        out.push_str(if self.findings.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        out.push_str("  \"suppressed\": [");
        for (i, s) in self.suppressed.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            let mut obj = finding_json(&s.finding);
            obj.truncate(obj.len() - 1); // reopen the object
            obj.push_str(&format!(", \"allow_line\": {}}}", s.allow_line));
            out.push_str(&obj);
        }
        out.push_str(if self.suppressed.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        out.push_str("  \"unused_allows\": [");
        for (i, e) in self.unused_allows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"lint\": {}, \"path\": {}, \"pattern\": {}, \"line\": {}}}",
                json_str(e.lint.name()),
                json_str(&e.path),
                json_str(&e.pattern),
                e.line
            ));
        }
        out.push_str(if self.unused_allows.is_empty() {
            "]\n"
        } else {
            "\n  ]\n"
        });
        out.push_str("}\n");
        out
    }
}

fn finding_json(f: &Finding) -> String {
    format!(
        "{{\"lint\": {}, \"file\": {}, \"line\": {}, \"col\": {}, \"message\": {}, \
         \"source_line\": {}}}",
        json_str(f.lint.name()),
        json_str(&f.file),
        f.line,
        f.col,
        json_str(&f.message),
        json_str(&f.source_line)
    )
}

/// Escapes `s` as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Walks up from `start` to the workspace root — the nearest ancestor
/// whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.lines().any(|l| l.trim() == "[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Collects every analyzable source file under `root`: for each
/// directory holding a `Cargo.toml`, the `.rs` files of its `src/`
/// subtree. Returns `(repo-relative path with '/' separators, absolute
/// path)` pairs in sorted order.
pub fn collect_sources(root: &Path) -> Result<Vec<(String, PathBuf)>, String> {
    let mut crate_dirs = Vec::new();
    find_crate_dirs(root, &mut crate_dirs)?;
    let mut files = Vec::new();
    for dir in crate_dirs {
        let src = dir.join("src");
        if src.is_dir() {
            collect_rs(&src, &mut files)?;
        }
    }
    let mut out = Vec::new();
    for abs in files {
        let rel = abs
            .strip_prefix(root)
            .map_err(|_| format!("{} escapes workspace root", abs.display()))?;
        let rel = rel
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        out.push((rel, abs));
    }
    out.sort();
    out.dedup();
    Ok(out)
}

fn find_crate_dirs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    if dir.join("Cargo.toml").is_file() {
        out.push(dir.to_path_buf());
    }
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    let mut subdirs: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        let path = entry.path();
        if !path.is_dir() {
            continue;
        }
        let name = entry.file_name();
        let name = name.to_string_lossy();
        // `target/` holds build products, dot-dirs hold VCS/CI state, and
        // `tests/`, `benches/`, `examples/` and `fixtures/` never contain
        // crate roots we want to gate (fixture crates are lint *inputs*).
        if name == "target"
            || name == "tests"
            || name == "benches"
            || name == "examples"
            || name == "fixtures"
            || name.starts_with('.')
        {
            continue;
        }
        subdirs.push(path);
    }
    subdirs.sort();
    for sub in subdirs {
        find_crate_dirs(&sub, out)?;
    }
    Ok(())
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        paths.push(entry.path());
    }
    paths.sort();
    for path in paths {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Analyzes one file's source against every lint whose
/// [`LintId::applies_to`] scope covers `rel_path`.
pub fn analyze_file(rel_path: &str, src: &str) -> Vec<Finding> {
    let lints: Vec<LintId> = LintId::ALL
        .iter()
        .copied()
        .filter(|l| l.applies_to(rel_path))
        .collect();
    if lints.is_empty() {
        return Vec::new();
    }
    lint_source(rel_path, src, &lints)
}

/// Runs the full pass over the workspace at `root`, applying `allow`.
pub fn analyze_workspace(root: &Path, allow: &Allowlist) -> Result<Report, String> {
    let sources = collect_sources(root)?;
    let mut report = Report {
        files_scanned: sources.len(),
        ..Report::default()
    };
    let mut used = vec![false; allow.entries.len()];
    for (rel, abs) in &sources {
        let src =
            std::fs::read_to_string(abs).map_err(|e| format!("read {}: {e}", abs.display()))?;
        for finding in analyze_file(rel, &src) {
            match allow.entries.iter().position(|e| e.matches(&finding)) {
                Some(idx) => {
                    used[idx] = true;
                    report.suppressed.push(Suppressed {
                        finding,
                        allow_line: allow.entries[idx].line,
                    });
                }
                None => report.findings.push(finding),
            }
        }
    }
    report.unused_allows = allow
        .entries
        .iter()
        .zip(&used)
        .filter(|(_, u)| !**u)
        .map(|(e, _)| e.clone())
        .collect();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyze_file_scopes_lints_by_path() {
        // Instant::now in a sim file fires wall-clock …
        let src = "fn t() { let _x = Instant::now(); }";
        let f = analyze_file("crates/sim/src/lib.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].lint, LintId::WallClock);
        // … but the same code in the CLI (progress reporting) is fine.
        assert!(analyze_file("crates/cli/src/lib.rs", src).is_empty());
        // unwrap in a decoder fires panic-freedom; in core it does not.
        let src = "fn t(v: &[u8]) { v.first().unwrap(); }";
        assert_eq!(analyze_file("crates/trace/src/cbp.rs", src).len(), 1);
        assert!(analyze_file("crates/core/src/manager.rs", src).is_empty());
    }

    #[test]
    fn json_report_escapes_and_structures() {
        let report = Report {
            files_scanned: 3,
            findings: vec![Finding {
                lint: LintId::PanicFreedom,
                file: "a.rs".into(),
                line: 2,
                col: 7,
                message: "a \"quoted\" message".into(),
                source_line: "let x = v[0];".into(),
            }],
            suppressed: Vec::new(),
            unused_allows: Vec::new(),
        };
        let json = report.render_json();
        assert!(json.contains("\"files_scanned\": 3"));
        assert!(json.contains("\"clean\": false"));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\"line\": 2"));
        let clean = Report {
            files_scanned: 1,
            ..Report::default()
        };
        assert!(clean.render_json().contains("\"clean\": true"));
        assert!(clean.is_clean());
    }

    #[test]
    fn human_report_positions_and_summarizes() {
        let report = Report {
            files_scanned: 2,
            findings: vec![Finding {
                lint: LintId::LockScope,
                file: "crates/trace/src/cbp.rs".into(),
                line: 10,
                col: 9,
                message: "blocking call".into(),
                source_line: "sock.write_all(&frame)?;".into(),
            }],
            suppressed: Vec::new(),
            unused_allows: Vec::new(),
        };
        let text = report.render_human();
        assert!(text.contains("crates/trace/src/cbp.rs:10:9: lock-scope:"));
        assert!(text.contains("1 finding (0 suppressed by allowlist) across 2 files"));
    }
}
