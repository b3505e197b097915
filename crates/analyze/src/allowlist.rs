//! The `ci/analyze-allow.toml` allowlist: the only way to suppress a
//! finding.
//!
//! The format is a TOML subset parsed by hand (the workspace takes no
//! external dependencies): `[[allow]]` tables with exactly four
//! double-quoted string keys —
//!
//! ```toml
//! [[allow]]
//! lint = "panic-freedom"
//! path = "crates/trace/src/cbp.rs"
//! pattern = "header[0]"
//! reason = "why this specific site is safe"
//! ```
//!
//! `lint` must name a known lint, `path` is the repo-relative file, and
//! `pattern` must be a substring of the *source line* the finding points
//! at — so an entry keeps suppressing exactly one idiom and goes stale
//! (reported as unused, and visibly so in CI) the moment the code it
//! excuses changes shape. `reason` is mandatory and must be non-empty:
//! an allowlist entry without a written justification is a parse error,
//! not a style nit. See CONTRIBUTING.md for the review policy.

use crate::lints::{Finding, LintId};

/// One `[[allow]]` entry.
#[derive(Clone, Debug)]
pub struct AllowEntry {
    /// Which lint the entry suppresses.
    pub lint: LintId,
    /// Repo-relative `/`-separated file path the entry applies to.
    pub path: String,
    /// Substring the finding's source line must contain.
    pub pattern: String,
    /// The written justification (mandatory, non-empty).
    pub reason: String,
    /// 1-based line of the `[[allow]]` header, for diagnostics.
    pub line: u32,
}

impl AllowEntry {
    /// True when this entry suppresses `f`.
    pub fn matches(&self, f: &Finding) -> bool {
        self.lint == f.lint && self.path == f.file && f.source_line.contains(&self.pattern)
    }
}

/// A parsed allowlist.
#[derive(Clone, Debug, Default)]
pub struct Allowlist {
    /// Entries in file order.
    pub entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// Parses allowlist text. Errors carry 1-based line numbers.
    pub fn parse(text: &str) -> Result<Allowlist, String> {
        let mut entries = Vec::new();
        // Fields of the entry currently being assembled:
        // (header line, lint, path, pattern, reason).
        type Partial = (
            u32,
            Option<LintId>,
            Option<String>,
            Option<String>,
            Option<String>,
        );
        let mut cur: Option<Partial> = None;

        fn finish(cur: &mut Option<Partial>, entries: &mut Vec<AllowEntry>) -> Result<(), String> {
            let Some((line, lint, path, pattern, reason)) = cur.take() else {
                return Ok(());
            };
            let missing = |k: &str| format!("allow entry at line {line}: missing `{k}`");
            let entry = AllowEntry {
                lint: lint.ok_or_else(|| missing("lint"))?,
                path: path.ok_or_else(|| missing("path"))?,
                pattern: pattern.ok_or_else(|| missing("pattern"))?,
                reason: reason.ok_or_else(|| missing("reason"))?,
                line,
            };
            if entry.reason.trim().is_empty() {
                return Err(format!(
                    "allow entry at line {line}: `reason` must be a non-empty justification"
                ));
            }
            if entry.pattern.is_empty() {
                return Err(format!(
                    "allow entry at line {line}: `pattern` must be non-empty (it anchors \
                     the entry to one source idiom)"
                ));
            }
            entries.push(entry);
            Ok(())
        }

        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx as u32 + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "[[allow]]" {
                finish(&mut cur, &mut entries)?;
                cur = Some((lineno, None, None, None, None));
                continue;
            }
            if line.starts_with('[') {
                return Err(format!(
                    "line {lineno}: unknown table `{line}` (only `[[allow]]` is supported)"
                ));
            }
            let Some((key, rest)) = line.split_once('=') else {
                return Err(format!(
                    "line {lineno}: expected `key = \"value\"`, got `{line}`"
                ));
            };
            let value = parse_string(rest.trim())
                .ok_or_else(|| format!("line {lineno}: value must be a double-quoted string"))?;
            let Some(entry) = cur.as_mut() else {
                return Err(format!(
                    "line {lineno}: `{}` outside an [[allow]] table",
                    key.trim()
                ));
            };
            match key.trim() {
                "lint" => {
                    let lint = LintId::from_name(&value).ok_or_else(|| {
                        format!(
                            "line {lineno}: unknown lint `{value}` (known: {})",
                            LintId::ALL
                                .iter()
                                .map(|l| l.name())
                                .collect::<Vec<_>>()
                                .join(", ")
                        )
                    })?;
                    entry.1 = Some(lint);
                }
                "path" => entry.2 = Some(value),
                "pattern" => entry.3 = Some(value),
                "reason" => entry.4 = Some(value),
                other => {
                    return Err(format!("line {lineno}: unknown key `{other}`"));
                }
            }
        }
        finish(&mut cur, &mut entries)?;
        Ok(Allowlist { entries })
    }

    /// Loads and parses `path`. A missing file is an empty allowlist.
    pub fn load(path: &std::path::Path) -> Result<Allowlist, String> {
        match std::fs::read_to_string(path) {
            Ok(text) => Allowlist::parse(&text).map_err(|e| format!("{}: {e}", path.display())),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Allowlist::default()),
            Err(e) => Err(format!("{}: {e}", path.display())),
        }
    }
}

/// Parses a double-quoted TOML basic string with `\"` and `\\` escapes.
/// Trailing inline comments after the closing quote are accepted.
fn parse_string(s: &str) -> Option<String> {
    let rest = s.strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => {
                let tail = chars.as_str().trim();
                if tail.is_empty() || tail.starts_with('#') {
                    return Some(out);
                }
                return None;
            }
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                't' => out.push('\t'),
                'n' => out.push('\n'),
                _ => return None,
            },
            other => out.push(other),
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_entries_and_matches_findings() {
        let text = r#"
# suppressions for intentional patterns
[[allow]]
lint = "lock-scope"
path = "crates/engine/src/parallel.rs"
pattern = "s.write_all(&frame)"
reason = "one writer per stream; a write timeout bounds the hold time"
"#;
        let al = Allowlist::parse(text).unwrap();
        assert_eq!(al.entries.len(), 1);
        let f = Finding {
            lint: LintId::LockScope,
            file: "crates/engine/src/parallel.rs".into(),
            line: 10,
            col: 5,
            message: "blocking".into(),
            source_line: "if s.write_all(&frame).is_err() {".into(),
        };
        assert!(al.entries[0].matches(&f));
        let other = Finding {
            file: "crates/engine/src/shard.rs".into(),
            ..f.clone()
        };
        assert!(!al.entries[0].matches(&other), "path must match exactly");
        let moved = Finding {
            source_line: "q.push_back(frame);".into(),
            ..f
        };
        assert!(!al.entries[0].matches(&moved), "pattern anchors the idiom");
    }

    #[test]
    fn reason_is_mandatory_and_must_be_non_empty() {
        let missing = "[[allow]]\nlint = \"determinism\"\npath = \"a.rs\"\npattern = \"x\"\n";
        assert!(Allowlist::parse(missing)
            .unwrap_err()
            .contains("missing `reason`"));
        let empty =
            "[[allow]]\nlint = \"determinism\"\npath = \"a.rs\"\npattern = \"x\"\nreason = \"  \"\n";
        assert!(Allowlist::parse(empty).unwrap_err().contains("non-empty"));
    }

    #[test]
    fn rejects_unknown_lints_keys_and_tables() {
        assert!(Allowlist::parse("[[allow]]\nlint = \"nope\"\n")
            .unwrap_err()
            .contains("unknown lint"));
        assert!(Allowlist::parse("[[allow]]\nflavor = \"x\"\n")
            .unwrap_err()
            .contains("unknown key"));
        assert!(Allowlist::parse("[general]\n")
            .unwrap_err()
            .contains("unknown table"));
        assert!(Allowlist::parse("lint = \"determinism\"\n")
            .unwrap_err()
            .contains("outside an [[allow]]"));
    }

    #[test]
    fn empty_and_comment_only_files_parse() {
        assert!(Allowlist::parse("").unwrap().entries.is_empty());
        assert!(Allowlist::parse("# nothing here\n\n")
            .unwrap()
            .entries
            .is_empty());
    }
}
