//! The correctness gate end to end: a run on the reference seed passes
//! against the committed reference and fails against a tampered copy.
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`;
//! a debug build simulates slowly.

use std::path::{Path, PathBuf};
use std::process::Command;

fn run(reference: &Path) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "base-spec", "--seed", "42", "--seconds", "1"])
        .args(["--trace", "0", "--reference"])
        .arg(reference)
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    let last = stdout.lines().last().unwrap_or_default().to_string();
    (out.status.code(), last)
}

fn write(name: &str, text: &str) -> PathBuf {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, text).unwrap();
    path
}

#[test]
fn tampered_reference_fails_the_run() {
    let committed = include_str!("../reference.json");
    let (code, last) = run(&write("reference-ok.json", committed));
    assert_eq!(code, Some(0), "{last}");
    assert!(last.starts_with("{\"correct\": true,"), "{last}");
    assert!(last.contains("\"failed\": 0,"), "{last}");

    // One more misprediction in the first base-spec report.
    let key = "\"mispredictions\": ";
    let at = committed.find(key).unwrap() + key.len();
    let end = at + committed[at..].find(',').unwrap();
    let n: u64 = committed[at..end].parse().unwrap();
    let tampered = format!("{}{}{}", &committed[..at], n + 1, &committed[end..]);
    let (code, last) = run(&write("reference-tampered.json", &tampered));
    assert_eq!(code, Some(1), "{last}");
    assert!(last.starts_with("{\"correct\": false,"), "{last}");
    assert!(!last.contains("\"failed\": 0,"), "{last}");
}
