//! Integration tests for `stbpu analyze` driving the real binary: the
//! live workspace must gate clean, every flag must honor the CLI
//! contracts, and — the acceptance criterion for the gate itself — a
//! workspace with a socket write under a live mutex guard planted in a
//! synthetic `crates/net/src/server.rs` must fail with positioned
//! diagnostics.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn stbpu_in(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_stbpu"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("binary runs")
}

fn stbpu(args: &[&str]) -> Output {
    stbpu_in(Path::new(env!("CARGO_MANIFEST_DIR")), args)
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
        .to_path_buf()
}

/// A throwaway single-crate workspace whose `crates/net/src/server.rs`
/// holds whatever source the test plants there.
fn synthetic_workspace(name: &str, server_rs: &str) -> PathBuf {
    let root =
        std::env::temp_dir().join(format!("stbpu-analyze-test-{}-{name}", std::process::id()));
    let src = root.join("crates").join("net").join("src");
    std::fs::create_dir_all(&src).expect("scratch workspace");
    std::fs::write(
        root.join("Cargo.toml"),
        "[workspace]\nmembers = [\"crates/net\"]\n",
    )
    .expect("root manifest");
    std::fs::write(
        root.join("crates").join("net").join("Cargo.toml"),
        "[package]\nname = \"net\"\nversion = \"0.0.0\"\n",
    )
    .expect("crate manifest");
    std::fs::write(src.join("server.rs"), server_rs).expect("server.rs");
    root
}

// --- the live workspace gates clean -----------------------------------

#[test]
fn analyze_exits_zero_on_the_workspace() {
    let out = stbpu(&["analyze"]);
    assert!(
        out.status.success(),
        "stdout:\n{}\nstderr:\n{}",
        stdout(&out),
        stderr(&out)
    );
    assert!(stdout(&out).contains("0 findings"), "{}", stdout(&out));
}

#[test]
fn analyze_finds_the_root_from_a_nested_working_directory() {
    // No --root: the command walks up from cwd (crates/cli) to the
    // [workspace] manifest.
    let nested = workspace_root().join("crates").join("trace");
    let out = stbpu_in(&nested, &["analyze"]);
    assert!(out.status.success(), "{}", stderr(&out));
}

#[test]
fn analyze_json_report_is_machine_readable() {
    let out = stbpu(&["analyze", "--format", "json"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let json = stdout(&out);
    assert!(json.contains("\"clean\": true"), "{json}");
    assert!(json.contains("\"files_scanned\""), "{json}");
    assert!(json.contains("\"suppressed\""), "{json}");
}

#[test]
fn analyze_list_lints_prints_the_catalog() {
    let out = stbpu(&["analyze", "--list-lints"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    for lint in ["lock-scope", "determinism", "wall-clock", "panic-freedom"] {
        assert!(text.contains(lint), "missing {lint}:\n{text}");
    }
}

// --- the gate fails on a write under a live guard ----------------------

#[test]
fn analyze_fails_when_the_pr6_write_under_mutex_returns() {
    // The shape the lock-scope lint targets: socket writes issued while
    // a mutex guard is live.
    let root = synthetic_workspace(
        "pr6",
        r#"
use std::io::Write;
use std::net::TcpStream;
use std::sync::Mutex;

struct State { frames: Vec<Vec<u8>> }

fn broadcast(state: &Mutex<State>, sock: &mut TcpStream) {
    let mut st = state.lock().unwrap_or_default();
    for frame in st.frames.drain(..) {
        let _ = sock.write_all(&frame);
    }
}
"#,
    );
    let out = stbpu(&["analyze", "--root", root.to_str().expect("utf-8 path")]);
    let _ = std::fs::remove_dir_all(&root);
    assert!(!out.status.success(), "the gate must fail");
    assert_eq!(out.status.code(), Some(1), "runtime failure, not usage");
    let text = stdout(&out);
    // Positioned diagnostic: file:line:col, the lint id, the guard name.
    assert!(
        text.contains("crates/net/src/server.rs:11:"),
        "positioned at the write_all line:\n{text}"
    );
    assert!(text.contains("lock-scope"), "{text}");
    assert!(text.contains("`st`"), "names the live guard:\n{text}");
    assert!(
        stderr(&out).contains("non-allowlisted finding"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn analyze_passes_the_fixed_shape_of_the_same_workspace() {
    let root = synthetic_workspace(
        "pr6fixed",
        r#"
use std::io::Write;
use std::net::TcpStream;
use std::sync::Mutex;

struct State { frames: Vec<Vec<u8>> }

fn broadcast(state: &Mutex<State>, sock: &mut TcpStream) {
    let frames: Vec<Vec<u8>> = {
        let mut st = state.lock().unwrap_or_default();
        st.frames.drain(..).collect()
    };
    for frame in frames {
        let _ = sock.write_all(&frame);
    }
}
"#,
    );
    let out = stbpu(&["analyze", "--root", root.to_str().expect("utf-8 path")]);
    let _ = std::fs::remove_dir_all(&root);
    assert!(
        out.status.success(),
        "stdout:\n{}\nstderr:\n{}",
        stdout(&out),
        stderr(&out)
    );
}

// --- CLI contracts -----------------------------------------------------

#[test]
fn analyze_usage_errors_exit_two() {
    let out = stbpu(&["analyze", "--format", "yaml"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    let out = stbpu(&["analyze", "--frmat", "json"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--frmat"), "{}", stderr(&out));
    let out = stbpu(&["analyze", "--root", "/nonexistent-stbpu-path"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
}

#[test]
fn analyze_help_is_wired() {
    let out = stbpu(&["help", "analyze"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("--list-lints"), "{}", stdout(&out));
    let out = stbpu(&["--help"]);
    assert!(
        stdout(&out).contains("analyze"),
        "main help must list the subcommand:\n{}",
        stdout(&out)
    );
}

#[test]
fn analyze_out_writes_the_report_file() {
    let dir = std::env::temp_dir().join(format!("stbpu-analyze-out-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("report.json");
    let out = stbpu(&[
        "analyze",
        "--format",
        "json",
        "--out",
        path.to_str().expect("utf-8 path"),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stdout(&out).is_empty(),
        "report went to the file, not stdout"
    );
    let written = std::fs::read_to_string(&path).expect("report file");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(written.contains("\"clean\": true"), "{written}");
}
