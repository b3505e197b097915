//! `figures --all --quick` in a child process of its own, so its stdout
//! can be digested.

use std::io::Write;
use std::process::{Command, Stdio};
use std::time::Instant;

use stbpu_bench::{figures, Knobs};

use crate::reference::Digest;

const FIGURE_PREFIX: &str = "perfbench-figure ";

pub struct FiguresRun {
    /// Seconds per figure, in `figures::ALL` order.
    pub per_figure: Vec<(String, f64)>,
    pub digest: Digest,
}

/// Runs the child and waits for it.
pub fn run(seed: u64) -> Result<FiguresRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["figures-child", "--seed", &seed.to_string()])
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("figures child: {e}"))?;
    let stderr = String::from_utf8_lossy(&out.stderr);
    if !out.status.success() {
        return Err(format!("figures child failed ({}):\n{stderr}", out.status));
    }
    let mut per_figure = Vec::new();
    for line in stderr.lines() {
        if let Some(rest) = line.strip_prefix(FIGURE_PREFIX) {
            let (name, secs) = rest
                .split_once(' ')
                .and_then(|(n, s)| Some((n.to_string(), s.parse::<f64>().ok()?)))
                .ok_or_else(|| format!("figures child: bad line '{line}'"))?;
            per_figure.push((name, secs));
        }
    }
    if per_figure.len() != figures::ALL.len() {
        return Err(format!(
            "figures child timed {} of {} figures",
            per_figure.len(),
            figures::ALL.len()
        ));
    }
    Ok(FiguresRun {
        per_figure,
        digest: Digest::of(&out.stdout),
    })
}

/// Child-process entry. The stdout is byte for byte that of
/// `stbpu figures --all --quick --seed <seed>`; timings go to stderr.
pub fn child(seed: u64) -> Result<(), String> {
    let knobs = Knobs {
        seed,
        ..Knobs::quick()
    };
    for (i, f) in figures::ALL.iter().enumerate() {
        let start = Instant::now();
        (f.run)(&knobs);
        eprintln!(
            "{FIGURE_PREFIX}{} {}",
            f.name,
            start.elapsed().as_secs_f64()
        );
        if i + 1 < figures::ALL.len() {
            println!();
        }
    }
    std::io::stdout()
        .flush()
        .map_err(|e| format!("stdout: {e}"))?;
    Ok(())
}
