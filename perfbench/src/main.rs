//! `perfbench` — the simulator's benchmark.
//!
//! ```text
//! perfbench --workload <base-spec|st-spec|st-server>
//!           --seed <n> --seconds <s> --trace <0|1> [--reference <file>]
//! perfbench write-reference      # prints a fresh reference.json (seed 42)
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no tracing;
//! `--trace 1` runs the traced per-layer ledger instead. Either way every
//! operation's output is checked (see `reference.rs`), the full record
//! with provenance and samples is printed, and the last stdout line is
//! `{"correct", "attempted", "failed", "metrics"}`. The exit code is 0
//! only when every operation matched. See `perfbench/README.md`.

mod calib;
mod figures;
mod ledger;
mod reference;
mod run;
mod util;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use calib::Calibrator;
use reference::{Check, Reference, Stats, COMMITTED, REFERENCE_SEED};
use util::{median, peak_rss_kb, provenance_json, Metrics};
use workload::{Prepared, WorkloadDef, BRANCHES, FAMILIES, STREAMS, WORKLOADS};

/// Cold set-ups per run, at least (this process plus fresh child
/// processes); `setup_s` is their median.
const SETUPS: usize = 5;

/// Wall seconds of child set-ups per run, at least: a set-up without ST
/// models takes under a millisecond, and its median needs many.
const SETUP_CHILDREN_S: f64 = 3.0;

/// Rounds of family passes, at least, also when the deadline has passed.
const MIN_ROUNDS: usize = 3;

struct Opts {
    workload: &'static WorkloadDef,
    seed: u64,
    seconds: f64,
    trace: bool,
    reference: Option<PathBuf>,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("figures-child") => {
            figures::child(parse(&args[1..])?.seed)?;
            Ok(ExitCode::SUCCESS)
        }
        Some("setup-child") => {
            let o = parse(&args[1..])?;
            workload::setup_child(o.workload, o.seed, &stage_dir()?)?;
            Ok(ExitCode::SUCCESS)
        }
        Some("write-reference") => {
            write_reference()?;
            Ok(ExitCode::SUCCESS)
        }
        _ => bench(&parse(args)?),
    }
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: &WORKLOADS[0],
        seed: REFERENCE_SEED,
        seconds: 10.0,
        trace: false,
        reference: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => {
                o.workload = workload::workload(value).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload '{value}' (known: {})", names.join(", "))
                })?;
            }
            "--seed" => o.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                o.seconds = value.parse().map_err(|_| bad())?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                o.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--reference" => o.reference = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    Ok(o)
}

/// Scratch space for staged traces and span logs, inside the build
/// directory (and so inside the checkout).
fn stage_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    Ok(exe
        .parent()
        .ok_or("the executable has no parent directory")?
        .join("perfbench-stage"))
}

fn bench(o: &Opts) -> Result<ExitCode, String> {
    let def = o.workload;
    let stage = stage_dir()?;
    let reference = if o.seed == REFERENCE_SEED {
        let text = match &o.reference {
            Some(p) => std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?,
            None => COMMITTED.to_string(),
        };
        Some(Reference::parse(&text, BRANCHES)?)
    } else {
        None
    };
    let mut checks = Vec::new();
    for f in &FAMILIES {
        let expected = match &reference {
            Some(r) => r.family(def.name, f.name)?.into_iter().map(Some).collect(),
            None => vec![None; STREAMS],
        };
        for (j, e) in expected.into_iter().enumerate() {
            checks.push(Check::new(
                format!(
                    "{} {} report, stream {j} of seed {}",
                    def.name, f.name, o.seed
                ),
                e,
            ));
        }
    }
    let expected_digest = match &reference {
        Some(r) => Some(r.figures()?),
        None => None,
    };
    let mut figure_check = Check::new(
        format!("figures-quick stdout (seed {})", o.seed),
        expected_digest,
    );

    let (prep, setup_s) = calib::timed(&mut Calibrator::new(), || {
        Prepared::new(def, o.seed, &stage)
    });
    let prep = prep?;

    let mut m = Metrics::default();
    let outcome = if o.trace {
        ledger::traced(&prep, o.seconds, &mut checks, &mut figure_check, &mut m)
            .and_then(|log| {
                let path = stage.join(format!("spans-{}-{}.jsonl", def.name, o.seed));
                std::fs::write(&path, log.to_jsonl())
                    .map_err(|e| format!("{}: {e}", path.display()))
            })
            .map(|()| Vec::new())
    } else {
        untraced(&prep, o, setup_s, &mut checks, &mut m)
    };
    prep.cleanup();
    let kernel_ns = outcome?;

    let attempted = checks.iter().map(|c| c.attempted).sum::<u64>() + figure_check.attempted;
    let failed = checks.iter().map(|c| c.failed).sum::<u64>() + figure_check.failed;
    println!(
        "{{\"record\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"branches_per_pass\": {BRANCHES}, \"provenance\": {}, \"calibration\": {},          \"metrics\": {}}}}}",
        def.name,
        o.seed,
        o.seconds,
        u8::from(o.trace),
        provenance_json(),
        calibration_json(&kernel_ns),
        m.to_json(true)?
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        m.to_json(false)?
    );
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// How the host ran the calibration kernel during the family passes
/// (`null` in a traced run, which reports wall times).
fn calibration_json(kernel_ns: &[f64]) -> String {
    if kernel_ns.is_empty() {
        return "null".to_string();
    }
    let min = kernel_ns.iter().copied().fold(f64::INFINITY, f64::min);
    format!(
        "{{\"ref_ns\": {}, \"median_ns\": {}, \"min_ns\": {min}, \"runs\": {}}}",
        calib::REF_NS,
        median(kernel_ns),
        kernel_ns.len()
    )
}

/// The end-to-end metrics; returns the calibration kernel's times.
fn untraced(
    prep: &Prepared,
    o: &Opts,
    setup_s: f64,
    checks: &mut [Check<Stats>],
    m: &mut Metrics,
) -> Result<Vec<f64>, String> {
    let deadline = Instant::now() + Duration::from_secs_f64(o.seconds);
    let rounds = run::rounds(prep, checks, deadline, MIN_ROUNDS, None)?;
    let own_rss_mb = peak_rss_kb() as f64 / 1024.0;

    let mut setups = vec![setup_s];
    let children = Instant::now();
    while setups.len() < SETUPS || children.elapsed().as_secs_f64() < SETUP_CHILDREN_S {
        setups.push(setup_child(o)?);
    }
    m.push_median("setup_s", setups, "s");
    // One unit of every family.
    let wall: f64 = rounds
        .untraced
        .iter()
        .map(|t| t.ns() * (STREAMS * BRANCHES) as f64 / 1e9)
        .sum();
    m.push("wall_s", wall, "s");
    for (f, t) in FAMILIES.iter().zip(&rounds.untraced) {
        let rates = t.passes.iter().flatten().map(|ns| 1e9 / ns).collect();
        m.push_with(
            format!("{}.branches_per_s", f.name),
            1e9 / t.ns(),
            "1/s",
            rates,
        );
    }
    m.push("peak_rss_mb", own_rss_mb, "MB");
    Ok(rounds.kernel_ns)
}

/// One cold set-up in a fresh process; returns its seconds.
fn setup_child(o: &Opts) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args([
            "setup-child",
            "--workload",
            o.workload.name,
            "--seed",
            &o.seed.to_string(),
        ])
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("setup child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "setup child failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.trim()
        .parse()
        .map_err(|_| format!("setup child printed '{}'", text.trim()))
}

/// Prints a reference document for the reference seed.
fn write_reference() -> Result<(), String> {
    let stage = stage_dir()?;
    let mut entries = Vec::new();
    for def in &WORKLOADS {
        let prep = Prepared::new(def, REFERENCE_SEED, &stage)?;
        let mut fams = Vec::new();
        for f in &FAMILIES {
            let mut streams = Vec::new();
            for j in 0..STREAMS {
                let mut model = prep.build(f, j)?;
                let mut source = prep.open(j)?;
                let (report, _) = run::pass(&mut model, prep.policy(), source.as_mut())?;
                streams.push(format!("        {}", Stats::of(&report).to_json()));
            }
            fams.push(format!(
                "      \"{}\": [\n{}\n      ]",
                f.name,
                streams.join(",\n")
            ));
        }
        prep.cleanup();
        entries.push(format!(
            "    \"{}\": {{\n{}\n    }}",
            def.name,
            fams.join(",\n")
        ));
    }
    let digest = figures::run(REFERENCE_SEED)?.digest;
    println!(
        "{{\n  \"seed\": {REFERENCE_SEED},\n  \"branches\": {BRANCHES},\n  \"reports\": {{\n{}\n  }},\n  \
         \"figures-quick\": {}\n}}",
        entries.join(",\n"),
        digest.to_json()
    );
    Ok(())
}
