//! `stbpu simulate` — one model over one workload, streamed through a
//! [`SimSession`] with optional interval windows and progress reporting.

use crate::args::Args;
use crate::Failure;
use stbpu_engine::{
    auto_protection, csv_header, protection_from_str, report_to_csv_row, report_to_json,
    run_sharded, ShardConfig,
};
use stbpu_engine::{ModelRegistry, Workload};
use stbpu_sim::{
    Checkpoint, IntervalRecorder, IntervalWindow, SessionOptions, SimObserver, SimReport,
    SimSession, Warmup,
};
/// Output dialect.
enum Format {
    Human,
    Json,
    Csv,
}

/// Streaming progress meter on stderr (a [`SimObserver`], exercising the
/// same hook seam the interval recorder and attack telemetry use).
struct Progress {
    seen: u64,
    every: u64,
    total: Option<u64>,
}

impl Progress {
    fn new(hint: Option<u64>) -> Self {
        Progress {
            seen: 0,
            every: hint.map(|h| (h / 20).max(1)).unwrap_or(1_000_000),
            total: hint,
        }
    }
}

impl SimObserver for Progress {
    fn on_branch(
        &mut self,
        _tid: usize,
        _rec: &stbpu_bpu::BranchRecord,
        _outcome: &stbpu_bpu::BranchOutcome,
    ) {
        self.seen += 1;
        if self.seen.is_multiple_of(self.every) {
            match self.total {
                Some(t) if t > 0 => eprintln!(
                    "progress: {} / {} branches ({:.0}%)",
                    self.seen,
                    t,
                    self.seen as f64 * 100.0 / t as f64
                ),
                _ => eprintln!("progress: {} branches", self.seen),
            }
        }
    }
}

pub fn run(rest: &[String]) -> Result<(), Failure> {
    let mut a = Args::new(rest);
    let model_spec = a.opt("--model")?; // required unless --resume-from
    let workload_name = a.opt("--workload")?;
    let trace_file = a.opt("--trace-file")?;
    let protection = a.opt("--protection")?;
    let branches: usize = a.opt_parse("--branches", "an integer")?.unwrap_or(120_000);
    let seed: u64 = a.opt_parse("--seed", "an integer")?.unwrap_or(42);
    let threads: Option<usize> = a.opt_parse("--threads", "an integer")?;
    let interval: Option<u64> = a.opt_parse("--interval", "an integer")?;
    let warmup_frac: Option<f64> = a.opt_parse("--warmup", "a number")?;
    let warmup_branches: Option<u64> = a.opt_parse("--warmup-branches", "an integer")?;
    let format = match a.opt("--format")?.as_deref() {
        None | Some("human") => Format::Human,
        Some("json") => Format::Json,
        Some("csv") => Format::Csv,
        Some(other) => {
            return Err(Failure::Usage(format!(
                "unknown format '{other}' (human|json|csv)"
            )))
        }
    };
    let progress = a.flag("--progress");
    let shards: Option<usize> = a.opt_parse("--shards", "an integer")?;
    let checkpoint_dir = a.opt("--checkpoint-dir")?;
    let resume_from = a.opt("--resume-from")?;
    let phases_file = a.opt("--phases")?;
    let compare_full = a.flag("--compare-full");
    a.finish_empty()?;

    if resume_from.is_some() && shards.is_some() {
        return Err(Failure::Usage(
            "--resume-from and --shards are mutually exclusive".to_string(),
        ));
    }
    if progress && (shards.is_some() || resume_from.is_some()) {
        return Err(Failure::Usage(
            "--progress only works with the plain sequential path".to_string(),
        ));
    }
    if compare_full && phases_file.is_none() {
        return Err(Failure::Usage(
            "--compare-full only applies together with --phases".to_string(),
        ));
    }
    if phases_file.is_some() {
        // The phase file pins stream, seed, position and warm-up (always
        // Warmup::Branches(0), the configuration the weights partition);
        // every flag that would steer those is a contradiction.
        if shards.is_some() || resume_from.is_some() {
            return Err(Failure::Usage(
                "--phases is mutually exclusive with --shards/--resume-from".to_string(),
            ));
        }
        if progress || interval.is_some() {
            return Err(Failure::Usage(
                "--progress/--interval do not apply to phase-based estimation".to_string(),
            ));
        }
        if warmup_frac.is_some() || warmup_branches.is_some() {
            return Err(Failure::Usage(
                "phase-based estimation always runs with zero warm-up (the phase weights \
                 partition the whole stream); drop the warm-up flags"
                    .to_string(),
            ));
        }
    }

    let workload = match (workload_name, trace_file) {
        (Some(_), Some(_)) => {
            return Err(Failure::Usage(
                "--workload and --trace-file are mutually exclusive".to_string(),
            ))
        }
        (None, Some(path)) => Some(Workload::File(path.into())),
        (Some(name), None) => Some(Workload::Named(name)),
        // Without --phases/--resume-from there is a default; with them
        // the file supplies (or overrides) the stream.
        (None, None) if resume_from.is_some() || phases_file.is_some() => None,
        (None, None) => Some(Workload::Named("541.leela".to_string())),
    };

    let warmup = match (warmup_branches, warmup_frac) {
        (Some(_), Some(_)) => {
            return Err(Failure::Usage(
                "--warmup and --warmup-branches are mutually exclusive".to_string(),
            ))
        }
        (Some(b), None) => Warmup::Branches(b),
        (None, f) => Warmup::Fraction(f.unwrap_or(0.1)),
    };

    let registry = ModelRegistry::standard();
    let (report, windows, seed) = if let Some(path) = resume_from {
        // The checkpoint supplies model, protection, seed and workload;
        // --model and the warm-up flags are ignored (warm-up progress is
        // part of the restored state).
        let cp = Checkpoint::load(std::path::Path::new(&path))
            .map_err(|e| Failure::Runtime(e.to_string()))?;
        let workload = match workload {
            Some(w) => w,
            None => workload_for_label(&cp.workload)?,
        };
        workload.validate().map_err(Failure::from)?;
        let seed = cp.seed;
        let (report, windows) = stbpu_engine::resume_to_end(&registry, &cp, &workload, branches)
            .map_err(Failure::from)?;
        (report, windows, seed)
    } else if let Some(path) = phases_file {
        let model_spec = require_model(&model_spec)?;
        let policy = resolve_policy(protection.as_deref(), model_spec)?;
        let phased = Workload::phases_from_path(std::path::Path::new(&path), workload)
            .map_err(Failure::from)?;
        let file_seed = match &phased {
            Workload::Phases { file, .. } => file.seed,
            _ => seed,
        };
        let run = if compare_full {
            let (run, full, _) =
                stbpu_engine::run_phases_vs_full(&registry, model_spec, policy, &phased)
                    .map_err(Failure::from)?;
            eprintln!(
                "estimated vs full: OAE {:.6} vs {:.6} (|Δ| {:.2e}), mispredictions {} vs {}, \
                 rerandomizations {} vs {}",
                run.report.oae,
                full.oae,
                (run.report.oae - full.oae).abs(),
                run.report.mispredictions,
                full.mispredictions,
                run.report.rerandomizations,
                full.rerandomizations
            );
            run
        } else {
            stbpu_engine::run_phases(&registry, model_spec, policy, &phased)
                .map_err(Failure::from)?
        };
        eprintln!(
            "phase estimate: {} phases ({} warm), {} of {} branches simulated, est. MPKI {:.3}",
            run.phases, run.warm_phases, run.simulated_branches, run.report.branches, run.mpki
        );
        (run.report, Vec::new(), file_seed)
    } else if let Some(shards) = shards {
        let model_spec = require_model(&model_spec)?;
        let policy = resolve_policy(protection.as_deref(), model_spec)?;
        let workload = workload.expect("always set without --resume-from");
        workload.validate().map_err(Failure::from)?;
        let cfg = ShardConfig {
            shards,
            warmup,
            interval,
            threads,
            checkpoint_dir: checkpoint_dir.map(Into::into),
        };
        let run = run_sharded(
            &registry, model_spec, policy, seed, &workload, branches, &cfg,
        )
        .map_err(Failure::from)?;
        if run.cache_hits > 0 {
            eprintln!(
                "reused {} cached boundary checkpoints (pass 1 skipped)",
                run.cache_hits
            );
        }
        (run.report, run.intervals, seed)
    } else {
        let model_spec = require_model(&model_spec)?;
        let policy = resolve_policy(protection.as_deref(), model_spec)?;
        let workload = workload.expect("always set without --resume-from");
        workload.validate().map_err(Failure::from)?;
        run_plain(
            &registry, model_spec, policy, seed, &workload, branches, warmup, threads, interval,
            progress,
        )?
    };

    match format {
        Format::Csv => {
            println!("{}", csv_header());
            println!("{}", report_to_csv_row(&report, seed));
            if !windows.is_empty() {
                // Second block: the interval series, with its own header.
                println!();
                println!(
                    "start_branch,branches,effective_correct,mispredictions,flushes,rerandomizations,oae"
                );
                for w in &windows {
                    println!(
                        "{},{},{},{},{},{},{:.6}",
                        w.start_branch,
                        w.branches,
                        w.effective_correct,
                        w.mispredictions,
                        w.flushes,
                        w.rerandomizations,
                        w.oae()
                    );
                }
            }
        }
        Format::Json => {
            if windows.is_empty() {
                println!("{}", report_to_json(&report, seed));
            } else {
                println!(
                    "{{\"report\":{},\"intervals\":[{}]}}",
                    report_to_json(&report, seed),
                    windows
                        .iter()
                        .map(window_json)
                        .collect::<Vec<_>>()
                        .join(",")
                );
            }
        }
        Format::Human => {
            println!(
                "{} under {} over {} (seed {seed})",
                report.model, report.protection, report.workload
            );
            println!(
                "  OAE {:.6}  direction {:.6}  target {:.6}",
                report.oae, report.direction_rate, report.target_rate
            );
            println!(
                "  {} branches, {} mispredictions, {} evictions, {} flushes, {} re-randomizations",
                report.branches,
                report.mispredictions,
                report.evictions,
                report.flushes,
                report.rerandomizations
            );
            if !windows.is_empty() {
                println!(
                    "  {:<12} {:>10} {:>8} {:>8} {:>8}",
                    "start", "oae", "misp", "flush", "rerand"
                );
                for w in &windows {
                    println!(
                        "  {:<12} {:>10.4} {:>8} {:>8} {:>8}",
                        w.start_branch,
                        w.oae(),
                        w.mispredictions,
                        w.flushes,
                        w.rerandomizations
                    );
                }
            }
        }
    }
    Ok(())
}

fn require_model(spec: &Option<String>) -> Result<&str, Failure> {
    spec.as_deref()
        .ok_or_else(|| Failure::Usage("--model is required".to_string()))
}

pub(crate) fn resolve_policy(
    protection: Option<&str>,
    model_spec: &str,
) -> Result<stbpu_sim::Protection, Failure> {
    match protection {
        None | Some("auto") => Ok(auto_protection(model_spec)),
        Some(p) => protection_from_str(p).map_err(Failure::from),
    }
}

/// Reconstructs a workload from a checkpoint's stored label: a known
/// profile name, else an existing trace-file path.
fn workload_for_label(label: &str) -> Result<Workload, Failure> {
    if stbpu_trace::profiles::by_name(label).is_some() {
        Ok(Workload::Named(label.to_string()))
    } else if std::path::Path::new(label).exists() {
        Ok(Workload::File(label.into()))
    } else {
        Err(Failure::Usage(format!(
            "cannot reconstruct workload '{label}' from the checkpoint — pass --workload or \
             --trace-file explicitly"
        )))
    }
}

/// The plain sequential path: one [`SimSession`] over one source, with
/// optional interval recording and progress metering.
#[allow(clippy::too_many_arguments)]
fn run_plain(
    registry: &ModelRegistry,
    model_spec: &str,
    policy: stbpu_sim::Protection,
    seed: u64,
    workload: &Workload,
    branches: usize,
    warmup: Warmup,
    threads: Option<usize>,
    interval: Option<u64>,
    progress: bool,
) -> Result<(SimReport, Vec<IntervalWindow>, u64), Failure> {
    let mut model = registry.build(model_spec, seed).map_err(Failure::from)?;
    let mut source = workload.open(seed, branches).map_err(Failure::from)?;
    let threads = threads.or(match source.thread_count() {
        0 => None,
        t => Some(t),
    });

    // Session construction only validates options the user typed
    // (--warmup range, --threads provision), so its errors are usage
    // errors; failures mid-stream stay runtime errors.
    let mut session = SimSession::new(
        &mut model,
        policy,
        SessionOptions {
            warmup,
            threads,
            interval,
            workload: None,
        },
    )
    .map_err(|e| Failure::Usage(e.to_string()))?;

    let mut recorder = IntervalRecorder::new();
    if interval.is_some() {
        session.attach(&mut recorder);
    }
    let mut meter = Progress::new(source.branch_hint());
    if progress {
        session.attach(&mut meter);
    }
    session
        .run(source.as_mut())
        .map_err(|e| Failure::Runtime(e.to_string()))?;
    let report = session.finish();
    Ok((report, recorder.into_windows(), seed))
}

/// One interval window as a JSON object.
pub fn window_json(w: &IntervalWindow) -> String {
    format!(
        "{{\"start_branch\":{},\"branches\":{},\"effective_correct\":{},\
         \"mispredictions\":{},\"flushes\":{},\"rerandomizations\":{},\"oae\":{:.6}}}",
        w.start_branch,
        w.branches,
        w.effective_correct,
        w.mispredictions,
        w.flushes,
        w.rerandomizations,
        w.oae()
    )
}
