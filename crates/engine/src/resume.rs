//! The checkpoint-range runner every engine path shares, plus kill/resume
//! support for grid runs: the completed-suite log and the checkpointable
//! cell runner behind `Experiment::checkpoint_dir`.
//!
//! [`RangeRun`] is the single open / skip / advance primitive: it opens a
//! session fresh or at a [`Checkpoint`] (repositioning the stream past
//! the events the checkpoint consumed), advances by exact branch counts,
//! and captures or finishes. Sequential and sharded runs, checkpoint
//! cutting, [`resume_to_end`], grid cells and phase slices are thin
//! callers of it.
//!
//! A checkpointed grid run persists two kinds of state:
//!
//! * **`completed.jsonl`** — one line per finished (workload, seed)
//!   suite, appended and flushed the moment the suite's records arrive on
//!   the main thread. Every numeric field is encoded as a *string*: `u64`
//!   as decimal (JSON numbers are doubles and would corrupt counters
//!   above 2⁵³) and `f64` via Rust's shortest-roundtrip `Display`, which
//!   `str::parse::<f64>` restores bit-exactly. A process killed
//!   mid-append leaves at most one partial trailing line, which the
//!   parser skips.
//! * **`cell-<suite>-<scenario>.stck`** — an in-flight [`Checkpoint`] per
//!   running cell, refreshed every `checkpoint_every` branches
//!   (atomically: temp file + rename). Unlike the shard driver, the cell
//!   blob keeps its retained interval windows — a resumed cell's final
//!   series must equal the uninterrupted one.
//!
//! On resume, suites present in the log are skipped outright; a live cell
//! checkpoint warm-starts its cell through [`RangeRun`]. Both paths are
//! bit-identical to never having been killed (test- and CI-enforced).

use crate::error::EngineError;
use crate::experiment::{RunRecord, Scenario};
use crate::minijson::{escape, Json};
use crate::model_core::ModelCore;
use crate::registry::ModelRegistry;
use crate::report::protection_from_str;
use crate::workload::Workload;
use stbpu_bpu::StateReader;
use stbpu_sim::{
    Checkpoint, IntervalWindow, OwnedSession, Protection, SessionOptions, SimReport, Warmup,
};
use stbpu_trace::{EventSource, TraceEvent};
use std::path::{Path, PathBuf};

/// In-flight checkpoint path for one cell of the grid.
pub(crate) fn cell_path(dir: &Path, suite: usize, scenario: usize) -> PathBuf {
    dir.join(format!("cell-{suite}-{scenario}.stck"))
}

fn push_str_field(out: &mut String, key: &str, val: &str, first: bool) {
    if !first {
        out.push(',');
    }
    out.push_str(&escape(key));
    out.push(':');
    out.push_str(&escape(val));
}

/// One completed suite as a `completed.jsonl` line (no trailing newline).
pub(crate) fn suite_to_json_line(suite: usize, records: &[RunRecord]) -> String {
    let mut out = String::from("{");
    push_str_field(&mut out, "suite", &suite.to_string(), true);
    out.push_str(",\"records\":[");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('{');
        push_str_field(&mut out, "workload", &r.workload, true);
        push_str_field(&mut out, "model_spec", &r.model_spec, false);
        push_str_field(&mut out, "seed", &r.seed.to_string(), false);
        out.push_str(",\"report\":{");
        push_str_field(&mut out, "model", &r.report.model, true);
        push_str_field(&mut out, "protection", r.report.protection, false);
        push_str_field(&mut out, "workload", &r.report.workload, false);
        push_str_field(&mut out, "oae", &format!("{}", r.report.oae), false);
        push_str_field(
            &mut out,
            "direction_rate",
            &format!("{}", r.report.direction_rate),
            false,
        );
        push_str_field(
            &mut out,
            "target_rate",
            &format!("{}", r.report.target_rate),
            false,
        );
        push_str_field(&mut out, "branches", &r.report.branches.to_string(), false);
        push_str_field(
            &mut out,
            "mispredictions",
            &r.report.mispredictions.to_string(),
            false,
        );
        push_str_field(
            &mut out,
            "evictions",
            &r.report.evictions.to_string(),
            false,
        );
        push_str_field(&mut out, "flushes", &r.report.flushes.to_string(), false);
        push_str_field(
            &mut out,
            "rerandomizations",
            &r.report.rerandomizations.to_string(),
            false,
        );
        out.push_str("},\"intervals\":[");
        for (j, w) in r.intervals.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "[\"{}\",\"{}\",\"{}\",\"{}\",\"{}\",\"{}\"]",
                w.start_branch,
                w.branches,
                w.effective_correct,
                w.mispredictions,
                w.flushes,
                w.rerandomizations
            ));
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

fn str_u64(j: &Json, key: &str) -> Option<u64> {
    j.get(key)?.as_str()?.parse().ok()
}

fn str_f64(j: &Json, key: &str) -> Option<f64> {
    j.get(key)?.as_str()?.parse().ok()
}

fn str_string(j: &Json, key: &str) -> Option<String> {
    Some(j.get(key)?.as_str()?.to_string())
}

fn record_from_json(j: &Json) -> Option<RunRecord> {
    let rep = j.get("report")?;
    // The log stores the display label; map it back to the one static
    // string every live report carries.
    let protection = protection_from_str(rep.get("protection")?.as_str()?)
        .ok()?
        .label();
    let mut intervals = Vec::new();
    for w in j.get("intervals")?.as_array()? {
        let v: Vec<u64> = w
            .as_array()?
            .iter()
            .map(|x| x.as_str().and_then(|s| s.parse().ok()))
            .collect::<Option<_>>()?;
        let &[start_branch, branches, effective_correct, mispredictions, flushes, rerandomizations] =
            v.as_slice()
        else {
            return None;
        };
        intervals.push(IntervalWindow {
            start_branch,
            branches,
            effective_correct,
            mispredictions,
            flushes,
            rerandomizations,
        });
    }
    Some(RunRecord {
        workload: str_string(j, "workload")?,
        model_spec: str_string(j, "model_spec")?,
        seed: str_u64(j, "seed")?,
        report: SimReport {
            model: str_string(rep, "model")?,
            protection,
            workload: str_string(rep, "workload")?,
            oae: str_f64(rep, "oae")?,
            direction_rate: str_f64(rep, "direction_rate")?,
            target_rate: str_f64(rep, "target_rate")?,
            branches: str_u64(rep, "branches")?,
            mispredictions: str_u64(rep, "mispredictions")?,
            evictions: str_u64(rep, "evictions")?,
            flushes: str_u64(rep, "flushes")?,
            rerandomizations: str_u64(rep, "rerandomizations")?,
        },
        intervals,
    })
}

/// Parses one `completed.jsonl` line; `None` for anything malformed —
/// notably the partial trailing line a kill can leave behind.
pub(crate) fn suite_from_json_line(line: &str) -> Option<(usize, Vec<RunRecord>)> {
    let j = Json::parse(line).ok()?;
    let suite = str_u64(&j, "suite")? as usize;
    let records = j
        .get("records")?
        .as_array()?
        .iter()
        .map(record_from_json)
        .collect::<Option<Vec<_>>>()?;
    Some((suite, records))
}

/// Events pulled per source refill (matches the session's own pull size).
const BATCH: usize = 4_096;

pub(crate) fn source_err(e: stbpu_trace::SourceError) -> EngineError {
    EngineError::WorkloadSource(e.to_string())
}

pub(crate) fn ckpt_err(e: stbpu_sim::CheckpointError) -> EngineError {
    EngineError::Checkpoint(e.to_string())
}

/// Resolves the effective thread provision the way the CLI does: explicit
/// request, else the source's declared count (0 = unknown → `None`, the
/// model maximum).
pub(crate) fn resolve_threads(explicit: Option<usize>, declared: usize) -> Option<usize> {
    explicit.or(match declared {
        0 => None,
        t => Some(t),
    })
}

/// Where a [`RangeRun`] starts.
#[derive(Clone, Copy)]
pub(crate) enum RangeStart<'c> {
    /// Branch 0 of a fresh session. `threads: None` takes the source's
    /// declared count, falling back to the model maximum.
    Fresh {
        warmup: Warmup,
        interval: Option<u64>,
        threads: Option<usize>,
    },
    /// The exact state a checkpoint cut for the same model spec,
    /// protection and seed captured, with the stream repositioned past
    /// the events it consumed.
    At(&'c Checkpoint),
}

/// One simulation over a contiguous range of a workload's stream — the
/// single open / skip / advance path behind sequential runs, both shard
/// passes, [`resume_to_end`], crash-resumable grid cells and phase
/// slices. Pulled batches survive across calls, so consecutive
/// [`RangeRun::advance`] calls split the stream exactly at the branch
/// that reaches each target without losing the remainder.
pub(crate) struct RangeRun<'a> {
    session: OwnedSession<ModelCore>,
    source: Box<dyn EventSource + 'a>,
    buf: Vec<TraceEvent>,
    /// `buf[lo..]` is pulled but not yet consumed.
    lo: usize,
    /// Stream position: events consumed since the start of the stream,
    /// skipped prefix included — the skip count a checkpoint records.
    events_fed: u64,
    model_spec: &'a str,
    seed: u64,
}

impl<'a> RangeRun<'a> {
    /// Builds `model_spec` with `seed`, opens `workload`'s stream and a
    /// session under `protection`, and positions both at `start`.
    ///
    /// # Errors
    ///
    /// Registry, workload and session errors; [`EngineError::Checkpoint`]
    /// for a blob that does not fit the model or a stream shorter than
    /// the checkpoint's consumed-event count.
    pub(crate) fn open(
        registry: &ModelRegistry,
        model_spec: &'a str,
        protection: Protection,
        seed: u64,
        workload: &'a Workload,
        branches: usize,
        start: RangeStart<'_>,
    ) -> Result<Self, EngineError> {
        let model = registry.build(model_spec, seed)?;
        let mut source = workload.open(seed, branches)?;
        let opts = match start {
            RangeStart::Fresh {
                warmup,
                interval,
                threads,
            } => SessionOptions {
                warmup,
                threads: resolve_threads(threads, source.thread_count()),
                interval,
                workload: None,
            },
            // The session blob leads with its thread provision; peek it so
            // the session opens with matching geometry. Applying the
            // checkpoint restores everything else.
            RangeStart::At(cp) => SessionOptions {
                warmup: Warmup::Branches(0),
                threads: Some(
                    StateReader::new(&cp.session_state)
                        .usize()
                        .map_err(|e| EngineError::Checkpoint(format!("state snapshot: {e}")))?,
                ),
                interval: None,
                workload: None,
            },
        };
        let mut session = OwnedSession::new(model, protection, opts)?;
        let events_fed = match start {
            RangeStart::Fresh { .. } => {
                session.begin(source.name(), source.branch_hint())?;
                0
            }
            RangeStart::At(cp) => {
                cp.apply(&mut session).map_err(ckpt_err)?;
                let skipped = source.skip_events(cp.events_consumed).map_err(source_err)?;
                if skipped != cp.events_consumed {
                    return Err(EngineError::Checkpoint(format!(
                        "stream '{}' has only {skipped} of the {} events the checkpoint consumed",
                        source.name(),
                        cp.events_consumed
                    )));
                }
                skipped
            }
        };
        Ok(RangeRun {
            session,
            source,
            buf: Vec::new(),
            lo: 0,
            events_fed,
            model_spec,
            seed,
        })
    }

    /// Consumes events until `n_branches` branch events have passed or the
    /// stream ends, returning how many branches passed. A pulled batch is
    /// split right after the branch that reaches the count; trailing
    /// non-branch events stay buffered for the next call. With `simulate`
    /// false the events are skipped, not fed to the model.
    ///
    /// # Errors
    ///
    /// Source and simulation failures.
    pub(crate) fn advance(&mut self, n_branches: u64, simulate: bool) -> Result<u64, EngineError> {
        let mut got = 0u64;
        while got < n_branches {
            if self.lo >= self.buf.len() {
                self.lo = 0;
                if self
                    .source
                    .next_batch(&mut self.buf, BATCH)
                    .map_err(source_err)?
                    == 0
                {
                    break;
                }
            }
            let rest = self.buf.get(self.lo..).unwrap_or_default();
            let mut take = 0usize;
            for ev in rest {
                if got == n_branches {
                    break;
                }
                got += u64::from(matches!(ev, TraceEvent::Branch { .. }));
                take += 1;
            }
            let chunk = rest.get(..take).unwrap_or_default();
            if simulate {
                self.session.feed_batch(chunk)?;
            }
            self.events_fed += take as u64;
            self.lo += take;
        }
        Ok(got)
    }

    /// Simulates the rest of the stream.
    ///
    /// # Errors
    ///
    /// Source and simulation failures.
    pub(crate) fn run_to_end(&mut self) -> Result<(), EngineError> {
        self.advance(u64::MAX, true).map(|_| ())
    }

    /// Branch events simulated so far, warm-up and any checkpointed
    /// prefix included.
    pub(crate) fn branches_seen(&self) -> u64 {
        self.session.branches_seen()
    }

    /// The model, for mid-stream counter reads.
    pub(crate) fn model(&self) -> &ModelCore {
        self.session.model()
    }

    /// Drains the interval windows closed since the last call.
    pub(crate) fn take_intervals(&mut self) -> Vec<IntervalWindow> {
        self.session.take_intervals()
    }

    /// Snapshots the session at the current stream position.
    ///
    /// # Errors
    ///
    /// [`EngineError::Checkpoint`] when the model has no snapshot support.
    pub(crate) fn checkpoint(&self) -> Result<Checkpoint, EngineError> {
        Checkpoint::capture(&self.session, self.model_spec, self.seed, self.events_fed)
            .map_err(ckpt_err)
    }

    /// Ends the run: the final report and the interval backlog.
    pub(crate) fn finish(self) -> (SimReport, Vec<IntervalWindow>) {
        self.session.finish_with_intervals()
    }
}

/// Resumes from `cp` over a fresh stream of `workload` (opened with the
/// checkpoint's seed) and runs it to exhaustion, returning the final
/// report and interval backlog — bit-identical to never having stopped.
///
/// # Errors
///
/// Registry, source and simulation failures, and
/// [`EngineError::Checkpoint`] for a blob that does not fit its model or a
/// stream shorter than the checkpoint's consumed-event count.
pub fn resume_to_end(
    registry: &ModelRegistry,
    cp: &Checkpoint,
    workload: &Workload,
    branches: usize,
) -> Result<(SimReport, Vec<IntervalWindow>), EngineError> {
    let mut run = RangeRun::open(
        registry,
        &cp.model_spec,
        cp.protection,
        cp.seed,
        workload,
        branches,
        RangeStart::At(cp),
    )?;
    run.run_to_end()?;
    Ok(run.finish())
}

/// Runs one grid cell with periodic in-flight checkpointing, resuming
/// from an existing valid checkpoint at `cell` when one is present.
///
/// Cell checkpointing is best-effort where the *model* is concerned — a
/// custom model without snapshot support silently disables it (the suite
/// log still gives whole-suite resume) — but I/O failures while saving
/// are loud: a full disk must not masquerade as a checkpointed run.
///
/// # Errors
///
/// Registry, workload, simulation, or checkpoint-save errors.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_cell(
    registry: &ModelRegistry,
    sc: &Scenario,
    workload: &Workload,
    seed: u64,
    branches: usize,
    warmup: Warmup,
    threads: Option<usize>,
    interval: Option<u64>,
    cell: &Path,
    checkpoint_every: u64,
) -> Result<RunRecord, EngineError> {
    // A valid in-flight checkpoint for exactly this cell warm-starts it;
    // anything stale or mismatched is ignored and the cell runs fresh.
    let resumable = Checkpoint::load(cell).ok().filter(|cp| {
        cp.model_spec == sc.model && cp.seed == seed && cp.protection == sc.protection
    });
    let start = match &resumable {
        Some(cp) => RangeStart::At(cp),
        None => RangeStart::Fresh {
            warmup,
            interval,
            threads,
        },
    };
    let mut run = RangeRun::open(
        registry,
        &sc.model,
        sc.protection,
        seed,
        workload,
        branches,
        start,
    )?;
    let every = checkpoint_every.max(1);
    while run.advance(every, true)? == every {
        match run.checkpoint() {
            Ok(cp) => cp.save(cell).map_err(ckpt_err)?,
            Err(_) => break, // no snapshot support: finish uncheckpointed
        }
    }
    run.run_to_end()?;
    let (report, intervals) = run.finish();
    Ok(RunRecord {
        workload: workload.label(),
        model_spec: sc.model.clone(),
        seed,
        report,
        intervals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use stbpu_sim::Protection;

    fn sample_records() -> Vec<RunRecord> {
        vec![RunRecord {
            workload: "w,\"quoted\"".to_string(),
            model_spec: "st_skl@r=0.05".to_string(),
            seed: u64::MAX,
            report: SimReport {
                model: "st_skl".to_string(),
                protection: Protection::Stbpu.label(),
                workload: "w,\"quoted\"".to_string(),
                oae: 0.1 + 0.2, // not representable as a short decimal
                direction_rate: f64::MIN_POSITIVE,
                target_rate: 1.0 / 3.0,
                branches: (1 << 53) + 1, // would corrupt as a JSON double
                mispredictions: 7,
                evictions: 0,
                flushes: u64::MAX,
                rerandomizations: 3,
            },
            intervals: vec![IntervalWindow {
                start_branch: 9_007_199_254_740_993,
                branches: 1,
                effective_correct: 2,
                mispredictions: 3,
                flushes: 4,
                rerandomizations: 5,
            }],
        }]
    }

    #[test]
    fn suite_log_line_roundtrips_bit_exactly() {
        let recs = sample_records();
        let line = suite_to_json_line(17, &recs);
        let (suite, back) = suite_from_json_line(&line).unwrap();
        assert_eq!(suite, 17);
        assert_eq!(back.len(), 1);
        let (a, b) = (&recs[0], &back[0]);
        assert_eq!(a.workload, b.workload);
        assert_eq!(a.model_spec, b.model_spec);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.report, b.report);
        assert_eq!(a.report.oae.to_bits(), b.report.oae.to_bits());
        assert_eq!(
            a.report.direction_rate.to_bits(),
            b.report.direction_rate.to_bits()
        );
        assert_eq!(a.intervals, b.intervals);
    }

    #[test]
    fn stream_shorter_than_its_checkpoint_is_a_checkpoint_error() {
        let reg = ModelRegistry::standard();
        let wl = Workload::Named("541.leela".to_string());
        let cps = crate::cut_checkpoints(
            &reg,
            "st_skl",
            Protection::Stbpu,
            4,
            &wl,
            16_000,
            Warmup::Branches(0),
            None,
            None,
            &[12_000],
        )
        .unwrap();
        // A 6k-branch stream cannot supply the events a 12k-branch cut consumed.
        match resume_to_end(&reg, &cps[0], &wl, 6_000).unwrap_err() {
            EngineError::Checkpoint(msg) => {
                assert!(msg.contains("events the checkpoint consumed"), "{msg}")
            }
            other => panic!("expected a Checkpoint error, got {other:?}"),
        }
    }

    #[test]
    fn partial_and_garbage_lines_are_skipped() {
        let line = suite_to_json_line(0, &sample_records());
        // A kill can truncate the trailing line anywhere.
        for cut in [1, line.len() / 2, line.len() - 1] {
            assert!(suite_from_json_line(&line[..cut]).is_none(), "cut={cut}");
        }
        assert!(suite_from_json_line("").is_none());
        assert!(suite_from_json_line("{\"suite\":\"0\"}").is_none());
        assert!(suite_from_json_line("not json at all").is_none());
    }
}
