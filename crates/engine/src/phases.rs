//! Phase-file construction and phase-based whole-trace estimation — the
//! engine half of the SimPoint pipeline (`stbpu_phases` holds the
//! clustering and the `.stbp` codec).
//!
//! **Build** ([`build_phase_file`]): one streaming BBV pass over the
//! workload ([`stbpu_trace::extract_bbv`]), seeded k-means over the
//! slices ([`stbpu_phases::cluster_slices`]), and — optionally — one
//! checkpoint-cutting pass ([`crate::cut_checkpoints`]) that embeds a
//! warm `.stck` snapshot at every representative's start branch. A phase
//! file without embedded checkpoints is *model-independent*: the same
//! `.stbp` estimates any scheme (each representative is simulated from a
//! cold model, warmed over the stretch just before it). Embedded
//! checkpoints pin the file to one `(model, protection, seed)` but make each
//! representative start from the exact warm state of a full run — with
//! `k` = the slice count this reproduces full simulation bit-exactly
//! (test-enforced).
//!
//! **Estimate** ([`run_phases`]): simulate only the representatives, in
//! parallel via [`parallel_map`], measuring each phase's counter deltas
//! ([`stbpu_bpu::BpuStats`] before/after), then reconstruct whole-trace
//! totals as the branch-weighted sum `Σ weightⱼ·deltaⱼ/repⱼ` in u128
//! integer arithmetic — so when `weightⱼ = repⱼ` every term is exactly
//! `deltaⱼ` and the reconstruction is lossless. Rates (OAE, direction,
//! target) divide the reconstructed numerators exactly the way a full
//! run's report does.
//!
//! Estimation always corresponds to a `Warmup::Branches(0)` full run:
//! phase weights partition the whole stream, so there is no warm-up
//! prefix to exclude — which is also what makes the weighted sum an
//! unbiased reconstruction.

use crate::error::EngineError;
use crate::parallel::parallel_map;
use crate::registry::ModelRegistry;
use crate::resume::{source_err, RangeRun, RangeStart};
use crate::shard::{cut_checkpoints, run_sequential};
use crate::workload::Workload;
use stbpu_bpu::Bpu;
use stbpu_phases::{cluster_slices, phase_entries, ClusterConfig, PhaseEntry, PhaseFile};
use stbpu_sim::{Checkpoint, IntervalWindow, Protection, SimReport, Warmup};
use stbpu_trace::extract_bbv;

/// Cold-start warm-up floor: feeding fewer branches than this leaves
/// table-driven predictors (TAGE banks, the BTB) visibly cold no matter
/// how small the slices are, so the half-slice warm-up never drops
/// below it.
pub const COLD_WARM_FLOOR_BRANCHES: u64 = 10_000;

/// How to build a phase file.
#[derive(Clone, Debug)]
pub struct PhaseBuildOptions {
    /// Slice size in branch events.
    pub slice_branches: u64,
    /// Clustering configuration (projection dims, `k` scan, seed).
    pub cluster: ClusterConfig,
    /// Embed a warm `.stck` checkpoint per phase, cut while simulating
    /// this `(model spec, protection)` — pinning the file to that
    /// configuration. `None` keeps the file model-independent.
    pub embed: Option<(String, Protection)>,
}

impl Default for PhaseBuildOptions {
    fn default() -> Self {
        PhaseBuildOptions {
            slice_branches: stbpu_trace::DEFAULT_SLICE_BRANCHES,
            cluster: ClusterConfig::default(),
            embed: None,
        }
    }
}

/// The result of one phase-based estimation.
#[derive(Clone, Debug)]
pub struct PhaseRun {
    /// The reconstructed whole-trace report. `branches` is the full
    /// stream's branch count; the counter fields are weighted-sum
    /// estimates (exact when `k` equals the slice count and checkpoints
    /// are embedded).
    pub report: SimReport,
    /// Estimated mispredictions per kilo-instruction over the whole
    /// stream.
    pub mpki: f64,
    /// Number of phases simulated.
    pub phases: usize,
    /// How many of them warm-started from an embedded checkpoint.
    pub warm_phases: usize,
    /// Branch events actually simulated (Σ representative sizes plus any
    /// cold-start warm-up fed) — the simulated-branch speedup is
    /// `total_branches / simulated_branches`.
    pub simulated_branches: u64,
}

/// Profiles `workload` (one streaming BBV pass), clusters the slices,
/// and assembles a [`PhaseFile`] — plus one checkpoint-cutting pass when
/// [`PhaseBuildOptions::embed`] asks for warm starts.
///
/// # Errors
///
/// Source failures ([`EngineError::WorkloadSource`]), registry errors
/// for an unknown embed spec, and [`EngineError::Phase`] when the stream
/// yields no slices or the cut pass disagrees with the BBV coordinates.
pub fn build_phase_file(
    registry: &ModelRegistry,
    seed: u64,
    workload: &Workload,
    branches: usize,
    opts: &PhaseBuildOptions,
) -> Result<PhaseFile, EngineError> {
    workload.validate()?;
    let bbv = {
        let mut source = workload.open(seed, branches)?;
        extract_bbv(source.as_mut(), opts.slice_branches).map_err(source_err)?
    };
    if bbv.slices.is_empty() {
        return Err(EngineError::Phase(format!(
            "stream '{}' produced no slices — nothing to cluster",
            bbv.workload
        )));
    }
    let clustering = cluster_slices(&bbv.slices, &opts.cluster);
    let mut entries = phase_entries(&bbv, &clustering);

    if let Some((model_spec, protection)) = &opts.embed {
        let targets: Vec<u64> = entries.iter().map(|e| e.start_branch).collect();
        let cps = cut_checkpoints(
            registry,
            model_spec,
            *protection,
            seed,
            workload,
            branches,
            Warmup::Branches(0),
            None,
            None,
            &targets,
        )?;
        for (entry, cp) in entries.iter_mut().zip(&cps) {
            if cp.events_consumed != entry.start_event || cp.branches_seen != entry.start_branch {
                return Err(EngineError::Phase(format!(
                    "checkpoint cut at event {} / branch {} does not match the BBV slice \
                     boundary at event {} / branch {}",
                    cp.events_consumed, cp.branches_seen, entry.start_event, entry.start_branch
                )));
            }
            entry.checkpoint = cp.to_bytes();
        }
    }

    Ok(PhaseFile {
        workload: workload.label(),
        seed,
        total_branches: bbv.total_branches,
        total_instructions: bbv.total_instructions,
        total_events: bbv.total_events,
        slice_branches: bbv.slice_branches,
        cluster_seed: opts.cluster.seed,
        phases: entries,
    })
}

/// The predictor counters a phase delta is measured over.
#[derive(Clone, Copy, Debug, Default)]
struct Counters {
    branches: u64,
    effective_correct: u64,
    cond: u64,
    cond_correct: u64,
    target_needed: u64,
    target_correct: u64,
    mispredictions: u64,
    evictions: u64,
    flushes: u64,
    rerandomizations: u64,
}

fn snapshot<B: Bpu>(model: &B) -> Counters {
    let s = model.stats();
    Counters {
        branches: s.branches,
        effective_correct: s.effective_correct,
        cond: s.cond,
        cond_correct: s.cond_correct,
        target_needed: s.target_needed,
        target_correct: s.target_correct,
        mispredictions: s.mispredictions,
        evictions: s.btb_evictions,
        flushes: s.flushes,
        rerandomizations: model.rerandomizations(),
    }
}

fn delta(before: &Counters, after: &Counters) -> Counters {
    Counters {
        branches: after.branches - before.branches,
        effective_correct: after.effective_correct - before.effective_correct,
        cond: after.cond - before.cond,
        cond_correct: after.cond_correct - before.cond_correct,
        target_needed: after.target_needed - before.target_needed,
        target_correct: after.target_correct - before.target_correct,
        mispredictions: after.mispredictions - before.mispredictions,
        evictions: after.evictions - before.evictions,
        flushes: after.flushes - before.flushes,
        rerandomizations: after.rerandomizations - before.rerandomizations,
    }
}

/// Simulates one phase's representative slice and returns its counter
/// delta — measured as the counter difference across exactly the slice's
/// branches, so anything fed before the snapshot is pure architectural
/// warm-up.
///
/// With an embedded checkpoint (consistent with the requested
/// configuration) the session resumes the exact warm state of a full run
/// at the slice boundary. Without one, the model starts cold: the stream
/// is scanned (not simulated) up to half a slice (floored at
/// [`COLD_WARM_FLOOR_BRANCHES`]) before the boundary, that stretch is
/// fed as warm-up, and only then does measurement start — the standard
/// SimPoint warm-up compromise, bounding cold-start bias at the cost of
/// half an extra simulated slice per phase (the budget behind the
/// documented estimation error bound and the ≥10x simulated-branch
/// speedup the bench suite gates).
fn run_one_phase(
    registry: &ModelRegistry,
    model_spec: &str,
    protection: Protection,
    pf: &PhaseFile,
    base: &Workload,
    entry: &PhaseEntry,
) -> Result<(Counters, bool, u64), EngineError> {
    let cp = if entry.has_checkpoint() {
        let cp = Checkpoint::from_bytes(&entry.checkpoint).map_err(|e| {
            EngineError::Phase(format!(
                "phase {}: embedded checkpoint is corrupt: {e}",
                entry.rep_slice
            ))
        })?;
        if cp.model_spec != model_spec || cp.protection != protection || cp.seed != pf.seed {
            return Err(EngineError::Phase(format!(
                "phase {}: embedded checkpoint was cut for {} under {} (seed {}) — requested {} \
                 under {} (seed {}); rebuild the phase file without --embed-model for a \
                 model-independent one",
                entry.rep_slice,
                cp.model_spec,
                cp.protection.label(),
                cp.seed,
                model_spec,
                protection.label(),
                pf.seed
            )));
        }
        Some(cp)
    } else {
        None
    };
    let start = match &cp {
        Some(cp) => RangeStart::At(cp),
        None => RangeStart::Fresh {
            warmup: Warmup::Branches(0),
            interval: None,
            threads: None,
        },
    };
    let mut run = RangeRun::open(
        registry,
        model_spec,
        protection,
        pf.seed,
        base,
        pf.total_branches as usize,
        start,
    )?;
    // A cold start warms over the half-slice preceding the representative
    // (any branch position is a valid cut point, so the warm-up start
    // needs no slice alignment), floored at the predictor warm-up horizon
    // for small slices; the prefix before it is skipped, not simulated.
    let warm_branches = match cp {
        Some(_) => 0,
        None => {
            let n = (pf.slice_branches / 2)
                .max(COLD_WARM_FLOOR_BRANCHES)
                .min(entry.start_branch);
            run.advance(entry.start_branch - n, false)?;
            run.advance(n, true)?;
            n
        }
    };
    // A stream that ends early shows up as a short measured delta below.
    let before = snapshot(run.model());
    run.advance(entry.rep_branches, true)?;
    let after = snapshot(run.model());
    let d = delta(&before, &after);
    if d.branches != entry.rep_branches {
        return Err(EngineError::Phase(format!(
            "phase {}: measured {} branches, expected {} (the stream ended early)",
            entry.rep_slice, d.branches, entry.rep_branches
        )));
    }
    Ok((d, cp.is_some(), warm_branches))
}

/// Runs `model_spec` under `protection` over a [`Workload::Phases`]
/// workload: every representative slice is simulated (in parallel via
/// [`parallel_map`]) and the whole-trace report is reconstructed as the
/// branch-weighted sum of the per-phase deltas.
///
/// # Errors
///
/// [`EngineError::Phase`] when `workload` is not a `Phases` workload or
/// any phase fails (see [`build_phase_file`] for how files are made),
/// plus registry/source/simulation errors.
pub fn run_phases(
    registry: &ModelRegistry,
    model_spec: &str,
    protection: Protection,
    workload: &Workload,
) -> Result<PhaseRun, EngineError> {
    let (file, base) = match workload {
        Workload::Phases { file, base } => (file.as_ref(), base.as_ref()),
        other => {
            return Err(EngineError::Phase(format!(
                "run_phases needs a Workload::Phases, got {other:?}"
            )))
        }
    };
    run_phase_file(registry, model_spec, protection, file, base)
}

/// [`run_phases`] over an explicit file + base pair.
///
/// # Errors
///
/// See [`run_phases`].
pub fn run_phase_file(
    registry: &ModelRegistry,
    model_spec: &str,
    protection: Protection,
    pf: &PhaseFile,
    base: &Workload,
) -> Result<PhaseRun, EngineError> {
    if pf.phases.is_empty() {
        return Err(EngineError::Phase(format!(
            "phase file for '{}' declares no phases",
            pf.workload
        )));
    }
    base.validate()?;
    // Build once up front: validates the spec before any worker runs and
    // supplies the report's model name.
    let model_name = registry.build(model_spec, pf.seed)?.name().to_string();

    let idx: Vec<usize> = (0..pf.phases.len()).collect();
    let results = parallel_map(idx, |&i| {
        run_one_phase(registry, model_spec, protection, pf, base, &pf.phases[i])
    });

    // Weighted reconstruction in u128: when weight == rep (k = slice
    // count) each term is exactly the measured delta, so the whole-trace
    // totals — and the rate divisions below — match a full run bit for
    // bit.
    let mut tot = Counters::default();
    let mut est = [0u128; 9];
    let mut warm_phases = 0usize;
    let mut simulated_branches = 0u64;
    for (entry, res) in pf.phases.iter().zip(results) {
        let (d, warm, warm_fed) = res?;
        warm_phases += usize::from(warm);
        simulated_branches += entry.rep_branches + warm_fed;
        let w = entry.weight_branches as u128;
        let rep = entry.rep_branches.max(1) as u128;
        let scale = |v: u64| -> u128 { w * v as u128 / rep };
        est[0] += scale(d.effective_correct);
        est[1] += scale(d.cond);
        est[2] += scale(d.cond_correct);
        est[3] += scale(d.target_needed);
        est[4] += scale(d.target_correct);
        est[5] += scale(d.mispredictions);
        est[6] += scale(d.evictions);
        est[7] += scale(d.flushes);
        est[8] += scale(d.rerandomizations);
    }
    tot.branches = pf.total_branches;
    tot.effective_correct = est[0] as u64;
    tot.cond = est[1] as u64;
    tot.cond_correct = est[2] as u64;
    tot.target_needed = est[3] as u64;
    tot.target_correct = est[4] as u64;
    tot.mispredictions = est[5] as u64;
    tot.evictions = est[6] as u64;
    tot.flushes = est[7] as u64;
    tot.rerandomizations = est[8] as u64;

    // The same rate expressions BpuStats uses, over the reconstructed
    // numerators.
    let oae = if tot.branches == 0 {
        1.0
    } else {
        tot.effective_correct as f64 / tot.branches as f64
    };
    let direction_rate = if tot.cond == 0 {
        1.0
    } else {
        tot.cond_correct as f64 / tot.cond as f64
    };
    let target_rate = if tot.target_needed == 0 {
        1.0
    } else {
        tot.target_correct as f64 / tot.target_needed as f64
    };
    let mpki = if pf.total_instructions == 0 {
        0.0
    } else {
        tot.mispredictions as f64 * 1_000.0 / pf.total_instructions as f64
    };

    Ok(PhaseRun {
        report: SimReport {
            model: model_name,
            protection: protection.label(),
            workload: pf.workload.clone(),
            oae,
            direction_rate,
            target_rate,
            branches: tot.branches,
            mispredictions: tot.mispredictions,
            evictions: tot.evictions,
            flushes: tot.flushes,
            rerandomizations: tot.rerandomizations,
        },
        mpki,
        phases: pf.phases.len(),
        warm_phases,
        simulated_branches,
    })
}

/// Runs the estimation *and* the full reference simulation the estimate
/// approximates (same stream, `Warmup::Branches(0)`), for
/// estimated-vs-full error reporting.
///
/// # Errors
///
/// See [`run_phases`] and [`run_sequential`].
pub fn run_phases_vs_full(
    registry: &ModelRegistry,
    model_spec: &str,
    protection: Protection,
    workload: &Workload,
) -> Result<(PhaseRun, SimReport, Vec<IntervalWindow>), EngineError> {
    let (file, base) = match workload {
        Workload::Phases { file, base } => (file.as_ref(), base.as_ref()),
        other => {
            return Err(EngineError::Phase(format!(
                "run_phases_vs_full needs a Workload::Phases, got {other:?}"
            )))
        }
    };
    let run = run_phase_file(registry, model_spec, protection, file, base)?;
    let (full, windows) = run_sequential(
        registry,
        model_spec,
        protection,
        file.seed,
        base,
        file.total_branches as usize,
        Warmup::Branches(0),
        None,
        None,
    )?;
    Ok((run, full, windows))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> ModelRegistry {
        ModelRegistry::standard()
    }

    fn build_opts(slice: u64, forced_k: Option<usize>) -> PhaseBuildOptions {
        PhaseBuildOptions {
            slice_branches: slice,
            cluster: ClusterConfig {
                forced_k,
                ..ClusterConfig::default()
            },
            embed: None,
        }
    }

    #[test]
    fn build_is_deterministic_and_weights_partition() {
        let reg = registry();
        let wl = Workload::Named("541.leela".to_string());
        let a = build_phase_file(&reg, 7, &wl, 12_000, &build_opts(1_000, None)).unwrap();
        let b = build_phase_file(&reg, 7, &wl, 12_000, &build_opts(1_000, None)).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_bytes(), b.to_bytes());
        assert_eq!(a.total_branches, 12_000);
        let w: u64 = a.phases.iter().map(|p| p.weight_branches).sum();
        assert_eq!(w, a.total_branches);
        assert!(!a.phases.is_empty() && a.phases.len() <= 12);
    }

    #[test]
    fn cold_estimate_round_trips_the_codec_and_stays_close() {
        let reg = registry();
        let wl = Workload::Named("505.mcf".to_string());
        let pf = build_phase_file(&reg, 3, &wl, 20_000, &build_opts(2_000, None)).unwrap();
        let pf = PhaseFile::from_bytes(&pf.to_bytes()).unwrap();
        // Representatives cover strictly less than the stream; warm-up
        // adds at most max(half a slice, the floor) per phase on top.
        let rep_branches = pf.simulated_branches();
        let per_phase_warm = (pf.slice_branches / 2).max(COLD_WARM_FLOOR_BRANCHES);
        let ceiling = rep_branches + pf.phases.len() as u64 * per_phase_warm;
        assert!(rep_branches < 20_000);
        let phased = Workload::phases(pf, None).unwrap();
        let run = run_phases(&reg, "st_skl@r=0.05", Protection::Stbpu, &phased).unwrap();
        assert_eq!(run.report.branches, 20_000);
        assert_eq!(run.warm_phases, 0);
        assert!(run.simulated_branches >= rep_branches && run.simulated_branches <= ceiling);
        let (_, full, _) =
            run_phases_vs_full(&reg, "st_skl@r=0.05", Protection::Stbpu, &phased).unwrap();
        assert!(
            (run.report.oae - full.oae).abs() < 0.15,
            "estimate {} vs full {}",
            run.report.oae,
            full.oae
        );
    }

    #[test]
    fn warm_k_equals_slices_reproduces_full_simulation_exactly() {
        let reg = registry();
        let wl = Workload::Named("541.leela".to_string());
        let n_slices = 8usize;
        let opts = PhaseBuildOptions {
            slice_branches: 2_000,
            cluster: ClusterConfig {
                forced_k: Some(n_slices),
                ..ClusterConfig::default()
            },
            embed: Some(("st_skl@r=0.05".to_string(), Protection::Stbpu)),
        };
        let pf = build_phase_file(&reg, 5, &wl, 16_000, &opts).unwrap();
        assert_eq!(pf.phases.len(), n_slices);
        assert!(pf.fully_warm());
        let phased = Workload::phases(pf, None).unwrap();
        let (run, full, _) =
            run_phases_vs_full(&reg, "st_skl@r=0.05", Protection::Stbpu, &phased).unwrap();
        assert_eq!(run.report.oae.to_bits(), full.oae.to_bits());
        assert_eq!(
            run.report.direction_rate.to_bits(),
            full.direction_rate.to_bits()
        );
        assert_eq!(run.report.target_rate.to_bits(), full.target_rate.to_bits());
        assert_eq!(run.report.branches, full.branches);
        assert_eq!(run.report.mispredictions, full.mispredictions);
        assert_eq!(run.report.evictions, full.evictions);
        assert_eq!(run.report.flushes, full.flushes);
        assert_eq!(run.report.rerandomizations, full.rerandomizations);
        assert_eq!(run.warm_phases, n_slices);
    }

    #[test]
    fn mismatched_embedded_checkpoint_is_rejected() {
        let reg = registry();
        let wl = Workload::Named("541.leela".to_string());
        let opts = PhaseBuildOptions {
            slice_branches: 2_000,
            cluster: ClusterConfig::default(),
            embed: Some(("st_skl@r=0.05".to_string(), Protection::Stbpu)),
        };
        let pf = build_phase_file(&reg, 5, &wl, 8_000, &opts).unwrap();
        let phased = Workload::phases(pf, None).unwrap();
        let err = run_phases(&reg, "skl", Protection::Unprotected, &phased).unwrap_err();
        match err {
            EngineError::Phase(msg) => assert!(msg.contains("was cut for"), "{msg}"),
            other => panic!("expected Phase error, got {other:?}"),
        }
    }

    #[test]
    fn embedded_checkpoint_past_the_stream_end_is_a_checkpoint_error() {
        let reg = registry();
        let wl = Workload::Named("541.leela".to_string());
        let opts = PhaseBuildOptions {
            slice_branches: 2_000,
            cluster: ClusterConfig::default(),
            embed: Some(("st_skl@r=0.05".to_string(), Protection::Stbpu)),
        };
        let mut pf = build_phase_file(&reg, 5, &wl, 8_000, &opts).unwrap();
        for entry in &mut pf.phases {
            let mut cp = Checkpoint::from_bytes(&entry.checkpoint).unwrap();
            cp.events_consumed += 1_000_000;
            entry.checkpoint = cp.to_bytes();
        }
        let phased = Workload::phases(pf, None).unwrap();
        match run_phases(&reg, "st_skl@r=0.05", Protection::Stbpu, &phased).unwrap_err() {
            EngineError::Checkpoint(msg) => {
                assert!(msg.contains("events the checkpoint consumed"), "{msg}")
            }
            other => panic!("expected a Checkpoint error, got {other:?}"),
        }
    }

    #[test]
    fn non_phases_workload_is_rejected() {
        let reg = registry();
        let wl = Workload::Named("541.leela".to_string());
        assert!(matches!(
            run_phases(&reg, "skl", Protection::Unprotected, &wl),
            Err(EngineError::Phase(_))
        ));
    }
}
