//! Shared helpers and figure implementations for the paper harness.
//!
//! Every figure/table of the paper's evaluation lives in [`figures`] as a
//! library function taking a [`Knobs`] scale configuration, which the
//! `stbpu figures` CLI subcommand dispatches into. Full-scale knobs come
//! from environment variables so CI can run quick passes while full runs
//! use paper-scale traces:
//!
//! * `STBPU_BRANCHES` — branches per workload trace (default 120 000),
//! * `STBPU_SEED` — global seed (default 42),
//! * `STBPU_WORKLOAD` / `STBPU_WINDOWS` — `oae_over_time` focus knobs.
//!
//! The compute machinery ([`parallel_map`], [`geomean`], [`mean`]) lives
//! in `stbpu-engine` and is re-exported here for the figure code; this
//! crate only keeps the presentation glue.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;

pub use stbpu_engine::{geomean, mean, parallel_map};

/// Branches per workload trace for harness runs.
pub fn branches() -> usize {
    std::env::var("STBPU_BRANCHES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(120_000)
}

/// Global seed for harness runs.
pub fn seed() -> u64 {
    std::env::var("STBPU_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(42)
}

/// Scale configuration shared by every figure implementation.
///
/// `stbpu figures` uses [`Knobs::from_env`] (the `STBPU_*` environment
/// interface) by default and [`Knobs::quick`], a deterministic
/// scaled-down pass for CI, under `--quick`.
#[derive(Clone, Debug)]
pub struct Knobs {
    /// Branches per workload trace.
    pub branches: usize,
    /// Global seed (traces and secret tokens).
    pub seed: u64,
    /// Focus workload for `oae_over_time`.
    pub workload: String,
    /// OAE windows printed by `oae_over_time` (min 2).
    pub windows: usize,
    /// Quick mode: pipeline figures shrink their per-thread floors and
    /// pair counts so a full `figures --all` pass stays CI-sized.
    pub quick: bool,
}

impl Knobs {
    /// Knobs from the `STBPU_*` environment variables (full-scale mode).
    pub fn from_env() -> Self {
        Knobs {
            branches: branches(),
            seed: seed(),
            workload: std::env::var("STBPU_WORKLOAD").unwrap_or_else(|_| "541.leela".to_string()),
            windows: std::env::var("STBPU_WINDOWS")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(20),
            quick: false,
        }
    }

    /// Deterministic CI-sized knobs: 8 000 branches, seed 42, quick
    /// pipeline scaling.
    pub fn quick() -> Self {
        Knobs {
            branches: 8_000,
            seed: 42,
            workload: "541.leela".to_string(),
            windows: 20,
            quick: true,
        }
    }

    /// Per-thread branch count for the SMT pipeline figures, with a floor
    /// that keeps full runs meaningful and quick runs fast.
    pub fn smt_branches(&self) -> usize {
        let floor = if self.quick { 2_000 } else { 20_000 };
        (self.branches / 2).max(floor)
    }

    /// Number of SMT pairs averaged by the Figure 6 sweep (paper: 42).
    pub fn fig6_pairs(&self) -> usize {
        if self.quick {
            4
        } else {
            12
        }
    }
}

impl Default for Knobs {
    fn default() -> Self {
        Knobs::from_env()
    }
}

/// Prints a horizontal rule sized to `width`.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_reexport_preserves_order() {
        let out = parallel_map((0..100).collect(), |&x: &i32| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn env_knobs_have_defaults() {
        assert!(branches() > 0);
        let _ = seed();
        let k = Knobs::from_env();
        assert!(!k.quick);
        assert!(k.windows >= 2);
    }

    #[test]
    fn quick_knobs_scale_down() {
        let q = Knobs::quick();
        assert!(q.quick);
        assert_eq!(q.branches, 8_000);
        assert!(q.smt_branches() < Knobs::from_env().smt_branches() || branches() < 4_000);
        assert!(q.fig6_pairs() < 12);
    }

    #[test]
    fn figure_registry_is_complete_and_resolvable() {
        assert_eq!(figures::ALL.len(), 10);
        for f in figures::ALL {
            assert!(figures::by_name(f.name).is_some(), "{} resolves", f.name);
            assert!(!f.summary.is_empty());
        }
        assert!(figures::by_name("fig99").is_none());
    }
}
