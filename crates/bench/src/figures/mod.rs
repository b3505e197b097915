//! Library implementations of every figure/table of the paper's
//! evaluation.
//!
//! Each submodule exposes `pub fn run(&Knobs)` printing the same
//! rows/series the paper reports. [`ALL`] is the single source of truth
//! for the set of figures — the `stbpu figures` CLI subcommand and its
//! `--help` text both resolve through it, so a new figure registered here
//! is reachable everywhere at once.

pub mod ablations;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod oae_over_time;
pub mod section6;
pub mod table1;
pub mod table2;

use crate::Knobs;

/// One entry of the figure registry.
#[derive(Clone, Copy)]
pub struct Figure {
    /// CLI/bin name (`fig3`, `table1`, …).
    pub name: &'static str,
    /// One-line description for help output.
    pub summary: &'static str,
    /// The implementation.
    pub run: fn(&Knobs),
}

/// Every figure/table the harness reproduces, in paper order.
pub const ALL: &[Figure] = &[
    Figure {
        name: "fig2",
        summary: "R1 remapping function construction + validation metrics",
        run: fig2::run,
    },
    Figure {
        name: "fig3",
        summary: "OAE of the five protection schemes over all workloads",
        run: fig3::run,
    },
    Figure {
        name: "fig4",
        summary: "single-workload pipeline evaluation (rates + IPC)",
        run: fig4::run,
    },
    Figure {
        name: "fig5",
        summary: "SMT pair pipeline evaluation (rates + harmonic IPC)",
        run: fig5::run,
    },
    Figure {
        name: "fig6",
        summary: "aggressive re-randomization threshold sweep (SMT)",
        run: fig6::run,
    },
    Figure {
        name: "table1",
        summary: "collision-based attack surface, executed cell by cell",
        run: table1::run,
    },
    Figure {
        name: "table2",
        summary: "mapping-function I/O geometry + circuit properties",
        run: table2::run,
    },
    Figure {
        name: "section6",
        summary: "attack complexities and re-randomization thresholds",
        run: section6::run,
    },
    Figure {
        name: "ablations",
        summary: "accuracy-side design-choice ablations",
        run: ablations::run,
    },
    Figure {
        name: "oae_over_time",
        summary: "streaming OAE / flush / re-randomization timelines",
        run: oae_over_time::run,
    },
];

/// Looks up a figure by name.
pub fn by_name(name: &str) -> Option<&'static Figure> {
    ALL.iter().find(|f| f.name == name)
}
