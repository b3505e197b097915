//! The workload abstraction: where an experiment's event streams come
//! from.
//!
//! A [`Workload`] names a supplier of [`EventSource`]s — a registered
//! profile, an ad-hoc profile, a shared in-memory trace, a trace file
//! (line or binary `.stbt`, auto-detected by magic), or a custom factory. Grid runs open one fresh source per
//! (scenario, seed) cell inside the worker thread, so traces are streamed
//! per worker instead of being materialized centrally and cloned around:
//! generator-backed workloads run in O(1) memory at any length, and a
//! shared trace is only ever borrowed.

use crate::error::EngineError;
use stbpu_phases::PhaseFile;
use stbpu_trace::{open_trace_file, profiles, EventSource, Trace, TraceGenerator, WorkloadProfile};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A factory producing one event source per `(seed, branches)` request.
pub type SourceFactory = dyn Fn(u64, usize) -> Box<dyn EventSource + Send> + Send + Sync;

/// One workload of an experiment grid: a named supplier of event streams.
#[derive(Clone)]
pub enum Workload {
    /// A registered profile name (`"505.mcf"`, `"apache2_prefork_c128"`…),
    /// streamed generate-as-you-simulate.
    Named(String),
    /// An ad-hoc (non-registered) profile, streamed the same way.
    Profile(WorkloadProfile),
    /// A shared, already-materialized trace; workers borrow it, never
    /// clone it.
    Trace(Arc<Trace>),
    /// A trace file streamed from disk in O(1) memory; line vs binary
    /// `.stbt` format is auto-detected by magic
    /// (see [`stbpu_trace::open_trace_file`]).
    File(PathBuf),
    /// A custom source factory (replay proxies, fuzzers, captures…).
    Custom {
        /// Display name for records and logs.
        name: String,
        /// Factory invoked once per (scenario, seed) cell.
        factory: Arc<SourceFactory>,
    },
    /// A SimPoint-style phase file over a base workload: simulation
    /// covers only the representative slices and whole-trace metrics are
    /// reconstructed as the weighted sum (see `run_phases`). The phase
    /// file pins the stream — [`Workload::open`] always opens `base`
    /// with the file's recorded seed and branch count, ignoring the
    /// caller's, so estimation can never silently run over a different
    /// stream than the one profiled.
    Phases {
        /// The decoded `.stbp` phase file.
        file: Arc<PhaseFile>,
        /// The stream the phases were cut from.
        base: Arc<Workload>,
    },
}

impl fmt::Debug for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Workload::Named(n) => write!(f, "Workload::Named({n})"),
            Workload::Profile(p) => write!(f, "Workload::Profile({})", p.name),
            Workload::Trace(t) => write!(f, "Workload::Trace({})", t.name),
            Workload::File(p) => write!(f, "Workload::File({})", p.display()),
            Workload::Custom { name, .. } => write!(f, "Workload::Custom({name})"),
            Workload::Phases { file, .. } => {
                write!(
                    f,
                    "Workload::Phases({}, {} phases)",
                    file.workload,
                    file.phases.len()
                )
            }
        }
    }
}

impl Workload {
    /// A custom-factory workload.
    pub fn custom<F>(name: &str, factory: F) -> Self
    where
        F: Fn(u64, usize) -> Box<dyn EventSource + Send> + Send + Sync + 'static,
    {
        Workload::Custom {
            name: name.to_string(),
            factory: Arc::new(factory),
        }
    }

    /// A phase-estimation workload over `file`, with `base` supplying
    /// the underlying stream. With `base` `None`, the stream is
    /// reconstructed from the file's recorded workload label: a
    /// registered profile name, else an existing trace-file path.
    ///
    /// # Errors
    ///
    /// [`EngineError::Phase`] for an empty phase list, an
    /// unreconstructible label, or a phases-over-phases nesting.
    pub fn phases(file: PhaseFile, base: Option<Workload>) -> Result<Self, EngineError> {
        if file.phases.is_empty() {
            return Err(EngineError::Phase(format!(
                "phase file for '{}' declares no phases",
                file.workload
            )));
        }
        let base = match base {
            Some(Workload::Phases { .. }) => {
                return Err(EngineError::Phase(
                    "a phase file cannot be layered over another phase file".to_string(),
                ))
            }
            Some(b) => b,
            None => {
                if profiles::by_name(&file.workload).is_some() {
                    Workload::Named(file.workload.clone())
                } else if Path::new(&file.workload).exists() {
                    Workload::File(PathBuf::from(&file.workload))
                } else {
                    return Err(EngineError::Phase(format!(
                        "cannot reconstruct workload '{}' from the phase file — pass the base \
                         workload explicitly",
                        file.workload
                    )));
                }
            }
        };
        Ok(Workload::Phases {
            file: Arc::new(file),
            base: Arc::new(base),
        })
    }

    /// Loads a `.stbp` phase file from `path` and wraps it via
    /// [`Workload::phases`].
    ///
    /// # Errors
    ///
    /// [`EngineError::Phase`] for I/O and decode failures, plus
    /// everything [`Workload::phases`] can return.
    pub fn phases_from_path(path: &Path, base: Option<Workload>) -> Result<Self, EngineError> {
        let file = PhaseFile::load(path).map_err(|e| EngineError::Phase(e.to_string()))?;
        Workload::phases(file, base)
    }

    /// Display label used in run records (for files: the path).
    pub fn label(&self) -> String {
        match self {
            Workload::Named(n) => n.clone(),
            Workload::Profile(p) => p.name.to_string(),
            Workload::Trace(t) => t.name.clone(),
            Workload::File(p) => p.display().to_string(),
            Workload::Custom { name, .. } => name.clone(),
            Workload::Phases { file, .. } => format!("phases:{}", file.workload),
        }
    }

    /// Fails fast on workloads that cannot possibly open (unknown profile
    /// name, missing trace file) — called before any simulation starts.
    pub fn validate(&self) -> Result<(), EngineError> {
        match self {
            Workload::Named(n) => profiles::by_name(n)
                .map(|_| ())
                .ok_or_else(|| EngineError::UnknownWorkload(n.clone())),
            Workload::File(p) => {
                if p.is_file() {
                    Ok(())
                } else {
                    Err(EngineError::WorkloadSource(format!(
                        "trace file not found: {}",
                        p.display()
                    )))
                }
            }
            Workload::Phases { base, .. } => base.validate(),
            _ => Ok(()),
        }
    }

    /// Opens a fresh event source for one grid cell. Generator-backed
    /// workloads emit exactly `branches` branch events keyed by `seed`;
    /// trace- and file-backed workloads replay their stored stream.
    pub fn open(
        &self,
        seed: u64,
        branches: usize,
    ) -> Result<Box<dyn EventSource + '_>, EngineError> {
        Ok(match self {
            Workload::Named(n) => {
                let profile =
                    profiles::by_name(n).ok_or_else(|| EngineError::UnknownWorkload(n.clone()))?;
                Box::new(TraceGenerator::new(profile, seed).into_source(branches))
            }
            Workload::Profile(p) => Box::new(TraceGenerator::new(p, seed).into_source(branches)),
            Workload::Trace(t) => Box::new(t.source()),
            Workload::File(p) => Box::new(
                open_trace_file(p).map_err(|e| EngineError::WorkloadSource(e.to_string()))?,
            ),
            Workload::Custom { factory, .. } => factory(seed, branches),
            // The phase file pins the stream: always the recorded seed
            // and branch count, never the caller's.
            Workload::Phases { file, base } => {
                let _ = (seed, branches);
                return base.open(file.seed, file.total_branches as usize);
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_workload_opens_declared_stream() {
        let w = Workload::Named("505.mcf".to_string());
        w.validate().unwrap();
        let src = w.open(3, 1_000).unwrap();
        assert_eq!(src.name(), "505.mcf");
        assert_eq!(src.branch_hint(), Some(1_000));
    }

    #[test]
    fn unknown_name_and_missing_file_fail_fast() {
        assert_eq!(
            Workload::Named("warp".to_string()).validate().unwrap_err(),
            EngineError::UnknownWorkload("warp".to_string())
        );
        let missing = Workload::File(PathBuf::from("/nonexistent/trace.txt"));
        assert!(matches!(
            missing.validate().unwrap_err(),
            EngineError::WorkloadSource(_)
        ));
        assert!(matches!(
            missing.open(0, 0).map(|_| ()).unwrap_err(),
            EngineError::WorkloadSource(_)
        ));
    }

    #[test]
    fn shared_trace_is_borrowed_not_cloned() {
        let t = Arc::new(TraceGenerator::new(&WorkloadProfile::test_profile(), 1).generate(200));
        let w = Workload::Trace(Arc::clone(&t));
        let mut src = w.open(0, 0).unwrap();
        let mut n = 0;
        while src.next_event().unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, t.len());
        assert_eq!(Arc::strong_count(&t), 2, "only the Arc is duplicated");
    }

    #[test]
    fn file_workload_auto_detects_binary_format() {
        let t = TraceGenerator::new(&WorkloadProfile::test_profile(), 9).generate(300);
        let dir = std::env::temp_dir().join(format!("stbpu-engine-wl-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("auto.stbt");
        let mut buf = Vec::new();
        stbpu_trace::binfmt::write_bin_trace(&t, &mut buf).unwrap();
        std::fs::write(&path, &buf).unwrap();

        let w = Workload::File(path);
        w.validate().unwrap();
        let mut src = w.open(0, 0).unwrap();
        assert_eq!(src.branch_hint(), Some(300));
        assert_eq!(src.collect_trace().unwrap().events(), t.events());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn custom_factory_runs_per_cell() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let calls = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&calls);
        let w = Workload::custom("synthetic", move |seed, branches| {
            c.fetch_add(1, Ordering::SeqCst);
            Box::new(
                TraceGenerator::new(&WorkloadProfile::test_profile(), seed).into_source(branches),
            )
        });
        assert_eq!(w.label(), "synthetic");
        let _ = w.open(1, 10).unwrap();
        let _ = w.open(2, 10).unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 2);
    }
}
