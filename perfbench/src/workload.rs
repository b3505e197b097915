//! The three named workloads, the three predictor families, and the
//! set-up every run performs before its timed part.

use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};

use stbpu_engine::{ModelCore, ModelRegistry};
use stbpu_sim::Protection;
use stbpu_trace::binfmt::{BinTraceReader, BinTraceWriter};
use stbpu_trace::{profiles, EventSource, TraceGenerator};

use crate::calib::{self, Calibrator};

/// Branches per family pass. With seed 42 on `541.leela`, stream 0 is the
/// configuration of `ci/baseline.json`, so the committed reports can be
/// cross-checked against it.
pub const BRANCHES: usize = 200_000;

/// Streams per workload. Each is generated from its own seed, so it is
/// its own synthetic program; a sample covers all of them, which averages
/// out most of the cost difference between one program and another.
pub const STREAMS: usize = 4;

/// Generator and token seed of stream `j` (stream 0 uses `seed` itself).
pub fn stream_seed(seed: u64, j: usize) -> u64 {
    seed.wrapping_add(j as u64 * 1_000_003)
}

/// Where a workload's events come from.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum StreamKind {
    /// Generated while simulating (`TraceGenerator::into_source`).
    Generator,
    /// Generated once during set-up into a `.stbt` file, then decoded
    /// from that file on every pass.
    Stbt,
}

/// One named workload.
pub struct WorkloadDef {
    pub name: &'static str,
    /// Trace-generator profile of the simulated stream.
    pub profile: &'static str,
    /// Runs the families' `st_*` models (else the unprotected ones).
    pub protected: bool,
    pub stream: StreamKind,
}

pub const WORKLOADS: [WorkloadDef; 3] = [
    WorkloadDef {
        name: "base-spec",
        profile: "541.leela",
        protected: false,
        stream: StreamKind::Generator,
    },
    WorkloadDef {
        name: "st-spec",
        profile: "541.leela",
        protected: true,
        stream: StreamKind::Generator,
    },
    WorkloadDef {
        name: "st-server",
        profile: "apache2_prefork_c512",
        protected: true,
        stream: StreamKind::Stbt,
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A predictor family: one direction/target design in its unprotected
/// and its secret-token form.
pub struct Family {
    pub name: &'static str,
    pub base: &'static str,
    pub st: &'static str,
}

pub const FAMILIES: [Family; 3] = [
    Family {
        name: "skl",
        base: "skl",
        st: "st_skl@r=0.05",
    },
    Family {
        name: "tage64",
        base: "tage64",
        st: "st_tage64@r=0.05",
    },
    Family {
        name: "ittage",
        base: "ittage",
        st: "st_ittage@r=0.05",
    },
];

/// Registry name of a model spec without its parameters (`st_skl`).
pub fn model_label(spec: &str) -> &str {
    spec.split('@').next().unwrap_or(spec)
}

/// A workload after set-up: the registry, the staged trace files (one
/// per stream, file-backed workloads only), and the run's seed.
pub struct Prepared {
    pub def: &'static WorkloadDef,
    pub seed: u64,
    pub registry: ModelRegistry,
    pub stbt: Vec<PathBuf>,
}

impl Prepared {
    /// Builds the registry and every family model once (the first ST
    /// model generates the canonical remap circuits) and stages the
    /// `.stbt` traces of a file-backed workload under `stage_dir`.
    pub fn new(def: &'static WorkloadDef, seed: u64, stage_dir: &Path) -> Result<Self, String> {
        let registry = ModelRegistry::standard();
        for f in &FAMILIES {
            std::hint::black_box(build(&registry, def, f, seed)?);
        }
        let stbt = match def.stream {
            StreamKind::Generator => Vec::new(),
            StreamKind::Stbt => (0..STREAMS)
                .map(|j| stage(def, stream_seed(seed, j), stage_dir))
                .collect::<Result<_, _>>()?,
        };
        Ok(Prepared {
            def,
            seed,
            registry,
            stbt,
        })
    }

    pub fn spec(&self, f: &Family) -> &'static str {
        spec(self.def, f)
    }

    pub fn policy(&self) -> Protection {
        if self.def.protected {
            Protection::Stbpu
        } else {
            Protection::Unprotected
        }
    }

    /// A fresh model for stream `j`, keyed by the stream's seed.
    pub fn build(&self, f: &Family, j: usize) -> Result<ModelCore, String> {
        build(&self.registry, self.def, f, stream_seed(self.seed, j))
    }

    /// A fresh source over stream `j`.
    pub fn open(&self, j: usize) -> Result<Box<dyn EventSource>, String> {
        match self.stbt.get(j) {
            None => Ok(Box::new(
                generator(self.def, stream_seed(self.seed, j))?.into_source(BRANCHES),
            )),
            Some(path) => {
                let file = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
                Ok(Box::new(
                    BinTraceReader::new(file).map_err(|e| format!("{}: {e}", path.display()))?,
                ))
            }
        }
    }

    /// Removes the staged trace files.
    pub fn cleanup(&self) {
        for p in &self.stbt {
            // A leftover file in the stage directory is harmless.
            let _ = std::fs::remove_file(p);
        }
    }
}

fn spec(def: &WorkloadDef, f: &Family) -> &'static str {
    if def.protected {
        f.st
    } else {
        f.base
    }
}

fn build(
    registry: &ModelRegistry,
    def: &WorkloadDef,
    f: &Family,
    seed: u64,
) -> Result<ModelCore, String> {
    registry
        .build(spec(def, f), seed)
        .map_err(|e| e.to_string())
}

pub fn generator(def: &WorkloadDef, seed: u64) -> Result<TraceGenerator, String> {
    let profile = profiles::by_name(def.profile)
        .ok_or_else(|| format!("unknown trace profile '{}'", def.profile))?;
    Ok(TraceGenerator::new(profile, seed))
}

/// Writes the workload's stream to a `.stbt` file unique to this process.
fn stage(def: &WorkloadDef, seed: u64, dir: &Path) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "{}-{seed}-{}.stbt",
        def.profile,
        std::process::id()
    ));
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    let mut src = generator(def, seed)?.into_source(BRANCHES);
    let mut w = BinTraceWriter::new(BufWriter::new(File::create(&path).map_err(io)?));
    w.header(src.name(), src.branch_hint(), src.thread_count())
        .map_err(io)?;
    let mut buf = Vec::new();
    while src.next_batch(&mut buf, 4096).map_err(|e| e.to_string())? > 0 {
        for ev in &buf {
            w.event(ev).map_err(io)?;
        }
    }
    w.flush().map_err(io)?;
    Ok(path)
}

/// Child-process entry: one cold set-up, timed; prints its reference
/// seconds.
pub fn setup_child(def: &'static WorkloadDef, seed: u64, stage_dir: &Path) -> Result<(), String> {
    let (prepared, secs) = calib::timed(&mut Calibrator::new(), || {
        Prepared::new(def, seed, stage_dir)
    });
    let prepared = prepared?;
    prepared.cleanup();
    println!("{secs}");
    Ok(())
}
