//! `stbpu checkpoint` — inspect `.stck` checkpoint files and create them
//! at exact branch indices (the golden-fixture generator CI uses).

use crate::args::Args;
use crate::Failure;
use stbpu_engine::{
    auto_protection, cut_checkpoints, protection_from_str, ModelRegistry, Workload,
};
use stbpu_sim::{Checkpoint, Warmup};
use std::path::Path;

pub fn run(rest: &[String]) -> Result<(), Failure> {
    match rest.first().map(String::as_str) {
        Some("inspect") => inspect(&rest[1..]),
        Some("create") => create(&rest[1..]),
        Some(other) => Err(Failure::Usage(format!(
            "unknown checkpoint action '{other}' (inspect|create)"
        ))),
        None => Err(Failure::Usage(
            "usage: stbpu checkpoint inspect FILE [--json] | stbpu checkpoint create ..."
                .to_string(),
        )),
    }
}

fn inspect(rest: &[String]) -> Result<(), Failure> {
    let mut a = Args::new(rest);
    let json = a.flag("--json");
    let files = a.finish()?;
    if files.len() != 1 {
        return Err(Failure::Usage(
            "checkpoint inspect takes exactly one FILE".to_string(),
        ));
    }
    let path = Path::new(&files[0]);
    let bytes = std::fs::read(path).map_err(|e| Failure::Runtime(e.to_string()))?;
    let cp = Checkpoint::from_bytes(&bytes).map_err(|e| Failure::Runtime(e.to_string()))?;

    if json {
        println!(
            "{{\"file\":{},\"file_bytes\":{},\"version\":{},\"model_spec\":{},\"workload\":{},\
             \"protection\":{},\"seed\":{},\"events_consumed\":{},\"branches_seen\":{},\
             \"session_state_bytes\":{},\"model_state_bytes\":{}}}",
            stbpu_engine::minijson::escape(&files[0]),
            bytes.len(),
            stbpu_sim::STCK_VERSION,
            stbpu_engine::minijson::escape(&cp.model_spec),
            stbpu_engine::minijson::escape(&cp.workload),
            stbpu_engine::minijson::escape(cp.protection.label()),
            cp.seed,
            cp.events_consumed,
            cp.branches_seen,
            cp.session_state.len(),
            cp.model_state.len(),
        );
    } else {
        println!(
            "{}: .stck v{} checkpoint, {} bytes (checksum ok)",
            files[0],
            stbpu_sim::STCK_VERSION,
            bytes.len()
        );
        println!("  model        {}", cp.model_spec);
        println!("  workload     {}", cp.workload);
        println!("  protection   {}", cp.protection.label());
        println!("  seed         {}", cp.seed);
        println!(
            "  position     {} events consumed, {} branches seen",
            cp.events_consumed, cp.branches_seen
        );
        println!(
            "  state        {} session bytes + {} model bytes",
            cp.session_state.len(),
            cp.model_state.len()
        );
    }
    Ok(())
}

fn create(rest: &[String]) -> Result<(), Failure> {
    let mut a = Args::new(rest);
    let model_spec = a
        .opt("--model")?
        .ok_or_else(|| Failure::Usage("--model is required".to_string()))?;
    let workload_name = a.opt("--workload")?;
    let trace_file = a.opt("--trace-file")?;
    let protection = a.opt("--protection")?;
    let at: u64 = a
        .opt_parse("--at-branches", "an integer")?
        .ok_or_else(|| Failure::Usage("--at-branches is required".to_string()))?;
    let out = a
        .opt("--out")?
        .ok_or_else(|| Failure::Usage("--out is required".to_string()))?;
    let branches: usize = a.opt_parse("--branches", "an integer")?.unwrap_or(120_000);
    let seed: u64 = a.opt_parse("--seed", "an integer")?.unwrap_or(42);
    let threads: Option<usize> = a.opt_parse("--threads", "an integer")?;
    let interval: Option<u64> = a.opt_parse("--interval", "an integer")?;
    let warmup_frac: Option<f64> = a.opt_parse("--warmup", "a number")?;
    let warmup_branches: Option<u64> = a.opt_parse("--warmup-branches", "an integer")?;
    a.finish_empty()?;

    let workload = match (workload_name, trace_file) {
        (Some(_), Some(_)) => {
            return Err(Failure::Usage(
                "--workload and --trace-file are mutually exclusive".to_string(),
            ))
        }
        (None, Some(path)) => Workload::File(path.into()),
        (name, None) => Workload::Named(name.unwrap_or_else(|| "541.leela".to_string())),
    };
    workload.validate().map_err(Failure::from)?;
    let policy = match protection.as_deref() {
        None | Some("auto") => auto_protection(&model_spec),
        Some(p) => protection_from_str(p).map_err(Failure::from)?,
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
    let cps = cut_checkpoints(
        &registry,
        &model_spec,
        policy,
        seed,
        &workload,
        branches,
        warmup,
        interval,
        threads,
        &[at],
    )
    .map_err(Failure::from)?;
    let cp = cps
        .into_iter()
        .next()
        .ok_or_else(|| Failure::Runtime("no checkpoint produced".to_string()))?;
    cp.save(Path::new(&out))
        .map_err(|e| Failure::Runtime(e.to_string()))?;
    eprintln!(
        "wrote {out}: {} at branch {} ({} events consumed)",
        cp.model_spec, cp.branches_seen, cp.events_consumed
    );
    Ok(())
}
