//! `stbpu figures` — reproduce the paper's figures and tables through the
//! `stbpu_bench::figures` implementations.

use crate::args::Args;
use crate::{help, Failure};
use stbpu_bench::{figures, Knobs};

pub fn run(rest: &[String]) -> Result<(), Failure> {
    let mut a = Args::new(rest);
    let all = a.flag("--all");
    let quick = a.flag("--quick");
    let list = a.flag("--list");
    let branches: Option<usize> = a.opt_parse("--branches", "an integer")?;
    let seed: Option<u64> = a.opt_parse("--seed", "an integer")?;
    let workload = a.opt("--workload")?;
    let windows: Option<usize> = a.opt_parse("--windows", "an integer")?;
    let names = a.finish()?;

    if list {
        help::print_figures();
        return Ok(());
    }

    let mut knobs = if quick {
        Knobs::quick()
    } else {
        Knobs::from_env()
    };
    if let Some(b) = branches {
        knobs.branches = b;
    }
    if let Some(s) = seed {
        knobs.seed = s;
    }
    if let Some(w) = workload {
        if stbpu_trace::profiles::by_name(&w).is_none() {
            return Err(Failure::from(stbpu_engine::EngineError::UnknownWorkload(w)));
        }
        knobs.workload = w;
    }
    if let Some(n) = windows {
        knobs.windows = n;
    }

    let selected: Vec<&figures::Figure> = if all {
        if !names.is_empty() {
            return Err(Failure::Usage(
                "--all and explicit figure names are mutually exclusive".to_string(),
            ));
        }
        figures::ALL.iter().collect()
    } else if names.is_empty() {
        return Err(Failure::Usage(
            "name one or more figures, or pass --all (stbpu figures --list)".to_string(),
        ));
    } else {
        names
            .iter()
            .map(|n| {
                figures::by_name(n).ok_or_else(|| {
                    Failure::Usage(format!(
                        "unknown figure '{n}' (known: {})",
                        figures::ALL
                            .iter()
                            .map(|f| f.name)
                            .collect::<Vec<_>>()
                            .join(", ")
                    ))
                })
            })
            .collect::<Result<_, _>>()?
    };

    let banner = selected.len() > 1;
    for (i, f) in selected.iter().enumerate() {
        if banner {
            // Stderr, so stdout stays bit-identical with the single-figure
            // output.
            eprintln!("== {} ==", f.name);
        }
        (f.run)(&knobs);
        if banner && i + 1 < selected.len() {
            println!();
        }
    }
    Ok(())
}
