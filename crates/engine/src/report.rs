//! Structured serialization of simulation reports (CSV and JSON) and
//! protection-name parsing.

use crate::error::EngineError;
use stbpu_sim::{Protection, SimReport};

/// Parses a protection policy name (`"unprotected"`, `"stbpu"`,
/// `"ucode1"`, `"ucode2"`, `"conservative"`, plus the Figure 3 legend
/// labels).
pub fn protection_from_str(s: &str) -> Result<Protection, EngineError> {
    match s.trim().to_ascii_lowercase().as_str() {
        "unprotected" | "baseline" | "none" => Ok(Protection::Unprotected),
        "stbpu" | "st" => Ok(Protection::Stbpu),
        "ucode1" | "ucode protection" | "ucode" => Ok(Protection::Ucode1),
        "ucode2" | "ucode protection2" => Ok(Protection::Ucode2),
        "conservative" => Ok(Protection::Conservative),
        other => Err(EngineError::UnknownProtection(other.to_string())),
    }
}

/// Infers the protection policy a model spec is naturally evaluated
/// under: ST models run under the STBPU policy, the conservative model
/// under the conservative policy, everything else unprotected. The one
/// resolution rule behind every `--protection auto` surface (CLI
/// simulate and attack), so "auto" means the same thing on every path.
pub fn auto_protection(model_spec: &str) -> Protection {
    let name = model_spec.split('@').next().unwrap_or("").trim();
    if name.starts_with("st_") || name == "stbpu" {
        Protection::Stbpu
    } else if name == "conservative" {
        Protection::Conservative
    } else {
        Protection::Unprotected
    }
}

/// Column header matching [`report_to_csv_row`].
pub fn csv_header() -> &'static str {
    "workload,model,protection,seed,oae,direction_rate,target_rate,branches,\
     mispredictions,evictions,flushes,rerandomizations"
}

/// One CSV row for a report (with the seed that produced it).
pub fn report_to_csv_row(r: &SimReport, seed: u64) -> String {
    format!(
        "{},{},{},{seed},{:.6},{:.6},{:.6},{},{},{},{},{}",
        csv_escape(&r.workload),
        csv_escape(&r.model),
        r.protection,
        r.oae,
        r.direction_rate,
        r.target_rate,
        r.branches,
        r.mispredictions,
        r.evictions,
        r.flushes,
        r.rerandomizations,
    )
}

/// One JSON object for a report (with the seed that produced it).
pub fn report_to_json(r: &SimReport, seed: u64) -> String {
    format!(
        "{{\"workload\":{},\"model\":{},\"protection\":{},\"seed\":{seed},\
         \"oae\":{:.6},\"direction_rate\":{:.6},\"target_rate\":{:.6},\
         \"branches\":{},\"mispredictions\":{},\"evictions\":{},\
         \"flushes\":{},\"rerandomizations\":{}}}",
        json_string(&r.workload),
        json_string(&r.model),
        json_string(r.protection),
        r.oae,
        r.direction_rate,
        r.target_rate,
        r.branches,
        r.mispredictions,
        r.evictions,
        r.flushes,
        r.rerandomizations,
    )
}

fn csv_escape(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SimReport {
        SimReport {
            model: "SKLCond".to_string(),
            protection: Protection::Unprotected.label(),
            workload: "test,comma".to_string(),
            oae: 0.912345,
            direction_rate: 0.95,
            target_rate: 0.97,
            branches: 1000,
            mispredictions: 88,
            evictions: 12,
            flushes: 0,
            rerandomizations: 0,
        }
    }

    #[test]
    fn protection_names_round_trip() {
        for p in [
            Protection::Unprotected,
            Protection::Stbpu,
            Protection::Ucode1,
            Protection::Ucode2,
            Protection::Conservative,
        ] {
            assert_eq!(
                protection_from_str(p.label()).unwrap(),
                p,
                "label {}",
                p.label()
            );
        }
        assert!(protection_from_str("ibpb").is_err());
    }

    #[test]
    fn csv_escapes_commas() {
        let row = report_to_csv_row(&sample(), 7);
        assert!(row.starts_with("\"test,comma\",SKLCond,baseline,7,0.912345"));
        assert_eq!(row.split(',').count(), csv_header().split(',').count() + 1);
        // +1: escaped comma
    }

    #[test]
    fn json_is_well_formed_enough() {
        let j = report_to_json(&sample(), 7);
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"workload\":\"test,comma\""));
        assert!(j.contains("\"seed\":7"));
        assert!(j.contains("\"oae\":0.912345"));
    }
}
