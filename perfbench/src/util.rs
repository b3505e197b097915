//! Small shared pieces: medians, peak memory, provenance and the metric
//! list every run prints.

use stbpu_engine::minijson::escape;

/// Median of `v` (mean of the middle two for an even count); NaN if empty.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Peak resident set of this process in KiB (`VmHWM`), 0 where unknown.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Machine and build identity carried by every result record.
pub fn provenance_json() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "{{\"cpu\": {}, \"nproc\": {nproc}, \"rustc\": {}, \"git_commit\": {}, \
         \"source_digest\": {}, \"profile\": {}}}",
        escape(&cpu),
        escape(env!("PERFBENCH_RUSTC")),
        escape(env!("PERFBENCH_GIT_COMMIT")),
        escape(env!("PERFBENCH_SOURCE_DIGEST")),
        escape(env!("PERFBENCH_PROFILE")),
    )
}

/// The metrics of one run, in the order they were measured, with the
/// samples each median was taken over.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str, Vec<f64>)>,
}

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.entries.push((name.into(), value, unit, Vec::new()));
    }

    /// Pushes the median of `samples`.
    pub fn push_median(&mut self, name: impl Into<String>, samples: Vec<f64>, unit: &'static str) {
        self.push_with(name, median(&samples), unit, samples);
    }

    /// Pushes `value` with the samples it was derived from.
    pub fn push_with(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: Vec<f64>,
    ) {
        self.entries.push((name.into(), value, unit, samples));
    }

    /// `{"name": {"value": v, "unit": u}, …}`. Fails on a non-finite value,
    /// which would make the JSON invalid.
    pub fn to_json(&self, with_samples: bool) -> Result<String, String> {
        let mut parts = Vec::new();
        for (name, value, unit, samples) in &self.entries {
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            let extra = if with_samples && !samples.is_empty() {
                let s: Vec<String> = samples.iter().map(|v| v.to_string()).collect();
                format!(", \"samples\": [{}]", s.join(", "))
            } else {
                String::new()
            };
            parts.push(format!(
                "{}: {{\"value\": {value}, \"unit\": {}{extra}}}",
                escape(name),
                escape(unit)
            ));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn metrics_reject_non_finite_values() {
        let mut m = Metrics::default();
        m.push("a", 1.5, "s");
        assert_eq!(
            m.to_json(false).unwrap(),
            "{\"a\": {\"value\": 1.5, \"unit\": \"s\"}}"
        );
        m.push("b", f64::NAN, "s");
        assert!(m.to_json(false).is_err());
    }
}
