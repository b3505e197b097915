//! The correctness gate: every family pass and every figures run is one
//! operation whose output must match the committed reference (on the
//! reference seed) or the first output of the same operation in this
//! invocation (on any other seed).

use std::fmt::Debug;

use stbpu_engine::minijson::Json;
use stbpu_sim::SimReport;

use crate::workload::STREAMS;

/// The seed `reference.json` was recorded with.
pub const REFERENCE_SEED: u64 = 42;

/// The committed reference, compiled in; `--reference` substitutes a file.
pub const COMMITTED: &str = include_str!("../reference.json");

/// The `SimReport` fields a host-speed change must keep bit-identical.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stats {
    pub oae_bits: u64,
    pub branches: u64,
    pub mispredictions: u64,
    pub evictions: u64,
    pub flushes: u64,
    pub rerandomizations: u64,
}

impl Stats {
    pub fn of(r: &SimReport) -> Self {
        Stats {
            oae_bits: r.oae.to_bits(),
            branches: r.branches,
            mispredictions: r.mispredictions,
            evictions: r.evictions,
            flushes: r.flushes,
            rerandomizations: r.rerandomizations,
        }
    }

    /// `oae` prints as the shortest decimal that parses back to the same
    /// bits, so the JSON round trip is exact.
    pub fn to_json(self) -> String {
        format!(
            "{{\"oae\": {}, \"branches\": {}, \"mispredictions\": {}, \"evictions\": {}, \
             \"flushes\": {}, \"rerandomizations\": {}}}",
            f64::from_bits(self.oae_bits),
            self.branches,
            self.mispredictions,
            self.evictions,
            self.flushes,
            self.rerandomizations
        )
    }

    fn from_json(v: &Json) -> Option<Self> {
        let n = |k: &str| v.get(k).and_then(Json::as_u64);
        Some(Stats {
            oae_bits: v.get("oae")?.as_f64()?.to_bits(),
            branches: n("branches")?,
            mispredictions: n("mispredictions")?,
            evictions: n("evictions")?,
            flushes: n("flushes")?,
            rerandomizations: n("rerandomizations")?,
        })
    }
}

/// The stdout of one `figures --all --quick` run, as FNV-1a 64 and length.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    pub fnv1a64: u64,
    pub bytes: u64,
}

impl Digest {
    pub fn of(data: &[u8]) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in data {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Digest {
            fnv1a64: h,
            bytes: data.len() as u64,
        }
    }

    pub fn to_json(self) -> String {
        format!(
            "{{\"stdout_fnv1a64\": \"{:016x}\", \"stdout_bytes\": {}}}",
            self.fnv1a64, self.bytes
        )
    }
}

/// A parsed reference document.
pub struct Reference {
    doc: Json,
}

impl Reference {
    pub fn parse(text: &str, branches: usize) -> Result<Self, String> {
        let doc = Json::parse(text).map_err(|e| format!("reference: {e}"))?;
        if doc.get("seed").and_then(Json::as_u64) != Some(REFERENCE_SEED) {
            return Err(format!("reference: seed is not {REFERENCE_SEED}"));
        }
        if doc.get("branches").and_then(Json::as_u64) != Some(branches as u64) {
            return Err(format!("reference: branches is not {branches}"));
        }
        Ok(Reference { doc })
    }

    /// The reports of `family` on `entry`'s streams, in stream order.
    pub fn family(&self, entry: &str, family: &str) -> Result<Vec<Stats>, String> {
        self.doc
            .get("reports")
            .and_then(|r| r.get(entry))
            .and_then(|e| e.get(family))
            .and_then(Json::as_array)
            .and_then(|streams| {
                streams
                    .iter()
                    .map(Stats::from_json)
                    .collect::<Option<Vec<_>>>()
            })
            .filter(|streams| streams.len() == STREAMS)
            .ok_or_else(|| format!("reference: no {STREAMS} valid reports.{entry}.{family}"))
    }

    pub fn figures(&self) -> Result<Digest, String> {
        let f = self.doc.get("figures-quick");
        let fnv = f
            .and_then(|f| f.get("stdout_fnv1a64"))
            .and_then(Json::as_str)
            .and_then(|s| u64::from_str_radix(s, 16).ok());
        let bytes = f.and_then(|f| f.get("stdout_bytes")).and_then(Json::as_u64);
        match (fnv, bytes) {
            (Some(fnv1a64), Some(bytes)) => Ok(Digest { fnv1a64, bytes }),
            _ => Err("reference: no valid figures-quick digest".to_string()),
        }
    }
}

/// Counts one kind of operation and compares each output with the
/// expected one. Without a reference the first output becomes the
/// expectation, so repeated runs within one invocation must agree.
pub struct Check<T> {
    what: String,
    expected: Option<T>,
    pub attempted: u64,
    pub failed: u64,
}

impl<T: Copy + PartialEq + Debug> Check<T> {
    pub fn new(what: String, expected: Option<T>) -> Self {
        Check {
            what,
            expected,
            attempted: 0,
            failed: 0,
        }
    }

    pub fn record(&mut self, got: T) {
        self.attempted += 1;
        match self.expected {
            None => self.expected = Some(got),
            Some(want) if want == got => {}
            Some(want) => {
                self.failed += 1;
                eprintln!(
                    "perfbench: {} differs from the reference\n  expected {want:?}\n  got      {got:?}",
                    self.what
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::BRANCHES;

    #[test]
    fn committed_reference_round_trips() {
        let r = Reference::parse(COMMITTED, BRANCHES).unwrap();
        for entry in ["base-spec", "st-spec", "st-server"] {
            for fam in ["skl", "tage64", "ittage"] {
                for s in r.family(entry, fam).unwrap() {
                    let back = Stats::from_json(&Json::parse(&s.to_json()).unwrap()).unwrap();
                    assert_eq!(s, back);
                }
            }
        }
        r.figures().unwrap();
    }

    #[test]
    fn a_mismatch_counts_as_failed() {
        let mut c = Check::new("x".to_string(), Some(1u8));
        c.record(1);
        c.record(2);
        assert_eq!((c.attempted, c.failed), (2, 1));
        let mut first = Check::new("y".to_string(), None);
        first.record(3u8);
        first.record(3);
        first.record(4);
        assert_eq!((first.attempted, first.failed), (3, 1));
    }
}
