//! Family passes: one fresh model simulates one of the workload's streams
//! through a `SimSession`. A unit is one pass over each stream. Passes run
//! in rounds, the families in turn on each stream, so changes in the
//! host's speed affect every family alike, and each pass is timed in
//! reference seconds (see `calib.rs`).

use std::time::Instant;

use stbpu_bpu::Bpu;
use stbpu_sim::{Protection, SessionOptions, SimReport, SimSession, Warmup};
use stbpu_trace::{EventSource, TraceEvent};

use crate::calib::{self, Calibrator};
use crate::reference::{Check, Stats};
use crate::util::median;
use crate::workload::{Prepared, FAMILIES, STREAMS};

/// Events per `next_batch` pull: the batch size `SimSession::run` uses.
pub const BATCH: usize = 4096;

/// Session options of every pass: no warm-up, as in `stbpu bench`.
pub fn session_options(workload: &str) -> SessionOptions {
    SessionOptions {
        warmup: Warmup::Branches(0),
        workload: Some(workload.to_string()),
        ..SessionOptions::default()
    }
}

/// One span of the traced run: a layer's batched call, or the pass that
/// contains it.
pub struct Span {
    pub name: &'static str,
    pub family: usize,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub parent: Option<usize>,
}

/// Spans kept in memory and written out when the run ends.
pub struct SpanLog {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn record(
        &mut self,
        name: &'static str,
        family: usize,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            family,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            dur_ns: end.duration_since(start).as_nanos() as u64,
            parent,
        });
        self.spans.len() - 1
    }

    /// Total nanoseconds of the spans named `name` for `family`.
    pub fn total_ns(&self, name: &str, family: usize) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.family == family)
            .map(|s| s.dur_ns)
            .sum()
    }

    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"family\": \"{}\", \"start_ns\": {}, \"dur_ns\": {}, \
                 \"parent\": {parent}}}\n",
                s.name, FAMILIES[s.family].name, s.start_ns, s.dur_ns
            ));
        }
        out
    }
}

/// One untraced pass; returns the report and the seconds `run` took.
pub fn pass<B: Bpu + ?Sized>(
    model: &mut B,
    policy: Protection,
    source: &mut dyn EventSource,
) -> Result<(SimReport, f64), String> {
    let mut session = SimSession::new(model, policy, session_options(source.name()))
        .map_err(|e| e.to_string())?;
    let start = Instant::now();
    session.run(source).map_err(|e| e.to_string())?;
    let secs = start.elapsed().as_secs_f64();
    Ok((session.finish(), secs))
}

/// One traced pass: the same work as [`pass`], pulled and fed batch by
/// batch with a span around each source pull and each `feed_batch`.
pub fn traced_pass<B: Bpu + ?Sized>(
    model: &mut B,
    policy: Protection,
    source: &mut dyn EventSource,
    family: usize,
    log: &mut SpanLog,
) -> Result<(SimReport, f64), String> {
    let mut session = SimSession::new(model, policy, session_options(source.name()))
        .map_err(|e| e.to_string())?;
    let root = log.record("pass", family, Instant::now(), Instant::now(), None);
    let start = Instant::now();
    let mut buf: Vec<TraceEvent> = Vec::with_capacity(BATCH);
    loop {
        let t0 = Instant::now();
        let n = source
            .next_batch(&mut buf, BATCH)
            .map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        log.record("trace.next_batch", family, t0, t1, Some(root));
        if n == 0 {
            break;
        }
        session.feed_batch(&buf).map_err(|e| e.to_string())?;
        log.record("sim.feed_batch", family, t1, Instant::now(), Some(root));
    }
    let end = Instant::now();
    log.spans[root].start_ns = start.duration_since(log.origin).as_nanos() as u64;
    log.spans[root].dur_ns = end.duration_since(start).as_nanos() as u64;
    Ok((session.finish(), end.duration_since(start).as_secs_f64()))
}

/// The timings of one family's passes.
#[derive(Clone)]
pub struct Timing {
    /// Per stream: reference nanoseconds per branch of every pass (wall
    /// nanoseconds in a traced run).
    pub passes: Vec<Vec<f64>>,
}

impl Timing {
    fn new() -> Self {
        Timing {
            passes: vec![Vec::new(); STREAMS],
        }
    }

    /// Nanoseconds per branch of one unit: each stream's median
    /// pass, averaged over the streams (which have equal branch counts).
    pub fn ns(&self) -> f64 {
        self.passes.iter().map(|p| median(p)).sum::<f64>() / STREAMS as f64
    }
}

/// The passes of a run.
pub struct Rounds {
    /// Per family, untraced passes.
    pub untraced: Vec<Timing>,
    /// Per family, traced passes (with a span log only).
    pub traced: Vec<Timing>,
    /// The last report of each family (outer) on each stream (inner).
    pub last: Vec<Vec<Option<Stats>>>,
    /// Every run of the calibration kernel, in ns.
    pub kernel_ns: Vec<f64>,
}

/// Runs rounds until `deadline` and at least `min_rounds` rounds. A round
/// takes the streams in turn and runs every family's pass over each, so
/// the families sample the host's states alike. With a span log every
/// untraced pass is followed by a traced one and times are wall times;
/// without one, a run of the calibration kernel separates each pass from
/// the next and times are reference times. `checks` holds one check per
/// family and stream, family-major.
pub fn rounds(
    prep: &Prepared,
    checks: &mut [Check<Stats>],
    deadline: Instant,
    min_rounds: usize,
    mut log: Option<&mut SpanLog>,
) -> Result<Rounds, String> {
    let n = FAMILIES.len();
    let mut out = Rounds {
        untraced: vec![Timing::new(); n],
        traced: vec![Timing::new(); n],
        last: vec![vec![None; STREAMS]; n],
        kernel_ns: Vec::new(),
    };
    let modes: &[bool] = if log.is_some() {
        &[false, true]
    } else {
        &[false]
    };
    // A traced run reports wall times, like the ledger terms it is
    // compared with.
    let mut cal = log.is_none().then(Calibrator::new);
    let mut before = 0.0;
    if let Some(cal) = cal.as_mut() {
        before = cal.measure();
        out.kernel_ns.push(before);
    }
    let mut round = 0;
    'run: loop {
        for j in 0..STREAMS {
            if round >= min_rounds && Instant::now() >= deadline {
                break 'run;
            }
            for (i, fam) in FAMILIES.iter().enumerate() {
                for &traced in modes {
                    let mut model = prep.build(fam, j)?;
                    let mut source = prep.open(j)?;
                    let (report, wall) = match log.as_deref_mut() {
                        Some(log) if traced => {
                            traced_pass(&mut model, prep.policy(), source.as_mut(), i, log)?
                        }
                        _ => pass(&mut model, prep.policy(), source.as_mut())?,
                    };
                    let secs = match cal.as_mut() {
                        Some(cal) => {
                            let after = cal.measure();
                            out.kernel_ns.push(after);
                            let secs = calib::scale(wall, before, after);
                            before = after;
                            secs
                        }
                        None => wall,
                    };
                    let t = if traced {
                        &mut out.traced[i]
                    } else {
                        &mut out.untraced[i]
                    };
                    t.passes[j].push(secs * 1e9 / report.branches.max(1) as f64);
                    let stats = Stats::of(&report);
                    checks[i * STREAMS + j].record(stats);
                    out.last[i][j] = Some(stats);
                }
            }
        }
        round += 1;
    }
    Ok(out)
}
