//! The traced run: the per-layer ledger.
//!
//! Spans go around batched calls only (source pulls and
//! `SimSession::feed_batch`); an `Instant` per event would distort a
//! model that costs tens of nanoseconds per branch. The inner layers are
//! timed by isolated calls into each crate's public API on the workload's
//! own records, held in memory. Every isolated timing is a median over
//! repetitions of nanoseconds per call.

use std::hint::black_box;
use std::time::Instant;

use stbpu_bpu::{
    BaselineMapper, Bpu, BranchKind, BranchRecord, Btb, BtbConfig, EntityId, HistoryCtx, Mapper,
    Rsb, MAX_THREADS, RSB_ENTRIES,
};
use stbpu_core::{StConfig, StMapper};
use stbpu_engine::ModelRegistry;
use stbpu_predictors::{
    DirectionPredictor, Ittage, IttageConfig, SklCond, Tage, TageConfig, TargetUnit,
};
use stbpu_remap::RemapSet;
use stbpu_sim::SimSession;
use stbpu_trace::binfmt::{write_bin_trace, BinTraceReader};
use stbpu_trace::{EventSource, Trace, TraceEvent};

use crate::figures;
use crate::reference::{Check, Digest, Stats};
use crate::run::{self, SpanLog, BATCH};
use crate::util::{median, Metrics};
use crate::workload::{
    self, model_label, stream_seed, Prepared, StreamKind, BRANCHES, FAMILIES, STREAMS,
};

/// Seed `RemapSet::standard()` generates the canonical circuits from.
const CANONICAL_REMAP_SEED: u64 = 0x5742_5055;

/// Minimum seconds spent on each isolated timing.
const MIN_S: f64 = 0.15;

/// ψ for the direct remap-circuit calls.
const PSI: u32 = 0x9e37_79b9;

/// One isolated call per branch; returns part of its result for
/// `black_box`.
type PerBranch<'a> = dyn Fn(&Input) -> u64 + 'a;

/// Per-branch inputs of the isolated calls, with the history each branch
/// saw in the stream.
struct Input {
    tid: usize,
    pc: u64,
    ghr: u64,
    bhb: u64,
    rec: BranchRecord,
}

fn inputs(events: &[TraceEvent]) -> Vec<Input> {
    let mut hist = vec![HistoryCtx::new(); MAX_THREADS];
    let mut out = Vec::new();
    for ev in events {
        if let TraceEvent::Branch { tid, rec } = *ev {
            let tid = (tid as usize).min(MAX_THREADS - 1);
            let h = &mut hist[tid];
            out.push(Input {
                tid,
                pc: rec.pc.raw(),
                ghr: h.ghr(),
                bhb: h.bhb(),
                rec,
            });
            if rec.kind.is_conditional() {
                h.push_outcome(rec.taken);
            }
            if rec.taken {
                h.push_edge(rec.pc, rec.target);
            }
        }
    }
    out
}

/// The entity each switch event loads, as `SimSession` resolves it.
fn entity_loads(events: &[TraceEvent]) -> Vec<(usize, EntityId)> {
    let mut user = [EntityId::user(0); MAX_THREADS];
    let mut out = Vec::new();
    for ev in events {
        match *ev {
            TraceEvent::ContextSwitch { tid, entity } => {
                let tid = (tid as usize).min(MAX_THREADS - 1);
                user[tid] = entity;
                out.push((tid, entity));
            }
            TraceEvent::ModeSwitch { tid, kernel } => {
                let tid = (tid as usize).min(MAX_THREADS - 1);
                out.push((tid, if kernel { EntityId::KERNEL } else { user[tid] }));
            }
            _ => {}
        }
    }
    out
}

/// The stream applied to a model without a session: what `SimSession`
/// does under the unprotected and STBPU policies (no flushes), minus its
/// bookkeeping. Returns the branches processed.
fn direct<B: Bpu + ?Sized>(model: &mut B, events: &[TraceEvent]) -> u64 {
    let mut user = [EntityId::user(0); MAX_THREADS];
    let mut n = 0;
    for ev in events {
        match *ev {
            TraceEvent::Branch { tid, ref rec } => {
                black_box(model.process(tid as usize, rec));
                n += 1;
            }
            TraceEvent::ContextSwitch { tid, entity } => {
                user[(tid as usize).min(MAX_THREADS - 1)] = entity;
                model.context_switch(tid as usize, entity);
            }
            TraceEvent::ModeSwitch { tid, kernel } => {
                let e = if kernel {
                    EntityId::KERNEL
                } else {
                    user[(tid as usize).min(MAX_THREADS - 1)]
                };
                model.context_switch(tid as usize, e);
            }
            TraceEvent::Interrupt { .. } => {}
        }
    }
    n
}

/// Nanoseconds per unit of `op` (which returns its units of work), the
/// median over at least 3 repetitions and [`MIN_S`] seconds. Each
/// repetition starts from a fresh state from `fresh`, whose construction
/// is not timed.
fn ns_per<S>(
    mut fresh: impl FnMut() -> Result<S, String>,
    mut op: impl FnMut(&mut S) -> u64,
) -> Result<f64, String> {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || start.elapsed().as_secs_f64() < MIN_S {
        let mut s = fresh()?;
        let t = Instant::now();
        let units = op(&mut s);
        samples.push(t.elapsed().as_nanos() as f64 / units.max(1) as f64);
    }
    Ok(median(&samples))
}

fn drain(src: &mut dyn EventSource) -> Result<u64, String> {
    let mut buf = Vec::with_capacity(BATCH);
    let mut branches = 0;
    while src.next_batch(&mut buf, BATCH).map_err(|e| e.to_string())? > 0 {
        branches += buf
            .iter()
            .filter(|e| matches!(e, TraceEvent::Branch { .. }))
            .count() as u64;
    }
    Ok(branches)
}

/// Share of `--seconds` that the traced run spends on rounds of real
/// passes; the isolated timings and the ledger's closure after them are a
/// fixed amount of work (tens of seconds on the `st-*` workloads).
const ROUNDS_SHARE: f64 = 0.3;

/// Runs the traced part of a workload and pushes every per-layer metric.
pub fn traced(
    prep: &Prepared,
    seconds: f64,
    checks: &mut [Check<Stats>],
    figure_check: &mut Check<Digest>,
    m: &mut Metrics,
) -> Result<SpanLog, String> {
    let seed = prep.seed;
    let mut log = SpanLog::new();
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds * ROUNDS_SHARE);
    let rounds = run::rounds(prep, checks, deadline, 1, Some(&mut log))?;

    let traces = (0..STREAMS)
        .map(|j| prep.open(j)?.collect_trace().map_err(|e| e.to_string()))
        .collect::<Result<Vec<Trace>, String>>()?;
    let ins: Vec<Input> = traces.iter().flat_map(|t| inputs(t.events())).collect();
    let loads: Vec<(usize, EntityId)> = traces
        .iter()
        .flat_map(|t| entity_loads(t.events()))
        .collect();

    // --- trace, models without a session, and untraced passes ---
    let mut bytes = Vec::new();
    for (j, trace) in traces.iter().enumerate() {
        bytes.push(match prep.stbt.get(j) {
            Some(path) => std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?,
            None => {
                let mut v = Vec::new();
                write_bin_trace(trace, &mut v).map_err(|e| e.to_string())?;
                v
            }
        });
    }
    let c = closure(prep, &traces, &bytes, checks, &rounds)?;
    let (generate_ns, decode_ns) = (c.generate_ns, c.decode_ns);
    m.push("trace.generate_ns", generate_ns, "ns");
    m.push("trace.stbt_decode_ns", decode_ns, "ns");
    m.push(
        "trace.switches_per_kbranch",
        loads.len() as f64 * 1000.0 / ins.len().max(1) as f64,
        "count",
    );
    let trace_ns = match prep.def.stream {
        StreamKind::Generator => generate_ns,
        StreamKind::Stbt => decode_ns,
    };

    // --- remap ---
    let remaps = RemapSet::standard();
    let gen_start = Instant::now();
    let mut gen_s = Vec::new();
    while gen_s.len() < 3 || gen_start.elapsed().as_secs_f64() < MIN_S {
        let t = Instant::now();
        let set = RemapSet::generate(CANONICAL_REMAP_SEED).map_err(|e| e.to_string())?;
        gen_s.push(t.elapsed().as_secs_f64());
        if ins
            .iter()
            .take(1000)
            .any(|i| set.r1(PSI, i.pc) != remaps.r1(PSI, i.pc))
        {
            return Err("RemapSet::generate(canonical seed) differs from standard()".to_string());
        }
    }
    m.push_median("remap.generate_s", gen_s, "s");

    // --- remap circuits, StMapper through the Mapper trait (core), and
    // the BaselineMapper hash it replaces (bpu), one call per branch ---
    let st = StMapper::new(StConfig::default(), seed);
    let base = BaselineMapper::new();
    let r = black_box(remaps);
    let mp: &dyn Mapper = black_box(&st);
    let mb: &dyn Mapper = black_box(&base);
    let tage = |m: &dyn Mapper, i: &Input| {
        let table = (i.pc as usize) & 7;
        m.tage(
            i.tid,
            i.pc,
            i.ghr & 0x7ff,
            (i.ghr >> 11) & 0xfff,
            table,
            11,
            12,
        )
        .1
    };
    let calls: [(&str, &PerBranch); 14] = [
        ("remap.r1_ns", &|i| r.r1(PSI, i.pc).1),
        ("remap.r2_ns", &|i| r.r2(PSI, i.bhb)),
        ("remap.r3_ns", &|i| r.r3(PSI, i.pc) as u64),
        ("remap.r4_ns", &|i| r.r4(PSI, i.ghr as u16, i.pc) as u64),
        ("remap.rt_ns", &|i| {
            r.rt(PSI, i.pc, (i.ghr ^ (i.ghr >> 16)) as u16).0
        }),
        ("remap.rp_ns", &|i| r.rp(PSI, i.pc) as u64),
        ("core.btb1_ns", &|i| mp.btb1(i.tid, i.pc).tag),
        ("core.btb2_tag_ns", &|i| mp.btb2_tag(i.tid, i.bhb)),
        ("core.pht1_ns", &|i| mp.pht1(i.tid, i.pc) as u64),
        ("core.pht2_ns", &|i| mp.pht2(i.tid, i.pc, i.ghr) as u64),
        ("core.tage_ns", &|i| tage(mp, i)),
        ("core.crypt_ns", &|i| {
            u64::from(mp.decrypt_target(i.tid, mp.encrypt_target(i.tid, i.pc as u32)))
        }),
        ("bpu.baseline_btb1_ns", &|i| mb.btb1(i.tid, i.pc).tag),
        ("bpu.baseline_tage_ns", &|i| tage(mb, i)),
    ];
    for (name, f) in calls {
        let ns = ns_per(
            || Ok(()),
            |_| {
                for i in &ins {
                    black_box(f(i));
                }
                ins.len() as u64
            },
        )?;
        m.push(name, ns, "ns");
    }
    let loads = if loads.is_empty() {
        vec![(0, EntityId::user(0)), (0, EntityId::KERNEL)]
    } else {
        loads
    };
    let mut st_switch = StMapper::new(StConfig::default(), seed);
    let set_entity_ns = ns_per(
        || Ok(()),
        |_| {
            let mut n = 0;
            while n < 50_000 {
                for &(tid, e) in &loads {
                    st_switch.set_entity(tid, e);
                }
                n += loads.len() as u64;
            }
            n
        },
    )?;
    m.push("core.set_entity_ns", set_entity_ns, "ns");
    let rerand_ns = ns_per(
        || Ok(()),
        |_| {
            for _ in 0..10_000 {
                st_switch.force_rerandomize(0);
            }
            10_000
        },
    )?;
    m.push("core.rerandomize_us", rerand_ns / 1000.0, "us");
    for (i, f) in FAMILIES.iter().enumerate() {
        let rerand: u64 = rounds.last[i]
            .iter()
            .map(|s| s.map_or(0, |s| s.rerandomizations))
            .sum();
        m.push(
            format!("core.{}.rerandomizations", f.name),
            rerand as f64,
            "count",
        );
    }

    // --- bpu: BTB and RSB storage ---
    let coords: Vec<_> = ins
        .iter()
        .map(|i| (base.btb1(i.tid, i.pc), i.rec.taken, i.rec.target.raw()))
        .collect();
    let btb_ns = ns_per(
        || Ok(Btb::new(BtbConfig::skylake())),
        |btb| {
            for (c, taken, target) in &coords {
                black_box(btb.lookup(c.index, c.tag, c.offset));
                if *taken {
                    black_box(btb.insert(c.index, c.tag, c.offset, *target));
                }
            }
            coords.len() as u64
        },
    )?;
    m.push("bpu.btb_ns", btb_ns, "ns");
    let rsb_ns = ns_per(
        || Ok(Rsb::new(RSB_ENTRIES)),
        |rsb| {
            for i in &ins {
                rsb.push(i.pc);
                black_box(rsb.pop());
            }
            ins.len() as u64
        },
    )?;
    m.push("bpu.rsb_ns", rsb_ns, "ns");

    // --- predictors: each structure alone, then whole models ---
    let conds: Vec<&Input> = ins.iter().filter(|i| i.rec.kind.is_conditional()).collect();
    let indirect: Vec<&Input> = ins
        .iter()
        .filter(|i| {
            matches!(
                i.rec.kind,
                BranchKind::IndirectJump | BranchKind::IndirectCall
            )
        })
        .collect();
    if conds.is_empty() || indirect.is_empty() {
        return Err("the stream has no conditional or no indirect branches".to_string());
    }
    fn direction<D: DirectionPredictor>(p: &mut D, m: &dyn Mapper, conds: &[&Input]) -> u64 {
        let mut hist = vec![HistoryCtx::new(); MAX_THREADS];
        for i in conds {
            let h = &mut hist[i.tid];
            let pred = p.predict(m, i.tid, i.pc, h);
            p.update(m, i.tid, i.pc, h, i.rec.taken, pred);
            h.push_outcome(i.rec.taken);
        }
        conds.len() as u64
    }
    m.push(
        "predictors.sklcond_ns",
        ns_per(|| Ok(SklCond::new()), |p| direction(p, mb, &conds))?,
        "ns",
    );
    m.push(
        "predictors.tage64_ns",
        ns_per(
            || Ok(Tage::new(TageConfig::kb64())),
            |p| direction(p, mb, &conds),
        )?,
        "ns",
    );
    m.push(
        "predictors.ittage_ns",
        ns_per(
            || Ok(Ittage::new(IttageConfig::default_tables())),
            |it| {
                for i in &indirect {
                    black_box(it.predict(mb, i.tid, i.pc));
                    it.update(mb, i.tid, i.pc, i.rec.target.raw() & 0xffff_ffff);
                    it.push_history(i.tid, i.pc, i.rec.target.raw());
                }
                indirect.len() as u64
            },
        )?,
        "ns",
    );
    m.push(
        "predictors.target_unit_ns",
        ns_per(
            || {
                Ok((
                    TargetUnit::new(BtbConfig::skylake(), false),
                    vec![HistoryCtx::new(); MAX_THREADS],
                ))
            },
            |(tu, hist)| {
                for i in &ins {
                    let h = &mut hist[i.tid];
                    let p = tu.predict(mb, i.tid, &i.rec, h);
                    black_box(tu.update(mb, i.tid, &i.rec, h, p.rsb_underflow));
                }
                ins.len() as u64
            },
        )?,
        "ns",
    );
    // The other families' models: one timed pass over all streams (800k
    // branches) each, which is a large enough sample.
    for (i, f) in FAMILIES.iter().enumerate() {
        for spec in [f.base, f.st] {
            let ns = if spec == prep.spec(f) {
                c.process_ns[i]
            } else {
                let mut models = (0..STREAMS)
                    .map(|j| {
                        prep.registry
                            .build(spec, stream_seed(seed, j))
                            .map_err(|e| e.to_string())
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                let t = Instant::now();
                let branches: u64 = models
                    .iter_mut()
                    .zip(&traces)
                    .map(|(model, t)| direct(model, t.events()))
                    .sum();
                t.elapsed().as_nanos() as f64 / branches.max(1) as f64
            };
            m.push(
                format!("predictors.{}.process_ns", model_label(spec)),
                ns,
                "ns",
            );
        }
    }

    // --- sim ---
    let session_ns = session_overhead(prep, &traces)?;
    m.push("sim.session_ns", session_ns, "ns");
    let switch_events: Vec<TraceEvent> = traces
        .iter()
        .flat_map(|t| t.events())
        .filter(|e| {
            matches!(
                e,
                TraceEvent::ContextSwitch { .. } | TraceEvent::ModeSwitch { .. }
            )
        })
        .copied()
        .collect();
    let switch_events = if switch_events.is_empty() {
        vec![
            TraceEvent::ModeSwitch {
                tid: 0,
                kernel: true,
            },
            TraceEvent::ModeSwitch {
                tid: 0,
                kernel: false,
            },
        ]
    } else {
        switch_events
    };
    let mut model = prep.build(&FAMILIES[0], 0)?;
    let mut session = SimSession::new(
        &mut model,
        prep.policy(),
        run::session_options(prep.def.profile),
    )
    .map_err(|e| e.to_string())?;
    let mut feed_failed = false;
    let switch_ns = ns_per(
        || Ok(()),
        |_| {
            let mut n = 0;
            while n < 50_000 {
                for ev in &switch_events {
                    feed_failed |= session.feed(ev).is_err();
                }
                n += switch_events.len() as u64;
            }
            n
        },
    )?;
    if feed_failed {
        return Err("SimSession::feed rejected a switch event".to_string());
    }
    m.push("sim.switch_ns", switch_ns, "ns");

    // --- engine ---
    let build_start = Instant::now();
    let mut build_s = Vec::new();
    while build_s.len() < 3 || build_start.elapsed().as_secs_f64() < MIN_S {
        let t = Instant::now();
        let reg = ModelRegistry::standard();
        for f in &FAMILIES {
            black_box(reg.build(prep.spec(f), seed).map_err(|e| e.to_string())?);
        }
        build_s.push(t.elapsed().as_secs_f64());
    }
    m.push_median("engine.build_s", build_s, "s");

    // --- figures ---
    let fig = figures::run(seed)?;
    figure_check.record(fig.digest);
    for (name, secs) in &fig.per_figure {
        m.push(format!("figures.{name}_s"), *secs, "s");
    }

    // --- spans and the ledger ---
    let mut traced_sum = 0.0;
    let mut untraced_sum = 0.0;
    let mut rows = Vec::new();
    for (i, f) in FAMILIES.iter().enumerate() {
        let traced = rounds.traced[i].ns();
        untraced_sum += rounds.untraced[i].ns();
        traced_sum += traced;
        let untraced = c.untraced_ns[i];
        let branches = log
            .spans
            .iter()
            .filter(|s| s.name == "pass" && s.family == i)
            .count() as f64
            * BRANCHES as f64;
        let pull = log.total_ns("trace.next_batch", i) as f64 / branches;
        let feed = log.total_ns("sim.feed_batch", i) as f64 / branches;
        m.push(format!("span.{}.source_ns", f.name), pull, "ns");
        m.push(format!("span.{}.feed_ns", f.name), feed, "ns");
        let explained = trace_ns + c.process_ns[i] + session_ns;
        m.push(
            format!("ledger.{}.explained_frac", f.name),
            explained / untraced,
            "ratio",
        );
        rows.push((
            f.name,
            c.process_ns[i],
            explained,
            untraced,
            traced,
            pull,
            feed,
        ));
    }
    m.push(
        "ledger.trace_overhead_frac",
        traced_sum / untraced_sum - 1.0,
        "ratio",
    );

    let source = match prep.def.stream {
        StreamKind::Generator => "trace.generate_ns",
        StreamKind::Stbt => "trace.stbt_decode_ns",
    };
    eprintln!(
        "ledger for {} (host ns per simulated branch; explained = {source} + process + session)",
        prep.def.name
    );
    eprintln!(
        "{:<8} {:>9} {:>9} {:>9} {:>10} {:>10} {:>10} {:>9} {:>9} {:>9}",
        "family",
        "trace",
        "process",
        "session",
        "explained",
        "untraced",
        "explained%",
        "traced",
        "span.src",
        "span.feed"
    );
    for (name, process, explained, untraced, traced, pull, feed) in rows {
        eprintln!(
            "{name:<8} {trace_ns:>9.1} {process:>9.1} {session_ns:>9.1} {explained:>10.1} \
             {untraced:>10.1} {:>9.1}% {traced:>9.1} {pull:>9.1} {feed:>9.1}",
            100.0 * explained / untraced
        );
    }
    Ok(log)
}

/// Repetitions of [`closure`]'s interleaved measurements.
const CLOSURE_REPS: usize = 2;

/// The ledger's terms, each in ns per branch, median over repetitions.
struct Closure {
    generate_ns: f64,
    decode_ns: f64,
    /// Per family: the untraced pass over the workload's real source.
    untraced_ns: Vec<f64>,
    /// Per family: the same model on the same records without a session.
    process_ns: Vec<f64>,
}

/// Measures the terms the ledger compares side by side, so that drift in
/// the host's speed during the run affects them alike. For each stream:
/// the generator drained alone, the `.stbt` decoder drained alone, and
/// for each family an untraced pass and the session-free loop. The passes
/// count as operations; the session-free loop must reproduce their
/// statistics.
fn closure(
    prep: &Prepared,
    traces: &[Trace],
    bytes: &[Vec<u8>],
    checks: &mut [Check<Stats>],
    rounds: &run::Rounds,
) -> Result<Closure, String> {
    let n = FAMILIES.len();
    let (mut gen, mut dec) = (Vec::new(), Vec::new());
    let (mut untraced, mut process) = (vec![Vec::new(); n], vec![Vec::new(); n]);
    for _ in 0..CLOSURE_REPS {
        let (mut g, mut d, mut branches) = (0.0, 0.0, 0u64);
        let (mut u, mut p) = (vec![0.0; n], vec![0.0; n]);
        for (j, trace) in traces.iter().enumerate() {
            let mut src =
                workload::generator(prep.def, stream_seed(prep.seed, j))?.into_source(BRANCHES);
            let t = Instant::now();
            branches += drain(&mut src)?;
            g += t.elapsed().as_nanos() as f64;
            let mut reader = BinTraceReader::new(bytes[j].as_slice()).map_err(|e| e.to_string())?;
            let t = Instant::now();
            let decoded = drain(&mut reader)?;
            d += t.elapsed().as_nanos() as f64;
            if decoded != trace.branch_count() as u64 {
                return Err(format!("stream {j}: decoded {decoded} branches from .stbt"));
            }
            for (i, f) in FAMILIES.iter().enumerate() {
                let mut model = prep.build(f, j)?;
                let mut source = prep.open(j)?;
                let (report, secs) = run::pass(&mut model, prep.policy(), source.as_mut())?;
                checks[i * STREAMS + j].record(Stats::of(&report));
                u[i] += secs * 1e9;

                let mut model = prep.build(f, j)?;
                let t = Instant::now();
                direct(&mut model, trace.events());
                p[i] += t.elapsed().as_nanos() as f64;
                let s = model.stats();
                let same = rounds.last[i][j].is_some_and(|r| {
                    r.mispredictions == s.mispredictions
                        && r.evictions == s.btb_evictions
                        && r.rerandomizations == model.rerandomizations()
                });
                if !same {
                    return Err(format!(
                        "the session-free loop diverged from the {} pass on stream {j}",
                        f.name
                    ));
                }
            }
        }
        let per = |ns: f64| ns / branches.max(1) as f64;
        gen.push(per(g));
        dec.push(per(d));
        for i in 0..n {
            untraced[i].push(per(u[i]));
            process[i].push(per(p[i]));
        }
    }
    Ok(Closure {
        generate_ns: median(&gen),
        decode_ns: median(&dec),
        untraced_ns: untraced.iter().map(|v| median(v)).collect(),
        process_ns: process.iter().map(|v| median(v)).collect(),
    })
}

/// Session bookkeeping per branch: `SimSession::run` over the in-memory
/// stream minus the session-free loop, both on the unprotected `skl`
/// model under the workload's policy. It is the cheapest model, so the
/// difference is least buried in noise; the bookkeeping does not depend
/// on the model. The two alternate so host drift cancels.
fn session_overhead(prep: &Prepared, traces: &[Trace]) -> Result<f64, String> {
    let build = |j| {
        prep.registry
            .build(FAMILIES[0].base, stream_seed(prep.seed, j))
            .map_err(|e| e.to_string())
    };
    let (mut direct_ns, mut session_ns) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while direct_ns.len() < 5 || start.elapsed().as_secs_f64() < 2.0 * MIN_S {
        let (mut d, mut s, mut n) = (0.0, 0.0, 0u64);
        for (j, trace) in traces.iter().enumerate() {
            let mut model = build(j)?;
            let t = Instant::now();
            n += direct(&mut model, trace.events());
            d += t.elapsed().as_nanos() as f64;

            let mut model = build(j)?;
            let mut src = trace.source();
            s += run::pass(&mut model, prep.policy(), &mut src)?.1 * 1e9;
        }
        direct_ns.push(d / n.max(1) as f64);
        session_ns.push(s / n.max(1) as f64);
    }
    Ok(median(&session_ns) - median(&direct_ns))
}
