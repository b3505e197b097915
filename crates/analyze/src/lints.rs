//! The lint passes: token-window pattern matching with brace/scope
//! tracking over [`crate::tokenizer`] output.
//!
//! Each lint encodes one invariant the OAE and byte-parity gates depend
//! on but the compiler cannot check:
//!
//! * **lock-scope** — no blocking call while a `Mutex` guard binding is
//!   live in scope (I/O under a shared lock stalls every thread waiting
//!   on it).
//! * **determinism** — no iteration over `HashMap`/`HashSet` in crates
//!   whose iteration order can reach serialized or user-visible output;
//!   use `BTreeMap`/`BTreeSet` or sort before emitting.
//! * **wall-clock** — no `Instant::now` / `SystemTime` in OAE-affecting
//!   crates: simulated time must come from the event stream, never the
//!   host clock.
//! * **panic-freedom** — no `unwrap`/`expect`/`panic!`-family macros or
//!   unchecked (non-range) indexing in the decoders of on-disk formats
//!   (`.stck`, `.stbp`, BBV, CBP, ITTAGE snapshots) and the resume path:
//!   hostile or truncated bytes must become a positioned error, never a
//!   panic.
//!
//! `#[cfg(test)]` scopes are skipped for every lint (tests may unwrap),
//! and doc comments are comments to the tokenizer, so examples never
//! fire. Findings are suppressible only through the checked-in
//! `ci/analyze-allow.toml` (see [`crate::allowlist`]) — there is
//! deliberately no inline `// allow` escape hatch.

use crate::tokenizer::{tokenize, Tok, TokKind};

/// Identifies one lint pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LintId {
    /// Blocking call while a lock guard is live.
    LockScope,
    /// Hash-ordered iteration in a report path.
    Determinism,
    /// Host-clock read in an OAE-affecting crate.
    WallClock,
    /// Panicking construct in a decoder or resume path.
    PanicFreedom,
}

impl LintId {
    /// Every lint, in catalog order.
    pub const ALL: &'static [LintId] = &[
        LintId::LockScope,
        LintId::Determinism,
        LintId::WallClock,
        LintId::PanicFreedom,
    ];

    /// The stable lint id used in diagnostics and the allowlist.
    pub fn name(self) -> &'static str {
        match self {
            LintId::LockScope => "lock-scope",
            LintId::Determinism => "determinism",
            LintId::WallClock => "wall-clock",
            LintId::PanicFreedom => "panic-freedom",
        }
    }

    /// Parses a lint id as written in `ci/analyze-allow.toml`.
    pub fn from_name(name: &str) -> Option<LintId> {
        LintId::ALL.iter().copied().find(|l| l.name() == name)
    }

    /// One-line catalog summary.
    pub fn summary(self) -> &'static str {
        match self {
            LintId::LockScope => "no blocking I/O while a Mutex guard binding is live in scope",
            LintId::Determinism => {
                "no HashMap/HashSet iteration where order can reach serialized output"
            }
            LintId::WallClock => "no Instant::now/SystemTime in OAE-affecting crates",
            LintId::PanicFreedom => {
                "no unwrap/expect/panic!/unchecked indexing in decoder and resume paths"
            }
        }
    }

    /// Why the invariant exists (printed by `stbpu analyze --list-lints`).
    pub fn rationale(self) -> &'static str {
        match self {
            LintId::LockScope => {
                "a blocking call under a shared lock stalls every thread waiting on \
                 it; queue under the lock, do I/O after releasing it"
            }
            LintId::Determinism => {
                "every PR is gated on bit-identical OAE/report output; hash iteration \
                 order varies across runs and toolchains, so it must never order \
                 anything a gate diffs"
            }
            LintId::WallClock => {
                "simulation results must be a pure function of the event stream and \
                 seed; a host-clock read makes output machine-dependent"
            }
            LintId::PanicFreedom => {
                "checkpoint, resume, .stbp, BBV, CBP and ITTAGE-snapshot decoders read \
                 bytes from disk; a truncated or corrupt file must become a positioned \
                 error, never a panic that loses a run or aborts a CI gate"
            }
        }
    }

    /// The workspace paths (relative, `/`-separated) the lint applies to.
    /// An empty list means every analyzed file.
    pub fn path_scope(self) -> &'static [&'static str] {
        match self {
            // Any crate may grow a lock; the invariant is universal.
            LintId::LockScope => &[],
            // Crates whose collections can feed reports or traces that
            // CI diffs byte-for-byte. In `crates/phases`, k-means centroid
            // updates and representative selection order anything in
            // `.stbp`. In `crates/predictors`, allocator randomness
            // (ITTAGE/TAGE lfsr) must stay seeded-deterministic, or OAE
            // baselines and checkpoint bit-identity gates break.
            LintId::Determinism => &[
                "crates/sim/src/",
                "crates/engine/src/",
                "crates/trace/src/",
                "crates/core/src/",
                "crates/phases/src/",
                "crates/predictors/src/",
            ],
            // Crates on the OAE-affecting simulation path, plus the
            // engine's shard/resume drivers whose outputs CI diffs
            // byte-for-byte against sequential runs (timing belongs in
            // the CLI bench layer). Bench/CLI progress code lives outside
            // these roots and may time freely.
            // Also in scope: the clustering crate (a wall-clock read in
            // k-means would make phase selection machine-dependent), the
            // engine's phase driver, whose estimates the simpoint
            // reference gate diffs against a committed JSON, and
            // the predictor models themselves — a timing
            // read inside a predict/update path would make reports
            // machine-dependent.
            LintId::WallClock => &[
                "crates/bpu/src/",
                "crates/remap/src/",
                "crates/sim/src/",
                "crates/trace/src/",
                "crates/core/src/",
                "crates/engine/src/shard.rs",
                "crates/engine/src/resume.rs",
                "crates/engine/src/phases.rs",
                "crates/phases/src/",
                "crates/predictors/src/",
            ],
            // The decoders of on-disk bytes and the resume path that
            // consumes them:
            // - the checkpoint codecs: a truncated or corrupt .stck /
            //   completed.jsonl must decode to a positioned error — a
            //   panic during grid resume would lose the completed work it
            //   exists to protect;
            // - the `.stbp` codec (a positioned PhaseError) and the BBV
            //   extractor, which runs inside the CI figure-estimation
            //   gate;
            // - the CBP trace decoder: arbitrary third-party captures
            //   must decode totally, truncation is a positioned CbpError;
            // - the ITTAGE predictor, whose snapshot loader consumes
            //   `.stck` images from disk.
            LintId::PanicFreedom => &[
                "crates/sim/src/checkpoint.rs",
                "crates/engine/src/resume.rs",
                "crates/phases/src/file.rs",
                "crates/trace/src/bbv.rs",
                "crates/trace/src/cbp.rs",
                "crates/predictors/src/ittage.rs",
            ],
        }
    }

    /// True when the lint applies to `rel_path` (repo-relative,
    /// `/`-separated).
    pub fn applies_to(self, rel_path: &str) -> bool {
        let scope = self.path_scope();
        scope.is_empty() || scope.iter().any(|p| rel_path.starts_with(p))
    }
}

/// One positioned diagnostic.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Which lint fired.
    pub lint: LintId,
    /// Repo-relative file path (`/`-separated).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What is wrong and how to fix it.
    pub message: String,
    /// The trimmed source line, for display and allowlist matching.
    pub source_line: String,
}

impl Finding {
    /// `file:line:col: lint: message` — the human diagnostic form.
    pub fn render(&self) -> String {
        format!(
            "{}:{}:{}: {}: {}\n    {}",
            self.file,
            self.line,
            self.col,
            self.lint.name(),
            self.message,
            self.source_line
        )
    }
}

/// Tokenized file plus derived masks, shared by every lint pass.
struct FileCtx<'a> {
    rel_path: &'a str,
    toks: Vec<Tok>,
    /// True for tokens inside `#[cfg(test)]` scopes.
    test: Vec<bool>,
    lines: Vec<&'a str>,
}

impl FileCtx<'_> {
    fn finding(&self, lint: LintId, at: &Tok, message: String) -> Finding {
        Finding {
            lint,
            file: self.rel_path.to_string(),
            line: at.line,
            col: at.col,
            message,
            source_line: self
                .lines
                .get(at.line as usize - 1)
                .map(|l| l.trim().to_string())
                .unwrap_or_default(),
        }
    }

    fn ident(&self, i: usize) -> Option<&str> {
        self.toks.get(i).and_then(|t| match t.kind {
            TokKind::Ident => Some(t.text.as_str()),
            _ => None,
        })
    }

    fn punct(&self, i: usize, c: char) -> bool {
        self.toks.get(i).is_some_and(|t| t.is_punct(c))
    }
}

/// Runs `lints` over one source file. `rel_path` is used for scoping
/// messages only — callers (the fixture tests) may force lints a path
/// would not normally select; [`crate::analyze_workspace`] passes each
/// lint only where [`LintId::applies_to`] holds.
pub fn lint_source(rel_path: &str, src: &str, lints: &[LintId]) -> Vec<Finding> {
    let toks = tokenize(src);
    let test = test_mask(&toks);
    let ctx = FileCtx {
        rel_path,
        toks,
        test,
        lines: src.lines().collect(),
    };
    let mut findings = Vec::new();
    for &lint in lints {
        match lint {
            LintId::LockScope => lock_scope(&ctx, &mut findings),
            LintId::Determinism => determinism(&ctx, &mut findings),
            LintId::WallClock => wall_clock(&ctx, &mut findings),
            LintId::PanicFreedom => panic_freedom(&ctx, &mut findings),
        }
    }
    findings.sort_by_key(|f| (f.line, f.col, f.lint));
    findings
}

/// Marks every token inside a `#[cfg(test)]`-gated `mod`/`fn` body.
fn test_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_punct('#')
            && toks.get(i + 1).is_some_and(|t| t.is_punct('['))
            && toks.get(i + 2).is_some_and(|t| t.is_ident("cfg"))
            && toks.get(i + 3).is_some_and(|t| t.is_punct('('))
        {
            // Any `test` ident inside the cfg(...) parens counts
            // (`cfg(test)`, `cfg(all(test, …))`).
            let close = match matching(toks, i + 3, '(', ')') {
                Some(c) => c,
                None => break,
            };
            let gates_test = toks[i + 4..close]
                .iter()
                .any(|t| t.is_ident("test") || t.is_ident("doctest"));
            if gates_test {
                // Skip the next item's body if it is a mod or fn: find
                // the first `{` or `;` after the attribute.
                let mut j = close + 1;
                let mut is_item = false;
                while j < toks.len() {
                    if toks[j].is_ident("mod") || toks[j].is_ident("fn") {
                        is_item = true;
                    }
                    if toks[j].is_punct('{') || toks[j].is_punct(';') {
                        break;
                    }
                    j += 1;
                }
                if is_item && j < toks.len() && toks[j].is_punct('{') {
                    if let Some(end) = matching(toks, j, '{', '}') {
                        for m in &mut mask[i..=end] {
                            *m = true;
                        }
                        i = end + 1;
                        continue;
                    }
                }
            }
        }
        i += 1;
    }
    mask
}

/// Index of the punct matching the opener at `open` (which must hold
/// `open_c`), or `None` when unbalanced.
fn matching(toks: &[Tok], open: usize, open_c: char, close_c: char) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct(open_c) {
            depth += 1;
        } else if t.is_punct(close_c) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

// ---------------------------------------------------------------------
// wall-clock
// ---------------------------------------------------------------------

fn wall_clock(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    for i in 0..ctx.toks.len() {
        if ctx.test[i] {
            continue;
        }
        if ctx.toks[i].is_ident("Instant")
            && ctx.punct(i + 1, ':')
            && ctx.punct(i + 2, ':')
            && ctx.ident(i + 3) == Some("now")
        {
            out.push(
                ctx.finding(
                    LintId::WallClock,
                    &ctx.toks[i],
                    "`Instant::now` in an OAE-affecting crate: simulated time must come \
                 from the event stream and seed, never the host clock"
                        .to_string(),
                ),
            );
        }
        if ctx.toks[i].is_ident("SystemTime") {
            out.push(
                ctx.finding(
                    LintId::WallClock,
                    &ctx.toks[i],
                    "`SystemTime` in an OAE-affecting crate: wall-clock reads make \
                 output machine-dependent"
                        .to_string(),
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------
// panic-freedom
// ---------------------------------------------------------------------

/// Identifier-position keywords that can precede `[` without it being an
/// index expression (slice patterns, array types, …).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "mut", "ref", "in", "if", "while", "match", "return", "break", "else", "move", "dyn",
    "for", "as", "where", "pub", "use", "const", "static", "crate", "fn", "enum", "struct", "type",
    "impl", "mod", "unsafe", "await", "yield", "box",
];

const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

fn panic_freedom(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    for i in 0..ctx.toks.len() {
        if ctx.test[i] {
            continue;
        }
        let t = &ctx.toks[i];
        // `.unwrap()` / `.expect(`
        if t.is_punct('.') {
            if let Some(m) = ctx.ident(i + 1) {
                if (m == "unwrap" || m == "expect") && ctx.punct(i + 2, '(') {
                    out.push(ctx.finding(
                        LintId::PanicFreedom,
                        &ctx.toks[i + 1],
                        format!(
                            "`.{m}()` can panic in a decode path — return a \
                             positioned error (Err) instead"
                        ),
                    ));
                }
            }
        }
        // panic!-family macros (debug_assert* is a distinct ident and
        // deliberately allowed: it compiles out of release builds).
        if t.kind == TokKind::Ident
            && PANIC_MACROS.contains(&t.text.as_str())
            && ctx.punct(i + 1, '!')
        {
            out.push(ctx.finding(
                LintId::PanicFreedom,
                t,
                format!(
                    "`{}!` panics in a decode path — handle the case and return \
                     a positioned error instead",
                    t.text
                ),
            ));
        }
        // Unchecked (non-range) indexing: `expr[index]`. Range slicing
        // (`buf[..n]`) is out of scope — it is reviewed manually because
        // most sites bounds-check first and a token scan cannot see that.
        if t.is_punct('[') && i > 0 {
            let prev = &ctx.toks[i - 1];
            let indexable = match prev.kind {
                TokKind::Ident => !NON_INDEX_KEYWORDS.contains(&prev.text.as_str()),
                TokKind::Punct(')') | TokKind::Punct(']') => true,
                _ => false,
            };
            if indexable {
                if let Some(close) = matching(&ctx.toks, i, '[', ']') {
                    let mut depth = 0usize;
                    let mut has_range = false;
                    let mut k = i + 1;
                    while k < close {
                        let c = &ctx.toks[k];
                        if c.is_punct('(') || c.is_punct('[') || c.is_punct('{') {
                            depth += 1;
                        } else if c.is_punct(')') || c.is_punct(']') || c.is_punct('}') {
                            depth = depth.saturating_sub(1);
                        } else if depth == 0
                            && c.is_punct('.')
                            && ctx.toks.get(k + 1).is_some_and(|n| n.is_punct('.'))
                        {
                            has_range = true;
                        }
                        k += 1;
                    }
                    if !has_range && close > i + 1 {
                        out.push(
                            ctx.finding(
                                LintId::PanicFreedom,
                                t,
                                "unchecked indexing can panic in a decode path — \
                             use `.get()` and handle the miss"
                                    .to_string(),
                            ),
                        );
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// determinism
// ---------------------------------------------------------------------

const HASH_TYPES: &[&str] = &["HashMap", "HashSet"];
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

fn determinism(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    // Pass 1: names whose declared type or initializer involves a
    // hash-ordered collection — struct fields / params (`name: HashMap<…>`
    // possibly wrapped in Mutex/Arc/…) and let bindings whose statement
    // mentions HashMap/HashSet.
    let mut names: Vec<String> = Vec::new();
    let toks = &ctx.toks;
    for i in 0..toks.len() {
        // `name :` (not `::` on either side) followed by a type window
        // containing a hash type before a depth-0 terminator.
        if let Some(name) = ctx.ident(i) {
            let ascription = ctx.punct(i + 1, ':')
                && !ctx.punct(i + 2, ':')
                && !(i >= 1 && ctx.punct(i - 1, ':'));
            if ascription {
                let mut depth = 0i32;
                let mut k = i + 2;
                while k < toks.len() {
                    let t = &toks[k];
                    if t.is_punct('<') || t.is_punct('(') {
                        depth += 1;
                    } else if t.is_punct('>') || t.is_punct(')') {
                        if t.is_punct(')') && depth == 0 {
                            break;
                        }
                        depth -= 1;
                    } else if depth <= 0
                        && (t.is_punct(',')
                            || t.is_punct(';')
                            || t.is_punct('{')
                            || t.is_punct('}')
                            || t.is_punct('='))
                    {
                        break;
                    } else if t.kind == TokKind::Ident && HASH_TYPES.contains(&t.text.as_str()) {
                        names.push(name.to_string());
                        break;
                    }
                    k += 1;
                }
            }
        }
        // `let [mut] name = … HashMap/HashSet … ;`
        if toks[i].is_ident("let") {
            let mut k = i + 1;
            if ctx.ident(k) == Some("mut") {
                k += 1;
            }
            if let Some(name) = ctx.ident(k) {
                let mut depth = 0i32;
                let mut j = k + 1;
                while j < toks.len() {
                    let t = &toks[j];
                    if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
                        depth += 1;
                    } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
                        depth -= 1;
                        if depth < 0 {
                            break;
                        }
                    } else if t.is_punct(';') && depth == 0 {
                        break;
                    } else if t.kind == TokKind::Ident && HASH_TYPES.contains(&t.text.as_str()) {
                        names.push(name.to_string());
                        break;
                    }
                    j += 1;
                }
            }
        }
    }
    names.sort();
    names.dedup();

    // Pass 2: iteration over any collected name.
    let mut lines_flagged: Vec<u32> = Vec::new();
    for i in 0..toks.len() {
        if ctx.test[i] {
            continue;
        }
        // `name.iter()` etc.
        if let Some(name) = ctx.ident(i) {
            if names.iter().any(|n| n == name)
                && ctx.punct(i + 1, '.')
                && ctx.ident(i + 2).is_some_and(|m| ITER_METHODS.contains(&m))
                && ctx.punct(i + 3, '(')
                && !lines_flagged.contains(&toks[i].line)
            {
                lines_flagged.push(toks[i].line);
                out.push(ctx.finding(
                    LintId::Determinism,
                    &ctx.toks[i],
                    format!(
                        "iteration over hash-ordered `{name}` — order varies across \
                         runs; use BTreeMap/BTreeSet or collect-and-sort before \
                         anything serialized or user-visible"
                    ),
                ));
            }
        }
        // `for … in <expr containing a hash name> {`
        if toks[i].is_ident("for") {
            let mut depth = 0i32;
            let mut in_at = None;
            let mut j = i + 1;
            while j < toks.len() {
                let t = &toks[j];
                if t.is_punct('(') || t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') {
                    depth -= 1;
                } else if depth == 0 && t.is_ident("in") {
                    in_at = Some(j);
                    break;
                } else if t.is_punct('{') || t.is_punct(';') {
                    break;
                }
                j += 1;
            }
            if let Some(start) = in_at {
                let mut j = start + 1;
                let mut depth = 0i32;
                while j < toks.len() {
                    let t = &toks[j];
                    if t.is_punct('(') || t.is_punct('[') {
                        depth += 1;
                    } else if t.is_punct(')') || t.is_punct(']') {
                        depth -= 1;
                    } else if t.is_punct('{') && depth == 0 {
                        break;
                    } else if t.kind == TokKind::Ident
                        && names.iter().any(|n| n == &t.text)
                        && !lines_flagged.contains(&toks[i].line)
                    {
                        lines_flagged.push(toks[i].line);
                        out.push(ctx.finding(
                            LintId::Determinism,
                            &ctx.toks[i],
                            format!(
                                "`for` loop over hash-ordered `{}` — order varies \
                                 across runs; use BTreeMap/BTreeSet or sort first",
                                t.text
                            ),
                        ));
                        break;
                    }
                    j += 1;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// lock-scope
// ---------------------------------------------------------------------

/// Methods that block (I/O, joins, sleeps) and must not run while a lock
/// guard is live. `send` is deliberately absent: `mpsc::Sender::send`
/// never blocks, so queue-under-lock is the safe pattern.
const BLOCKING_METHODS: &[&str] = &[
    "write_all",
    "write_fmt",
    "read",
    "read_exact",
    "read_to_end",
    "read_until",
    "read_line",
    "flush",
    "accept",
    "connect",
    "join",
    "recv",
    "recv_timeout",
    "sleep",
];

/// Chain methods that pass a `.lock()` result through unchanged, so a
/// `let` binding whose initializer ends in them binds the guard itself.
const GUARD_PASSTHROUGH: &[&str] = &[
    "unwrap",
    "expect",
    "unwrap_or_else",
    "map_err",
    "ok",
    "unwrap_or",
    "unwrap_or_default",
];

struct Guard {
    name: String,
    line: u32,
    depth: usize,
}

fn lock_scope(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let toks = &ctx.toks;
    let mut depth = 0usize;
    let mut guards: Vec<Guard> = Vec::new();
    // A `.lock()` temporary live inside the current statement/expression
    // (covers chains and `match x.lock() { … }` without a binding); holds
    // the brace depth at acquisition.
    let mut temp_lock: Option<usize> = None;
    let mut pending: Vec<(usize, Guard)> = Vec::new(); // activate after stmt end

    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            guards.retain(|g| g.depth < depth);
            depth = depth.saturating_sub(1);
            if temp_lock.is_some_and(|d| depth <= d) {
                temp_lock = None;
            }
        } else if t.is_punct(';') && temp_lock.is_some_and(|d| depth <= d) {
            temp_lock = None;
        }
        // Activate guards whose binding statement has ended.
        pending.retain_mut(|(at, g)| {
            if i >= *at {
                guards.push(Guard {
                    name: std::mem::take(&mut g.name),
                    line: g.line,
                    depth: g.depth,
                });
                false
            } else {
                true
            }
        });

        if ctx.test[i] {
            i += 1;
            continue;
        }

        // `drop(name)` releases a tracked guard early.
        if t.is_ident("drop") && ctx.punct(i + 1, '(') {
            if let Some(name) = ctx.ident(i + 2) {
                if ctx.punct(i + 3, ')') {
                    guards.retain(|g| g.name != name);
                }
            }
        }

        // `let …` — may bind a guard.
        if t.is_ident("let") {
            if let Some((name, is_guard, end)) = let_binding(ctx, i) {
                // Shadowing rebinds the name; the old guard (if any) is
                // released when its value is overwritten.
                guards.retain(|g| g.name != name);
                if is_guard {
                    pending.push((
                        end + 1,
                        Guard {
                            name,
                            line: t.line,
                            depth,
                        },
                    ));
                }
            }
        }

        // `.lock()` temporary (chained use, match scrutinee, …).
        if t.is_punct('.')
            && ctx.ident(i + 1) == Some("lock")
            && ctx.punct(i + 2, '(')
            && temp_lock.is_none()
        {
            temp_lock = Some(depth);
        }

        // A blocking call while any guard or lock temporary is live.
        let blocking = (t.is_punct('.') || (t.is_punct(':') && i > 0 && ctx.punct(i - 1, ':')))
            && ctx
                .ident(i + 1)
                .is_some_and(|m| BLOCKING_METHODS.contains(&m))
            && ctx.punct(i + 2, '(');
        if blocking {
            let method = ctx.ident(i + 1).unwrap_or_default();
            if let Some(g) = guards.last() {
                out.push(ctx.finding(
                    LintId::LockScope,
                    &ctx.toks[i + 1],
                    format!(
                        "blocking call `{method}()` while lock guard `{}` (acquired \
                         line {}) is live — queue the work under the lock and perform \
                         I/O after releasing it (drop({}) first)",
                        g.name, g.line, g.name
                    ),
                ));
            } else if temp_lock.is_some() {
                out.push(ctx.finding(
                    LintId::LockScope,
                    &ctx.toks[i + 1],
                    format!(
                        "blocking call `{method}()` chained on a live `.lock()` \
                         temporary — the guard is held across the I/O; bind it, copy \
                         what you need, release, then block"
                    ),
                ));
            }
        }
        i += 1;
    }
}

/// Parses the `let` statement starting at `li`: returns the bound name,
/// whether the initializer binds a lock guard (`.lock()` followed only by
/// pass-through methods / `?` / `else {…}` up to `;`), and the index of
/// the terminating `;`.
fn let_binding(ctx: &FileCtx<'_>, li: usize) -> Option<(String, bool, usize)> {
    let toks = &ctx.toks;
    let mut k = li + 1;
    if ctx.ident(k) == Some("mut") {
        k += 1;
    }
    // `let Ok(mut g) = …` / `let Some(g) = …` destructure the guard out.
    let mut destructured = false;
    if matches!(ctx.ident(k), Some("Ok" | "Some")) && ctx.punct(k + 1, '(') {
        destructured = true;
        k += 2;
        if ctx.ident(k) == Some("mut") {
            k += 1;
        }
    }
    let name = ctx.ident(k)?.to_string();
    if name == "_" {
        return None;
    }
    if destructured && ctx.punct(k + 1, ')') {
        k += 1;
    }

    // Scan the statement, brace/paren aware, for a `.lock()` in the
    // initializer itself (depth 0 — a lock taken inside a nested block
    // or call argument does not outlive that subexpression) and for the
    // statement end.
    let mut depth = 0i32;
    let mut j = k + 1;
    let mut lock_close: Option<usize> = None;
    let end = loop {
        let t = toks.get(j)?;
        if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
            if depth < 0 {
                break j; // unbalanced: treat as statement end
            }
        } else if t.is_punct(';') && depth == 0 {
            break j;
        } else if depth == 0
            && t.is_punct('.')
            && ctx.ident(j + 1) == Some("lock")
            && ctx.punct(j + 2, '(')
            && lock_close.is_none()
        {
            lock_close = matching(toks, j + 2, '(', ')');
        }
        j += 1;
    };

    let Some(mut j) = lock_close.map(|c| c + 1) else {
        return Some((name, false, end));
    };
    // Guard-ness: only pass-through tokens may follow the `.lock()`.
    let is_guard = loop {
        if j >= end {
            break true;
        }
        let t = &toks[j];
        if t.is_punct('?') {
            j += 1;
        } else if t.is_punct('.')
            && ctx
                .ident(j + 1)
                .is_some_and(|m| GUARD_PASSTHROUGH.contains(&m))
            && ctx.punct(j + 2, '(')
        {
            match matching(toks, j + 2, '(', ')') {
                Some(c) => j = c + 1,
                None => break false,
            }
        } else if t.is_ident("else") && ctx.punct(j + 1, '{') {
            match matching(toks, j + 1, '{', '}') {
                Some(c) => j = c + 1,
                None => break false,
            }
        } else if t.is_punct(';') {
            break true;
        } else {
            break false;
        }
    };
    Some((name, is_guard, end))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(lint: LintId, src: &str) -> Vec<Finding> {
        lint_source("test.rs", src, &[lint])
    }

    #[test]
    fn wall_clock_fires_on_instant_now_and_system_time() {
        let f = run(
            LintId::WallClock,
            "fn decode() { let t = Instant::now(); let s = std::time::SystemTime::now(); }",
        );
        assert_eq!(f.len(), 2, "{f:?}");
        assert_eq!(f[0].line, 1);
        let clean = run(
            LintId::WallClock,
            "fn decode(branches: u64) -> u64 { branches }",
        );
        assert!(clean.is_empty());
    }

    #[test]
    fn panic_freedom_catches_the_catalog() {
        let src = r#"
fn handle(v: &[u8]) -> u8 {
    let a = v.first().unwrap();
    let b = v.first().expect("nonempty");
    if v.is_empty() { panic!("empty"); }
    v[0]
}
"#;
        let f = run(LintId::PanicFreedom, src);
        let kinds: Vec<&str> = f
            .iter()
            .map(|f| f.message.split_whitespace().next().unwrap())
            .collect();
        assert_eq!(f.len(), 4, "{kinds:?}");
        assert_eq!(f[0].line, 3);
        assert_eq!(f[1].line, 4);
        assert_eq!(f[2].line, 5);
        assert_eq!(f[3].line, 6, "indexing");
    }

    #[test]
    fn panic_freedom_allows_ranges_types_and_tests() {
        let src = r#"
fn ok(v: &[u8], n: usize) -> &[u8] {
    let _arr: [u8; 8] = [0; 8];
    let _d = v.first().unwrap_or(&0);
    debug_assert!(n <= v.len());
    &v[..n]
}
#[cfg(test)]
mod tests {
    #[test]
    fn t() { let v = vec![1]; assert_eq!(v[0], v.first().unwrap().clone()); }
}
"#;
        let f = run(LintId::PanicFreedom, src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn determinism_sees_fields_lets_and_for_loops() {
        let src = r#"
struct S { entities: HashMap<u32, u64> }
impl S {
    fn report(&self) -> String {
        let mut out = String::new();
        for (k, v) in self.entities.iter() { out.push_str(&format!("{k}={v}")); }
        out
    }
}
fn f() {
    let mut seen = std::collections::HashSet::new();
    seen.insert(1);
    for s in &seen { println!("{s}"); }
}
"#;
        let f = run(LintId::Determinism, src);
        assert_eq!(f.len(), 2, "{f:?}");
        assert_eq!(f[0].line, 6);
        assert_eq!(f[1].line, 13);
    }

    #[test]
    fn determinism_is_quiet_on_btree_and_point_lookups() {
        let src = r#"
struct S { entities: BTreeMap<u32, u64>, index: HashMap<u32, u64> }
impl S {
    fn get(&self, k: u32) -> Option<&u64> { self.index.get(&k) }
    fn report(&self) -> Vec<u64> { self.entities.values().copied().collect() }
}
"#;
        let f = run(LintId::Determinism, src);
        assert!(
            f.is_empty(),
            "point lookups and BTreeMap iteration are fine: {f:?}"
        );
    }

    #[test]
    fn lock_scope_catches_guard_and_chain_blocking() {
        let src = r#"
fn bad(state: &std::sync::Mutex<Vec<u8>>, sock: &mut std::net::TcpStream) {
    let mut st = state.lock().unwrap();
    st.push(1);
    sock.write_all(&st).unwrap();
}
fn bad_chain(inner: &Inner, wire: &[u8]) {
    inner.writer.lock().unwrap().write_all(wire).unwrap();
}
"#;
        let f = run(LintId::LockScope, src);
        assert_eq!(f.len(), 2, "{f:?}");
        assert_eq!(f[0].line, 5);
        assert!(f[0].message.contains("`st`"), "{}", f[0].message);
        assert_eq!(f[1].line, 8);
    }

    #[test]
    fn lock_scope_respects_drop_scope_end_and_temporaries() {
        let src = r#"
fn ok(state: &std::sync::Mutex<Vec<u8>>, sock: &mut std::net::TcpStream) {
    let queued = {
        let mut st = state.lock().unwrap();
        st.push(1);
        st.clone()
    };
    sock.write_all(&queued).unwrap();
}
fn ok_drop(state: &std::sync::Mutex<Vec<u8>>, sock: &mut std::net::TcpStream) {
    let mut st = state.lock().unwrap();
    st.push(1);
    drop(st);
    sock.write_all(&[1]).unwrap();
}
fn ok_temp_value(state: &std::sync::Mutex<Vec<u8>>) {
    let over = state.lock().unwrap().len() > 4;
    std::thread::sleep(std::time::Duration::from_millis(5));
    let _ = over;
}
"#;
        let f = run(LintId::LockScope, src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn lock_scope_sees_match_scrutinee_temporaries() {
        let src = r#"
fn bad(q: &std::sync::Mutex<Vec<Vec<u8>>>, sock: &mut std::net::TcpStream) {
    match q.lock() {
        Ok(mut g) => { sock.write_all(&g.pop().unwrap()).unwrap(); }
        Err(_) => {}
    }
    sock.flush().unwrap();
}
"#;
        let f = run(LintId::LockScope, src);
        // write_all under the scrutinee temporary fires; the flush after
        // the match (guard dead) must not.
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn checkpoint_paths_are_in_scope() {
        // The checkpoint layer is on the lint surface: the .stck
        // and completed.jsonl codecs must stay panic-free, and the
        // shard/resume drivers must stay wall-clock-free (their outputs
        // are byte-diffed against sequential runs).
        for path in [
            "crates/sim/src/checkpoint.rs",
            "crates/engine/src/resume.rs",
        ] {
            assert!(LintId::PanicFreedom.applies_to(path), "{path}");
        }
        for path in ["crates/engine/src/shard.rs", "crates/engine/src/resume.rs"] {
            assert!(LintId::WallClock.applies_to(path), "{path}");
        }
        assert!(LintId::Determinism.applies_to("crates/sim/src/checkpoint.rs"));
        // The CLI bench layer times on purpose and must stay out.
        assert!(!LintId::WallClock.applies_to("crates/cli/src/bench_cmd.rs"));
    }

    #[test]
    fn checkpoint_decode_bad_twin_fires_and_good_twin_is_clean() {
        // Bad twin: a .stck-style decoder that panics on truncated or
        // corrupt input instead of returning a positioned error.
        let bad = r#"
fn decode(data: &[u8]) -> (u16, u64) {
    let version = u16::from_le_bytes(data[4..6].try_into().unwrap());
    let seed = parse_varint(&data[8..]).expect("varint");
    (version, seed)
}
"#;
        let f = run(LintId::PanicFreedom, bad);
        // Range indexing is out of the lint's scope (reviewed manually),
        // so the unwrap and the expect are the two findings.
        assert_eq!(f.len(), 2, "{f:?}");
        // Good twin: every miss becomes an error value.
        let good = r#"
fn decode(data: &[u8]) -> Result<(u16, u64), CheckpointError> {
    let v = data
        .get(4..6)
        .ok_or_else(|| CheckpointError::truncated(4))?;
    let version = u16::from_le_bytes(v.try_into().map_err(|_| CheckpointError::truncated(4))?);
    let rest = data.get(8..).ok_or_else(|| CheckpointError::truncated(8))?;
    let seed = parse_varint(rest)?;
    Ok((version, seed))
}
"#;
        let f = run(LintId::PanicFreedom, good);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn shard_driver_bad_twin_fires_on_wall_clock_reads() {
        // Bad twin: timing inside the shard driver (timing belongs in the
        // CLI bench layer, outside the byte-parity surface).
        let bad = r#"
fn run_segment(events: u64) -> f64 {
    let start = std::time::Instant::now();
    feed(events);
    start.elapsed().as_secs_f64()
}
"#;
        let f = run(LintId::WallClock, bad);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 3);
        let good = "fn run_segment(events: u64) -> u64 { feed(events); events }";
        assert!(run(LintId::WallClock, good).is_empty());
    }

    #[test]
    fn phase_paths_are_in_scope() {
        // The phase-clustering layer is on the lint surface: the
        // .stbp codec and BBV extractor must stay panic-free (they run
        // inside the CI figure-estimation gate), the whole phases crate
        // must stay deterministic and wall-clock-free (phase selection
        // orders `.stbp` bytes CI diffs), and the engine's phase driver
        // must stay wall-clock-free (its estimates are diffed against
        // ci/simpoint-reference.json).
        for path in ["crates/phases/src/file.rs", "crates/trace/src/bbv.rs"] {
            assert!(LintId::PanicFreedom.applies_to(path), "{path}");
        }
        for path in [
            "crates/phases/src/cluster.rs",
            "crates/phases/src/file.rs",
            "crates/engine/src/phases.rs",
        ] {
            assert!(LintId::WallClock.applies_to(path), "{path}");
        }
        assert!(LintId::Determinism.applies_to("crates/phases/src/cluster.rs"));
        // The bench layer wraps the estimation in timing on purpose.
        assert!(!LintId::WallClock.applies_to("crates/cli/src/bench_cmd.rs"));
        // The clustering internals may unwrap on invariants the builder
        // establishes — only the codec and extractor are panic-scoped.
        assert!(!LintId::PanicFreedom.applies_to("crates/phases/src/cluster.rs"));
    }

    #[test]
    fn kmeans_hash_iteration_bad_twin_fires_and_btree_twin_is_clean() {
        // Bad twin: a centroid update that accumulates members in a
        // HashMap and iterates it — the iteration order decides tie-broken
        // representative picks, which reach `.stbp` bytes CI diffs.
        let bad = r#"
fn update_centroids(assign: &[usize], dims: usize) -> Vec<Vec<f64>> {
    let mut members: HashMap<usize, Vec<usize>> = HashMap::new();
    for (slice, &c) in assign.iter().enumerate() {
        members.entry(c).or_default().push(slice);
    }
    let mut out = Vec::new();
    for (c, slices) in members.iter() {
        let _ = (c, slices, dims);
        out.push(vec![0.0; dims]);
    }
    out
}
"#;
        let f = run(LintId::Determinism, bad);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("`members`"), "{}", f[0].message);
        // Good twin: BTreeMap accumulation — iteration order is the key
        // order, stable across runs and toolchains.
        let good = r#"
fn update_centroids(assign: &[usize], dims: usize) -> Vec<Vec<f64>> {
    let mut members: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (slice, &c) in assign.iter().enumerate() {
        members.entry(c).or_default().push(slice);
    }
    let mut out = Vec::new();
    for (c, slices) in members.iter() {
        let _ = (c, slices, dims);
        out.push(vec![0.0; dims]);
    }
    out
}
"#;
        let f = run(LintId::Determinism, good);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn stbp_decode_bad_twin_fires_and_good_twin_is_clean() {
        // Bad twin: a .stbp-style decoder that panics on short input
        // instead of returning a positioned PhaseError.
        let bad = r#"
fn decode_phase_header(data: &[u8]) -> (u16, u64) {
    let version = u16::from_le_bytes(data[4..6].try_into().unwrap());
    let slice_branches = read_varint(&data[8..]).expect("slice size");
    (version, slice_branches)
}
"#;
        let f = run(LintId::PanicFreedom, bad);
        assert_eq!(f.len(), 2, "{f:?}");
        // Good twin: the shape crates/phases/src/file.rs actually uses —
        // every miss becomes a PhaseError with the failing offset.
        let good = r#"
fn decode_phase_header(data: &[u8]) -> Result<(u16, u64), PhaseError> {
    let v = data.get(4..6).ok_or_else(|| PhaseError::truncated(4))?;
    let version = u16::from_le_bytes(v.try_into().map_err(|_| PhaseError::truncated(4))?);
    let rest = data.get(8..).ok_or_else(|| PhaseError::truncated(8))?;
    let slice_branches = read_varint(rest)?;
    Ok((version, slice_branches))
}
"#;
        let f = run(LintId::PanicFreedom, good);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn cbp_and_predictor_paths_are_in_scope() {
        // The real-trace frontend and predictor family are on the lint
        // surface: the CBP decoder consumes untrusted
        // championship traces and must stay total (positioned errors,
        // never panics), the ITTAGE snapshot loader consumes `.stck`
        // bytes from disk, and the predictors crate as a whole must stay
        // deterministic and wall-clock-free (its allocation lfsr reaches
        // OAE numbers CI diffs against golden fixtures).
        for path in ["crates/trace/src/cbp.rs", "crates/predictors/src/ittage.rs"] {
            assert!(LintId::PanicFreedom.applies_to(path), "{path}");
        }
        for path in [
            "crates/predictors/src/ittage.rs",
            "crates/predictors/src/tage.rs",
            "crates/predictors/src/target.rs",
        ] {
            assert!(LintId::Determinism.applies_to(path), "{path}");
            assert!(LintId::WallClock.applies_to(path), "{path}");
        }
        // Only the snapshot-consuming ITTAGE file is panic-scoped; the
        // rest of the crate may assert on builder-established invariants.
        assert!(!LintId::PanicFreedom.applies_to("crates/predictors/src/tage.rs"));
    }

    #[test]
    fn cbp_decode_bad_twin_fires_and_good_twin_is_clean() {
        // Bad twin: a CBP-record decoder that panics on truncated or
        // out-of-range input instead of returning a positioned CbpError.
        let bad = r#"
fn decode_record(data: &[u8], off: usize) -> (u64, u8, u64) {
    let pc = u64::from_le_bytes(data[off..off + 8].try_into().unwrap());
    let kind = data[off + 8];
    if kind > 5 {
        panic!("bad branch type {kind}");
    }
    let target = read_le_u64(&data[off + 10..]).expect("target");
    (pc, kind, target)
}
"#;
        let f = run(LintId::PanicFreedom, bad);
        // The unwrap, the single index, the panic!, and the expect.
        assert_eq!(f.len(), 4, "{f:?}");
        // Good twin: the shape crates/trace/src/cbp.rs actually uses —
        // every miss becomes a CbpError carrying the failing offset.
        let good = r#"
fn decode_record(data: &[u8], off: usize) -> Result<(u64, u8, u64), CbpError> {
    let pc_bytes = data.get(off..off + 8).ok_or_else(|| CbpError::truncated(off))?;
    let pc = u64::from_le_bytes(pc_bytes.try_into().map_err(|_| CbpError::truncated(off))?);
    let kind = *data.get(off + 8).ok_or_else(|| CbpError::truncated(off + 8))?;
    if kind > 5 {
        return Err(CbpError::bad_type(off + 8, kind));
    }
    let rest = data.get(off + 10..).ok_or_else(|| CbpError::truncated(off + 10))?;
    let target = read_le_u64(rest)?;
    Ok((pc, kind, target))
}
"#;
        let f = run(LintId::PanicFreedom, good);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn ittage_allocation_bad_twin_fires_on_hash_iteration() {
        // Bad twin: picking an ITTAGE allocation victim by iterating a
        // HashMap — the iteration order decides which table is stolen,
        // which reaches OAE numbers diffed against golden fixtures.
        let bad = r#"
fn pick_victim(candidates: &HashMap<usize, u8>) -> Vec<usize> {
    let mut picks = Vec::new();
    for (table, u) in candidates.iter() {
        if *u == 0 {
            picks.push(*table);
        }
    }
    picks
}
"#;
        let f = run(LintId::Determinism, bad);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("`candidates`"), "{}", f[0].message);
        // Good twin: the shape ittage.rs actually uses — a seeded
        // xorshift lfsr scans tables in index order.
        let good = r#"
fn pick_victim(candidates: &[u8], lfsr: &mut u64) -> Option<usize> {
    *lfsr ^= *lfsr << 13;
    *lfsr ^= *lfsr >> 7;
    *lfsr ^= *lfsr << 17;
    let skip = (*lfsr & 1) == 1;
    let mut seen = 0usize;
    for (table, u) in candidates.iter().enumerate() {
        if *u == 0 {
            if skip && seen == 0 {
                seen = 1;
                continue;
            }
            return Some(table);
        }
    }
    None
}
"#;
        let f = run(LintId::Determinism, good);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn clustering_bad_twin_fires_on_wall_clock_seeding() {
        // Bad twin: seeding k-means restarts from the host clock — the
        // clustering (and with it every estimate) would differ per run.
        let bad = r#"
fn pick_restart_seed(base: u64) -> u64 {
    let t = std::time::SystemTime::now();
    base ^ hash(t)
}
"#;
        let f = run(LintId::WallClock, bad);
        assert_eq!(f.len(), 1, "{f:?}");
        let good =
            "fn pick_restart_seed(base: u64, restart: u64) -> u64 { splitmix(base ^ restart) }";
        assert!(run(LintId::WallClock, good).is_empty());
    }

    #[test]
    fn lint_ids_round_trip() {
        for l in LintId::ALL {
            assert_eq!(LintId::from_name(l.name()), Some(*l));
            assert!(!l.summary().is_empty() && !l.rationale().is_empty());
        }
        assert_eq!(LintId::from_name("nope"), None);
    }
}
