//! The rule catalog.
//!
//! Each rule machine-checks one source-level invariant behind the workspace's
//! runtime guarantees (bitwise-deterministic solves across thread counts,
//! bitwise golden fixtures, cross-backend differential bounds).  See
//! `AUDIT.md` at the workspace root for the full catalog: what each rule
//! protects, and how to annotate a justified exception.
//!
//! Exceptions are granted by an `audit: allow(<rule-id>) — <reason>` comment
//! on the offending line or on the immediately preceding comment line.  The
//! reason is mandatory; the `panic` rule additionally requires it to state the
//! `invariant:` that makes the site unreachable.

use crate::lexer::ScannedFile;

/// Stable rule identifiers — these appear in findings, annotations, and the
/// baseline file, so they must never change meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// Hash-ordered containers in crates whose output must be
    /// submission-ordered / bitwise.
    NondetIter,
    /// Reassociating float reductions outside the blessed deterministic
    /// reduction homes.
    FloatReduction,
    /// `unwrap`/`expect`/`panic!`-family calls in library (non-test) paths.
    Panic,
    /// Missing `#![forbid(unsafe_code)]` on crate roots; unsafe blocks
    /// without a `SAFETY:` comment and an `UNSAFE_LEDGER.md` entry.
    Unsafe,
    /// Wall-clock reads outside `mffv-perf`, `mffv-telemetry` and the
    /// monitor/deadline module.
    WallClock,
    /// `Ordering::Relaxed` on atomics (cross-thread control flow must use
    /// acquire/release or stronger).
    AtomicsOrdering,
}

impl RuleId {
    pub const ALL: [RuleId; 6] = [
        RuleId::NondetIter,
        RuleId::FloatReduction,
        RuleId::Panic,
        RuleId::Unsafe,
        RuleId::WallClock,
        RuleId::AtomicsOrdering,
    ];

    /// The stable textual id used in findings, annotations, and baselines.
    pub fn id(self) -> &'static str {
        match self {
            RuleId::NondetIter => "nondet-iter",
            RuleId::FloatReduction => "float-reduction",
            RuleId::Panic => "panic",
            RuleId::Unsafe => "unsafe",
            RuleId::WallClock => "wall-clock",
            RuleId::AtomicsOrdering => "atomics-ordering",
        }
    }

    pub fn from_id(s: &str) -> Option<RuleId> {
        RuleId::ALL.iter().copied().find(|r| r.id() == s)
    }
}

/// One rule violation at a specific source line.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line (0 for whole-file findings such as a missing crate-root
    /// attribute).
    pub line: usize,
    pub rule: RuleId,
    pub message: String,
    pub suggestion: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{} {} {} ({})",
            self.file,
            self.line,
            self.rule.id(),
            self.message,
            self.suggestion
        )
    }
}

/// Crates whose reports/fixtures are contractually submission-ordered or
/// bitwise-reproducible: hash-ordered iteration and unblessed float
/// reductions are forbidden here (rules 1 and 2).
const ORDERED_CRATES: [&str; 8] = [
    "mffv",
    "mffv-engine",
    "mffv-solver",
    "mffv-fv",
    "mffv-mesh",
    "mffv-core",
    "mffv-telemetry",
    "mffv-serve",
];

/// Files that ARE the blessed deterministic-reduction implementations: the
/// float-reduction rule does not apply to the homes of `fabric_ordered_dot`
/// (`mffv_solver::reduction`), `det_dot`/`det_norm_squared`
/// (`mffv_fv::plan`), and the sequential-fold helper itself
/// (`mffv_mesh::reduce`).
const REDUCTION_HOMES: [&str; 3] = [
    "crates/solver/src/reduction.rs",
    "crates/fv/src/plan.rs",
    "crates/mesh/src/reduce.rs",
];

/// Modules allowed to read the wall clock: the perf crate exists to time
/// things, the telemetry crate is the blessed home for every other timing
/// read (`Stopwatch`, tracer epochs), and the monitor module implements
/// deadline stop policies.
const WALL_CLOCK_HOMES: [&str; 1] = ["crates/solver/src/monitor.rs"];

/// Per-file facts derived from the workspace-relative path.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Workspace crate the file belongs to (`mffv`, `mffv-solver`, …).
    pub crate_name: String,
    /// Whether this file is a crate root (`lib.rs`) that must carry
    /// `#![forbid(unsafe_code)]`.
    pub is_crate_root: bool,
    /// Whether the file is test/example/bench-only by path convention.
    pub is_test_path: bool,
}

impl FileContext {
    /// Classify a workspace-relative path.
    pub fn classify(rel_path: &str) -> FileContext {
        let crate_name = if let Some(rest) = rel_path.strip_prefix("crates/") {
            let dir = rest.split('/').next().unwrap_or("");
            format!("mffv-{dir}")
        } else {
            "mffv".to_string()
        };
        let is_crate_root = rel_path == "src/lib.rs"
            || (rel_path.starts_with("crates/") && rel_path.ends_with("/src/lib.rs"));
        let is_test_path = rel_path
            .split('/')
            .any(|seg| seg == "tests" || seg == "examples" || seg == "benches" || seg == "bin");
        FileContext {
            crate_name,
            is_crate_root,
            is_test_path,
        }
    }
}

/// Whether line `idx` of `file` carries (or inherits from the line above) an
/// `audit: allow(<rule>) — <reason>` annotation with a non-empty reason.
fn is_allowed(file: &ScannedFile, idx: usize, rule: RuleId) -> bool {
    let marker = format!("audit: allow({})", rule.id());
    let annotation = |comment: &str| -> bool {
        let Some(pos) = comment.find(&marker) else {
            return false;
        };
        let reason = comment[pos + marker.len()..]
            .trim_start_matches(|c: char| c.is_whitespace() || c == '—' || c == '-' || c == ':');
        if reason.trim().is_empty() {
            return false;
        }
        // The panic rule demands the justification name the invariant that
        // makes the site unreachable.
        rule != RuleId::Panic || reason.contains("invariant:")
    };
    if annotation(&file.lines[idx].comment) {
        return true;
    }
    // A standalone annotation in the contiguous block of comment-only lines
    // directly above the offending line (annotations may wrap).  Attribute
    // lines (e.g. the clippy mirrors' `#[allow(clippy::disallowed_methods)]`)
    // are transparent: the annotation may sit above them.
    let mut i = idx;
    while i > 0 {
        let above = &file.lines[i - 1];
        let code = above.code.trim();
        let is_attribute = code.starts_with("#[") || code.starts_with("#![");
        if !code.is_empty() && !is_attribute {
            break;
        }
        if !is_attribute && above.comment.is_empty() {
            break;
        }
        if annotation(&above.comment) {
            return true;
        }
        i -= 1;
    }
    false
}

/// Substring match that, for patterns beginning with an identifier character,
/// requires the character before the match to not itself be part of an
/// identifier (so `Ordering::Relaxed` does not match inside an invented
/// `MyOrdering::Relaxed`).  Patterns beginning with `.`/`#` are already
/// self-delimiting.
fn contains_token(code: &str, pattern: &str) -> bool {
    let ident_start = pattern
        .chars()
        .next()
        .is_some_and(|c| c.is_alphanumeric() || c == '_');
    if !ident_start {
        return code.contains(pattern);
    }
    let mut start = 0;
    while let Some(pos) = code[start..].find(pattern) {
        let abs = start + pos;
        let boundary = abs == 0
            || !code[..abs]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if boundary {
            return true;
        }
        start = abs + pattern.len();
    }
    false
}

/// Run every rule over one scanned file.  `ledger` is the content of
/// `UNSAFE_LEDGER.md` if it exists at the workspace root.
pub fn check_file(file: &ScannedFile, ctx: &FileContext, ledger: Option<&str>) -> Vec<Finding> {
    let mut findings = Vec::new();
    rule_nondet_iter(file, ctx, &mut findings);
    rule_float_reduction(file, ctx, &mut findings);
    rule_panic(file, ctx, &mut findings);
    rule_unsafe(file, ctx, ledger, &mut findings);
    rule_wall_clock(file, ctx, &mut findings);
    rule_atomics_ordering(file, ctx, &mut findings);
    findings.sort();
    findings
}

/// Rule 1 — nondet-iter: `HashMap`/`HashSet` forbidden in library code of the
/// ordered crates.  Hash-seeded iteration order must never feed reports,
/// name assignment, or anything else a golden fixture can see.
fn rule_nondet_iter(file: &ScannedFile, ctx: &FileContext, out: &mut Vec<Finding>) {
    if !ORDERED_CRATES.contains(&ctx.crate_name.as_str()) || ctx.is_test_path {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for ty in ["HashMap", "HashSet"] {
            if contains_token(&line.code, ty) && !is_allowed(file, idx, RuleId::NondetIter) {
                out.push(Finding {
                    file: file.rel_path.clone(),
                    line: line.number,
                    rule: RuleId::NondetIter,
                    message: format!(
                        "{ty} in ordered crate `{}`: hash-seeded iteration order must not reach submission-ordered or bitwise output",
                        ctx.crate_name
                    ),
                    suggestion: format!(
                        "use BTree{} or annotate `audit: allow(nondet-iter) — <why order cannot leak>`",
                        &ty[4..]
                    ),
                });
            }
        }
    }
}

/// Rule 2 — float-reduction: `.sum::<f32/f64>()`, typed float `.sum()` /
/// `.product()`, and `fold(0.0, …)` reassociate under iterator fusion and
/// break the PR-4 slab-ordering contract.  All float reductions in ordered
/// crates must go through the blessed homes (`mffv_solver::reduction`,
/// `mffv_fv::plan::{det_dot, det_norm_squared}`, `mffv_mesh::reduce`).
fn rule_float_reduction(file: &ScannedFile, ctx: &FileContext, out: &mut Vec<Finding>) {
    if !ORDERED_CRATES.contains(&ctx.crate_name.as_str()) || ctx.is_test_path {
        return;
    }
    if REDUCTION_HOMES.contains(&file.rel_path.as_str()) {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let code = &line.code;
        let turbofish = code.contains(".sum::<f32>")
            || code.contains(".sum::<f64>")
            || code.contains(".product::<f32>")
            || code.contains(".product::<f64>");
        // `let total: f64 = xs.iter().sum();` — untyped call site whose float
        // type is visible within the same (possibly wrapped) statement: walk
        // back while the preceding line does not end a statement or open a
        // block, so a binding's type annotation is seen but a neighbouring
        // function's `f64` is not.  A line lexer cannot do type inference;
        // see AUDIT.md for what this heuristic can and cannot catch.
        let mut stmt_start = idx;
        while stmt_start > 0 {
            let prev = file.lines[stmt_start - 1].code.trim_end();
            if prev.ends_with(';') || prev.ends_with('{') || prev.ends_with('}') {
                break;
            }
            stmt_start -= 1;
        }
        let window = file.lines[stmt_start..=idx]
            .iter()
            .map(|l| l.code.as_str())
            .collect::<Vec<_>>()
            .join("\n");
        let typed_line = (code.contains(".sum()") || code.contains(".product()"))
            && (contains_token(&window, "f32") || contains_token(&window, "f64"));
        let float_fold = code.contains(".fold(0.0") || code.contains(".fold(1.0");
        if (turbofish || typed_line || float_fold) && !is_allowed(file, idx, RuleId::FloatReduction)
        {
            out.push(Finding {
                file: file.rel_path.clone(),
                line: line.number,
                rule: RuleId::FloatReduction,
                message: "unblessed float reduction: iterator sums/folds reassociate and break the slab-ordering bitwise contract".into(),
                suggestion: "route through mffv_mesh::reduce::seq_sum / mffv_fv::det_dot, or annotate `audit: allow(float-reduction) — <reassociation-safe rationale>`".into(),
            });
        }
    }
}

/// Rule 3 — panic: `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/
/// `unimplemented!` in non-test library paths must either become proper error
/// returns or carry an `audit: allow(panic) — invariant:` justification.
/// (Assert macros are deliberately out of scope: they state preconditions.)
fn rule_panic(file: &ScannedFile, ctx: &FileContext, out: &mut Vec<Finding>) {
    if ctx.is_test_path {
        return;
    }
    const PATTERNS: [&str; 6] = [
        ".unwrap()",
        ".expect(",
        "panic!",
        "unreachable!",
        "todo!",
        "unimplemented!",
    ];
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for pat in PATTERNS {
            if contains_token(&line.code, pat) && !is_allowed(file, idx, RuleId::Panic) {
                out.push(Finding {
                    file: file.rel_path.clone(),
                    line: line.number,
                    rule: RuleId::Panic,
                    message: format!("`{pat}` in library path: a panicking solve takes down its worker, not just its job"),
                    suggestion: "return a SolveError/validation Result, or annotate `audit: allow(panic) — invariant: <why unreachable>`".into(),
                });
                break;
            }
        }
    }
}

/// Rule 4 — unsafe: every crate root must `#![forbid(unsafe_code)]`; any
/// future opt-out must pair each `unsafe` block with a `SAFETY:` comment and
/// register the file in `UNSAFE_LEDGER.md` at the workspace root.
fn rule_unsafe(
    file: &ScannedFile,
    ctx: &FileContext,
    ledger: Option<&str>,
    out: &mut Vec<Finding>,
) {
    if ctx.is_crate_root && !file.any_code_contains("#![forbid(unsafe_code)]") {
        out.push(Finding {
            file: file.rel_path.clone(),
            line: 0,
            rule: RuleId::Unsafe,
            message: "crate root missing `#![forbid(unsafe_code)]`".into(),
            suggestion: "add the attribute; unsafe code requires a SAFETY: comment and an UNSAFE_LEDGER.md entry".into(),
        });
    }
    for (idx, line) in file.lines.iter().enumerate() {
        if !contains_token(&line.code, "unsafe ") && !contains_token(&line.code, "unsafe{") {
            continue;
        }
        // `forbid(unsafe_code)`/`deny(unsafe_code)` attribute lines are not
        // unsafe blocks.
        if line.code.contains("unsafe_code") {
            continue;
        }
        let has_safety_comment = line.comment.contains("SAFETY:")
            || (idx > 0 && file.lines[idx - 1].comment.contains("SAFETY:"));
        let in_ledger = ledger.is_some_and(|l| l.contains(&file.rel_path));
        if !has_safety_comment || !in_ledger {
            out.push(Finding {
                file: file.rel_path.clone(),
                line: line.number,
                rule: RuleId::Unsafe,
                message: "unsafe block without a `// SAFETY:` comment registered in UNSAFE_LEDGER.md".into(),
                suggestion: "document the safety argument on the preceding line and add the file to UNSAFE_LEDGER.md".into(),
            });
        }
    }
}

/// Rule 5 — wall-clock: `Instant::now`/`SystemTime` forbidden outside
/// `mffv-perf`, `mffv-telemetry` and the monitor/deadline module.
/// Elapsed-time *telemetry* belongs in `mffv-telemetry` (`Stopwatch`, span
/// clocks) so report latency fields need no per-line waivers; a wall-clock
/// read anywhere else either moves behind those types or explains itself —
/// one that feeds a numeric decision silently breaks run-to-run
/// reproducibility.
fn rule_wall_clock(file: &ScannedFile, ctx: &FileContext, out: &mut Vec<Finding>) {
    if ctx.crate_name == "mffv-perf"
        || ctx.crate_name == "mffv-telemetry"
        || WALL_CLOCK_HOMES.contains(&file.rel_path.as_str())
        || ctx.is_test_path
    {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        if (contains_token(&line.code, "Instant::now") || contains_token(&line.code, "SystemTime"))
            && !is_allowed(file, idx, RuleId::WallClock)
        {
            out.push(Finding {
                file: file.rel_path.clone(),
                line: line.number,
                rule: RuleId::WallClock,
                message: "wall-clock read outside mffv-perf / mffv-telemetry / the monitor deadline module".into(),
                suggestion: "time through mffv_telemetry::Stopwatch (or move into mffv-perf), or annotate `audit: allow(wall-clock) — telemetry: <what it feeds>`".into(),
            });
        }
    }
}

/// Rule 6 — atomics-ordering: `Ordering::Relaxed` on a cross-thread
/// control-flow atomic (cancel token, queue shutdown flag) lets a stop signal
/// be observed arbitrarily late.  A static pass cannot prove which atomics
/// are control-flow, so every `Relaxed` needs a justification.
fn rule_atomics_ordering(file: &ScannedFile, ctx: &FileContext, out: &mut Vec<Finding>) {
    if ctx.is_test_path {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        if contains_token(&line.code, "Ordering::Relaxed")
            && !is_allowed(file, idx, RuleId::AtomicsOrdering)
        {
            out.push(Finding {
                file: file.rel_path.clone(),
                line: line.number,
                rule: RuleId::AtomicsOrdering,
                message: "Ordering::Relaxed: a relaxed load/store on a control-flow atomic can delay cancellation/shutdown indefinitely".into(),
                suggestion: "use Acquire/Release (or SeqCst), or annotate `audit: allow(atomics-ordering) — <why not control-flow>`".into(),
            });
        }
    }
}
