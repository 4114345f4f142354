//! Sustained steady-state serving throughput benchmark.
//!
//! Drives the pooled serving path (`SolveContext`: keyed operator cache +
//! reusable Krylov scratch) through a long run of identical steady jobs —
//! the daemon-session steady state — and proves the three claims the
//! serving path makes (see README "Serving at steady state"):
//!
//! * **flat throughput** — each window's pooled seconds over the seconds of
//!   a fixed control timed after every job (host noise slows both) spread
//!   by at most 10% of their mean (`paired_spread_pct`), enforced by
//!   `--check` when the run is at least 1000 jobs;
//! * **zero allocations** — a counting global allocator shows zero heap
//!   allocations per job once the context is warm, for every
//!   preconditioner (`--precond none|jacobi|mg`);
//! * **bitwise invisibility** — every pooled residual history is bitwise
//!   identical to a cold, fresh-context solve of the same workload.
//!
//! Also times the engine batch path (warm per-worker contexts) and checks
//! every report against a serial fresh-context `JobSpec::execute` of the
//! same job, bit for bit.  Emits machine-readable `BENCH_engine.json`:
//!
//! ```text
//! cargo run --release -p mffv-bench --bin engine_bench -- \
//!     --nx 16 --ny 16 --nz 8 --jobs 10000 --windows 10 --workers 2 \
//!     --precond jacobi --out BENCH_engine.json [--check]
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mffv::perf::timing::time_rounds;
use mffv::prelude::*;
use mffv::telemetry::Stopwatch;
use mffv_bench::{machine_json, Flags};

/// Heap acquisitions since process start.  `realloc`/`alloc_zeroed` keep
/// their default implementations, which route through `alloc`, so every
/// acquisition path is counted.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: a transparent pass-through to `System` — every method forwards verbatim.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: the caller's layout contract is forwarded to `System` as-is.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    // SAFETY: `ptr` came from `alloc` above with the same layout, valid for `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// `--precond`'s value.
struct Precond(PreconditionerKind);

impl std::str::FromStr for Precond {
    type Err = ();
    fn from_str(label: &str) -> Result<Precond, ()> {
        PreconditionerKind::parse(label).map(Precond).ok_or(())
    }
}

/// One pooled solve returning the allocation delta across it.
fn pooled_solve(
    ctx: &mut SolveContext<f64>,
    workload: &Workload,
    config: &SolveConfig,
    span: &Span,
) -> u64 {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let stopped = ctx.solve(workload, config, &mut NullMonitor, span);
    assert!(stopped.is_none(), "steady solve must converge");
    ALLOCATIONS.load(Ordering::SeqCst) - before
}

/// The largest deviation of any window's value from their mean, in percent.
fn max_deviation_pct(windows: &[f64]) -> f64 {
    let mean = windows.iter().sum::<f64>() / windows.len() as f64;
    windows
        .iter()
        .map(|w| ((w - mean) / mean).abs() * 100.0)
        .fold(0.0, f64::max)
}

/// The spread (max − min) of the windows' values over their mean, in percent.
fn spread_pct(windows: &[f64]) -> f64 {
    let mean = windows.iter().sum::<f64>() / windows.len() as f64;
    let max = windows.iter().copied().fold(f64::MIN, f64::max);
    let min = windows.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / mean * 100.0
}

/// Whether the context's last history matches `reference` bit for bit,
/// without allocating.
fn history_matches(ctx: &SolveContext<f64>, reference: &[u64]) -> bool {
    let history = &ctx.history().residual_norms_squared;
    history.len() == reference.len()
        && history
            .iter()
            .zip(reference.iter())
            .all(|(value, bits)| value.to_bits() == *bits)
}

fn main() {
    let mut flags = Flags::new(std::env::args().skip(1), &["--check"]);
    let nx = flags.value("--nx", 16);
    let ny = flags.value("--ny", 16);
    let nz = flags.value("--nz", 8);
    let jobs = flags.value("--jobs", 10_000).max(1);
    let windows = flags.value("--windows", 10).max(1);
    let workers = flags.value("--workers", 2).max(1);
    let Precond(precond) = flags.value("--precond", Precond(PreconditionerKind::Jacobi));
    let out = flags.value("--out", "BENCH_engine.json".to_string());
    let check = flags.switch("--check");
    flags.finish();
    let dims = Dims::new(nx, ny, nz);
    let spec = WorkloadSpec::paper_grid(nx, ny, nz);
    let workload = Workload::try_from_spec(&spec).expect("workload spec is valid");
    let config = SolveConfig {
        threads: Some(1),
        preconditioner: precond,
        ..SolveConfig::default()
    };
    let span = Span::null();
    println!(
        "engine bench: {dims} steady jobs ({} cells), {jobs} jobs in {windows} windows, \
         {precond:?} preconditioner",
        dims.num_cells(),
    );

    // Cold reference: a fresh context per solve is the cache-off serving
    // path.  Its history is the bitwise contract every pooled job must hit.
    let reference: Vec<u64> = {
        let mut fresh = SolveContext::new();
        pooled_solve(&mut fresh, &workload, &config, &span);
        fresh
            .history()
            .residual_norms_squared
            .iter()
            .map(|v| v.to_bits())
            .collect()
    };

    // Warm the serving context: first solve builds the operator and sizes
    // the scratch, second settles remaining capacity growth.
    let mut ctx: SolveContext<f64> = SolveContext::new();
    pooled_solve(&mut ctx, &workload, &config, &span);
    pooled_solve(&mut ctx, &workload, &config, &span);
    assert!(history_matches(&ctx, &reference), "warmup diverged");

    // --- sustained pooled run: each job, then the fixed control, timed -----
    // The control, a Jacobi-PCG solve of a separate 16×16×8 system on its
    // own scratch, runs the job's kernels without the pooling: once warm it
    // allocates nothing, and it keeps no state between jobs.
    let system = WorkloadSpec::paper_grid(16, 16, 8).build();
    let op = MatrixFreeOperator::<f64>::from_workload(&system);
    let pc = JacobiPreconditioner::from_operator(&op);
    let rhs = CellField::from_fn(op.dims(), |c| ((c.x + 3 * c.y + 7 * c.z) % 5) as f64);
    let cg = ConjugateGradient::with_tolerance(system.tolerance(), system.max_iterations());
    let mut scratch = CgScratch::new(op.dims());
    let (mut max_alloc_delta, mut total_allocs, mut bitwise_identical) = (0u64, 0u64, true);
    let [pooled, control] = time_rounds(
        jobs,
        [
            &mut || {
                let delta = pooled_solve(&mut ctx, &workload, &config, &span);
                max_alloc_delta = max_alloc_delta.max(delta);
                total_allocs += delta;
                bitwise_identical &= history_matches(&ctx, &reference);
            },
            &mut || {
                cg.solve_into(
                    &op,
                    Some(&pc),
                    &rhs,
                    None,
                    &mut NullMonitor,
                    &span,
                    &mut scratch,
                );
            },
        ],
    );
    let (mut window_rates, mut window_ratios) = (Vec::new(), Vec::new());
    let window = jobs.div_ceil(windows);
    for (pooled, control) in pooled.chunks(window).zip(control.chunks(window)) {
        let seconds: f64 = pooled.iter().sum();
        window_rates.push(pooled.len() as f64 / seconds);
        window_ratios.push(seconds / control.iter().sum::<f64>());
    }
    let pooled_rate = jobs as f64 / pooled.iter().sum::<f64>();
    let flatness_pct = max_deviation_pct(&window_rates);
    let paired_spread_pct = spread_pct(&window_ratios);
    let stats = ctx.stats();

    // --- cold (cache-off) per-job path for comparison -----------------------
    let unpooled_jobs = jobs.clamp(1, 200);
    let watch = Stopwatch::start();
    for _ in 0..unpooled_jobs {
        let mut fresh = SolveContext::new();
        pooled_solve(&mut fresh, &workload, &config, &span);
        bitwise_identical &= history_matches(&fresh, &reference);
    }
    let unpooled_rate = unpooled_jobs as f64 / watch.elapsed_seconds().max(1e-12);

    assert!(
        bitwise_identical,
        "pooled residual histories must be bitwise identical to cache-off solves"
    );
    println!(
        "  steady: pooled {pooled_rate:.1} jobs/s | cold {unpooled_rate:.1} jobs/s | \
         flatness {flatness_pct:.2}% | paired spread {paired_spread_pct:.2}% | max allocs/job {max_alloc_delta} | \
         cache {}h/{}m",
        stats.hits, stats.misses
    );

    // --- engine batch vs serial fresh-context execution ---------------------
    let engine_jobs = jobs.min(1000);
    let batch: Vec<JobSpec> = (0..engine_jobs)
        .map(|_| JobSpec::new(spec.clone(), Backend::host()).with_config(config))
        .collect();
    let watch = Stopwatch::start();
    let pooled_batch = Engine::new(workers).run(batch.clone());
    let engine_pooled_rate = engine_jobs as f64 / watch.elapsed_seconds().max(1e-12);
    assert!(pooled_batch.all_succeeded());
    for (job, outcome) in batch.iter().zip(&pooled_batch.outcomes) {
        let pooled = outcome.report().expect("completed job");
        let fresh = job.execute(&mut SolveRequest::new()).expect("serial job");
        assert!(
            pooled.history == fresh.history
                && pooled.pressure.as_slice() == fresh.pressure.as_slice(),
            "engine reports must be bitwise identical to serial fresh-context runs"
        );
    }
    println!(
        "  engine ({} workers, {engine_jobs} jobs): pooled {engine_pooled_rate:.1} jobs/s, \
         bitwise identical to serial fresh-context runs",
        workers
    );

    let windows_json = window_rates
        .iter()
        .map(|r| format!("{r:.3}"))
        .collect::<Vec<_>>()
        .join(", ");
    let json = format!(
        "{{\n  \"bench\": \"engine\",\n  \"machine\": {},\n  \"dims\": {{\"nx\": {nx}, \"ny\": {ny}, \"nz\": {nz}}},\n  \
         \"cells\": {},\n  \"jobs\": {jobs},\n  \"windows\": {windows},\n  \"preconditioner\": \"{}\",\n  \
         \"budgets\": {{\"flatness_pct\": 10.0, \"flatness_gated_key\": \"paired_spread_pct\", \"allocations_per_job\": 0}},\n  \
         \"steady\": {{\"pooled_jobs_per_second\": {pooled_rate:.3}, \"unpooled_jobs_per_second\": {unpooled_rate:.3}, \
         \"speedup\": {:.3}, \"window_jobs_per_second\": [{windows_json}], \"flatness_pct\": {flatness_pct:.3}, \
         \"paired_spread_pct\": {paired_spread_pct:.3}, \"allocations_per_job_max\": {max_alloc_delta}, \
         \"allocations_total\": {total_allocs}, \"bitwise_identical\": {bitwise_identical}, \
         \"cache\": {{\"hits\": {}, \"misses\": {}, \"scratch_reallocs\": {}}}}},\n  \
         \"engine\": {{\"workers\": {workers}, \"jobs\": {engine_jobs}, \"pooled_jobs_per_second\": {engine_pooled_rate:.3}}}\n}}\n",
        machine_json(),
        dims.num_cells(),
        precond.label(),
        pooled_rate / unpooled_rate.max(1e-12),
        stats.hits,
        stats.misses,
        stats.scratch_reallocs,
    );
    std::fs::write(&out, &json).expect("write JSON report");
    println!("wrote {out}");

    if max_alloc_delta != 0 {
        println!("WARN: warmed hot path allocated (max {max_alloc_delta} allocations/job)");
        if check {
            eprintln!("FAIL: the warmed steady path must perform zero heap allocations per job");
            std::process::exit(1);
        }
    }
    if paired_spread_pct > 10.0 {
        println!("WARN: the windows' pooled/control ratios spread {paired_spread_pct:.2}%");
        if check && jobs >= 1000 {
            eprintln!("FAIL: the pooled/control ratios must spread at most 10% over >=1000 jobs");
            std::process::exit(1);
        }
    }
}
