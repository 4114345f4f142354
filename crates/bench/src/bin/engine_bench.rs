//! Sustained steady-state serving throughput benchmark.
//!
//! Drives the pooled serving path (`SolveContext`: keyed operator cache +
//! reusable Krylov scratch) through a long run of identical steady jobs —
//! the daemon-session steady state — and proves the three claims the
//! serving path makes (see README "Serving at steady state"):
//!
//! * **flat throughput** — jobs/s per window stays within ±10% of the run
//!   mean over the whole run (no allocator-driven drift), enforced by
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

use mffv::prelude::*;
use mffv::telemetry::Stopwatch;
use mffv_bench::machine_json;

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

struct Args {
    nx: usize,
    ny: usize,
    nz: usize,
    jobs: usize,
    windows: usize,
    workers: usize,
    precond: PreconditionerKind,
    out: String,
    check: bool,
}

impl Args {
    fn parse() -> Args {
        let mut args = Args {
            nx: 16,
            ny: 16,
            nz: 8,
            jobs: 10_000,
            windows: 10,
            workers: 2,
            precond: PreconditionerKind::Jacobi,
            out: "BENCH_engine.json".to_string(),
            check: false,
        };
        let mut iter = std::env::args().skip(1);
        while let Some(flag) = iter.next() {
            if flag == "--check" {
                args.check = true;
                continue;
            }
            let mut value = || {
                iter.next()
                    .unwrap_or_else(|| panic!("missing value for {flag}"))
            };
            match flag.as_str() {
                "--nx" => args.nx = value().parse().expect("--nx"),
                "--ny" => args.ny = value().parse().expect("--ny"),
                "--nz" => args.nz = value().parse().expect("--nz"),
                "--jobs" => args.jobs = value().parse::<usize>().expect("--jobs").max(1),
                "--windows" => args.windows = value().parse::<usize>().expect("--windows").max(1),
                "--workers" => args.workers = value().parse::<usize>().expect("--workers").max(1),
                "--precond" => {
                    let label = value();
                    args.precond = PreconditionerKind::parse(&label).unwrap_or_else(|| {
                        panic!("--precond must be none, jacobi or mg, got {label}")
                    })
                }
                "--out" => args.out = value(),
                other => panic!(
                    "unknown flag {other} (use --nx --ny --nz --jobs --windows --workers --precond --out --check)"
                ),
            }
        }
        args
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
    let args = Args::parse();
    let dims = Dims::new(args.nx, args.ny, args.nz);
    let spec = WorkloadSpec::paper_grid(args.nx, args.ny, args.nz);
    let workload = Workload::try_from_spec(&spec).expect("workload spec is valid");
    let config = SolveConfig {
        threads: Some(1),
        preconditioner: args.precond,
        ..SolveConfig::default()
    };
    let span = Span::null();
    println!(
        "engine bench: {dims} steady jobs ({} cells), {} jobs in {} windows, {:?} preconditioner",
        dims.num_cells(),
        args.jobs,
        args.windows,
        args.precond
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

    // --- sustained pooled run, windowed ------------------------------------
    let window_size = args.jobs.div_ceil(args.windows);
    let mut window_rates: Vec<f64> = Vec::new();
    let mut max_alloc_delta = 0u64;
    let mut total_allocs = 0u64;
    let mut bitwise_identical = true;
    let mut executed = 0usize;
    let run_watch = Stopwatch::start();
    while executed < args.jobs {
        let n = window_size.min(args.jobs - executed);
        let watch = Stopwatch::start();
        for _ in 0..n {
            let delta = pooled_solve(&mut ctx, &workload, &config, &span);
            max_alloc_delta = max_alloc_delta.max(delta);
            total_allocs += delta;
            bitwise_identical &= history_matches(&ctx, &reference);
        }
        window_rates.push(n as f64 / watch.elapsed_seconds().max(1e-12));
        executed += n;
    }
    let pooled_seconds = run_watch.elapsed_seconds();
    let pooled_rate = args.jobs as f64 / pooled_seconds.max(1e-12);

    let mean_rate = window_rates.iter().sum::<f64>() / window_rates.len() as f64;
    let flatness_pct = window_rates
        .iter()
        .map(|r| ((r - mean_rate) / mean_rate).abs() * 100.0)
        .fold(0.0f64, f64::max);
    let stats = ctx.stats();

    // --- cold (cache-off) per-job path for comparison -----------------------
    let unpooled_jobs = args.jobs.clamp(1, 200);
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
         flatness {flatness_pct:.2}% | max allocs/job {max_alloc_delta} | \
         cache {}h/{}m",
        stats.hits, stats.misses
    );

    // --- engine batch vs serial fresh-context execution ---------------------
    let engine_jobs = args.jobs.min(1000);
    let batch: Vec<JobSpec> = (0..engine_jobs)
        .map(|_| JobSpec::new(spec.clone(), Backend::host()).with_config(config))
        .collect();
    let watch = Stopwatch::start();
    let pooled_batch = Engine::new(args.workers).run(batch.clone());
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
        args.workers
    );

    let windows_json = window_rates
        .iter()
        .map(|r| format!("{r:.3}"))
        .collect::<Vec<_>>()
        .join(", ");
    let json = format!(
        "{{\n  \"bench\": \"engine\",\n  \"machine\": {},\n  \"dims\": {{\"nx\": {}, \"ny\": {}, \"nz\": {}}},\n  \
         \"cells\": {},\n  \"jobs\": {},\n  \"windows\": {},\n  \"preconditioner\": \"{}\",\n  \
         \"budgets\": {{\"flatness_pct\": 10.0, \"allocations_per_job\": 0}},\n  \
         \"steady\": {{\"pooled_jobs_per_second\": {:.3}, \"unpooled_jobs_per_second\": {:.3}, \
         \"speedup\": {:.3}, \"window_jobs_per_second\": [{}], \"flatness_pct\": {:.3}, \
         \"allocations_per_job_max\": {}, \"allocations_total\": {}, \"bitwise_identical\": {}, \
         \"cache\": {{\"hits\": {}, \"misses\": {}, \"scratch_reallocs\": {}}}}},\n  \
         \"engine\": {{\"workers\": {}, \"jobs\": {}, \"pooled_jobs_per_second\": {:.3}}}\n}}\n",
        machine_json(),
        args.nx,
        args.ny,
        args.nz,
        dims.num_cells(),
        args.jobs,
        args.windows,
        args.precond.label(),
        pooled_rate,
        unpooled_rate,
        pooled_rate / unpooled_rate.max(1e-12),
        windows_json,
        flatness_pct,
        max_alloc_delta,
        total_allocs,
        bitwise_identical,
        stats.hits,
        stats.misses,
        stats.scratch_reallocs,
        args.workers,
        engine_jobs,
        engine_pooled_rate,
    );
    std::fs::write(&args.out, &json).expect("write JSON report");
    println!("wrote {}", args.out);

    if max_alloc_delta != 0 {
        println!("WARN: warmed hot path allocated (max {max_alloc_delta} allocations/job)");
        if args.check {
            eprintln!("FAIL: the warmed steady path must perform zero heap allocations per job");
            std::process::exit(1);
        }
    }
    if flatness_pct > 10.0 {
        println!("WARN: window throughput deviates {flatness_pct:.2}% from the mean");
        if args.check && args.jobs >= 1000 {
            eprintln!("FAIL: steady-state jobs/s must stay within ±10% over a >=1000-job run");
            std::process::exit(1);
        }
    }
}
