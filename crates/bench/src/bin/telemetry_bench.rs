//! Telemetry overhead benchmark: untraced vs null-traced vs fully-traced.
//!
//! Measures the two overhead budgets the telemetry subsystem promises
//! (see README "Telemetry & tracing"):
//!
//! * **null path** — a solve whose request carries a null span must stay
//!   within noise of one with no span at all (<1%; the CI smoke step warns
//!   above 1% and fails above 5% with `--check`);
//! * **full tracing** — a recording tracer (spans + per-chunk CG iteration
//!   marks) must cost <5% on a 64³ host solve and on a 12-job engine batch.
//!
//! The configurations being compared take turns, one timed repetition at a
//! time, and each keeps its best time: a stretch of host noise then lands on
//! every configuration rather than on all of one configuration's repetitions.
//!
//! Emits machine-readable `BENCH_telemetry.json`:
//!
//! ```text
//! cargo run --release -p mffv-bench --bin telemetry_bench -- \
//!     --nx 64 --ny 64 --nz 64 --jobs 12 --workers 2 --reps 5 \
//!     --out BENCH_telemetry.json [--check]
//! ```

use mffv::prelude::*;
use mffv::telemetry::{Span, Stopwatch, Tracer};
use mffv_bench::machine_json;

struct Args {
    nx: usize,
    ny: usize,
    nz: usize,
    jobs: usize,
    workers: usize,
    reps: usize,
    out: String,
    check: bool,
}

impl Args {
    fn parse() -> Args {
        let mut args = Args {
            nx: 64,
            ny: 64,
            nz: 64,
            jobs: 12,
            workers: 2,
            reps: 5,
            out: "BENCH_telemetry.json".to_string(),
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
                "--workers" => args.workers = value().parse::<usize>().expect("--workers").max(1),
                "--reps" => args.reps = value().parse::<usize>().expect("--reps").max(1),
                "--out" => args.out = value(),
                other => panic!(
                    "unknown flag {other} (use --nx --ny --nz --jobs --workers --reps --out --check)"
                ),
            }
        }
        args
    }
}

fn overhead_pct(base: f64, variant: f64) -> f64 {
    if base > 0.0 {
        (variant / base - 1.0) * 100.0
    } else {
        0.0
    }
}

/// Best-of-`reps` seconds of each of `runs`, after one untimed warmup each.
/// Every round times each run once, in order.
fn best_of_interleaved<const N: usize>(reps: usize, mut runs: [&mut dyn FnMut(); N]) -> [f64; N] {
    for run in runs.iter_mut() {
        run();
    }
    let mut best = [f64::INFINITY; N];
    for _ in 0..reps {
        for (run, best) in runs.iter_mut().zip(best.iter_mut()) {
            let watch = Stopwatch::start();
            run();
            *best = best.min(watch.elapsed_seconds());
        }
    }
    best
}

fn sweep_jobs(n: usize) -> Vec<JobSpec> {
    SweepBuilder::new(WorkloadSpec::quickstart())
        .grids([Dims::new(12, 12, 6), Dims::new(16, 16, 8)])
        .seeds((0..n.div_ceil(2) as u64).collect::<Vec<_>>())
        .jobs()
        .into_iter()
        .take(n)
        .collect()
}

fn main() {
    let args = Args::parse();
    let dims = Dims::new(args.nx, args.ny, args.nz);
    // A fixed iteration budget keeps the measured work identical across the
    // three variants whether or not the solve converges at this size.
    let workload = WorkloadSpec::paper_grid(args.nx, args.ny, args.nz).build();
    let config = SolveConfig {
        tolerance: Some(1e-12),
        max_iterations: Some(200),
        ..SolveConfig::default()
    };
    let backend = Backend::host().instantiate();
    println!(
        "telemetry bench: {dims} host solve ({} cells, <=200 iters), {} jobs on {} workers, best of {}",
        dims.num_cells(),
        args.jobs,
        args.workers,
        args.reps
    );

    // --- solve: untraced / null span / recording tracer ---------------------
    let [solve_untraced, solve_null, solve_traced] = best_of_interleaved(
        args.reps,
        [
            &mut || {
                backend
                    .solve(&workload, &config, &mut SolveRequest::new())
                    .expect("solve");
            },
            &mut || {
                backend
                    .solve(
                        &workload,
                        &config,
                        &mut SolveRequest::new().span(&Span::null()),
                    )
                    .expect("solve");
            },
            &mut || {
                let tracer = Tracer::new();
                let span = tracer.span("solve @ host-f64");
                backend
                    .solve(&workload, &config, &mut SolveRequest::new().span(&span))
                    .expect("solve");
                span.finish();
            },
        ],
    );
    let trace_spans = {
        let tracer = Tracer::new();
        let span = tracer.span("solve @ host-f64");
        backend
            .solve(&workload, &config, &mut SolveRequest::new().span(&span))
            .expect("solve");
        span.finish();
        tracer.records().len()
    };
    let solve_null_pct = overhead_pct(solve_untraced, solve_null);
    let solve_full_pct = overhead_pct(solve_untraced, solve_traced);
    println!(
        "  solve: untraced {:.3} ms | null {:.3} ms ({:+.2}%) | traced {:.3} ms ({:+.2}%, {} spans)",
        solve_untraced * 1e3,
        solve_null * 1e3,
        solve_null_pct,
        solve_traced * 1e3,
        solve_full_pct,
        trace_spans
    );

    // --- engine batch: untraced / traced ------------------------------------
    let jobs = sweep_jobs(args.jobs);
    let [batch_untraced, batch_traced] = best_of_interleaved(
        args.reps,
        [
            &mut || {
                let report = Engine::new(args.workers).run(jobs.clone());
                assert!(report.all_succeeded());
            },
            &mut || {
                let report = Engine::new(args.workers)
                    .with_tracer(Tracer::new())
                    .run(jobs.clone());
                assert!(report.all_succeeded());
            },
        ],
    );
    let batch_pct = overhead_pct(batch_untraced, batch_traced);
    println!(
        "  batch: untraced {:.3} ms | traced {:.3} ms ({:+.2}%)",
        batch_untraced * 1e3,
        batch_traced * 1e3,
        batch_pct
    );

    let json = format!(
        "{{\n  \"bench\": \"telemetry\",\n  \"machine\": {},\n  \"dims\": {{\"nx\": {}, \"ny\": {}, \"nz\": {}}},\n  \
         \"cells\": {},\n  \"reps\": {},\n  \"budgets_pct\": {{\"null_warn\": 1.0, \"null_fail\": 5.0, \"full\": 5.0}},\n  \
         \"solve\": {{\"untraced_seconds\": {:.6e}, \"null_traced_seconds\": {:.6e}, \
         \"full_traced_seconds\": {:.6e}, \"null_overhead_pct\": {:.3}, \
         \"full_overhead_pct\": {:.3}, \"spans_recorded\": {}}},\n  \
         \"engine\": {{\"jobs\": {}, \"workers\": {}, \"untraced_seconds\": {:.6e}, \
         \"traced_seconds\": {:.6e}, \"traced_overhead_pct\": {:.3}}}\n}}\n",
        machine_json(),
        args.nx,
        args.ny,
        args.nz,
        dims.num_cells(),
        args.reps,
        solve_untraced,
        solve_null,
        solve_traced,
        solve_null_pct,
        solve_full_pct,
        trace_spans,
        args.jobs,
        args.workers,
        batch_untraced,
        batch_traced,
        batch_pct,
    );
    std::fs::write(&args.out, &json).expect("write JSON report");
    println!("wrote {}", args.out);

    if solve_null_pct > 1.0 {
        println!("WARN: null-span solve overhead {solve_null_pct:.2}% exceeds the 1% budget");
    }
    if args.check && solve_null_pct > 5.0 {
        eprintln!("FAIL: null-span solve overhead {solve_null_pct:.2}% exceeds the 5% hard budget");
        std::process::exit(1);
    }
}
