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
//! The configurations being compared take turns, one timed round at a time
//! (`mffv_perf::timing::time_rounds`).  Each overhead is the median over
//! rounds of `variant_i / base_i − 1`: host noise that lands on one round
//! lands on both sides of its ratio.  The `*_seconds` keys are the best
//! round of each configuration.
//!
//! Emits machine-readable `BENCH_telemetry.json`:
//!
//! ```text
//! cargo run --release -p mffv-bench --bin telemetry_bench -- \
//!     --nx 64 --ny 64 --nz 64 --jobs 12 --workers 2 --reps 25 \
//!     --out BENCH_telemetry.json [--check]
//! ```

use mffv::perf::timing::{percentile, time_rounds};
use mffv::prelude::*;
use mffv::telemetry::{Span, Tracer};
use mffv_bench::{machine_json, Flags};

/// Median over rounds of `variant_i / base_i − 1`, in percent.
fn overhead_pct(base: &[f64], variant: &[f64]) -> f64 {
    let mut pct: Vec<f64> = base
        .iter()
        .zip(variant)
        .map(|(base, variant)| (variant / base - 1.0) * 100.0)
        .collect();
    pct.sort_by(f64::total_cmp);
    percentile(&pct, 0.5)
}

fn best(rounds: &[f64]) -> f64 {
    rounds.iter().copied().fold(f64::INFINITY, f64::min)
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
    let mut flags = Flags::new(std::env::args().skip(1), &["--check"]);
    let nx = flags.value("--nx", 64);
    let ny = flags.value("--ny", 64);
    let nz = flags.value("--nz", 64);
    let jobs = flags.value("--jobs", 12).max(1);
    let workers = flags.value("--workers", 2).max(1);
    let reps = flags.value("--reps", 25).max(1);
    let out = flags.value("--out", "BENCH_telemetry.json".to_string());
    let check = flags.switch("--check");
    flags.finish();
    let dims = Dims::new(nx, ny, nz);
    // A fixed iteration budget keeps the measured work identical across the
    // three variants whether or not the solve converges at this size.
    let workload = WorkloadSpec::paper_grid(nx, ny, nz).build();
    let config = SolveConfig {
        tolerance: Some(1e-12),
        max_iterations: Some(200),
        ..SolveConfig::default()
    };
    let backend = Backend::host().instantiate();
    println!(
        "telemetry bench: {dims} host solve ({} cells, <=200 iters), {jobs} jobs on {workers} \
         workers, {reps} rounds",
        dims.num_cells(),
    );

    // --- solve: untraced / null span / recording tracer ---------------------
    let [untraced, null, traced] = time_rounds(
        reps,
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
    let solve_null_pct = overhead_pct(&untraced, &null);
    let solve_full_pct = overhead_pct(&untraced, &traced);
    let [solve_untraced, solve_null, solve_traced] = [untraced, null, traced].map(|r| best(&r));
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
    let batch = sweep_jobs(jobs);
    let [untraced, traced] = time_rounds(
        reps,
        [
            &mut || {
                let report = Engine::new(workers).run(batch.clone());
                assert!(report.all_succeeded());
            },
            &mut || {
                let report = Engine::new(workers)
                    .with_tracer(Tracer::new())
                    .run(batch.clone());
                assert!(report.all_succeeded());
            },
        ],
    );
    let batch_pct = overhead_pct(&untraced, &traced);
    let [batch_untraced, batch_traced] = [untraced, traced].map(|r| best(&r));
    println!(
        "  batch: untraced {:.3} ms | traced {:.3} ms ({:+.2}%)",
        batch_untraced * 1e3,
        batch_traced * 1e3,
        batch_pct
    );

    let json = format!(
        "{{\n  \"bench\": \"telemetry\",\n  \"machine\": {},\n  \"dims\": {{\"nx\": {nx}, \"ny\": {ny}, \"nz\": {nz}}},\n  \
         \"cells\": {},\n  \"reps\": {reps},\n  \"budgets_pct\": {{\"null_warn\": 1.0, \"null_fail\": 5.0, \"full\": 5.0}},\n  \
         \"solve\": {{\"untraced_seconds\": {solve_untraced:.6e}, \"null_traced_seconds\": {solve_null:.6e}, \
         \"full_traced_seconds\": {solve_traced:.6e}, \"null_overhead_pct\": {solve_null_pct:.3}, \
         \"full_overhead_pct\": {solve_full_pct:.3}, \"spans_recorded\": {trace_spans}}},\n  \
         \"engine\": {{\"jobs\": {jobs}, \"workers\": {workers}, \"untraced_seconds\": {batch_untraced:.6e}, \
         \"traced_seconds\": {batch_traced:.6e}, \"traced_overhead_pct\": {batch_pct:.3}}}\n}}\n",
        machine_json(),
        dims.num_cells(),
    );
    std::fs::write(&out, &json).expect("write JSON report");
    println!("wrote {out}");

    if solve_null_pct > 1.0 {
        println!("WARN: null-span solve overhead {solve_null_pct:.2}% exceeds the 1% budget");
    }
    if check && solve_null_pct > 5.0 {
        eprintln!("FAIL: null-span solve overhead {solve_null_pct:.2}% exceeds the 5% hard budget");
        std::process::exit(1);
    }
}
