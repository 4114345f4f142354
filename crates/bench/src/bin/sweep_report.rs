//! Scenario-sweep throughput report: the `mffv-engine` batch executor driven
//! the way the paper's evaluation drives the machine — many configurations of
//! one problem family under a single harness.
//!
//! A `SweepBuilder` fans a log-normal-permeability base workload across three
//! grid sizes × two backends × two permeability seeds (12 jobs), the engine
//! executes the batch on a worker pool, and the `BatchReport` prints per-job
//! status plus aggregate throughput and latency percentiles.  A second pass
//! re-runs the host-backend jobs at worker counts 1, 2, 4, … up to the
//! machine's hardware threads to measure the pool's wall-clock scaling; a
//! worker count above them would measure oversubscription, not scaling.
//! That batch takes milliseconds, so each worker count is timed over
//! [`ROUNDS`] rounds and reported as the median with its q1–q3 spread, and a
//! speedup is named only when the spreads of 1 worker and of the widest
//! count do not overlap.
//!
//! Run with `cargo run --release -p mffv-bench --bin sweep_report`.

use mffv::prelude::*;
use mffv_bench::{time_spread, Timing};
use mffv_perf::report::format_table;

/// Timed rounds of the host batch at each worker count, after one untimed
/// warm-up.
const ROUNDS: usize = 15;

/// The sweep base: quickstart-like physics with a stochastic permeability
/// field, so the seed axis produces genuinely different scenarios.
fn sweep_base() -> WorkloadSpec {
    WorkloadSpec {
        name: "sweep".to_string(),
        permeability: PermeabilityModel::LogNormal {
            mean_log: 0.0,
            std_log: 0.5,
            seed: 0,
        },
        tolerance: 1e-8,
        ..WorkloadSpec::quickstart()
    }
}

fn grids() -> [Dims; 3] {
    [
        Dims::new(12, 10, 8),
        Dims::new(16, 12, 10),
        Dims::new(20, 16, 12),
    ]
}

fn main() {
    // 1. The full sweep: 3 grids × 2 seeds × 2 backends = 12 jobs.
    let sweep = SweepBuilder::new(sweep_base())
        .grids(grids())
        .seeds([1, 2])
        .backends([Backend::host(), Backend::gpu_ref()]);
    println!(
        "Scenario sweep: {} jobs (3 grids x 2 seeds x 2 backends)\n",
        sweep.job_count()
    );
    let engine = Engine::with_available_parallelism();
    let batch = engine.run(sweep.jobs());
    println!("{batch}\n");
    assert!(batch.all_succeeded(), "sweep jobs must all complete");
    assert_eq!(batch.jobs(), 12);

    // 2. Worker scaling on the host backend: the same 3 grids × 2 seeds at
    //    powers of two up to the hardware threads.  Results are bitwise
    //    identical at every worker count; only the wall clock changes.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ladder: Vec<usize> = std::iter::successors(Some(1usize), |w| Some(w * 2))
        .take_while(|&w| w <= cores)
        .collect();
    let host_jobs = SweepBuilder::new(sweep_base())
        .grids(grids())
        .seeds([1, 2])
        .backends([Backend::host()])
        .jobs();
    println!(
        "Worker scaling (host backend, {} jobs per batch):\n",
        host_jobs.len()
    );
    let mut rows = Vec::new();
    let mut walls: Vec<Timing> = Vec::new();
    for &workers in &ladder {
        let engine = Engine::new(workers);
        let mut last = None;
        let wall = time_spread(ROUNDS, || {
            let report = engine.run(host_jobs.clone());
            assert!(report.all_succeeded());
            last = Some(report);
        });
        let report = last.expect("time_spread runs the batch");
        let baseline = walls.first().map_or(wall.median, |one| one.median);
        rows.push(vec![
            workers.to_string(),
            format!("{:.4}", wall.median),
            format!("{:.4}-{:.4}", wall.q1, wall.q3),
            format!("{:.2}", host_jobs.len() as f64 / wall.median),
            format!("{:.3e}", report.latency.p50),
            format!("{:.3e}", report.latency.p95),
            format!("{:.2}x", baseline / wall.median),
        ]);
        walls.push(wall);
    }
    println!(
        "{}",
        format_table(
            &[
                "Workers",
                "Wall median [s]",
                "Wall q1-q3 [s]",
                "Jobs/s",
                "p50 [s]",
                "p95 [s]",
                "Speedup vs 1"
            ],
            &rows
        )
    );
    println!("(wall times over {ROUNDS} rounds; speedup is a ratio of medians)");
    let widest = ladder.last().copied().unwrap_or(1);
    let (one, far) = (walls[0], walls[walls.len() - 1]);
    if widest == 1 {
        println!("Available hardware threads: {cores}; a single worker, so no scaling to measure");
    } else if far.q3 < one.q1 || one.q3 < far.q1 {
        println!(
            "Available hardware threads: {cores}; {widest}-worker speedup: {:.2}x (the q1-q3 \
             spreads of 1 and {widest} workers do not overlap)",
            one.median / far.median
        );
    } else {
        println!(
            "Available hardware threads: {cores}; {widest} workers ({:.4} s median, {:.4}-{:.4}) \
             against 1 ({:.4} s, {:.4}-{:.4}): the difference is within the spread",
            far.median, far.q1, far.q3, one.median, one.q1, one.q3
        );
    }
}
