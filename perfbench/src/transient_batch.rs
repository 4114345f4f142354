//! `transient-batch`: `Engine::run` with two workers over four seeded
//! transient jobs — CO₂-injection-style backward-Euler stepping with a rate
//! injector and a BHP producer, multigrid-preconditioned.  The time goes to
//! the V-cycles on the shifted operator, the stepping and the pool's load
//! balance: the slowest job sets the makespan.

use crate::layers;
use crate::metrics::{median, ratio, MetricSet};
use crate::spans::SpanIndex;
use crate::{Checks, Context, Outcome};
use mffv::mesh::workload::BoundarySpec;
use mffv::mesh::{
    CellField, CellIndex, Dims, PermeabilityModel, TransientSpec, Well, WellSet, Workload,
    WorkloadSpec,
};
use mffv::solver::{PreconditionerKind, SolveConfig};
use mffv::telemetry::Stopwatch;
use mffv::telemetry::Tracer;
use mffv::{Backend, BatchReport, Engine, JobSpec, Simulation, TransientReport};

pub const DIMS: Dims = Dims {
    nx: 48,
    ny: 48,
    nz: 16,
};
/// Grid of the small batch that measures the `solver::transient` and
/// `engine` layers for workloads that do not exercise them: the smallest
/// grid whose multigrid hierarchy has two levels.
const PROBE_DIMS: Dims = Dims {
    nx: 24,
    ny: 24,
    nz: 8,
};
const JOBS: usize = 4;
const DAY: f64 = 86_400.0;
const STEPS: usize = 30;
const TOLERANCE: f64 = 1e-16;
const COMPRESSIBILITY: f64 = 1.0e-9;
const INJECTION_RATE: f64 = 0.05;
/// A converged step's mass-balance defect (m³/s) must stay below this share
/// of the injection rate.
const MASS_BALANCE_SHARE: f64 = 1e-5;
/// Batches each run makes at least, so a median exists.
const MIN_BATCHES: usize = 2;

fn config() -> SolveConfig {
    SolveConfig {
        tolerance: Some(TOLERANCE),
        preconditioner: PreconditionerKind::Mg,
        threads: Some(1),
        ..SolveConfig::default()
    }
}

fn transient_spec(dims: Dims) -> TransientSpec {
    let injector = CellIndex::new(0, 0, dims.nz - 1);
    let producer = CellIndex::new(dims.nx - 1, dims.ny - 1, 0);
    TransientSpec::new(STEPS as f64 * DAY, DAY, COMPRESSIBILITY)
        .with_wells(
            WellSet::empty()
                .with(Well::rate("injector", injector, INJECTION_RATE))
                .with(Well::bhp("producer", producer, 9.0e6, 2.0e-9)),
        )
        .with_initial_pressure(1.0e7)
}

/// The four jobs of the batch for `seed` on a `dims` grid.
pub fn jobs(seed: u64, dims: Dims) -> Vec<JobSpec> {
    (0..JOBS)
        .map(|i| {
            let spec = WorkloadSpec {
                name: format!("transient-batch-{i}"),
                dims,
                spacing: [10.0, 10.0, 2.0],
                permeability: PermeabilityModel::LogNormal {
                    mean_log: -29.9,
                    std_log: 0.7,
                    seed: crate::derive_seed(seed, 10 + i as u64),
                },
                viscosity: 5.0e-4,
                boundary: BoundarySpec::None,
                tolerance: TOLERANCE,
                max_iterations: 10_000,
            };
            JobSpec::transient(spec, Backend::host(), transient_spec(dims)).with_config(config())
        })
        .collect()
}

/// The diagonal shift of one step (`V·c_t/Δt`, plus the producer's
/// productivity index), for the `fv` and `mg` probes.
fn step_shift(workload: &Workload) -> CellField<f64> {
    let accumulation = workload.mesh().cell_volume() * COMPRESSIBILITY / DAY;
    let mut diag = CellField::constant(DIMS, accumulation);
    let producer = DIMS.linear(CellIndex::new(DIMS.nx - 1, DIMS.ny - 1, 0));
    diag.set(producer, accumulation + 2.0e-9);
    diag
}

/// Batches of one phase.
#[derive(Default)]
struct Phase {
    batch_ms: Vec<f64>,
    reports: Vec<BatchReport>,
}

fn batches_for(engine: &Engine, jobs: &[JobSpec], seconds: f64, checks: &mut Checks) -> Phase {
    let mut phase = Phase::default();
    crate::run_for(seconds, MIN_BATCHES, || {
        let started = Stopwatch::start();
        let report = run_checked(engine, jobs, checks);
        let elapsed = started.elapsed_seconds();
        phase.batch_ms.push(elapsed * 1e3);
        phase.reports.push(report);
        elapsed
    });
    phase
}

/// One `Engine::run`, counting every job that did not converge.
fn run_checked(engine: &Engine, jobs: &[JobSpec], checks: &mut Checks) -> BatchReport {
    let report = engine.run(jobs.to_vec());
    for outcome in &report.outcomes {
        let ok = outcome.report().is_some_and(|r| r.converged());
        checks.record(ok, || {
            format!("{}: {}", outcome.label, outcome.status_label())
        });
    }
    report
}

/// Measure the `solver::transient` layer, and the `engine` layer when
/// `with_engine`, on one traced batch of small jobs: for workloads that do
/// not exercise those layers themselves.
pub fn probe(cx: &Context<'_>, with_engine: bool, out: &mut MetricSet, checks: &mut Checks) {
    let tracer = Tracer::new();
    let engine = Engine::new(cx.threads()).with_tracer(tracer.clone());
    let report = run_checked(&engine, &jobs(cx.args.seed, PROBE_DIMS), checks);
    let records = tracer.records();
    let index = SpanIndex::new(&records);
    let reports = std::slice::from_ref(&report);
    push_transient(&index, reports, out);
    if with_engine {
        push_engine(&index, reports, out);
    }
}

/// Final-pressure checksums of one batch, by job.
fn final_checksums(report: &BatchReport) -> Vec<u64> {
    report
        .outcomes
        .iter()
        .map(|o| {
            o.report()
                .map(|r| crate::checksum(r.pressure.as_slice()))
                .unwrap_or(0)
        })
        .collect()
}

/// Every batch must reproduce the first bit for bit; the first must match a
/// per-step run of each job through `Simulation::transient`, whose steps
/// must all converge and balance mass.
fn verify(jobs: &[JobSpec], phases: &[&Phase], threads: usize, checks: &mut Checks) {
    let Some(first) = phases.iter().find_map(|p| p.reports.first()) else {
        return;
    };
    let reference = final_checksums(first);
    for report in phases.iter().flat_map(|p| &p.reports) {
        for (i, (&a, b)) in reference.iter().zip(final_checksums(report)).enumerate() {
            checks.checksum(a, b, &format!("transient-batch job {i} repeat"));
        }
    }
    let bound = MASS_BALANCE_SHARE * INJECTION_RATE;
    // Rounds of at most `threads` jobs, one thread each.
    let per_job: Vec<Result<TransientReport, String>> = jobs
        .chunks(threads)
        .flat_map(|round| {
            std::thread::scope(|scope| {
                let handles: Vec<_> = round
                    .iter()
                    .map(|job| scope.spawn(|| run_steps(job)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("verification thread panicked"))
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let mut worst = 0.0f64;
    for (i, result) in per_job.into_iter().enumerate() {
        let report = match result {
            Ok(report) => report,
            Err(error) => {
                checks.record(false, || format!("job {i}: {error}"));
                continue;
            }
        };
        let defect = report.max_mass_balance_error();
        worst = worst.max(defect);
        checks.record(
            report.all_converged() && report.num_steps() == STEPS && defect <= bound,
            || {
                format!(
                    "job {i}: converged={} steps={} max mass-balance defect {defect:e} (bound {bound:e})",
                    report.all_converged(),
                    report.num_steps()
                )
            },
        );
        checks.checksum(
            reference[i],
            crate::checksum(report.final_pressure().as_slice()),
            &format!("transient-batch job {i} per-step run"),
        );
    }
    println!("transient-batch worst mass-balance defect {worst:e} m3/s (bound {bound:e})");
}

/// Run `job`'s schedule through `Simulation::transient`, keeping every step.
fn run_steps(job: &JobSpec) -> Result<TransientReport, String> {
    let spec = job.transient.as_ref().ok_or("not a transient job")?;
    let workload = Workload::try_from_spec(&job.effective_spec()).map_err(|e| e.to_string())?;
    let config = job.solve_config;
    Simulation::new(workload)
        .tolerance(TOLERANCE)
        .preconditioner(config.preconditioner)
        .threads(config.effective_threads())
        .transient(spec)
        .map_err(|e| e.to_string())
}

pub fn run(cx: &Context<'_>) -> Outcome {
    let workers = cx.threads();
    let mut checks = Checks::default();
    // Set-up generates and validates the jobs and materialises each
    // workload once, checking no well completes in a Dirichlet cell.
    let (jobs, setup_seconds) = crate::repeated_setup(|| {
        let jobs = jobs(cx.args.seed, DIMS);
        for job in &jobs {
            job.validate().expect("transient jobs are valid");
            let workload =
                Workload::try_from_spec(&job.effective_spec()).expect("transient spec is valid");
            for well in job.transient.iter().flat_map(|t| t.wells.wells()) {
                let cell = DIMS.linear(well.cell);
                assert!(
                    !workload.dirichlet().contains_linear(cell),
                    "well in a Dirichlet cell"
                );
            }
        }
        jobs
    });
    let engine = Engine::new(workers);
    let untraced = batches_for(&engine, &jobs, cx.args.seconds, &mut checks);
    let mut out = MetricSet::new();
    if !cx.args.trace {
        // peak_rss_mib is read here, before the verification runs.
        let busy = untraced.batch_ms.iter().sum::<f64>() / 1e3;
        let completed = (untraced.batch_ms.len() * JOBS) as u64;
        crate::push_end_to_end(
            &mut out,
            &setup_seconds,
            &untraced.batch_ms,
            completed,
            busy,
        );
        verify(&jobs, &[&untraced], workers, &mut checks);
        return Outcome {
            checks,
            metrics: out,
        };
    }

    let tracer = Tracer::new();
    let traced = batches_for(
        &engine.clone().with_tracer(tracer.clone()),
        &jobs,
        cx.traced_seconds(),
        &mut checks,
    );
    verify(&jobs, &[&untraced, &traced], workers, &mut checks);
    let records = tracer.records();
    let index = SpanIndex::new(&records);
    let triad = cx.triad.expect("traced runs measure the triad first");
    let probe_spec = jobs[0].effective_spec();
    let probe_workload = Workload::try_from_spec(&probe_spec).expect("transient spec is valid");
    let kernel_s = layers::probe(
        &probe_spec,
        workers,
        1,
        Some(&step_shift(&probe_workload)),
        triad,
        &mut out,
    );
    crate::push_host(
        cx,
        &mut out,
        layers::working_set_bytes(DIMS.num_cells(), true) * workers as u64,
        workers,
        0,
    );

    let traced_jobs = traced.reports.iter().map(|r| r.jobs()).sum::<usize>();
    let iterations: usize = traced
        .reports
        .iter()
        .flat_map(|r| r.reports())
        .map(|r| r.iterations())
        .sum();
    let loop_s = index.total_seconds("cg-loop");
    let iteration_ms = ratio(loop_s * 1e3, iterations as f64);
    out.push(
        "solver.iterations",
        ratio(iterations as f64, traced_jobs as f64),
        "count",
    );
    out.push("solver.iteration_ms", iteration_ms, "ms");
    out.push("solver.unexplained_ms", iteration_ms - kernel_s * 1e3, "ms");
    out.push(
        "solver.cell_iters_per_s",
        ratio((DIMS.num_cells() * iterations) as f64, loop_s),
        "1/s",
    );
    // The stepper builds its operator and V-cycle outside any span: time
    // the public call that builds it.
    let session_config = config();
    out.push(
        "solver.build_ms",
        layers::time_calls(2, || {
            let session = Backend::host()
                .instantiate()
                .transient_session(&probe_workload, &session_config);
            std::hint::black_box(session.expect("transient session builds"));
        }) * 1e3,
        "ms",
    );
    push_transient(&index, &traced.reports, &mut out);
    push_engine(&index, &traced.reports, &mut out);
    crate::serve_stream::probe(cx, &mut out, &mut checks);
    out.push(
        "telemetry.overhead_pct",
        crate::overhead_pct(median(&untraced.batch_ms), median(&traced.batch_ms), true),
        "%",
    );
    println!("chrome trace: {}", crate::write_chrome_trace(cx, &tracer));
    Outcome {
        checks,
        metrics: out,
    }
}

/// `transient.*` from the `step`/`accounting` spans and the batch reports.
fn push_transient(index: &SpanIndex<'_>, reports: &[BatchReport], out: &mut MetricSet) {
    let jobs = reports.iter().map(BatchReport::jobs).sum::<usize>() as f64;
    let iterations: usize = reports
        .iter()
        .flat_map(|r| r.reports())
        .map(|r| r.iterations())
        .sum();
    let steps = index.durations_ms("step");
    let step_self: Vec<f64> = index
        .named("step")
        .map(|r| index.self_seconds(r) * 1e3)
        .collect();
    out.push("transient.steps", ratio(steps.len() as f64, jobs), "count");
    out.push(
        "transient.iterations",
        ratio(iterations as f64, jobs),
        "count",
    );
    out.push("transient.step_ms", median(&steps), "ms");
    out.push("transient.step_self_ms", median(&step_self), "ms");
    out.push(
        "transient.accounting_ms",
        median(&index.durations_ms("accounting")),
        "ms",
    );
}

/// `engine.*` from the `queue-wait`/`execute` spans and the batch reports'
/// worker stats.
fn push_engine(index: &SpanIndex<'_>, reports: &[BatchReport], out: &mut MetricSet) {
    let waits = index.durations_ms("queue-wait");
    let execute_self: Vec<f64> = index
        .named("execute")
        .map(|r| index.self_seconds(r) * 1e3)
        .collect();
    let busy: Vec<f64> = reports
        .iter()
        .flat_map(|r| r.worker_stats.iter().map(|w| w.utilisation(r.wall_seconds)))
        .collect();
    out.push("engine.queue_wait_p50_ms", median(&waits), "ms");
    out.push(
        "engine.execute_p50_ms",
        median(&index.durations_ms("execute")),
        "ms",
    );
    out.push("engine.execute_self_ms", median(&execute_self), "ms");
    out.push(
        "engine.worker_busy_frac",
        ratio(busy.iter().sum(), busy.len() as f64),
        "ratio",
    );
    out.push(
        "engine.queue_high_water",
        reports
            .iter()
            .map(|r| r.queue_high_water)
            .max()
            .unwrap_or(0) as f64,
        "count",
    );
}
