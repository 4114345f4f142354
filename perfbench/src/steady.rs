//! `steady-cg`: one steady f64 pressure solve to the paper's tolerance via
//! `Simulation::run` — host backend, plain CG, one kernel thread, a 64³
//! unit-scale grid with seeded lognormal permeability.  Almost all of the
//! time is in the `fv::plan` kernels and the Krylov loop.

use crate::layers;
use crate::metrics::{median, MetricSet};
use crate::spans::SpanIndex;
use crate::{Checks, Context, Outcome};
use mffv::mesh::workload::{BoundarySpec, PAPER_TOLERANCE};
use mffv::mesh::{Dims, PermeabilityModel, Workload, WorkloadSpec};
use mffv::telemetry::Stopwatch;
use mffv::telemetry::Tracer;
use mffv::{Backend, Simulation};

pub const DIMS: Dims = Dims {
    nx: 64,
    ny: 64,
    nz: 64,
};

/// Kernel threads of the solve.  Two threads join at every fused-kernel
/// call, about 2000 times per solve, so on a virtual machine whose vCPUs
/// are descheduled now and then a two-thread solve swung ±35% from run to
/// run where a one-thread solve swung ±11%.  The `fv.*` probes still time
/// the kernels on two threads.
const SOLVE_THREADS: usize = 1;

/// Solves each run makes at least, so a median exists.
const MIN_SOLVES: usize = 2;

/// A converged solve's max-norm residual may exceed `sqrt(tolerance)` (the
/// bound `‖r‖∞ ≤ ‖r‖₂` gives for the recursively updated residual) by this
/// factor, covering the drift between the recursive and the recomputed
/// residual.
const RESIDUAL_SLACK: f64 = 10.0;

/// The steady workload spec for `seed`.
pub fn spec(seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        name: format!("steady-cg-{DIMS}"),
        dims: DIMS,
        spacing: [1.0, 1.0, 1.0],
        permeability: PermeabilityModel::LogNormal {
            mean_log: 0.0,
            std_log: 0.5,
            seed: crate::derive_seed(seed, 1),
        },
        viscosity: 1.0,
        boundary: BoundarySpec::SourceProducer {
            source_pressure: 1.0,
            producer_pressure: 0.0,
        },
        tolerance: PAPER_TOLERANCE,
        max_iterations: 10_000,
    }
}

/// Solves of one phase: wall times, iterations and the pressure checksum.
#[derive(Default)]
struct Phase {
    solve_ms: Vec<f64>,
    iterations: usize,
    checksum: Option<u64>,
}

/// Solve repeatedly for `seconds`, checking every result.
fn solve_for(sim: &Simulation, seconds: f64, checks: &mut Checks) -> Phase {
    let mut phase = Phase::default();
    let bound = RESIDUAL_SLACK * sim.workload().tolerance().sqrt();
    crate::run_for(seconds, MIN_SOLVES, || {
        let started = Stopwatch::start();
        let result = sim.run();
        let elapsed = started.elapsed_seconds();
        phase.solve_ms.push(elapsed * 1e3);
        match result {
            Ok(report) => {
                checks.record(
                    report.converged() && report.final_residual_max <= bound,
                    || {
                        format!(
                            "solve converged={} final_residual_max={:e} (bound {bound:e})",
                            report.converged(),
                            report.final_residual_max
                        )
                    },
                );
                phase.iterations = report.iterations();
                let sum = crate::checksum(report.pressure.as_slice());
                match phase.checksum {
                    Some(first) => checks.checksum(first, sum, "steady-cg repeat solve"),
                    None => phase.checksum = Some(sum),
                }
            }
            Err(error) => checks.record(false, || format!("solve failed: {error}")),
        }
        elapsed
    });
    phase
}

pub fn run(cx: &Context<'_>) -> Outcome {
    let mut checks = Checks::default();
    let (sim, setup_seconds) = crate::repeated_setup(|| {
        let workload = Workload::try_from_spec(&spec(cx.args.seed)).expect("steady spec is valid");
        Simulation::new(workload)
            .backend(Backend::host())
            .threads(SOLVE_THREADS)
    });
    let untraced = solve_for(&sim, cx.args.seconds, &mut checks);
    if let Some(sum) = untraced.checksum {
        println!("steady-cg pressure checksum {sum:016x}");
    }
    let mut out = MetricSet::new();
    if !cx.args.trace {
        let busy = untraced.solve_ms.iter().sum::<f64>() / 1e3;
        crate::push_end_to_end(
            &mut out,
            &setup_seconds,
            &untraced.solve_ms,
            untraced.solve_ms.len() as u64,
            busy,
        );
        return Outcome {
            checks,
            metrics: out,
        };
    }

    let tracer = Tracer::new();
    let traced_sim = sim.clone().tracer(tracer.clone());
    let traced = solve_for(&traced_sim, cx.traced_seconds(), &mut checks);
    if let (Some(a), Some(b)) = (untraced.checksum, traced.checksum) {
        checks.checksum(a, b, "steady-cg traced vs untraced");
    }
    let records = tracer.records();
    let index = SpanIndex::new(&records);
    let cells = DIMS.num_cells();
    let triad = cx.triad.expect("traced runs measure the triad first");
    let kernel_s = layers::probe(
        &spec(cx.args.seed),
        cx.threads(),
        SOLVE_THREADS,
        None,
        triad,
        &mut out,
    );
    crate::push_host(
        cx,
        &mut out,
        layers::working_set_bytes(cells, false),
        SOLVE_THREADS,
        0,
    );

    let iterations = traced.iterations * traced.solve_ms.len();
    let loop_s = index.total_seconds("cg-loop");
    let iteration_ms = crate::metrics::ratio(loop_s * 1e3, iterations as f64);
    out.push("solver.iterations", traced.iterations as f64, "count");
    out.push("solver.iteration_ms", iteration_ms, "ms");
    out.push("solver.unexplained_ms", iteration_ms - kernel_s * 1e3, "ms");
    out.push(
        "solver.cell_iters_per_s",
        crate::metrics::ratio((cells * iterations) as f64, loop_s),
        "1/s",
    );
    out.push(
        "solver.build_ms",
        median(&index.durations_ms("build-operator")),
        "ms",
    );
    out.push(
        "telemetry.overhead_pct",
        crate::overhead_pct(median(&untraced.solve_ms), median(&traced.solve_ms), true),
        "%",
    );
    crate::transient_batch::probe(cx, true, &mut out, &mut checks);
    crate::serve_stream::probe(cx, &mut out, &mut checks);
    println!("chrome trace: {}", crate::write_chrome_trace(cx, &tracer));
    Outcome {
        checks,
        metrics: out,
    }
}
