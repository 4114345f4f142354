//! End-to-end CG solve benchmarks (the executed counterpart of Table II): the
//! sequential matrix-free oracle, the assembled baseline, plain CG vs Jacobi PCG,
//! the dataflow-fabric solve, and the `mffv-engine` batch executor at worker
//! counts 1 / 2 / 8.

use criterion::{criterion_group, criterion_main, Criterion};
use mffv::telemetry::Span;
use mffv::{Backend, Engine, Simulation, SweepBuilder};
use mffv_bench::bench_workload;
use mffv_fv::csr::AssembledOperator;
use mffv_fv::residual::{newton_rhs, residual};
use mffv_fv::LinearOperator;
use mffv_fv::MatrixFreeOperator;
use mffv_mesh::{CellField, Dims, Workload};
use mffv_solver::cg::ConjugateGradient;
use mffv_solver::monitor::NullMonitor;
use mffv_solver::newton::{solve_pressure, NewtonScratch};
use mffv_solver::pcg::JacobiPreconditioner;
use std::hint::black_box;

/// One Newton step of `workload` on `op`, on fresh buffers.
fn newton<Op: LinearOperator<f64>>(
    workload: &Workload,
    op: &Op,
    solver: &ConjugateGradient,
) -> NewtonScratch<f64> {
    let mut buffers = NewtonScratch::new(workload.dims());
    solve_pressure(
        workload,
        workload.transmissibility(),
        op,
        None,
        solver,
        &mut NullMonitor,
        &Span::null(),
        &mut buffers,
    );
    buffers
}

fn bench_cg_solves(c: &mut Criterion) {
    let workload = bench_workload();
    let tolerance = 1e-10;
    let mut group = c.benchmark_group("cg_solve");
    group.sample_size(10);

    group.bench_function("matrix_free_oracle_f64", |b| {
        let op = MatrixFreeOperator::<f64>::from_workload(&workload);
        let solver = ConjugateGradient::with_tolerance(tolerance, 10_000);
        b.iter(|| black_box(newton(&workload, &op, &solver)))
    });

    group.bench_function("assembled_baseline_f64", |b| {
        let op = AssembledOperator::<f64>::from_workload(&workload);
        let solver = ConjugateGradient::with_tolerance(tolerance, 10_000);
        b.iter(|| black_box(newton(&workload, &op, &solver)))
    });

    group.bench_function("jacobi_pcg_f64", |b| {
        let op = MatrixFreeOperator::<f64>::from_workload(&workload);
        let pc = JacobiPreconditioner::from_coefficients(op.coefficients(), workload.dirichlet());
        let solver = ConjugateGradient::with_tolerance(tolerance, 10_000);
        let p0: CellField<f64> = workload.initial_pressure();
        let r = residual(&p0, workload.transmissibility(), workload.dirichlet());
        let rhs = newton_rhs(&r, workload.dirichlet());
        let x0 = CellField::zeros(workload.dims());
        b.iter(|| black_box(solver.solve(&op, Some(&pc), &rhs, &x0, &mut NullMonitor)))
    });

    group.bench_function("dataflow_fabric_f32", |b| {
        let simulation = Simulation::new(workload.clone())
            .tolerance(1e-8)
            .backend(Backend::dataflow());
        b.iter(|| black_box(simulation.run().expect("dataflow solve failed")))
    });

    group.finish();
}

/// The host solve fanned out as an engine batch: six distinct scenarios
/// (three grid sizes × two log-normal permeability seeds), executed at 1, 2
/// and 8 workers.  On a multi-core host the wall time drops with the worker
/// count; the per-job results are bitwise identical either way.
fn bench_engine_batch(c: &mut Criterion) {
    // A stochastic permeability base, so the seed axis genuinely changes the
    // problem (reseeding is a no-op on the homogeneous bench workload).
    let base = mffv_mesh::WorkloadSpec {
        name: "bench-engine".to_string(),
        permeability: mffv_mesh::PermeabilityModel::LogNormal {
            mean_log: 0.0,
            std_log: 0.4,
            seed: 0,
        },
        tolerance: 1e-8,
        ..bench_workload().spec().clone()
    };
    let jobs = SweepBuilder::new(base)
        .grids([
            Dims::new(12, 10, 16),
            Dims::new(16, 12, 24),
            Dims::new(20, 16, 24),
        ])
        .seeds([1, 2])
        .backends([Backend::host()])
        .jobs();
    let mut group = c.benchmark_group("engine_batch");
    group.sample_size(10);
    for workers in [1usize, 2, 8] {
        let jobs = jobs.clone();
        group.bench_function(format!("host_6jobs_w{workers}"), |b| {
            let engine = Engine::new(workers);
            b.iter(|| {
                let report = engine.run(jobs.clone());
                assert!(report.all_succeeded());
                black_box(report)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_cg_solves, bench_engine_batch);
criterion_main!(benches);
