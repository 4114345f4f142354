//! Cross-crate numerical integrity (§V-B of the paper): the sequential oracle,
//! the assembled-CSR baseline, the GPU-style reference and the dataflow-fabric
//! solver must produce the same pressure field on shared workloads — now
//! exercised through the one `Simulation` facade.

use mffv::prelude::*;
use mffv_fv::csr::AssembledOperator;
use mffv_mesh::workload::BoundarySpec;
use mffv_solver::newton::{solve_pressure, NewtonScratch};

/// One Newton step of `workload` on `operator` under `solver`.
fn newton<Op: LinearOperator<f64>>(
    workload: &Workload,
    operator: &Op,
    solver: &ConjugateGradient,
) -> NewtonScratch<f64> {
    let mut buffers = NewtonScratch::new(workload.dims());
    solve_pressure(
        workload,
        workload.transmissibility(),
        operator,
        None,
        solver,
        &mut NullMonitor,
        &Span::null(),
        &mut buffers,
    );
    buffers
}

fn workloads() -> Vec<Workload> {
    vec![
        WorkloadSpec::quickstart().build(),
        WorkloadSpec::fig5(Dims::new(10, 8, 6)).build(),
        WorkloadSpec::paper_grid(14, 12, 10).build(),
    ]
}

#[test]
fn assembled_baseline_matches_oracle_to_solver_precision() {
    for workload in workloads() {
        // Run both operators through the identical CG configuration so the
        // comparison isolates the operator implementations.  The assembled
        // baseline is an operator, not a facade backend, so this test stays on
        // the lower-level driver deliberately.
        let solver = ConjugateGradient::with_tolerance(1e-16, workload.max_iterations());
        let oracle = newton(
            &workload,
            &mffv_fv::MatrixFreeOperator::<f64>::from_workload(&workload),
            &solver,
        );
        let assembled = newton(
            &workload,
            &AssembledOperator::<f64>::from_workload(&workload),
            &solver,
        );
        assert!(oracle.history().converged && assembled.history().converged);
        let scale = oracle.pressure().max_abs().max(f64::MIN_POSITIVE);
        let rel = oracle.pressure().max_abs_diff(assembled.pressure()) / scale;
        assert!(
            rel < 1e-9,
            "{}: assembled baseline off by {rel}",
            workload.name()
        );
    }
}

#[test]
fn gpu_reference_matches_oracle_to_single_precision() {
    for workload in workloads() {
        let agreement = Simulation::new(workload.clone())
            .tolerance(1e-12)
            .backend(Backend::host())
            .backend(Backend::gpu_ref())
            .compare()
            .expect("solve failed");
        let gpu = agreement.report("gpu-ref-A100").unwrap();
        assert!(
            gpu.converged(),
            "{}: GPU reference did not converge",
            workload.name()
        );
        assert!(
            agreement.agrees_within(1e-3),
            "{}: GPU reference off by {}",
            workload.name(),
            agreement.max_pairwise_rel_diff()
        );
    }
}

#[test]
fn dataflow_solver_matches_oracle_to_single_precision() {
    for workload in workloads() {
        let agreement = Simulation::new(workload.clone())
            .tolerance(1e-12)
            .backend(Backend::host())
            .backend(Backend::dataflow())
            .compare()
            .expect("solve failed");
        let dataflow = agreement.report("dataflow").unwrap();
        assert!(
            dataflow.converged(),
            "{}: dataflow did not converge",
            workload.name()
        );
        assert!(
            agreement.agrees_within(1e-3),
            "{}: dataflow solver off by {}",
            workload.name(),
            agreement.max_pairwise_rel_diff()
        );
    }
}

#[test]
fn dataflow_and_gpu_reference_agree_with_each_other() {
    let workload = WorkloadSpec::fig5(Dims::new(9, 7, 5)).build();
    let agreement = Simulation::new(workload)
        .tolerance(1e-12)
        .backend(Backend::gpu_ref_on(GpuSpec::h100()))
        .backend(Backend::dataflow())
        .compare()
        .expect("solve failed");
    assert_eq!(agreement.pairwise.len(), 1);
    assert!(
        agreement.agrees_within(1e-3),
        "dataflow vs GPU reference differ by {}",
        agreement.max_pairwise_rel_diff()
    );
}

#[test]
fn run_all_executes_the_full_standard_set() {
    // The facade's default backend set is the §V-B experiment: all three
    // targets on one workload, pairwise agreement below single precision.
    let agreement = Simulation::from_spec(&WorkloadSpec::quickstart())
        .tolerance(1e-10)
        .compare()
        .expect("solve failed");
    assert_eq!(agreement.reports.len(), 3);
    assert_eq!(agreement.pairwise.len(), 3);
    assert!(agreement.max_pairwise_diff() < 1e-3);
    // Device sections exist exactly where a device is modelled.
    assert!(agreement.report("host-f64").unwrap().device.is_none());
    assert!(agreement.report("gpu-ref-A100").unwrap().device.is_some());
    assert!(agreement.report("dataflow").unwrap().device.is_some());
}

/// The grids the planned-kernel equivalence contract is pinned on: the
/// quickstart and scaled workloads, an all-Dirichlet-faces configuration,
/// 1-cell-thin extents in each axis, and lognormal grids covering every
/// neighbour set a cell can have, so a kernel that read one face for
/// another would change bits.
fn planned_kernel_workloads() -> Vec<(String, Transmissibilities<f64>, DirichletSet)> {
    let mut cases: Vec<(String, Transmissibilities<f64>, DirichletSet)> = Vec::new();
    for spec in [
        WorkloadSpec::quickstart(),
        WorkloadSpec::quickstart().scaled(2),
    ] {
        let w = spec.build();
        cases.push((
            w.name().to_string(),
            w.transmissibility().clone(),
            w.dirichlet().clone(),
        ));
    }
    // Every boundary face Dirichlet: the fast path shrinks to the inner core.
    let dims = Dims::new(8, 7, 6);
    cases.push((
        "all-dirichlet-faces".into(),
        Transmissibilities::uniform(dims, 1.0),
        DirichletSet::all_faces(dims, 1.0),
    ));
    // 1-cell-thin grids whose left face is Dirichlet.  (On the 1xNxM grid
    // the "left face" is the whole domain — also a useful degenerate case.)
    for dims in [Dims::new(1, 9, 7), Dims::new(9, 1, 7), Dims::new(9, 7, 1)] {
        let left_face: Vec<mffv_mesh::DirichletCell> = dims
            .iter_cells()
            .filter(|c| c.x == 0)
            .map(|cell| mffv_mesh::DirichletCell { cell, value: 1.0 })
            .collect();
        cases.push((
            format!("thin-{dims}"),
            Transmissibilities::uniform(dims, 2.0),
            DirichletSet::new(dims, left_face),
        ));
    }
    // Heterogeneous, anisotropic coefficients with no Dirichlet cell: every
    // cell runs on a branch-free kernel, thin grids included.
    let lognormal = |dims: Dims| {
        let spec = WorkloadSpec {
            name: format!("lognormal-{dims}"),
            dims,
            spacing: [2.0, 3.0, 0.5],
            permeability: PermeabilityModel::LogNormal {
                mean_log: 0.0,
                std_log: 1.5,
                seed: 11,
            },
            viscosity: 0.7,
            boundary: BoundarySpec::None,
            tolerance: 1e-10,
            max_iterations: 100,
        };
        spec.build().transmissibility().clone()
    };
    for dims in [
        Dims::new(1, 6, 6),
        Dims::new(6, 1, 6),
        Dims::new(6, 6, 1),
        Dims::new(1, 1, 9),
        Dims::new(2, 2, 2),
        Dims::new(3, 3, 3),
        Dims::new(33, 17, 9),
    ] {
        cases.push((
            format!("lognormal-{dims}"),
            lognormal(dims),
            DirichletSet::empty(),
        ));
    }
    // The same heterogeneous grid with Dirichlet cells on a corner, an edge,
    // a face and in the interior.
    let dims = Dims::new(33, 17, 9);
    let pinned = [
        CellIndex::new(32, 16, 8),
        CellIndex::new(0, 8, 0),
        CellIndex::new(16, 0, 4),
        CellIndex::new(10, 9, 5),
    ]
    .map(|cell| mffv_mesh::DirichletCell { cell, value: 1.0 });
    cases.push((
        "lognormal-corner-edge-face".into(),
        lognormal(dims),
        DirichletSet::new(dims, pinned.to_vec()),
    ));
    cases
}

#[test]
fn planned_apply_is_bitwise_identical_to_naive_on_pinned_workloads() {
    for (name, coeffs, dirichlet) in planned_kernel_workloads() {
        let dims = coeffs.dims();
        let steady = mffv_fv::MatrixFreeOperator::new(coeffs, &dirichlet);
        let diag = CellField::from_fn(dims, |c| 0.25 + (c.x + 2 * c.y + 3 * c.z) as f64 * 0.125);
        let shifted = steady.clone().with_diagonal_shift(&diag);
        let x = CellField::<f64>::from_fn(dims, |c| {
            (c.x as f64 * 1.7 - c.y as f64 * 0.9 + c.z as f64 * 0.4).sin()
        });
        for (shift, op) in [("steady", steady), ("shifted", shifted)] {
            let mut naive = CellField::zeros(dims);
            op.apply_spd_naive(&x, &mut naive);
            for threads in [1usize, 2, 8] {
                let planned = op.clone().with_threads(threads).apply_new(&x);
                for i in 0..dims.num_cells() {
                    assert_eq!(
                        planned.get(i).to_bits(),
                        naive.get(i).to_bits(),
                        "{name} ({shift}): cell {i} differs with {threads} threads"
                    );
                }
            }
        }
    }
}

#[test]
fn host_solves_are_bitwise_identical_across_apply_thread_counts() {
    // 32x32x16 = 16384 cells: four deterministic slabs, so 2 and 8 threads
    // genuinely split the work.  Pressure fields and residual histories must
    // not depend on the thread count in a single bit.
    let spec = WorkloadSpec::quickstart().scaled(2);
    let reference = Simulation::from_spec(&spec).tolerance(1e-12).run().unwrap();
    for threads in [2usize, 8] {
        let report = Simulation::from_spec(&spec)
            .tolerance(1e-12)
            .threads(threads)
            .run()
            .unwrap();
        assert!(report.converged());
        let bits = |r: &mffv::SolveReport| -> Vec<u64> {
            r.pressure.as_slice().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(&report), bits(&reference), "{threads} threads");
        let history_bits = |r: &mffv::SolveReport| -> Vec<u64> {
            r.history
                .residual_norms_squared
                .iter()
                .map(|v| v.to_bits())
                .collect()
        };
        assert_eq!(
            history_bits(&report),
            history_bits(&reference),
            "{threads} threads"
        );
    }
}

#[test]
fn converged_pressure_satisfies_the_discrete_maximum_principle() {
    // The single-phase operator has no sources except the Dirichlet columns, so
    // the converged pressure must stay inside the range of the boundary values
    // — on every implementation.
    let (lo, hi) = (0.0f64, 1.0f64);
    let reports: Vec<_> = Simulation::from_spec(&WorkloadSpec::quickstart())
        .tolerance(1e-12)
        .backend(Backend::host())
        .backend(Backend::dataflow())
        .run_all()
        .into_iter()
        .map(|(_, outcome)| outcome.expect("solve failed"))
        .collect();
    for report in &reports {
        let slack = if report.backend == "host-f64" {
            1e-8
        } else {
            1e-4
        };
        for &p in report.pressure.as_slice() {
            assert!(
                p >= lo - slack && p <= hi + slack,
                "{} violates maximum principle: {p}",
                report.backend
            );
        }
    }
}
