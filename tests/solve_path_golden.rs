//! Golden fixtures pinning every backend's solve paths bit for bit.
//!
//! `golden_differential.rs` pins the plain-CG fixed-`dt` transients and
//! `table_reproduction.rs` the plain-CG fig5 and communication-only dataflow
//! solves; these fixtures cover the remaining Krylov paths:
//!
//! * steady `host-f64` and `host-f32` solves under every preconditioner, on
//!   a heterogeneous grid larger than one reduction slab, at 1 and 2 apply
//!   threads (both thread counts must reproduce the same fixture);
//! * steady `host-f64` and `host-f32` plain-CG and multigrid solves on the
//!   same field over eleven reduction slabs, at 1 and 3 apply threads;
//! * `gpu-ref` and `dataflow` steady solves under every preconditioner;
//! * `host-f64` transients under Jacobi and multigrid with a ramped `dt` and
//!   a scheduled well, so the step operator's diagonal shift changes every
//!   step, and each step's mass ledger.
//!
//! Each record pins the iteration count and checksums of the convergence
//! history and the pressure (`common::values_checksum`, whose multiplier is
//! `0x1000_0000_01b3`, not FNV-1a's prime).  Regenerate with `MFFV_BLESS=1`
//! (see `tests/common/mod.rs`) only after a reviewed numerical change.

use mffv::prelude::*;
use mffv_mesh::workload::BoundarySpec;
use mffv_mesh::CellIndex;

mod common;

/// A lognormal-permeability grid of 5760 cells: more than one
/// `SLAB_CELLS` reduction slab, and two multigrid levels.
fn heterogeneous_spec(name: &str) -> WorkloadSpec {
    WorkloadSpec {
        name: name.to_string(),
        dims: Dims::new(24, 20, 12),
        permeability: PermeabilityModel::LogNormal {
            mean_log: 0.0,
            std_log: 1.0,
            seed: 7,
        },
        tolerance: 1e-12,
        max_iterations: 3000,
        ..WorkloadSpec::quickstart()
    }
}

/// A convergence history's `rᵀr` entries as a field, for checksumming.
fn history_field(history: &ConvergenceHistory) -> CellField<f64> {
    CellField::from_vec(
        Dims::new(history.residual_norms_squared.len(), 1, 1),
        history.residual_norms_squared.clone(),
    )
}

/// The golden checksum of a convergence history's `rᵀr` bit patterns.
fn history_checksum(history: &ConvergenceHistory) -> String {
    common::field_checksum(&history_field(history))
}

fn steady_record(name: &str, report: &mffv::SolveReport) -> common::Golden {
    common::Golden::new(name)
        .str("backend", &report.backend)
        .int("iterations", report.iterations())
        .str("history_checksum", history_checksum(&report.history))
        .str(
            "pressure_checksum",
            common::field_checksum(&report.pressure),
        )
}

/// One steady solve; single-precision backends stop at a tolerance `f32`
/// arithmetic can reach.
fn steady(backend: Backend, kind: PreconditionerKind, threads: usize) -> mffv::SolveReport {
    let tolerance = match backend {
        Backend::Host {
            precision: Precision::F64,
        } => 1e-12,
        _ => 1e-8,
    };
    let spec = heterogeneous_spec("golden-solve-paths");
    solve(spec, tolerance, backend, kind, threads)
}

/// One converged steady solve of `spec`.
fn solve(
    spec: WorkloadSpec,
    tolerance: f64,
    backend: Backend,
    kind: PreconditionerKind,
    threads: usize,
) -> mffv::SolveReport {
    let report = Simulation::new(spec.build())
        .tolerance(tolerance)
        .backend(backend)
        .preconditioner(kind)
        .threads(threads)
        .run()
        .unwrap();
    assert!(
        report.converged(),
        "{} {kind:?} did not converge",
        report.backend
    );
    report
}

#[test]
fn host_steady_solves_match_the_pinned_fixtures_at_1_and_2_threads() {
    for (backend, precision) in [(Backend::host(), "f64"), (Backend::host_f32(), "f32")] {
        for kind in PreconditionerKind::ALL {
            let name = format!("steady_host_{precision}_{}", kind.label());
            let one = steady_record(&name, &steady(backend, kind, 1));
            let two = steady_record(&name, &steady(backend, kind, 2));
            assert_eq!(one.to_json(), two.to_json(), "{name}: 1 vs 2 threads");
            one.check();
        }
    }
}

/// [`heterogeneous_spec`]'s field on 45×40×24: 43 200 cells, ten full
/// `SLAB_CELLS` reduction slabs and a short eleventh of 2 240 cells.  Three
/// apply threads split the eleven slabs 4/4/3.
fn eleven_slab_spec() -> WorkloadSpec {
    WorkloadSpec {
        dims: Dims::new(45, 40, 24),
        ..heterogeneous_spec("golden-eleven-slabs")
    }
}

/// Plain CG and multigrid on [`eleven_slab_spec`] at tolerance 1e-8: each
/// solve at 1 apply thread is pinned, and 3 threads must reproduce it.
fn check_eleven_slab_solves(backend: Backend, precision: &str) {
    for kind in [PreconditionerKind::None, PreconditionerKind::Mg] {
        let name = format!("steady_host_{precision}_{}_45x40x24", kind.label());
        let solve_at = |threads| solve(eleven_slab_spec(), 1e-8, backend, kind, threads);
        let one = steady_record(&name, &solve_at(1));
        let three = steady_record(&name, &solve_at(3));
        assert_eq!(one.to_json(), three.to_json(), "{name}: 1 vs 3 threads");
        one.check();
    }
}

#[test]
fn host_f64_eleven_slab_solves_match_the_pinned_fixtures_at_1_and_3_threads() {
    check_eleven_slab_solves(Backend::host(), "f64");
}

#[test]
fn host_f32_eleven_slab_solves_match_the_pinned_fixtures_at_1_and_3_threads() {
    check_eleven_slab_solves(Backend::host_f32(), "f32");
}

#[test]
fn gpu_ref_steady_solves_match_the_pinned_fixtures() {
    for kind in PreconditionerKind::ALL {
        let report = steady(Backend::gpu_ref(), kind, 1);
        steady_record(&format!("steady_gpu_ref_{}", kind.label()), &report).check();
    }
}

#[test]
fn dataflow_steady_solves_match_the_pinned_fixtures() {
    for kind in PreconditionerKind::ALL {
        let report = steady(Backend::dataflow(), kind, 1);
        steady_record(&format!("steady_dataflow_{}", kind.label()), &report).check();
    }
}

/// The ramped transient on [`heterogeneous_spec`]'s grid under `kind`.
fn ramped_transient(kind: PreconditionerKind) -> TransientReport {
    let workload = WorkloadSpec {
        boundary: BoundarySpec::XFaces {
            left_pressure: 10.0,
            right_pressure: 8.0,
        },
        ..heterogeneous_spec("golden-ramped-transient")
    }
    .build();
    // dt grows every step until the cap, and the injector shuts in part-way,
    // so the diagonal shift differs from one step to the next.
    let spec = TransientSpec::new(6.0, 0.1, 1e-3)
        .with_dt_policy(DtPolicy::ramp(0.1, 1.25, 1.0))
        .with_wells(
            WellSet::empty()
                .with(Well::rate("inj", CellIndex::new(12, 10, 6), 1.5).scheduled(0.0, 2.5))
                .with(Well::bhp("prod", CellIndex::new(18, 5, 3), 6.0, 0.8)),
        )
        .with_initial_pressure(9.0);
    Simulation::new(workload)
        .preconditioner(kind)
        .transient(&spec)
        .unwrap()
}

#[test]
fn ramped_preconditioned_transients_match_the_pinned_fixtures() {
    for kind in [PreconditionerKind::Jacobi, PreconditionerKind::Mg] {
        let report = ramped_transient(kind);
        assert!(report.all_converged(), "{kind:?}");
        let histories: Vec<CellField<f64>> = report
            .steps
            .iter()
            .map(|s| history_field(&s.report.history))
            .collect();
        common::Golden::new(format!("transient_host_f64_ramp_{}", kind.label()))
            .str("backend", &report.backend)
            .int("steps", report.num_steps())
            .int("total_iterations", report.total_iterations())
            .str("history_checksum", common::fields_checksum(&histories))
            .str(
                "trajectory_checksum",
                common::fields_checksum(report.steps.iter().map(|s| &s.report.pressure)),
            )
            .str(
                "final_pressure_checksum",
                common::field_checksum(report.final_pressure()),
            )
            .check();
    }
}

#[test]
fn ramped_transient_step_ledgers_match_the_pinned_fixtures() {
    for kind in [PreconditionerKind::Jacobi, PreconditionerKind::Mg] {
        let report = ramped_transient(kind);
        common::Golden::new(format!("transient_ledger_host_f64_ramp_{}", kind.label()))
            .str("backend", &report.backend)
            .int("steps", report.num_steps())
            .str("ledger_checksum", common::step_ledger_checksum(&report))
            .check();
    }
}
