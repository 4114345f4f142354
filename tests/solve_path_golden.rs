//! Golden fixtures pinning every host-side solve path bit for bit.
//!
//! `golden_differential.rs` pins the dataflow steady solves and plain-CG
//! fixed-`dt` transients; these fixtures cover the remaining paths through
//! the host Krylov loop:
//!
//! * steady `host-f64` and `host-f32` solves under every preconditioner, on
//!   a heterogeneous grid larger than one reduction slab, at 1 and 2 apply
//!   threads (both thread counts must reproduce the same fixture);
//! * `gpu-ref` steady solves under every preconditioner;
//! * `host-f64` transients under Jacobi and multigrid with a ramped `dt` and
//!   a scheduled well, so the step operator's diagonal shift changes every
//!   step.
//!
//! Each record pins the iteration count and FNV-1a checksums of the
//! convergence history and the pressure.  Regenerate with `MFFV_BLESS=1`
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

/// FNV-1a over the bit patterns of a convergence history's `rᵀr` entries.
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
    let report = Simulation::new(heterogeneous_spec("golden-solve-paths").build())
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

#[test]
fn gpu_ref_steady_solves_match_the_pinned_fixtures() {
    for kind in PreconditionerKind::ALL {
        let report = steady(Backend::gpu_ref(), kind, 1);
        steady_record(&format!("steady_gpu_ref_{}", kind.label()), &report).check();
    }
}

#[test]
fn ramped_preconditioned_transients_match_the_pinned_fixtures() {
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
    for kind in [PreconditionerKind::Jacobi, PreconditionerKind::Mg] {
        let report = Simulation::new(workload.clone())
            .preconditioner(kind)
            .transient(&spec)
            .unwrap();
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
