//! Integrity checks of the transient subsystem: analytic single-cell decay,
//! per-step global mass balance, bitwise thread-count determinism of full
//! pressure trajectories, and the warm-start iteration savings.

use mffv::prelude::*;
use mffv_mesh::workload::BoundarySpec;
use mffv_mesh::CellIndex;

mod common;

/// A sealed reservoir (no Dirichlet cells): every exchanged volume must come
/// from a well, which is what makes global mass balance exactly checkable.
fn sealed_workload(dims: Dims, tolerance: f64) -> Workload {
    WorkloadSpec {
        name: format!("sealed-{dims}"),
        boundary: BoundarySpec::None,
        dims,
        tolerance,
        ..WorkloadSpec::quickstart()
    }
    .build()
}

#[test]
fn single_cell_bhp_decay_follows_the_exact_discrete_rate() {
    // One cell, one BHP well: backward Euler reduces to the scalar
    // recurrence p^{n+1} = (D pⁿ + WI·p_bhp) / (D + WI) with D = V·c_t/Δt —
    // the pressure must relax towards the BHP at exactly that rate.
    let workload = sealed_workload(Dims::new(1, 1, 1), 1e-28);
    let (p0, p_bhp, wi, ct, dt) = (2.0, 10.0, 0.5, 4.0, 0.25);
    let spec = TransientSpec::new(8.0 * dt, dt, ct)
        .with_wells(WellSet::empty().with(Well::bhp("w", CellIndex::new(0, 0, 0), p_bhp, wi)))
        .with_initial_pressure(p0);
    let report = Simulation::new(workload.clone())
        .tolerance(1e-28)
        .transient(&spec)
        .unwrap();
    assert_eq!(report.num_steps(), 8);
    assert!(report.all_converged());

    let d = workload.mesh().cell_volume() * ct / dt;
    let factor = d / (d + wi);
    let mut expected = p0;
    for step in &report.steps {
        // p^{n+1} − p_bhp = factor · (pⁿ − p_bhp), exactly.
        expected = p_bhp + factor * (expected - p_bhp);
        let got = step.report.pressure.get(0);
        assert!(
            (got - expected).abs() < 1e-12,
            "step {}: {} vs analytic {}",
            step.index,
            got,
            expected
        );
    }
    // The trajectory is a monotone relaxation towards the BHP.
    let mut last = p0;
    for step in &report.steps {
        let p = step.report.pressure.get(0);
        assert!(p > last && p < p_bhp, "monotone relaxation violated");
        last = p;
    }
}

#[test]
fn global_mass_balance_holds_at_every_step() {
    // Injector + weaker producer in a sealed reservoir: per step,
    // injected − produced must equal the stored (accumulated) volume within
    // the CG tolerance, and the boundary exchanges nothing.
    let dims = Dims::new(8, 6, 4);
    let workload = sealed_workload(dims, 1e-22);
    let spec = TransientSpec::new(5.0, 0.5, 1e-3)
        .with_wells(
            WellSet::empty()
                .with(Well::rate("inj", CellIndex::new(0, 0, 0), 3.0))
                .with(Well::rate(
                    "prod",
                    CellIndex::new(dims.nx - 1, dims.ny - 1, dims.nz - 1),
                    -1.5,
                )),
        )
        .with_initial_pressure(20.0);
    let report = Simulation::new(workload)
        .tolerance(1e-22)
        .transient(&spec)
        .unwrap();
    assert_eq!(report.num_steps(), 10);
    assert!(report.all_converged());
    for step in &report.steps {
        assert!(
            step.boundary_inflow.abs() < 1e-9,
            "sealed boundary leaked {} m³/s",
            step.boundary_inflow
        );
        assert!(
            step.mass_balance_error().abs() < 1e-8,
            "step {}: mass-balance defect {} m³/s",
            step.index,
            step.mass_balance_error()
        );
        // The transient-equation residual the report pins is the same defect
        // cell-by-cell; it must be solver-tolerance small too.
        assert!(step.report.final_residual_max < 1e-8);
    }
    // Cumulative totals integrate the rates exactly.
    assert!((report.total_injected() - 3.0 * 5.0).abs() < 1e-9);
    assert!((report.total_produced() - 1.5 * 5.0).abs() < 1e-9);
    assert!(
        (report.wells[0].net_volume + report.wells[1].net_volume
            - (report.total_injected() - report.total_produced()))
        .abs()
            < 1e-12
    );
    // A sealed reservoir with net injection must end above its initial
    // pressure everywhere.
    let p_final = report.final_pressure();
    assert!(p_final.as_slice().iter().all(|&p| p > 20.0));
}

#[test]
fn mass_balance_also_closes_against_a_dirichlet_boundary() {
    // With a fixed-pressure boundary the ledger gains a boundary-inflow
    // column; accumulation must still equal wells + boundary per step.
    let dims = Dims::new(9, 5, 4);
    let workload = WorkloadSpec {
        name: "bounded".into(),
        boundary: BoundarySpec::XFaces {
            left_pressure: 10.0,
            right_pressure: 10.0,
        },
        dims,
        tolerance: 1e-22,
        ..WorkloadSpec::quickstart()
    }
    .build();
    let spec = TransientSpec::new(2.0, 0.25, 1e-2)
        .with_wells(WellSet::empty().with(Well::rate("inj", CellIndex::new(4, 2, 2), 2.0)))
        .with_initial_pressure(10.0);
    let report = Simulation::new(workload)
        .tolerance(1e-22)
        .transient(&spec)
        .unwrap();
    assert!(report.all_converged());
    let mut boundary_total = 0.0;
    for step in &report.steps {
        assert!(
            step.mass_balance_error().abs() < 1e-8,
            "step {}: defect {}",
            step.index,
            step.mass_balance_error()
        );
        boundary_total += step.boundary_inflow * step.dt;
    }
    // Injection drives pressure up, so the boundary must carry volume *out*.
    assert!(
        boundary_total < 0.0,
        "boundary outflow expected, got {boundary_total}"
    );
}

#[test]
fn full_trajectories_are_bitwise_identical_across_1_2_8_threads() {
    // ≥50 chained solves on the host backend: thread count must not change a
    // single bit anywhere in the trajectory, in any snapshot, or in any
    // history entry.  12×10×6 is one slab; the two-step run on 24×20×20
    // has three slabs, the last one short, which 2 threads split unevenly.
    for (dims, total_time, snapshots, steps) in [
        (Dims::new(12, 10, 6), 12.5, [2.5, 10.0], 50),
        (Dims::new(24, 20, 20), 0.5, [0.25, 0.5], 2),
    ] {
        let workload = sealed_workload(dims, 1e-18);
        let spec = TransientSpec::new(total_time, 0.25, 1e-3)
            .with_wells(
                WellSet::empty()
                    .with(Well::rate("inj", CellIndex::new(1, 1, 1), 1.0).scheduled(0.0, 8.0))
                    .with(Well::bhp(
                        "prod",
                        CellIndex::new(dims.nx - 2, dims.ny - 2, dims.nz - 2),
                        5.0,
                        0.5,
                    )),
            )
            .with_initial_pressure(10.0)
            .with_snapshots(snapshots);
        assert_eq!(spec.num_steps(), steps);

        let run = |threads: usize| {
            Simulation::new(workload.clone())
                .tolerance(1e-18)
                .threads(threads)
                .transient(&spec)
                .unwrap()
        };
        let reference = run(1);
        assert_eq!(reference.num_steps(), steps);
        assert!(reference.all_converged());
        let trajectory = |r: &TransientReport| {
            common::fields_checksum(r.steps.iter().map(|s| &s.report.pressure))
        };
        let reference_trajectory = trajectory(&reference);
        for threads in [2, 8] {
            let report = run(threads);
            assert_eq!(
                trajectory(&report),
                reference_trajectory,
                "{dims}: {threads}-thread trajectory diverged bitwise"
            );
            for (a, b) in reference.steps.iter().zip(report.steps.iter()) {
                assert_eq!(
                    a.report.history, b.report.history,
                    "{dims}: step {} history differs at {threads} threads",
                    a.index
                );
            }
            for (a, b) in reference.snapshots.iter().zip(report.snapshots.iter()) {
                assert_eq!(
                    common::field_checksum(&a.pressure),
                    common::field_checksum(&b.pressure)
                );
            }
        }
    }
}

#[test]
fn warm_started_steps_need_fewer_total_cg_iterations_than_cold() {
    // The acceptance experiment: same scenario, warm start on vs off.  The
    // smooth post-startup steps reuse the previous δ as an initial guess, so
    // the run total must drop measurably.
    let dims = Dims::new(10, 8, 5);
    let workload = sealed_workload(dims, 1e-16);
    let base = TransientSpec::new(10.0, 0.2, 1e-3)
        .with_wells(WellSet::empty().with(Well::rate("inj", CellIndex::new(5, 4, 2), 1.0)))
        .with_initial_pressure(10.0);
    assert_eq!(base.num_steps(), 50);
    let sim = Simulation::new(workload).tolerance(1e-16);
    let warm = sim.transient(&base).unwrap();
    let cold = sim.transient(&base.clone().cold_start()).unwrap();
    assert!(warm.all_converged() && cold.all_converged());
    assert_eq!(warm.num_steps(), cold.num_steps());
    assert!(
        warm.total_iterations() < cold.total_iterations(),
        "warm {} !< cold {}",
        warm.total_iterations(),
        cold.total_iterations()
    );
    // "Measurably": at least 10% fewer iterations over the run.
    assert!(
        (warm.total_iterations() as f64) < 0.9 * cold.total_iterations() as f64,
        "warm {} vs cold {} is not a measurable saving",
        warm.total_iterations(),
        cold.total_iterations()
    );
    // Warm starting changes the iterates CG takes, not where they converge:
    // final fields agree to solver accuracy.
    assert!(warm.final_pressure().max_abs_diff(cold.final_pressure()) < 1e-6);
}

#[test]
fn transient_runs_honour_stop_policies_per_step() {
    let dims = Dims::new(10, 10, 5);
    let workload = sealed_workload(dims, 1e-30);
    let spec = TransientSpec::new(4.0, 0.5, 1e-6)
        .with_wells(WellSet::empty().with(Well::rate("inj", CellIndex::new(5, 5, 2), 1.0)))
        .with_initial_pressure(10.0);
    let report = Simulation::new(workload)
        .tolerance(1e-30)
        .stop_policy(StopPolicy::new().iteration_budget(3))
        .transient(&spec)
        .unwrap();
    assert_eq!(report.stopped, Some(StopReason::IterationBudget));
    assert_eq!(
        report.num_steps(),
        1,
        "the run truncates at the stopped step"
    );
    assert_eq!(report.steps[0].report.iterations(), 3);
    assert!(report.steps[0].report.was_stopped());
    let summary = report.summary_report();
    assert!(summary.was_stopped());
    assert!(summary.require_completed().is_err());
}
