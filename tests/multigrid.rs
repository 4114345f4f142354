//! Multigrid preconditioner integration tests: the V-cycle is a fixed SPD
//! operation on arbitrary grids (including degenerate 1-cell-thin ones) and
//! every Dirichlet topology, MG-PCG reaches the same pressure as plain CG,
//! its residual history is bitwise identical across thread counts, and its
//! iteration count stays flat under grid refinement (release tier).

use mffv::prelude::*;
use mffv_fv::{det_dot, Preconditioner};
use mffv_mesh::boundary::DirichletCell;
use mffv_mesh::permeability::PermeabilityModel;
use mffv_mesh::workload::{BoundarySpec, WorkloadSpec};
use mffv_solver::newton::{solve_pressure, NewtonScratch};
use mffv_solver::trace::Span;
use proptest::prelude::*;

/// One Newton step of `w` on `operator` at the workload's own settings,
/// preconditioned by `preconditioner` when given.
fn newton(
    w: &Workload,
    operator: &MatrixFreeOperator<f64>,
    preconditioner: Option<&dyn Preconditioner<f64>>,
) -> NewtonScratch<f64> {
    let solver = ConjugateGradient::with_tolerance(w.tolerance(), w.max_iterations());
    let mut buffers = NewtonScratch::new(w.dims());
    solve_pressure(
        w,
        operator.coefficients(),
        operator,
        preconditioner,
        &solver,
        &mut NullMonitor,
        &Span::null(),
        &mut buffers,
    );
    buffers
}

/// A Dirichlet set of the requested flavour that is valid on *any* dims,
/// including 1-cell-thin grids (mirrors `tests/property_invariants.rs`).
fn dirichlet_variant(dims: Dims, variant: usize, seed: u64) -> DirichletSet {
    match variant % 4 {
        0 => DirichletSet::empty(),
        1 if dims.nx > 1 => DirichletSet::x_faces(dims, 1.0, 0.0),
        1 => {
            let cells: Vec<DirichletCell> = dims
                .iter_cells()
                .map(|cell| DirichletCell { cell, value: 1.0 })
                .collect();
            DirichletSet::new(dims, cells)
        }
        2 => DirichletSet::all_faces(dims, 1.0),
        _ => {
            let cells: Vec<DirichletCell> = (0..dims.num_cells())
                .filter(|&k| {
                    (k as u64)
                        .wrapping_mul(0x9E37_79B9)
                        .wrapping_add(seed)
                        .is_multiple_of(5)
                })
                .map(|k| DirichletCell {
                    cell: dims.unlinear(k),
                    value: 0.5,
                })
                .collect();
            DirichletSet::new(dims, cells)
        }
    }
}

/// A heterogeneous workload on `dims` whose coefficient table feeds the
/// hierarchies under test.
fn heterogeneous_workload(dims: Dims, seed: u64) -> Workload {
    WorkloadSpec {
        name: "mg-prop".to_string(),
        dims,
        spacing: [1.0, 1.0, 1.0],
        permeability: PermeabilityModel::LogNormal {
            mean_log: 0.0,
            std_log: 1.0,
            seed,
        },
        viscosity: 1.0,
        boundary: BoundarySpec::None,
        tolerance: 1e-10,
        max_iterations: 5000,
    }
    .build()
}

/// Zero a field on the Dirichlet cells so test vectors live in the subspace
/// the error equations are posed on.  With no Dirichlet cells at all the
/// operator is pure-Neumann singular, so additionally deflate the constant
/// null-space (restriction preserves zero-sum and smoothing keeps it, so the
/// whole hierarchy then works on consistent systems).
fn mask(dirichlet: &DirichletSet, mut f: CellField<f64>) -> CellField<f64> {
    for k in 0..f.dims().num_cells() {
        if dirichlet.contains_linear(k) {
            f.set(k, 0.0);
        }
    }
    if dirichlet.is_empty() {
        let mut sum = 0.0;
        for &v in f.as_slice() {
            sum += v;
        }
        let mean = sum / f.as_slice().len() as f64;
        for v in f.as_mut_slice() {
            *v -= mean;
        }
    }
    f
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The V-cycle is one fixed symmetric operation: `⟨r₁, M⁻¹r₂⟩ = ⟨r₂, M⁻¹r₁⟩`
    /// for arbitrary vectors, on every Dirichlet topology, with no NaNs even on
    /// degenerate 1-cell-thin grids.  Positivity of `⟨r, M⁻¹r⟩` is asserted on
    /// the nonsingular (pinned) topologies.
    #[test]
    fn vcycle_is_a_fixed_spd_operation(
        nx in 1usize..10,
        ny in 1usize..10,
        nz in 1usize..10,
        variant in 0usize..4,
        seed in 0u64..1_000,
    ) {
        let dims = Dims::new(nx, ny, nz);
        let dirichlet = dirichlet_variant(dims, variant, seed);
        let w = heterogeneous_workload(dims, seed);
        // Tiny coarse target so even these small grids build real hierarchies.
        let config = MgConfig { coarse_cells: 8 };
        let mg = MultigridVcycle::<f64>::new(
            w.transmissibility().convert(),
            &dirichlet,
            1,
            config,
        );

        let r1 = mask(&dirichlet, CellField::from_fn(dims, |c| {
            ((c.x * 31 + c.y * 17 + c.z * 7 + seed as usize) % 13) as f64 - 6.0
        }));
        let r2 = mask(&dirichlet, CellField::from_fn(dims, |c| {
            ((c.x * 5 + c.y * 23 + c.z * 11 + seed as usize) % 9) as f64 - 4.0
        }));
        let mut z1 = CellField::zeros(dims);
        let mut z2 = CellField::zeros(dims);
        mg.apply(&r1, &mut z1);
        mg.apply(&r2, &mut z2);
        prop_assert!(z1.all_finite(), "M⁻¹r₁ has non-finite entries");
        prop_assert!(z2.all_finite(), "M⁻¹r₂ has non-finite entries");

        let lhs = det_dot(&r1, &z2);
        let rhs = det_dot(&r2, &z1);
        let scale = det_dot(&r1, &z1).abs().max(det_dot(&r2, &z2).abs()).max(1.0);
        prop_assert!(
            (lhs - rhs).abs() <= 1e-8 * scale,
            "V-cycle inner product is asymmetric: {lhs} vs {rhs} (scale {scale})"
        );

        // A second apply of the same vector is the same fixed operation.
        let mut z1_again = CellField::zeros(dims);
        mg.apply(&r1, &mut z1_again);
        let bits = |f: &CellField<f64>| -> Vec<u64> {
            f.as_slice().iter().map(|v| v.to_bits()).collect()
        };
        prop_assert_eq!(bits(&z1), bits(&z1_again));

        // Positivity on the pinned (nonsingular) topologies.
        if !dirichlet.is_empty() && r1.as_slice().iter().any(|&v| v != 0.0) {
            prop_assert!(
                det_dot(&r1, &z1) > 0.0,
                "⟨r, M⁻¹r⟩ = {} is not positive",
                det_dot(&r1, &z1)
            );
        }
    }
}

/// The shared steady scenario of the golden differential tests: MG-PCG must
/// land on the same pressure field plain CG does.
fn golden_workload() -> Workload {
    WorkloadSpec {
        name: "golden-steady".into(),
        boundary: BoundarySpec::XFaces {
            left_pressure: 10.0,
            right_pressure: 8.0,
        },
        dims: Dims::new(10, 8, 6),
        tolerance: 1e-11,
        ..WorkloadSpec::quickstart()
    }
    .build()
}

#[test]
fn mg_pcg_reaches_the_same_pressure_as_plain_cg() {
    for (w, diff_tol) in [
        (golden_workload(), 1e-7),
        (WorkloadSpec::quickstart().scaled(2).build(), 1e-3),
    ] {
        let operator = MatrixFreeOperator::<f64>::from_workload(&w);
        let base = newton(&w, &operator, None);
        assert!(base.history().converged);

        let mg = MultigridVcycle::<f64>::from_workload(&w, 1, MgConfig::default());
        let sol = newton(&w, &operator, Some(&mg));
        assert!(
            sol.history().converged,
            "MG-PCG did not converge on {}",
            w.name()
        );
        assert!(
            sol.history().iterations <= base.history().iterations,
            "MG-PCG took {} iterations vs plain CG's {}",
            sol.history().iterations,
            base.history().iterations
        );
        let mut max_diff = 0.0f64;
        for (a, b) in sol
            .pressure()
            .as_slice()
            .iter()
            .zip(base.pressure().as_slice())
        {
            max_diff = max_diff.max((a - b).abs());
        }
        assert!(
            max_diff < diff_tol,
            "pressures disagree by {max_diff} on {}",
            w.name()
        );
    }
}

#[test]
fn mg_pcg_residual_history_is_bitwise_identical_across_thread_counts() {
    let w = WorkloadSpec {
        name: "mg-threads".to_string(),
        dims: Dims::new(20, 18, 14),
        tolerance: 1e-10,
        ..WorkloadSpec::quickstart()
    }
    .build();
    let solve = |threads: usize| {
        let operator = MatrixFreeOperator::<f64>::from_workload(&w).with_threads(threads);
        let mg = MultigridVcycle::<f64>::from_workload(&w, threads, MgConfig::default());
        newton(&w, &operator, Some(&mg))
    };
    let base = solve(1);
    assert!(base.history().converged);
    let base_history: Vec<u64> = base
        .history()
        .residual_norms_squared
        .iter()
        .map(|v| v.to_bits())
        .collect();
    let base_pressure: Vec<u64> = base
        .pressure()
        .as_slice()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    for threads in [2usize, 8] {
        let other = solve(threads);
        let history: Vec<u64> = other
            .history()
            .residual_norms_squared
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(
            base_history, history,
            "MG-PCG residual history differs at {threads} threads"
        );
        let pressure: Vec<u64> = other
            .pressure()
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(
            base_pressure, pressure,
            "MG-PCG pressure differs at {threads} threads"
        );
    }
}

/// Release-tier (`cargo test --release`): under 2:1 refinement MG-PCG's
/// iteration count must stay flat — within 1.5x from 32³ to 64³ — where plain
/// CG's grows roughly with the grid edge.  Too slow for the debug tier.
#[test]
#[cfg_attr(debug_assertions, ignore = "release tier: run with --release")]
fn mg_pcg_iterations_stay_flat_under_refinement() {
    let iters = |n: usize| {
        let w = WorkloadSpec::paper_grid(n, n, n).build();
        let operator = MatrixFreeOperator::<f64>::from_workload(&w);
        let mg = MultigridVcycle::<f64>::from_workload(&w, 1, MgConfig::default());
        let sol = newton(&w, &operator, Some(&mg));
        assert!(sol.history().converged, "MG-PCG did not converge at {n}^3");
        sol.history().iterations
    };
    let at32 = iters(32);
    let at64 = iters(64);
    assert!(
        (at64 as f64) <= 1.5 * (at32 as f64),
        "MG-PCG iterations not flat under refinement: {at32} at 32^3 vs {at64} at 64^3"
    );
}
