//! Property-based tests of cross-crate invariants: operator symmetry/positivity on
//! random heterogeneous problems, matrix-free vs assembled vs GPU-reference
//! agreement, conservation of the transmissibility symmetry through every layer,
//! solver convergence on random well placements, and the bitwise-equivalence
//! contract of the planned/fused/threaded stencil kernels against the naive path.

use mffv::prelude::*;
use mffv_fv::csr::AssembledOperator;
use mffv_fv::operator::{min_rayleigh_quotient, symmetry_defect};
use mffv_fv::{LinearOperator, MatrixFreeOperator};
use mffv_mesh::boundary::DirichletCell;
use mffv_mesh::permeability::PermeabilityModel;
use mffv_mesh::workload::{BoundarySpec, WorkloadSpec};
use mffv_mesh::CellIndex;
use proptest::prelude::*;

/// A Dirichlet set of the requested flavour that is valid on *any* dims,
/// including 1-cell-thin grids: 0 = empty, 1 = the two X faces, 2 = every
/// boundary face, 3 = a pseudorandom sprinkle of cells.
fn dirichlet_variant(dims: Dims, variant: usize, seed: u64) -> DirichletSet {
    match variant % 4 {
        0 => DirichletSet::empty(),
        1 if dims.nx > 1 => DirichletSet::x_faces(dims, 1.0, 0.0),
        1 => {
            // On a 1-cell-wide grid the two X faces coincide: pin the single face.
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

fn field_bits(f: &CellField<f64>) -> Vec<u64> {
    f.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// The unfused reference path: delegates only `apply`, so the CG loop falls
/// back to the default (separate-pass, slab-ordered) kernels of
/// `LinearOperator`.
struct UnfusedOp<'a>(&'a MatrixFreeOperator<f64>);

impl LinearOperator<f64> for UnfusedOp<'_> {
    fn dims(&self) -> Dims {
        self.0.dims()
    }
    fn apply(&self, x: &CellField<f64>, y: &mut CellField<f64>) {
        self.0.apply_spd_naive(x, y);
    }
}

fn random_workload_spec(nx: usize, ny: usize, nz: usize, std_log: f64, seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        name: format!("prop-{nx}x{ny}x{nz}-{seed}"),
        dims: Dims::new(nx, ny, nz),
        spacing: [1.0, 1.0, 1.0],
        permeability: PermeabilityModel::LogNormal {
            mean_log: 0.0,
            std_log,
            seed,
        },
        viscosity: 1.0,
        boundary: BoundarySpec::SourceProducer {
            source_pressure: 1.0,
            producer_pressure: 0.0,
        },
        tolerance: 1e-14,
        max_iterations: 10_000,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The SPD operator stays symmetric and positive on random heterogeneous fields.
    #[test]
    fn operator_is_spd_on_random_permeability(
        nx in 3usize..7, ny in 3usize..7, nz in 3usize..7,
        std_log in 0.0f64..2.0, seed in 0u64..1000,
    ) {
        let workload = random_workload_spec(nx, ny, nz, std_log, seed).build();
        let op = MatrixFreeOperator::<f64>::from_workload(&workload);
        prop_assert!(symmetry_defect(&op, 3) < 1e-9);
        prop_assert!(min_rayleigh_quotient(&op, 3) > 0.0);
    }

    /// Matrix-free, assembled and GPU-style operators agree on random inputs.
    #[test]
    fn all_operator_implementations_agree(
        nx in 3usize..7, ny in 3usize..7, nz in 3usize..7, seed in 0u64..1000,
    ) {
        let workload = random_workload_spec(nx, ny, nz, 1.0, seed).build();
        let dims = workload.dims();
        let mf = MatrixFreeOperator::<f32>::from_workload(&workload);
        let asm = AssembledOperator::<f32>::from_workload(&workload);
        let gpu = GpuMatrixFreeOperator::from_workload(&workload);
        let x = CellField::<f32>::from_fn(dims, |c| {
            ((c.x * 13 + c.y * 7 + c.z * 3 + seed as usize) % 17) as f32 * 0.21 - 1.5
        });
        let y_mf = mf.apply_new(&x);
        let y_asm = asm.apply_new(&x);
        let y_gpu = gpu.apply_new(&x);
        let scale = y_mf.max_abs().max(1.0);
        prop_assert!(y_mf.max_abs_diff(&y_asm) <= 1e-5 * scale);
        prop_assert!(y_mf.max_abs_diff(&y_gpu) <= 1e-5 * scale);
    }

    /// Transmissibility symmetry survives workload construction on random meshes and
    /// permeability fields (the property the TPFA flux requires for conservation).
    #[test]
    fn transmissibility_stays_symmetric(
        nx in 2usize..8, ny in 2usize..8, nz in 2usize..8,
        std_log in 0.0f64..2.5, seed in 0u64..1000,
    ) {
        let workload = random_workload_spec(nx, ny, nz, std_log, seed).build();
        prop_assert!(workload.transmissibility().max_asymmetry() < 1e-12);
    }

    /// CG converges and satisfies the maximum principle on random well placements.
    #[test]
    fn solver_converges_for_random_well_placement(
        nx in 4usize..8, ny in 4usize..8, nz in 3usize..6,
        wx in 0usize..8, wy in 0usize..8, seed in 0u64..1000,
    ) {
        let dims = Dims::new(nx, ny, nz);
        let source = (wx % nx, wy % ny);
        let producer = (nx - 1 - source.0, ny - 1 - source.1);
        prop_assume!(source != producer);
        let mut cells = Vec::new();
        for z in 0..nz {
            cells.push(DirichletCell { cell: CellIndex::new(source.0, source.1, z), value: 1.0 });
            cells.push(DirichletCell { cell: CellIndex::new(producer.0, producer.1, z), value: 0.0 });
        }
        let permeability =
            PermeabilityModel::LogNormal { mean_log: 0.0, std_log: 1.0, seed }.generate(dims);
        let mesh = CartesianMesh::unit(dims);
        let coeffs = Transmissibilities::<f64>::from_mesh(&mesh, &permeability, 1.0);
        let dirichlet = DirichletSet::new(dims, cells);
        let op = MatrixFreeOperator::new(coeffs.clone(), &dirichlet);

        let mut p0 = CellField::<f64>::constant(dims, 0.5);
        dirichlet.impose(&mut p0);
        let r = mffv_fv::residual::residual(&p0, &coeffs, &dirichlet);
        let b = mffv_fv::residual::newton_rhs(&r, &dirichlet);
        let out = mffv_solver::cg::ConjugateGradient::with_tolerance(1e-18, 5000)
            .solve(&op, None, &b, &CellField::zeros(dims), &mut NullMonitor);
        prop_assert!(out.history.converged);
        let mut p = p0;
        p.axpy(1.0, &out.solution);
        for &v in p.as_slice() {
            prop_assert!((-1e-8..=1.0 + 1e-8).contains(&v), "maximum principle violated: {v}");
        }
    }

    /// The planned branch-free kernel — on 1, 2 and 8 scoped threads — is
    /// bitwise identical to the naive per-neighbour loop, for every Dirichlet
    /// topology (empty / X faces / all faces / random sprinkle) and for
    /// arbitrary grid shapes including 1-cell-thin ones.
    #[test]
    fn planned_apply_is_bitwise_identical_to_naive(
        nx in 1usize..10, ny in 1usize..10, nz in 1usize..10,
        std_log in 0.0f64..2.0, seed in 0u64..1000, variant in 0usize..4,
    ) {
        let dims = Dims::new(nx, ny, nz);
        let permeability =
            PermeabilityModel::LogNormal { mean_log: 0.0, std_log, seed }.generate(dims);
        let mesh = CartesianMesh::unit(dims);
        let coeffs = Transmissibilities::<f64>::from_mesh(&mesh, &permeability, 1.0);
        let dirichlet = dirichlet_variant(dims, variant, seed);
        let op = MatrixFreeOperator::new(coeffs, &dirichlet);
        let x = CellField::<f64>::from_fn(dims, |c| {
            ((c.x * 31 + c.y * 17 + c.z * 5 + seed as usize) % 23) as f64 * 0.17 - 1.9
        });
        let mut naive = CellField::zeros(dims);
        op.apply_spd_naive(&x, &mut naive);
        for threads in [1usize, 2, 8] {
            let threaded = op.clone().with_threads(threads);
            let planned = threaded.apply_new(&x);
            prop_assert!(
                field_bits(&planned) == field_bits(&naive),
                "planned/naive mismatch: threads = {threads}, dirichlet variant = {variant}"
            );
        }
    }

    /// Fused CG (planned apply+dot and fused update kernels) produces residual
    /// histories and solutions bitwise identical to the unfused reference path
    /// on random heterogeneous problems.
    #[test]
    fn fused_cg_matches_unfused_cg_bitwise(
        nx in 3usize..8, ny in 3usize..8, nz in 3usize..7, seed in 0u64..1000,
    ) {
        let workload = random_workload_spec(nx, ny, nz, 1.0, seed).build();
        let op = MatrixFreeOperator::<f64>::from_workload(&workload);
        let p0: CellField<f64> = workload.initial_pressure();
        let r = mffv_fv::residual::residual(&p0, workload.transmissibility(), workload.dirichlet());
        let b = mffv_fv::residual::newton_rhs(&r, workload.dirichlet());
        let solver = mffv_solver::cg::ConjugateGradient::with_tolerance(1e-14, 2000);
        let x0 = CellField::zeros(workload.dims());

        let fused = solver.solve(&op, None, &b, &x0, &mut NullMonitor);
        let unfused = solver.solve(&UnfusedOp(&op), None, &b, &x0, &mut NullMonitor);
        let bits = |h: &[f64]| h.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(
            bits(&fused.history.residual_norms_squared),
            bits(&unfused.history.residual_norms_squared)
        );
        prop_assert_eq!(fused.history.iterations, unfused.history.iterations);
        prop_assert_eq!(fused.history.converged, unfused.history.converged);
        prop_assert_eq!(field_bits(&fused.solution), field_bits(&unfused.solution));
    }

    /// The whole-fabric dataflow solve converges on random heterogeneous problems
    /// and agrees with the host oracle.
    #[test]
    fn dataflow_solver_converges_on_random_problems(
        nx in 3usize..6, ny in 3usize..6, nz in 3usize..6, seed in 0u64..200,
    ) {
        let workload = random_workload_spec(nx, ny, nz, 0.8, seed).build();
        let agreement = Simulation::new(workload)
            .tolerance(1e-12)
            .backend(Backend::host())
            .backend(Backend::dataflow())
            .compare()
            .unwrap();
        prop_assert!(agreement.report("dataflow").unwrap().converged());
        let rel = agreement.max_pairwise_rel_diff();
        prop_assert!(rel < 2e-3, "dataflow vs oracle relative gap {rel}");
    }

    /// The diagonal-shifted (transient accumulation) operator keeps the
    /// planned-vs-naive bitwise contract, on 1/2/8 threads, for every
    /// Dirichlet topology and arbitrary grid shapes including 1-cell-thin
    /// ones, across eleven octaves of dt.
    #[test]
    fn shifted_planned_apply_is_bitwise_identical_to_naive_shifted(
        nx in 1usize..10, ny in 1usize..10, nz in 1usize..10,
        std_log in 0.0f64..2.0, seed in 0u64..1000, variant in 0usize..4,
        dt_exp in -6i32..6,
    ) {
        let dims = Dims::new(nx, ny, nz);
        let permeability =
            PermeabilityModel::LogNormal { mean_log: 0.0, std_log, seed }.generate(dims);
        let mesh = CartesianMesh::unit(dims);
        let coeffs = Transmissibilities::<f64>::from_mesh(&mesh, &permeability, 1.0);
        let dirichlet = dirichlet_variant(dims, variant, seed);
        // A heterogeneous accumulation diagonal scaled like V·c_t/Δt.
        let dt = (2.0f64).powi(dt_exp);
        let diag = CellField::<f64>::from_fn(dims, |c| {
            (1.0 + ((c.x * 7 + c.y * 3 + c.z) % 5) as f64 * 0.25) * 1e-3 / dt
        });
        let op = MatrixFreeOperator::new(coeffs, &dirichlet).with_diagonal_shift(&diag);
        let x = CellField::<f64>::from_fn(dims, |c| {
            ((c.x * 29 + c.y * 13 + c.z * 7 + seed as usize) % 19) as f64 * 0.23 - 2.1
        });
        let mut naive = CellField::zeros(dims);
        op.apply_spd_naive(&x, &mut naive);
        for threads in [1usize, 2, 8] {
            let threaded = op.clone().with_threads(threads);
            let planned = threaded.apply_new(&x);
            prop_assert!(
                field_bits(&planned) == field_bits(&naive),
                "shifted planned/naive mismatch: threads = {threads}, variant = {variant}, dt = {dt}"
            );
            // The fused apply_dot sees the same shifted operator.
            let mut ad = CellField::zeros(dims);
            let fused = threaded.apply_dot(&x, &mut ad);
            prop_assert!(field_bits(&ad) == field_bits(&naive));
            let unfused = UnfusedOp(&op).apply_dot(&x, &mut ad);
            prop_assert!(fused.to_bits() == unfused.to_bits());
        }
    }

    /// Halving dt doubles the accumulation diagonal, which can only improve
    /// the step system's conditioning: per-step CG iteration counts must
    /// never increase.
    #[test]
    fn halving_dt_never_increases_cg_iterations(
        dt_exp in -4i32..4, seed in 0u64..200,
    ) {
        use mffv_mesh::workload::BoundarySpec;
        let workload = WorkloadSpec {
            name: "dt-halving".into(),
            boundary: BoundarySpec::None,
            dims: Dims::new(8, 6, 4),
            permeability: PermeabilityModel::LogNormal { mean_log: 0.0, std_log: 1.0, seed },
            tolerance: 1e-16,
            ..WorkloadSpec::quickstart()
        }.build();
        let dt = (2.0f64).powi(dt_exp);
        let step_iterations = |dt: f64| {
            let spec = TransientSpec::new(dt, dt, 1e-3)
                .with_wells(WellSet::empty().with(Well::rate("inj", CellIndex::new(4, 3, 2), 1.0)))
                .with_initial_pressure(5.0)
                .cold_start();
            let report = mffv_solver::transient::run_transient(
                &mffv_solver::backend::HostBackend::oracle(),
                &workload,
                &spec,
                &mffv_solver::backend::SolveConfig::default(),
                &StopPolicy::new(),
                &mut SolveRequest::new(),
            ).unwrap();
            prop_assert!(report.all_converged(), "dt = {dt} did not converge");
            Ok(report.steps[0].report.iterations())
        };
        let coarse = step_iterations(dt)?;
        let fine = step_iterations(dt / 2.0)?;
        prop_assert!(
            fine <= coarse,
            "halving dt raised iterations: {coarse} -> {fine} at dt = {dt}"
        );
    }
}
