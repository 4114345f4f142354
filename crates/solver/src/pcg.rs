//! Diagonal (Jacobi) preconditioning for the conjugate-gradient loop.
//!
//! The paper solves the un-preconditioned system (Algorithm 1).  Diagonal (Jacobi)
//! preconditioning is the natural first extension for the heterogeneous
//! permeability fields real CCS geomodels exhibit, and it maps onto the dataflow
//! architecture trivially — the diagonal is resident per PE, so the extra work per
//! iteration is one local multiply and no additional communication.  The
//! [`ConjugateGradient`](crate::cg::ConjugateGradient) loop takes any
//! [`Preconditioner`], so the same iteration also runs under the
//! geometric-multigrid V-cycle of [`mffv_fv::mg::MultigridVcycle`] (where the
//! win is iteration *count* roughly flat in grid size); the ablation
//! benchmarks compare all of them against plain CG.

use mffv_fv::matrix_free::inverse_diagonal;
use mffv_fv::{MatrixFreeOperator, Preconditioner};
use mffv_mesh::{CellField, Dims, DirichletSet, Scalar, Transmissibilities};

/// A diagonal (Jacobi) preconditioner `M⁻¹ = diag(A)⁻¹`.
#[derive(Clone, Debug)]
pub struct JacobiPreconditioner<T: Scalar> {
    inverse_diagonal: CellField<T>,
}

impl<T: Scalar> JacobiPreconditioner<T> {
    /// Build from an explicit diagonal. Zero or negative entries are replaced by 1,
    /// keeping the preconditioner SPD even for degenerate rows.
    pub fn from_diagonal(diagonal: &CellField<T>) -> Self {
        let mut inv = CellField::zeros(diagonal.dims());
        for i in 0..diagonal.len() {
            let d = diagonal.get(i);
            inv.set(i, if d.to_f64() > 0.0 { T::ONE / d } else { T::ONE });
        }
        Self {
            inverse_diagonal: inv,
        }
    }

    /// Build the diagonal of the SPD FV operator directly from the TPFA coefficient
    /// table: `diag_K = Σ_L Υ_KL λ_KL` for interior cells and 1 for Dirichlet cells.
    pub fn from_coefficients(coeffs: &Transmissibilities<T>, dirichlet: &DirichletSet) -> Self {
        Self {
            inverse_diagonal: CellField::from_vec(
                coeffs.dims(),
                inverse_diagonal(coeffs, |k| dirichlet.contains_linear(k), None),
            ),
        }
    }

    /// The Jacobi preconditioner of an operator as it stands, its diagonal
    /// shift included ([`MatrixFreeOperator::inverse_diagonal`]).
    pub fn from_operator(operator: &MatrixFreeOperator<T>) -> Self {
        Self {
            inverse_diagonal: CellField::from_vec(
                operator.coefficients().dims(),
                operator.inverse_diagonal(),
            ),
        }
    }

    /// Apply `z = M⁻¹ r`.
    pub fn apply(&self, r: &CellField<T>, z: &mut CellField<T>) {
        assert_eq!(r.dims(), self.inverse_diagonal.dims());
        assert_eq!(z.dims(), self.inverse_diagonal.dims());
        for i in 0..r.len() {
            z.set(i, r.get(i) * self.inverse_diagonal.get(i));
        }
    }

    /// Grid extents.
    pub fn dims(&self) -> Dims {
        self.inverse_diagonal.dims()
    }
}

impl<T: Scalar> Preconditioner<T> for JacobiPreconditioner<T> {
    fn dims(&self) -> Dims {
        JacobiPreconditioner::dims(self)
    }

    fn apply(&self, r: &CellField<T>, z: &mut CellField<T>) {
        JacobiPreconditioner::apply(self, r, z);
    }

    fn label(&self) -> &'static str {
        "jacobi"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::{CgScratch, ConjugateGradient};
    use crate::monitor::NullMonitor;
    use mffv_fv::matrix_free::MatrixFreeOperator;
    use mffv_fv::residual::{newton_rhs, residual};
    use mffv_mesh::permeability::PermeabilityModel;
    use mffv_mesh::workload::{BoundarySpec, WorkloadSpec};
    use mffv_mesh::Dims;
    use mffv_telemetry::Span;

    fn heterogeneous_workload() -> mffv_mesh::Workload {
        WorkloadSpec {
            name: "pcg-test".to_string(),
            dims: Dims::new(10, 10, 6),
            spacing: [1.0, 1.0, 1.0],
            permeability: PermeabilityModel::LogNormal {
                mean_log: 0.0,
                std_log: 2.0,
                seed: 11,
            },
            viscosity: 1.0,
            boundary: BoundarySpec::SourceProducer {
                source_pressure: 1.0,
                producer_pressure: 0.0,
            },
            tolerance: 1e-16,
            max_iterations: 5000,
        }
        .build()
    }

    #[test]
    fn jacobi_preconditioner_inverts_diagonal() {
        let dims = Dims::new(2, 2, 1);
        let diag = CellField::from_vec(dims, vec![2.0f64, 4.0, 0.0, -3.0]);
        let pc = JacobiPreconditioner::from_diagonal(&diag);
        let r = CellField::constant(dims, 8.0);
        let mut z = CellField::zeros(dims);
        pc.apply(&r, &mut z);
        assert_eq!(z.as_slice(), &[4.0, 2.0, 8.0, 8.0]); // degenerate rows fall back to 1
    }

    #[test]
    fn pcg_matches_cg_solution_and_converges_no_slower() {
        let w = heterogeneous_workload();
        let op = MatrixFreeOperator::<f64>::from_workload(&w);
        let pc = JacobiPreconditioner::from_coefficients(op.coefficients(), w.dirichlet());
        let p0: CellField<f64> = w.initial_pressure();
        let r = residual(&p0, w.transmissibility(), w.dirichlet());
        let b = newton_rhs(&r, w.dirichlet());
        let x0 = CellField::zeros(w.dims());

        let solver = ConjugateGradient::with_tolerance(1e-18, 5000);
        let cg = solver.solve(&op, None, &b, &x0, &mut NullMonitor);
        let pcg = solver.solve(&op, Some(&pc), &b, &x0, &mut NullMonitor);
        assert!(cg.history.converged && pcg.history.converged);
        assert!(
            pcg.solution.max_abs_diff(&cg.solution) < 1e-6,
            "solutions differ by {}",
            pcg.solution.max_abs_diff(&cg.solution)
        );
        // On a strongly heterogeneous field Jacobi scaling should not be slower.
        assert!(
            pcg.history.iterations <= cg.history.iterations + 2,
            "PCG took {} vs CG {}",
            pcg.history.iterations,
            cg.history.iterations
        );
    }

    #[test]
    fn breakdown_on_indefinite_operator_emits_terminal_stopped_event() {
        use crate::monitor::{RecordingMonitor, SolveEvent, StopReason};
        use mffv_fv::operator::ScaledIdentity;
        let dims = Dims::new(4, 4, 2);
        let op = ScaledIdentity::new(dims, -1.0f64);
        let pc = JacobiPreconditioner::from_diagonal(&CellField::constant(dims, 1.0));
        let b = CellField::constant(dims, 1.0);
        let mut recorder = RecordingMonitor::new();
        let solver = ConjugateGradient::with_tolerance(1e-20, 50);
        let out = solver.solve(&op, Some(&pc), &b, &CellField::zeros(dims), &mut recorder);
        assert_eq!(out.stopped, Some(StopReason::Breakdown));
        assert!(!out.history.converged);
        assert!(matches!(
            recorder.terminal(),
            Some(SolveEvent::Stopped(StopReason::Breakdown))
        ));
    }

    #[test]
    fn scratch_reuse_is_bitwise_identical_across_solves() {
        let w = heterogeneous_workload();
        let op = MatrixFreeOperator::<f64>::from_workload(&w);
        let pc = JacobiPreconditioner::from_coefficients(op.coefficients(), w.dirichlet());
        let p0: CellField<f64> = w.initial_pressure();
        let r = residual(&p0, w.transmissibility(), w.dirichlet());
        let b = newton_rhs(&r, w.dirichlet());
        let solver = ConjugateGradient::with_tolerance(1e-18, 5000);
        let zeros = CellField::zeros(w.dims());
        let fresh = solver.solve(&op, Some(&pc), &b, &zeros, &mut NullMonitor);

        let mut scratch = CgScratch::new(w.dims());
        for round in 0..2 {
            let stopped = solver.solve_into(
                &op,
                Some(&pc),
                &b,
                None,
                &mut NullMonitor,
                &Span::null(),
                &mut scratch,
            );
            assert_eq!(stopped, None);
            assert_eq!(
                scratch.history(),
                &fresh.history,
                "round {round}: history must be bitwise identical"
            );
            for i in 0..fresh.solution.len() {
                assert_eq!(
                    scratch.solution().get(i).to_bits(),
                    fresh.solution.get(i).to_bits(),
                    "round {round}, cell {i}"
                );
            }
        }
    }

    #[test]
    fn preconditioner_from_coefficients_has_unit_dirichlet_rows() {
        let w = heterogeneous_workload();
        let op = MatrixFreeOperator::<f64>::from_workload(&w);
        let pc = JacobiPreconditioner::from_coefficients(op.coefficients(), w.dirichlet());
        let r = CellField::constant(w.dims(), 1.0);
        let mut z = CellField::zeros(w.dims());
        pc.apply(&r, &mut z);
        for idx in 0..w.dims().num_cells() {
            if w.dirichlet().contains_linear(idx) {
                assert_eq!(z.get(idx), 1.0);
            }
        }
    }
}
