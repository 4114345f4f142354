//! The one-Newton-step pressure solve driver.
//!
//! The single-phase incompressible problem of Eq. (1)–(3) is linear, so a single
//! Newton step solves it exactly: evaluate the residual at the initial pressure,
//! solve `A δp = b` with (preconditioned) CG, and update.  [`solve_pressure`]
//! is that step on caller-owned [`NewtonScratch`] buffers.  Every host-side
//! steady solve runs it — the pooled [`SolveContext`](crate::context::SolveContext)
//! behind the host oracle and the GPU-style reference (`mffv-gpu-ref`) alike —
//! and the dataflow implementation (`mffv-core`) is validated against it
//! (§V-B, "Numerical Integrity").

use crate::cg::{CgScratch, ConjugateGradient};
use crate::convergence::ConvergenceHistory;
use crate::monitor::{SolveMonitor, StopReason};
use mffv_fv::{newton_rhs, residual_into, LinearOperator, Preconditioner};
use mffv_mesh::{CellField, Dims, Scalar, Transmissibilities, Workload};
use mffv_telemetry::Span;

/// Reusable buffers of one Newton step: the pressure iterate, one buffer
/// that holds the Eq. (3) residual and, turned in place, the Krylov
/// right-hand side, and the [`CgScratch`] of the inner solve.  Every buffer
/// is fully overwritten before it is read, so reuse is bitwise invisible.
#[derive(Clone, Debug)]
pub struct NewtonScratch<T: Scalar> {
    pub(crate) pressure: CellField<T>,
    /// The residual at the pressure; the right-hand side while CG runs.
    pub(crate) residual: CellField<T>,
    pub(crate) cg: CgScratch<T>,
}

impl<T: Scalar> NewtonScratch<T> {
    /// Allocate buffers for `dims`-shaped solves.
    pub fn new(dims: Dims) -> Self {
        Self {
            pressure: CellField::zeros(dims),
            residual: CellField::zeros(dims),
            cg: CgScratch::new(dims),
        }
    }

    /// The grid shape these buffers serve.
    pub fn dims(&self) -> Dims {
        self.pressure.dims()
    }

    /// The pressure field after the last Newton update.
    pub fn pressure(&self) -> &CellField<T> {
        &self.pressure
    }

    /// Convergence history of the last inner Krylov solve.
    pub fn history(&self) -> &ConvergenceHistory {
        self.cg.history()
    }

    /// Max-norm of the Eq. (3) residual at [`pressure`](Self::pressure),
    /// evaluated at precision `T` — a direct check of the pressure,
    /// independent of the Krylov stopping criterion.
    pub fn final_residual_max(&self) -> f64 {
        self.residual.max_abs().to_f64()
    }
}

/// Solve `workload`'s pressure problem with one Newton step into `buffers`.
///
/// `operator` must be the SPD Newton operator consistent with
/// `coefficients` (the workload's transmissibilities at precision `T`) and
/// the workload's Dirichlet set — the planned matrix-free operator, the
/// assembled baseline or the GPU reference kernel.  The residual is
/// evaluated with `coefficients`, so a caller that already holds the
/// converted table (every operator does) never converts it twice.  The
/// residual buffer becomes the right-hand side in place ([`newton_rhs`]) and
/// goes to CG as is; the inner [`ConjugateGradient::solve_into`] starts from
/// zero and threads `monitor`, `span` and `preconditioner` through
/// unchanged; when `monitor` stops it, the partial Newton update is still
/// applied and the reason is returned.  Results stay in `buffers`.
#[allow(clippy::too_many_arguments)]
pub fn solve_pressure<T: Scalar, Op: LinearOperator<T>>(
    workload: &Workload,
    coefficients: &Transmissibilities<T>,
    operator: &Op,
    preconditioner: Option<&dyn Preconditioner<T>>,
    solver: &ConjugateGradient,
    monitor: &mut dyn SolveMonitor,
    span: &Span,
    buffers: &mut NewtonScratch<T>,
) -> Option<StopReason> {
    let dirichlet = workload.dirichlet();
    workload.initial_pressure_into(&mut buffers.pressure);
    residual_into(
        &buffers.pressure,
        coefficients,
        dirichlet,
        &mut buffers.residual,
    );
    newton_rhs(&mut buffers.residual, dirichlet);
    let stopped = solver.solve_into(
        operator,
        preconditioner,
        &buffers.residual,
        None,
        monitor,
        span,
        &mut buffers.cg,
    );
    buffers.pressure.axpy(T::ONE, &buffers.cg.solution);
    residual_into(
        &buffers.pressure,
        coefficients,
        dirichlet,
        &mut buffers.residual,
    );
    stopped
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::NullMonitor;
    use mffv_fv::csr::AssembledOperator;
    use mffv_fv::MatrixFreeOperator;
    use mffv_mesh::workload::WorkloadSpec;
    use mffv_mesh::CellIndex;

    /// One Newton step of `workload` on `operator` at the workload's own
    /// settings (or `solver`), on fresh buffers.
    fn newton<T: Scalar, Op: LinearOperator<T>>(
        workload: &Workload,
        operator: &Op,
        solver: &ConjugateGradient,
    ) -> NewtonScratch<T> {
        let coefficients = workload.transmissibility().convert::<T>();
        let mut buffers = NewtonScratch::new(workload.dims());
        let stopped = solve_pressure(
            workload,
            &coefficients,
            operator,
            None,
            solver,
            &mut NullMonitor,
            &Span::null(),
            &mut buffers,
        );
        assert_eq!(stopped, None);
        buffers
    }

    fn own_settings(workload: &Workload) -> ConjugateGradient {
        ConjugateGradient::with_tolerance(workload.tolerance(), workload.max_iterations())
    }

    #[test]
    fn quickstart_pressure_is_bounded_by_dirichlet_values() {
        let w = WorkloadSpec::quickstart().build();
        let op = MatrixFreeOperator::<f64>::from_workload(&w);
        let sol = newton(&w, &op, &own_settings(&w));
        assert!(sol.history().converged);
        assert!(sol.final_residual_max() < 1e-6);
        // Discrete maximum principle: interior pressures stay within the range of
        // the boundary values.
        for &p in sol.pressure().as_slice() {
            assert!(
                (-1e-9..=1.0 + 1e-9).contains(&p),
                "pressure {p} outside [0, 1]"
            );
        }
        // Monotone decay away from the source towards the producer.
        let d = w.dims();
        let near_source = sol.pressure().at(CellIndex::new(1, 1, 0));
        let near_producer = sol.pressure().at(CellIndex::new(d.nx - 2, d.ny - 2, 0));
        assert!(near_source > near_producer);
    }

    #[test]
    fn matrix_free_and_assembled_drivers_agree() {
        let w = WorkloadSpec::fig5(Dims::new(8, 7, 5)).build();
        let solver = own_settings(&w);
        let mf = newton(&w, &MatrixFreeOperator::<f64>::from_workload(&w), &solver);
        let asm = newton(&w, &AssembledOperator::<f64>::from_workload(&w), &solver);
        assert!(mf.history().converged && asm.history().converged);
        let rel = mf.pressure().max_abs_diff(asm.pressure()) / mf.pressure().max_abs();
        assert!(rel < 1e-9, "relative mismatch {rel}");
    }

    #[test]
    fn f32_solution_tracks_f64_solution() {
        let w = WorkloadSpec::quickstart().scaled(2).build();
        let s64 = newton(
            &w,
            &MatrixFreeOperator::<f64>::from_workload(&w),
            &own_settings(&w),
        );
        // The paper's f32 device precision: tolerance loosened to what f32 can reach.
        let s32 = newton(
            &w,
            &MatrixFreeOperator::<f32>::from_workload(&w),
            &ConjugateGradient::with_tolerance(1e-10, 5000),
        );
        assert!(s32.history().converged);
        let diff = s64.pressure().max_abs_diff(&s32.pressure().convert());
        assert!(diff < 1e-4, "f32 vs f64 gap {diff}");
    }

    #[test]
    fn final_residual_tracks_tolerance() {
        let w = WorkloadSpec::quickstart().build();
        let op = MatrixFreeOperator::<f64>::from_workload(&w);
        let loose = newton(&w, &op, &ConjugateGradient::with_tolerance(1e-4, 10_000));
        let tight = newton(&w, &op, &ConjugateGradient::with_tolerance(1e-18, 10_000));
        assert!(tight.final_residual_max() <= loose.final_residual_max());
    }
}
