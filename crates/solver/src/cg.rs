//! The conjugate-gradient method of the paper's Algorithm 1, optionally
//! preconditioned.
//!
//! The loop body is the textbook CG recurrence the paper lists (with its `x` being
//! the search direction and `y` the iterate; here they are called `direction` and
//! `solution`):
//!
//! ```text
//! α_k  = rᵀr / dᵀ(A d)
//! x_{k+1} = x_k + α_k d_k
//! r_{k+1} = r_k − α_k (A d_k)
//! exit if rᵀr < ε
//! β_k  = r_{k+1}ᵀ r_{k+1} / r_kᵀ r_k
//! d_{k+1} = r_{k+1} + β_k d_k
//! ```
//!
//! One operator application and two dot products per iteration — exactly the
//! structure the dataflow implementation reproduces with Algorithm 2 for `A d` and
//! the whole-fabric all-reduce for the dot products.
//!
//! With a [`Preconditioner`] `M⁻¹` (Jacobi, or the multigrid V-cycle of
//! [`mffv_fv::mg`]) the same loop runs PCG: `z = M⁻¹ r` replaces `r` in the
//! direction update and `rᵀz` replaces `rᵀr` in `α` and `β`.  Without one,
//! the identity is special-cased — no `r → z` copy and no extra dot product —
//! so plain CG is exactly the arithmetic of Algorithm 1.  Convergence is
//! always tested on the *unpreconditioned* `rᵀr`, so histories are
//! comparable across preconditioners.
//!
//! The host loop executes those passes through the two **fused kernels** of
//! [`LinearOperator`]: [`apply_dot`](LinearOperator::apply_dot) computes `A d`
//! and `dᵀ(A d)` in one sweep, and [`cg_update`](LinearOperator::cg_update)
//! performs both axpy updates and the new `rᵀr` in a second sweep.  Every
//! reduction uses the deterministic slab order of [`mffv_fv::plan`], so the
//! history is bitwise identical whether the operator runs the fused planned
//! kernels (on any thread count) or the unfused defaults.
//!
//! Note on reduction order: on grids larger than
//! [`SLAB_CELLS`](mffv_fv::SLAB_CELLS) cells the slab-ordered reductions
//! associate differently from the single global FMA chain earlier releases
//! used, so recorded residual trajectories are not bit-comparable across that
//! boundary (they are within solver precision of each other).  This is the
//! deliberate trade that makes histories *thread-count independent*: a global
//! FMA chain cannot be split across threads without changing its value.
//! Grids of at most `SLAB_CELLS` cells have a single slab and are bitwise
//! unchanged.

use crate::convergence::{ConvergenceHistory, StoppingCriterion};
use crate::monitor::{Flow, SolveEvent, SolveMonitor, StopReason};
use mffv_fv::plan::{det_dot, det_norm_squared};
use mffv_fv::{LinearOperator, Preconditioner};
use mffv_mesh::{CellField, Dims, Scalar};
use mffv_telemetry::Span;

/// Result of a CG solve.
#[derive(Clone, Debug)]
pub struct SolveOutcome<T: Scalar> {
    /// The computed solution.
    pub solution: CellField<T>,
    /// Convergence record.
    pub history: ConvergenceHistory,
    /// `Some(reason)` when a [`SolveMonitor`] or stop policy ended the solve
    /// early; `None` when it converged or exhausted its own iteration cap.
    pub stopped: Option<StopReason>,
}

/// Reusable work vectors of one Krylov solve.
///
/// Holds the five vectors of the loop (`solution`, `residual`, `direction`,
/// `ad`, `z`) plus the [`ConvergenceHistory`] entry buffer.  The loop fully
/// overwrites every field before reading it (`copy_from`, a full `apply`,
/// [`ConvergenceHistory::reset_from`]), so reuse is bitwise invisible.
#[derive(Clone, Debug)]
pub struct CgScratch<T: Scalar> {
    pub(crate) solution: CellField<T>,
    pub(crate) residual: CellField<T>,
    pub(crate) direction: CellField<T>,
    /// The `A·d` product; also reused for the initial `A·x₀`, and lent to
    /// the preconditioner as work space, since nothing reads it between
    /// the update and the next `A·d`.
    pub(crate) ad: CellField<T>,
    /// The preconditioned residual (unpreconditioned solves never touch it).
    pub(crate) z: CellField<T>,
    pub(crate) history: ConvergenceHistory,
}

impl<T: Scalar> CgScratch<T> {
    /// Allocate scratch for `dims`-shaped solves.
    pub fn new(dims: Dims) -> Self {
        Self {
            solution: CellField::zeros(dims),
            residual: CellField::zeros(dims),
            direction: CellField::zeros(dims),
            ad: CellField::zeros(dims),
            z: CellField::zeros(dims),
            history: ConvergenceHistory::default(),
        }
    }

    /// The grid shape this scratch serves.
    pub fn dims(&self) -> Dims {
        self.solution.dims()
    }

    /// The solution vector of the last solve run on this scratch.
    pub fn solution(&self) -> &CellField<T> {
        &self.solution
    }

    /// The convergence history of the last solve run on this scratch.
    pub fn history(&self) -> &ConvergenceHistory {
        &self.history
    }
}

/// Conjugate-gradient solver configuration.
#[derive(Clone, Copy, Debug)]
pub struct ConjugateGradient {
    /// Stopping criterion (tolerance on the unpreconditioned `rᵀr` and
    /// iteration cap).
    pub criterion: StoppingCriterion,
}

impl ConjugateGradient {
    /// A solver with an explicit criterion.
    pub fn new(criterion: StoppingCriterion) -> Self {
        Self { criterion }
    }

    /// The paper's evaluation setting.
    pub fn paper() -> Self {
        Self {
            criterion: StoppingCriterion::paper(),
        }
    }

    /// A solver with the given tolerance on `rᵀr` and iteration cap.
    pub fn with_tolerance(tolerance: f64, max_iterations: usize) -> Self {
        Self {
            criterion: StoppingCriterion::new(tolerance, max_iterations),
        }
    }

    /// [`solve_into`](Self::solve_into) on freshly allocated scratch,
    /// starting from `x0`, returning the solution and its history.
    pub fn solve<T: Scalar, Op: LinearOperator<T>>(
        &self,
        operator: &Op,
        preconditioner: Option<&dyn Preconditioner<T>>,
        rhs: &CellField<T>,
        x0: &CellField<T>,
        monitor: &mut dyn SolveMonitor,
    ) -> SolveOutcome<T> {
        let mut scratch = CgScratch::new(operator.dims());
        let stopped = self.solve_into(
            operator,
            preconditioner,
            rhs,
            Some(x0),
            monitor,
            &Span::null(),
            &mut scratch,
        );
        SolveOutcome {
            solution: scratch.solution,
            history: scratch.history,
            stopped,
        }
    }

    /// Solve `A x = b` into a caller-owned [`CgScratch`], preconditioned by
    /// `M⁻¹` when `preconditioner` is set.
    ///
    /// `A` must be symmetric positive definite over the non-Dirichlet degrees
    /// of freedom (see `mffv-fv`'s sign convention).  `x0 = None` starts from
    /// the zero vector (the Newton-step convention) without needing a zeros
    /// field.  `monitor` receives a [`SolveEvent`] at every iteration
    /// boundary — the `rr` payloads are bitwise identical to the entries
    /// recorded in the scratch's [`ConvergenceHistory`] — and may end the
    /// solve early by returning [`Flow::Stop`]; the reason is returned and
    /// the partial solution stays in `scratch`.  Every preconditioner
    /// application runs under `span`, so the multigrid V-cycle emits its
    /// `mg.vcycle` / `mg.level` spans, and borrows the scratch's `A·d`
    /// buffer as work space; monitoring and tracing perform no arithmetic,
    /// so they never change a result.
    ///
    /// Every scratch buffer is fully overwritten before it is read, so
    /// results are bitwise identical to a fresh-allocation solve.  On a
    /// numerical breakdown (non-positive or non-finite `dᵀ(A d)`) the solve
    /// ends with a terminal
    /// [`SolveEvent::Stopped`]`(`[`StopReason::Breakdown`]`)` and returns
    /// that reason.
    #[allow(clippy::too_many_arguments)]
    pub fn solve_into<T: Scalar, Op: LinearOperator<T>>(
        &self,
        operator: &Op,
        preconditioner: Option<&dyn Preconditioner<T>>,
        rhs: &CellField<T>,
        x0: Option<&CellField<T>>,
        monitor: &mut dyn SolveMonitor,
        span: &Span,
        scratch: &mut CgScratch<T>,
    ) -> Option<StopReason> {
        let dims = operator.dims();
        assert_eq!(rhs.dims(), dims, "rhs dimension mismatch");
        assert_eq!(scratch.dims(), dims, "scratch dimension mismatch");
        if let Some(pc) = preconditioner {
            assert_eq!(pc.dims(), dims, "preconditioner dimension mismatch");
        }
        match x0 {
            Some(x0) => {
                assert_eq!(x0.dims(), dims, "initial guess dimension mismatch");
                scratch.solution.copy_from(x0);
            }
            None => scratch.solution.fill(T::ZERO),
        }
        // r_0 = b − A x_0 (the `ad` buffer holds A x_0 for a moment; `apply`
        // overwrites it fully, so its previous contents never matter).
        scratch.residual.copy_from(rhs);
        operator.apply(&scratch.solution, &mut scratch.ad);
        scratch.residual.axpy(-T::ONE, &scratch.ad);

        // d_0 = z_0 = M⁻¹ r_0 (the preconditioner runs before the
        // convergence check, like every later application), or d_0 = r_0.
        let rr0 = det_norm_squared(&scratch.residual).to_f64();
        let mut rz = match preconditioner {
            Some(pc) => {
                pc.apply_traced(&scratch.residual, &mut scratch.z, &mut scratch.ad, span);
                scratch.direction.copy_from(&scratch.z);
                det_dot(&scratch.residual, &scratch.z).to_f64()
            }
            None => {
                scratch.direction.copy_from(&scratch.residual);
                rr0
            }
        };
        scratch.history.reset_from(rr0);
        if self.criterion.is_converged(rr0) {
            scratch.history.converged = true;
            monitor.on_event(&SolveEvent::Started { initial_rr: rr0 });
            monitor.on_event(&SolveEvent::Converged {
                iterations: 0,
                rr: rr0,
            });
            return None;
        }
        if let Flow::Stop(reason) = monitor.on_event(&SolveEvent::Started { initial_rr: rr0 }) {
            monitor.on_event(&SolveEvent::Stopped(reason));
            return Some(reason);
        }

        for _ in 0..self.criterion.max_iterations {
            // Fused kernel 1: A d and dᵀ(A d) in one pass.
            let d_ad = operator
                .apply_dot(&scratch.direction, &mut scratch.ad)
                .to_f64();
            if d_ad <= 0.0 || !d_ad.is_finite() {
                // Operator is not positive definite along this direction (or
                // numerics broke down); stop rather than produce garbage, and
                // say so — streams must always end with a terminal event.
                monitor.on_event(&SolveEvent::Stopped(StopReason::Breakdown));
                return Some(StopReason::Breakdown);
            }
            let alpha = T::from_f64(rz / d_ad);
            // Fused kernel 2: x += α d, r −= α (A d), and the new rᵀr.
            let rr = operator
                .cg_update(
                    alpha,
                    &scratch.direction,
                    &scratch.ad,
                    &mut scratch.solution,
                    &mut scratch.residual,
                )
                .to_f64();
            scratch.history.record(rr);
            let k = scratch.history.iterations;
            if self.criterion.is_converged(rr) {
                scratch.history.converged = true;
                monitor.on_event(&SolveEvent::Iteration { k, rr });
                monitor.on_event(&SolveEvent::Converged { iterations: k, rr });
                return None;
            }
            if let Flow::Stop(reason) = monitor.on_event(&SolveEvent::Iteration { k, rr }) {
                monitor.on_event(&SolveEvent::Stopped(reason));
                return Some(reason);
            }
            // β = r_{k+1}ᵀz_{k+1} / r_kᵀz_k and d = z + β d, with z = r (and
            // the fused kernel's rᵀr reused) when unpreconditioned.
            let (rz_new, z) = match preconditioner {
                Some(pc) => {
                    pc.apply_traced(&scratch.residual, &mut scratch.z, &mut scratch.ad, span);
                    (det_dot(&scratch.residual, &scratch.z).to_f64(), &scratch.z)
                }
                None => (rr, &scratch.residual),
            };
            scratch.direction.xpby(z, T::from_f64(rz_new / rz));
            rz = rz_new;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::NullMonitor;
    use mffv_fv::csr::AssembledOperator;
    use mffv_fv::matrix_free::MatrixFreeOperator;
    use mffv_fv::operator::ScaledIdentity;
    use mffv_fv::residual::{newton_rhs, residual};
    use mffv_mesh::workload::WorkloadSpec;
    use mffv_mesh::{Dims, DirichletSet, Transmissibilities};

    #[test]
    fn identity_system_converges_in_one_iteration() {
        let dims = Dims::new(4, 4, 2);
        let op = ScaledIdentity::new(dims, 2.0f64);
        let b = CellField::from_fn(dims, |c| (c.x + c.y) as f64);
        let out = ConjugateGradient::with_tolerance(1e-24, 10).solve(
            &op,
            None,
            &b,
            &CellField::zeros(dims),
            &mut NullMonitor,
        );
        assert!(out.history.converged);
        assert!(out.history.iterations <= 1);
        for i in 0..b.len() {
            assert!((out.solution.get(i) - b.get(i) / 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn laplacian_with_dirichlet_converges_to_linear_profile() {
        // Fixed pressures on the X faces, homogeneous coefficients: the solution of
        // the full Newton system is the linear pressure drop.
        let dims = Dims::new(9, 4, 3);
        let coeffs = Transmissibilities::<f64>::uniform(dims, 1.0);
        let dirichlet = DirichletSet::x_faces(dims, 1.0, 0.0);
        let op = MatrixFreeOperator::new(coeffs.clone(), &dirichlet);

        let mut p0 = CellField::constant(dims, 0.5);
        dirichlet.impose(&mut p0);
        let mut b = residual(&p0, &coeffs, &dirichlet);
        newton_rhs(&mut b, &dirichlet);
        let out = ConjugateGradient::with_tolerance(1e-20, 500).solve(
            &op,
            None,
            &b,
            &CellField::zeros(dims),
            &mut NullMonitor,
        );
        assert!(
            out.history.converged,
            "CG did not converge: {:?}",
            out.history
        );

        let mut p = p0.clone();
        p.axpy(1.0, &out.solution);
        let exact = CellField::from_fn(dims, |c| 1.0 - c.x as f64 / (dims.nx - 1) as f64);
        assert!(
            p.max_abs_diff(&exact) < 1e-8,
            "max error {}",
            p.max_abs_diff(&exact)
        );
    }

    #[test]
    fn matrix_free_and_assembled_produce_identical_iterates() {
        let w = WorkloadSpec::quickstart().scaled(2).build();
        let mf = MatrixFreeOperator::<f64>::from_workload(&w);
        let asm = AssembledOperator::<f64>::from_workload(&w);
        let p0: CellField<f64> = w.initial_pressure();
        let mut b = residual(&p0, w.transmissibility(), w.dirichlet());
        newton_rhs(&mut b, w.dirichlet());
        let solver = ConjugateGradient::with_tolerance(1e-18, 500);
        let out_mf = solver.solve(&mf, None, &b, &CellField::zeros(w.dims()), &mut NullMonitor);
        let out_asm = solver.solve(
            &asm,
            None,
            &b,
            &CellField::zeros(w.dims()),
            &mut NullMonitor,
        );
        assert_eq!(out_mf.history.iterations, out_asm.history.iterations);
        assert!(out_mf.solution.max_abs_diff(&out_asm.solution) < 1e-10);
    }

    #[test]
    fn respects_iteration_cap() {
        let dims = Dims::new(12, 12, 4);
        let coeffs = Transmissibilities::<f64>::uniform(dims, 1.0);
        let dirichlet = DirichletSet::source_producer(dims, 1.0, 0.0);
        let op = MatrixFreeOperator::new(coeffs, &dirichlet);
        let b = CellField::constant(dims, 1.0);
        let out = ConjugateGradient::with_tolerance(1e-30, 3).solve(
            &op,
            None,
            &b,
            &CellField::zeros(dims),
            &mut NullMonitor,
        );
        assert!(!out.history.converged);
        assert_eq!(out.history.iterations, 3);
    }

    #[test]
    fn zero_rhs_converges_immediately() {
        let dims = Dims::new(4, 4, 4);
        let op = ScaledIdentity::new(dims, 1.0f64);
        let out = ConjugateGradient::paper().solve(
            &op,
            None,
            &CellField::zeros(dims),
            &CellField::zeros(dims),
            &mut NullMonitor,
        );
        assert!(out.history.converged);
        assert_eq!(out.history.iterations, 0);
        assert_eq!(out.solution.max_abs(), 0.0);
    }

    #[test]
    fn residual_history_is_broadly_decreasing() {
        let w = WorkloadSpec::quickstart().build();
        let op = MatrixFreeOperator::<f64>::from_workload(&w);
        let p0: CellField<f64> = w.initial_pressure();
        let mut b = residual(&p0, w.transmissibility(), w.dirichlet());
        newton_rhs(&mut b, w.dirichlet());
        let out = ConjugateGradient::with_tolerance(1e-16, 2000).solve(
            &op,
            None,
            &b,
            &CellField::zeros(w.dims()),
            &mut NullMonitor,
        );
        assert!(out.history.converged);
        assert!(out.history.is_broadly_decreasing(50.0));
    }

    #[test]
    fn monitored_solve_is_bitwise_identical_and_streams_the_history() {
        use crate::monitor::{RecordingMonitor, SolveEvent};
        let w = WorkloadSpec::quickstart().build();
        let op = MatrixFreeOperator::<f64>::from_workload(&w);
        let p0: CellField<f64> = w.initial_pressure();
        let mut b = residual(&p0, w.transmissibility(), w.dirichlet());
        newton_rhs(&mut b, w.dirichlet());
        let solver = ConjugateGradient::with_tolerance(1e-12, 2000);
        let x0 = CellField::zeros(w.dims());

        let plain = solver.solve(&op, None, &b, &x0, &mut NullMonitor);
        let mut recorder = RecordingMonitor::new();
        let monitored = solver.solve(&op, None, &b, &x0, &mut recorder);

        assert_eq!(plain.history, monitored.history);
        assert_eq!(monitored.stopped, None);
        for i in 0..plain.solution.len() {
            assert_eq!(
                plain.solution.get(i).to_bits(),
                monitored.solution.get(i).to_bits()
            );
        }
        let streamed: Vec<u64> = recorder
            .iteration_rrs()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let recorded: Vec<u64> = monitored.history.residual_norms_squared[1..]
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(streamed, recorded);
        assert!(matches!(
            recorder.terminal(),
            Some(SolveEvent::Converged { .. })
        ));
    }

    #[test]
    fn policy_session_stops_the_solve_with_partial_history() {
        use crate::monitor::{StopPolicy, StopReason};
        let w = WorkloadSpec::quickstart().build();
        let op = MatrixFreeOperator::<f64>::from_workload(&w);
        let b = CellField::constant(w.dims(), 1.0);
        let solver = ConjugateGradient::with_tolerance(1e-20, 2000);
        let mut session = StopPolicy::new().iteration_budget(5).session();
        let out = solver.solve(&op, None, &b, &CellField::zeros(w.dims()), &mut session);
        assert_eq!(out.stopped, Some(StopReason::IterationBudget));
        assert!(!out.history.converged);
        assert_eq!(out.history.iterations, 5);
        assert_eq!(out.history.residual_norms_squared.len(), 6);
    }

    #[test]
    fn breakdown_on_indefinite_operator_emits_terminal_stopped_event() {
        use crate::monitor::{RecordingMonitor, SolveEvent, StopReason};
        // A negative-definite operator makes dᵀ(A d) < 0 on the very first
        // direction: the solve must stop, report Breakdown, and terminate the
        // event stream with a Stopped event (it used to end silently).
        let dims = Dims::new(4, 4, 2);
        let op = ScaledIdentity::new(dims, -1.0f64);
        let b = CellField::constant(dims, 1.0);
        let mut recorder = RecordingMonitor::new();
        let solver = ConjugateGradient::with_tolerance(1e-20, 50);
        let out = solver.solve(&op, None, &b, &CellField::zeros(dims), &mut recorder);
        assert_eq!(out.stopped, Some(StopReason::Breakdown));
        assert!(!out.history.converged);
        assert_eq!(out.history.iterations, 0);
        assert!(matches!(
            recorder.terminal(),
            Some(SolveEvent::Stopped(StopReason::Breakdown))
        ));
    }

    #[test]
    fn scratch_reuse_is_bitwise_identical_across_solves() {
        let w = WorkloadSpec::quickstart().build();
        let op = MatrixFreeOperator::<f64>::from_workload(&w);
        let p0: CellField<f64> = w.initial_pressure();
        let mut b = residual(&p0, w.transmissibility(), w.dirichlet());
        newton_rhs(&mut b, w.dirichlet());
        let solver = ConjugateGradient::with_tolerance(1e-12, 2000);
        let fresh = solver.solve(&op, None, &b, &CellField::zeros(w.dims()), &mut NullMonitor);

        // One scratch, three solves: the second and third start from dirty
        // buffers and a used history, and must still reproduce every bit.
        let mut scratch = CgScratch::new(w.dims());
        for round in 0..3 {
            let stopped = solver.solve_into(
                &op,
                None,
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
    fn f32_solve_reaches_single_precision_accuracy() {
        let w = WorkloadSpec::quickstart().scaled(2).build();
        let op = MatrixFreeOperator::<f32>::from_workload(&w);
        let p0: CellField<f32> = w.initial_pressure();
        let mut b = residual(&p0, &w.transmissibility().convert(), w.dirichlet());
        newton_rhs(&mut b, w.dirichlet());
        let out = ConjugateGradient::with_tolerance(1e-10, 2000).solve(
            &op,
            None,
            &b,
            &CellField::zeros(w.dims()),
            &mut NullMonitor,
        );
        assert!(out.history.converged);
        assert!(out.solution.all_finite());
    }
}
