//! Host-side CG driver for the GPU-style reference (§IV).
//!
//! The paper's reference keeps the CG loop on the host and launches one kernel per
//! operator application; dot products and vector updates are further device kernels.
//! Here the same structure is expressed by running `mffv_solver`'s Newton step and
//! CG loop on top of [`GpuMatrixFreeOperator`], with the host/device transfer
//! accounting of [`crate::memory::HostDeviceTransfers`] recorded alongside.

use crate::device_model::{GpuSpec, GpuTimeModel};
use crate::kernel::GpuMatrixFreeOperator;
use crate::memory::HostDeviceTransfers;
use mffv_mesh::{CellField, Workload};
use mffv_solver::backend::PreconditionerKind;
use mffv_solver::cg::ConjugateGradient;
use mffv_solver::convergence::ConvergenceHistory;
use mffv_solver::monitor::{SolveMonitor, StopReason};
use mffv_solver::newton::{solve_pressure, NewtonScratch};
use mffv_solver::pcg::JacobiPreconditioner;
use mffv_solver::trace::Span;
use mffv_solver::{MgConfig, MultigridVcycle, Preconditioner};

/// Result of a reference solve.
#[derive(Clone, Debug)]
pub struct GpuSolveReport {
    /// The pressure field (f32, as on the device).
    pub pressure: CellField<f32>,
    /// CG convergence history.
    pub history: ConvergenceHistory,
    /// Max-norm of the residual at the returned pressure.
    pub final_residual_max: f64,
    /// Host ↔ device transfer accounting.
    pub transfers: HostDeviceTransfers,
    /// Modelled kernel time on the modelled GPU, seconds.
    pub modelled_kernel_time: f64,
    /// Host wall-clock of the CPU-executed reference, seconds (not comparable to
    /// device time; reported for transparency).
    pub host_wall_seconds: f64,
    /// `Some(reason)` when a monitor or stop policy ended the solve early.
    pub stopped: Option<StopReason>,
}

/// The GPU-style reference solver.  Borrows its workload: a solver is a
/// one-shot driver and the workload's coefficient fields are large.
pub struct GpuReferenceSolver<'w> {
    workload: &'w Workload,
    spec: GpuSpec,
    tolerance: f64,
    max_iterations: usize,
    preconditioner: PreconditionerKind,
}

impl<'w> GpuReferenceSolver<'w> {
    /// A reference solver on a given modelled GPU.
    pub fn new(workload: &'w Workload, spec: GpuSpec) -> Self {
        let tolerance = workload.tolerance();
        let max_iterations = workload.max_iterations();
        Self {
            workload,
            spec,
            tolerance,
            max_iterations,
            preconditioner: PreconditionerKind::None,
        }
    }

    /// Override the tolerance on `rᵀr`.
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = tolerance;
        self
    }

    /// Override the iteration cap.
    pub fn with_max_iterations(mut self, max_iterations: usize) -> Self {
        self.max_iterations = max_iterations;
        self
    }

    /// Select the preconditioner for the host-resident Krylov loop.  Jacobi is
    /// one extra elementwise device kernel per iteration; the multigrid V-cycle
    /// runs host-assisted, with the residual downloaded and the correction
    /// uploaded each iteration (accounted in the transfer totals).
    pub fn with_preconditioner(mut self, preconditioner: PreconditionerKind) -> Self {
        self.preconditioner = preconditioner;
        self
    }

    /// Run the reference solve as an observable, cancellable session: the
    /// host-resident CG loop (§IV keeps the loop on the host, one kernel
    /// launch per operator application) reports every iteration boundary to
    /// `monitor`, which may stop the solve early — the partial pressure and
    /// history are still downloaded and reported.  `span` scopes the
    /// preconditioner's `mg.vcycle` / `mg.level` spans when multigrid is
    /// selected.
    pub fn solve(&self, monitor: &mut dyn SolveMonitor, span: &Span) -> GpuSolveReport {
        // audit: allow(wall-clock) — telemetry: feeds the report's elapsed
        // seconds, never a numeric decision.
        #[allow(clippy::disallowed_methods)]
        let start = std::time::Instant::now();
        let operator = GpuMatrixFreeOperator::from_workload(self.workload);
        let mut transfers = HostDeviceTransfers::default();
        // Initial upload: coefficients, mask, pressure, rhs (§IV copies all data
        // from host to device once).
        transfers.record_host_to_device(operator.device_arrays().bytes());
        transfers.record_host_to_device(2 * self.workload.dims().num_cells() * 4);

        let n = self.workload.dims().num_cells();
        let coeffs = self.workload.transmissibility().convert::<f32>();
        let precond: Option<Box<dyn Preconditioner<f32>>> = match self.preconditioner {
            PreconditionerKind::None => None,
            PreconditionerKind::Jacobi => {
                // The inverse diagonal lives on the device: one extra upload,
                // then one elementwise kernel per iteration (no per-iteration
                // transfers).
                transfers.record_host_to_device(n * 4);
                Some(Box::new(JacobiPreconditioner::from_coefficients(
                    &coeffs,
                    self.workload.dirichlet(),
                )))
            }
            PreconditionerKind::Mg => Some(Box::new(MultigridVcycle::<f32>::from_workload(
                self.workload,
                1,
                MgConfig::default(),
            ))),
        };
        let solver = ConjugateGradient::with_tolerance(self.tolerance, self.max_iterations);
        let mut newton = NewtonScratch::new(self.workload.dims());
        let stopped = solve_pressure(
            self.workload,
            &coeffs,
            &operator,
            precond.as_deref(),
            &solver,
            monitor,
            span,
            &mut newton,
        );
        if self.preconditioner == PreconditionerKind::Mg {
            // Host-assisted V-cycle: the device downloads the residual and
            // uploads the correction on every application — one per
            // iteration plus the initial z0 = M⁻¹ r0.
            let applies = newton.history().iterations + 1;
            transfers.record_device_to_host(applies * n * 4);
            transfers.record_host_to_device(applies * n * 4);
        }
        // Final download of the pressure field.
        transfers.record_device_to_host(n * 4);

        let model = GpuTimeModel::new(self.spec);
        let modelled_kernel_time = model.cg_time(self.workload.dims(), newton.history().iterations);
        GpuSolveReport {
            pressure: newton.pressure().clone(),
            history: newton.history().clone(),
            final_residual_max: newton.final_residual_max(),
            transfers,
            modelled_kernel_time,
            host_wall_seconds: start.elapsed().as_secs_f64(),
            stopped,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::backend::GpuRefBackend;
    use mffv_mesh::workload::WorkloadSpec;
    use mffv_mesh::Dims;
    use mffv_solver::backend::{HostBackend, SolveBackend, SolveConfig, SolveRequest};

    fn config(tolerance: f64) -> SolveConfig {
        SolveConfig {
            tolerance: Some(tolerance),
            ..SolveConfig::default()
        }
    }

    #[test]
    fn reference_solve_matches_host_oracle() {
        let w = WorkloadSpec::quickstart().build();
        let report = GpuRefBackend::a100()
            .solve(&w, &config(1e-10), &mut SolveRequest::new())
            .unwrap();
        assert!(report.converged());
        let oracle = HostBackend::oracle()
            .solve(&w, &SolveConfig::default(), &mut SolveRequest::new())
            .unwrap();
        let diff = oracle.pressure.max_abs_diff(&report.pressure);
        assert!(diff < 1e-3, "gpu reference vs oracle gap {diff}");
        assert!(report.final_residual_max < 1e-3);
    }

    #[test]
    fn preconditioned_paths_match_the_unpreconditioned_solve() {
        use mffv_solver::backend::PreconditionerKind;
        let w = WorkloadSpec::quickstart().build();
        let base = GpuRefBackend::a100()
            .solve(&w, &config(1e-12), &mut SolveRequest::new())
            .unwrap();
        for kind in [PreconditionerKind::Jacobi, PreconditionerKind::Mg] {
            let cfg = SolveConfig {
                tolerance: Some(1e-12),
                preconditioner: kind,
                ..SolveConfig::default()
            };
            let report = GpuRefBackend::a100()
                .solve(&w, &cfg, &mut SolveRequest::new())
                .unwrap();
            assert!(report.converged(), "{} did not converge", kind.label());
            let diff = report.max_abs_diff(&base);
            assert!(diff < 1e-3, "{} pressure gap {diff}", kind.label());
            // The host-assisted V-cycle must account its per-iteration
            // residual/correction round trips.
            if kind == PreconditionerKind::Mg {
                let d2h = report
                    .device
                    .as_ref()
                    .unwrap()
                    .counter("device_to_host_bytes")
                    .unwrap();
                let base_d2h = base
                    .device
                    .as_ref()
                    .unwrap()
                    .counter("device_to_host_bytes")
                    .unwrap();
                assert!(d2h > base_d2h);
            }
        }
    }

    #[test]
    fn transfers_and_model_are_populated() {
        let w = WorkloadSpec::fig5(Dims::new(8, 6, 5)).build();
        let report = GpuRefBackend::h100()
            .solve(&w, &config(1e-12), &mut SolveRequest::new())
            .unwrap();
        let device = report.device.as_ref().unwrap();
        assert!(device.counter("host_to_device_bytes").unwrap() > 0.0);
        assert!(device.counter("device_to_host_bytes").unwrap() > 0.0);
        assert!(device.modelled_time_seconds > 0.0);
        assert!(report.host_wall_seconds > 0.0);
    }

    #[test]
    fn a100_is_modelled_slower_than_h100() {
        let w = WorkloadSpec::quickstart().build();
        let a = GpuRefBackend::a100()
            .solve(&w, &config(1e-8), &mut SolveRequest::new())
            .unwrap();
        let h = GpuRefBackend::h100()
            .solve(&w, &config(1e-8), &mut SolveRequest::new())
            .unwrap();
        assert!(a.modelled_time().unwrap() > h.modelled_time().unwrap());
    }
}
