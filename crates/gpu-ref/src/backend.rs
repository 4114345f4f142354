//! The GPU-style reference (§IV) as a [`SolveBackend`].
//!
//! The paper's reference keeps the CG loop on the host and launches one kernel per
//! operator application; dot products and vector updates are further device kernels.
//! [`GpuRefBackend::solve`] expresses the same structure by running `mffv_solver`'s
//! Newton step and CG loop on top of [`GpuMatrixFreeOperator`], under the
//! [`SolveConfig`]'s tolerance, iteration cap and preconditioner.  The report's
//! device section carries the host/device transfer accounting of
//! [`HostDeviceTransfers`] and the kernel time [`GpuTimeModel`] models on the GPU.

use crate::device_model::{GpuSpec, GpuTimeModel};
use crate::kernel::GpuMatrixFreeOperator;
use crate::memory::HostDeviceTransfers;
use mffv_mesh::{CellField, Workload};
use mffv_solver::backend::{
    final_residual_max_f64, DeviceSection, Precision, PreconditionerKind, SolveBackend,
    SolveConfig, SolveError, SolveReport, SolveRequest,
};
use mffv_solver::cg::ConjugateGradient;
use mffv_solver::newton::{solve_pressure, NewtonScratch};
use mffv_solver::pcg::JacobiPreconditioner;
use mffv_solver::{MgConfig, MultigridVcycle, Preconditioner};

/// The GPU-style reference as a facade backend: the CUDA block/thread kernel
/// structure executed on the host, with device time modelled on `spec`.
#[derive(Clone, Copy, Debug)]
pub struct GpuRefBackend {
    /// The modelled GPU.
    pub spec: GpuSpec,
}

impl GpuRefBackend {
    /// Reference backend on a given modelled GPU.
    pub fn new(spec: GpuSpec) -> Self {
        Self { spec }
    }

    /// The paper's primary comparison GPU, the A100.
    pub fn a100() -> Self {
        Self::new(GpuSpec::a100())
    }

    /// The paper's H100 configuration.
    pub fn h100() -> Self {
        Self::new(GpuSpec::h100())
    }
}

impl Default for GpuRefBackend {
    fn default() -> Self {
        Self::a100()
    }
}

impl SolveBackend for GpuRefBackend {
    fn name(&self) -> String {
        format!("gpu-ref-{}", self.spec.name)
    }

    /// Transient steps run at the device precision (`f32`), like every other
    /// computation this backend models.
    fn step_precision(&self) -> Precision {
        Precision::F32
    }

    /// Run the host-resident CG loop (§IV keeps the loop on the host, one
    /// kernel launch per operator application) as an observable, cancellable
    /// session.  Jacobi is one extra elementwise device kernel per iteration
    /// on an uploaded inverse diagonal; the multigrid V-cycle runs
    /// host-assisted, with the residual downloaded and the correction
    /// uploaded on every application (accounted in the transfer totals).  A
    /// monitor stop still downloads and reports the partial pressure and
    /// history.
    fn solve(
        &self,
        workload: &Workload,
        config: &SolveConfig,
        request: &mut SolveRequest<'_>,
    ) -> Result<SolveReport, SolveError> {
        // audit: allow(wall-clock) — telemetry: feeds the report's elapsed
        // seconds, never a numeric decision.
        #[allow(clippy::disallowed_methods)]
        let start = std::time::Instant::now();
        let n = workload.dims().num_cells();
        let mut transfers = HostDeviceTransfers::default();
        let (newton, stopped) = request.run(|monitor, span, _| {
            let build = span.child("build-device-model");
            let operator = GpuMatrixFreeOperator::from_workload(workload);
            // Initial upload: coefficients, mask, pressure, rhs (§IV copies
            // all data from host to device once).
            transfers.record_host_to_device(operator.device_arrays().bytes());
            transfers.record_host_to_device(2 * n * 4);
            let coeffs = workload.transmissibility().convert::<f32>();
            let precond: Option<Box<dyn Preconditioner<f32>>> =
                match config.preconditioner {
                    PreconditionerKind::None => None,
                    PreconditionerKind::Jacobi => {
                        // The inverse diagonal lives on the device: one extra
                        // upload, then no per-iteration transfers.
                        transfers.record_host_to_device(n * 4);
                        Some(Box::new(JacobiPreconditioner::from_coefficients(
                            &coeffs,
                            workload.dirichlet(),
                        )))
                    }
                    PreconditionerKind::Mg => Some(Box::new(
                        MultigridVcycle::<f32>::from_workload(workload, 1, MgConfig::default()),
                    )),
                };
            build.finish();
            let solver = ConjugateGradient::with_tolerance(
                config.effective_tolerance(workload),
                config.effective_max_iterations(workload),
            );
            let mut newton = NewtonScratch::new(workload.dims());
            let stopped = solve_pressure(
                workload,
                &coeffs,
                &operator,
                precond.as_deref(),
                &solver,
                monitor,
                span,
                &mut newton,
            );
            (newton, stopped)
        });
        let iterations = newton.history().iterations;
        if config.preconditioner == PreconditionerKind::Mg {
            // One V-cycle per iteration plus the initial z0 = M⁻¹ r0, each a
            // residual download and a correction upload.
            transfers.record_device_to_host((iterations + 1) * n * 4);
            transfers.record_host_to_device((iterations + 1) * n * 4);
        }
        // Final download of the pressure field.
        transfers.record_device_to_host(n * 4);

        // The solve evaluated its residual in device (f32) precision;
        // re-evaluate in f64 so the field stays backend-independent.
        let pressure: CellField<f64> = newton.pressure().convert();
        let final_residual_max = final_residual_max_f64(workload, &pressure);
        let device = DeviceSection {
            device: self.spec.name.to_string(),
            modelled_time_seconds: GpuTimeModel::new(self.spec)
                .cg_time(workload.dims(), iterations),
            counters: vec![
                (
                    "host_to_device_bytes".to_string(),
                    transfers.host_to_device_bytes as f64,
                ),
                (
                    "device_to_host_bytes".to_string(),
                    transfers.device_to_host_bytes as f64,
                ),
            ],
        };
        Ok(SolveReport {
            backend: self.name(),
            pressure,
            history: newton.history().clone(),
            final_residual_max,
            host_wall_seconds: start.elapsed().as_secs_f64(),
            device: Some(device),
            stopped,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mffv_mesh::workload::WorkloadSpec;
    use mffv_mesh::Dims;
    use mffv_solver::backend::HostBackend;

    fn config(tolerance: f64) -> SolveConfig {
        SolveConfig {
            tolerance: Some(tolerance),
            ..SolveConfig::default()
        }
    }

    #[test]
    fn backend_names_identify_the_gpu() {
        assert_eq!(GpuRefBackend::a100().name(), "gpu-ref-A100");
        assert_eq!(GpuRefBackend::h100().name(), "gpu-ref-H100");
    }

    #[test]
    fn backend_report_matches_host_oracle_and_models_the_device() {
        let w = WorkloadSpec::quickstart().build();
        let config = SolveConfig {
            tolerance: Some(1e-10),
            ..SolveConfig::default()
        };
        let gpu = GpuRefBackend::a100()
            .solve(&w, &config, &mut SolveRequest::new())
            .unwrap();
        let oracle = HostBackend::oracle()
            .solve(&w, &config, &mut SolveRequest::new())
            .unwrap();
        assert!(gpu.converged());
        assert!(gpu.max_abs_diff(&oracle) < 1e-3);
        let device = gpu.device.expect("gpu backend must model a device");
        assert_eq!(device.device, "A100");
        assert!(device.modelled_time_seconds > 0.0);
        assert!(device.counter("host_to_device_bytes").unwrap() > 0.0);
        assert!(device.counter("device_to_host_bytes").unwrap() > 0.0);
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
