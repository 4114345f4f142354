//! [`SolveBackend`] implementation for the GPU-style reference solver.
//!
//! This is the *only* module that constructs [`GpuReferenceSolver`] directly;
//! everything else (examples, benches, tests) goes through the `mffv`
//! `Simulation` facade, which instantiates this backend.

use crate::cg::{GpuReferenceSolver, GpuSolveReport};
use crate::device_model::GpuSpec;
use mffv_mesh::{CellField, Workload};
use mffv_solver::backend::{
    final_residual_max_f64, DeviceSection, Precision, SolveBackend, SolveConfig, SolveError,
    SolveReport, SolveRequest,
};

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

impl GpuRefBackend {
    /// Wrap the internal [`GpuSolveReport`] into the unified report shape.
    fn unify(&self, workload: &Workload, report: GpuSolveReport) -> SolveReport {
        let device = DeviceSection {
            device: self.spec.name.to_string(),
            modelled_time_seconds: report.modelled_kernel_time,
            counters: vec![
                (
                    "host_to_device_bytes".to_string(),
                    report.transfers.host_to_device_bytes as f64,
                ),
                (
                    "device_to_host_bytes".to_string(),
                    report.transfers.device_to_host_bytes as f64,
                ),
            ],
        };
        let pressure: CellField<f64> = report.pressure.convert();
        // The internal report's residual was evaluated in device (f32)
        // precision; re-evaluate in f64 so the unified field stays
        // backend-independent.
        let final_residual_max = final_residual_max_f64(workload, &pressure);
        SolveReport {
            backend: self.name(),
            pressure,
            history: report.history,
            final_residual_max,
            host_wall_seconds: report.host_wall_seconds,
            device: Some(device),
            stopped: report.stopped,
        }
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

    fn solve(
        &self,
        workload: &Workload,
        config: &SolveConfig,
        request: &mut SolveRequest<'_>,
    ) -> Result<SolveReport, SolveError> {
        let report = request.run(|monitor, span, _| {
            let build = span.child("build-device-model");
            let solver = GpuReferenceSolver::new(workload, self.spec)
                .with_tolerance(config.effective_tolerance(workload))
                .with_max_iterations(config.effective_max_iterations(workload))
                .with_preconditioner(config.preconditioner);
            build.finish();
            solver.solve(monitor, span)
        });
        Ok(self.unify(workload, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mffv_mesh::workload::WorkloadSpec;
    use mffv_solver::backend::HostBackend;

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
}
