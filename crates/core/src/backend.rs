//! The dataflow fabric as a [`SolveBackend`]: Algorithm 1 executed on the
//! simulated fabric.
//!
//! [`DataflowBackend::solve`] loads a workload onto the fabric (one z-column per
//! PE, §III-A), builds the right-hand side of the Newton system, and then drives
//! the 14-state CG state machine under the [`SolveConfig`]'s tolerance,
//! iteration cap and preconditioner: each iteration performs the Table-I halo
//! exchange of the direction column, the per-PE matrix-free operator application
//! (Algorithm 2), two whole-fabric all-reduces for α and the convergence test,
//! and the vector updates — all through the fabric's DSD instruction set so
//! every FLOP, byte and hop is counted.
//!
//! The unified [`SolveReport`] carries the pressure field (for numerical
//! integrity checks against the host and GPU-reference solvers, §V-B), the
//! convergence history, and a device section with the measured counters and the
//! modelled device time.  The §III-E toggles of [`SolverOptions`] shape the
//! device-time model and the memory plan; communication-only runs keep their
//! forced iteration count and plain CG's schedule.

use crate::allreduce::AllReduce;
use crate::comm::CardinalExchange;
use crate::kernel;
use crate::mapping::{MemoryPlan, PeColumnBuffers, ProblemMapping};
use crate::options::SolverOptions;
use crate::state_machine::{CgEvent, CgState, CgStateMachine};
use crate::stats::DataflowRunStats;
use mffv_fabric::error::Result;
use mffv_fabric::{ColorAllocator, Fabric, WseSpec};
use mffv_fv::residual::{newton_rhs, residual};
use mffv_mesh::{CellField, Dims, Workload};
use mffv_solver::backend::{
    final_residual_max_f64, DeviceSection, Precision, PreconditionerKind, SolveBackend,
    SolveConfig, SolveError, SolveReport, SolveRequest,
};
use mffv_solver::convergence::{ConvergenceHistory, StoppingCriterion};
use mffv_solver::monitor::{Flow, SolveEvent, SolveMonitor, StopReason};
use mffv_solver::trace::Span;
use mffv_solver::{MgConfig, MultigridVcycle, Preconditioner};
use std::time::Instant;

/// The simulated WSE-2 dataflow fabric as a facade backend.
#[derive(Clone, Copy, Debug, Default)]
pub struct DataflowBackend {
    /// The §III-E optimisation toggles (buffer reuse, overlap, vectorisation,
    /// communication-only mode).
    pub options: SolverOptions,
    /// Machine spec for the device-time model; `None` models a CS-2 region
    /// matching the problem's fabric footprint (the historical default).
    pub spec: Option<WseSpec>,
}

impl DataflowBackend {
    /// The paper's production configuration: every optimisation on, device time
    /// modelled on a problem-sized CS-2 region.
    pub fn paper() -> Self {
        Self {
            options: SolverOptions::paper(),
            spec: None,
        }
    }

    /// A backend with explicit dataflow options.
    pub fn with_options(options: SolverOptions) -> Self {
        Self {
            options,
            spec: None,
        }
    }

    /// Override the machine spec used by the device-time model.
    pub fn with_spec(mut self, spec: WseSpec) -> Self {
        self.spec = Some(spec);
        self
    }
}

/// The armed preconditioner of a dataflow solve: Jacobi lives on the fabric
/// (a resident inverse-diagonal column, see [`kernel::jacobi_precond`]); the
/// multigrid V-cycle runs host-assisted, reading the residual columns back
/// and writing the correction columns per application.
enum FabricPrecond {
    None,
    Jacobi,
    Mg(Box<MultigridVcycle<f32>>),
}

impl FabricPrecond {
    fn is_none(&self) -> bool {
        matches!(self, FabricPrecond::None)
    }

    /// Fill every PE's `precond_z` column with `M⁻¹ · residual`.
    fn apply(&self, fabric: &mut Fabric, buffers: &[PeColumnBuffers], dims: Dims) -> Result<()> {
        match self {
            FabricPrecond::None => Ok(()),
            FabricPrecond::Jacobi => {
                for (idx, bufs) in buffers.iter().enumerate() {
                    let pe_id = fabric.dims().unlinear(idx);
                    kernel::jacobi_precond(fabric.pe_mut(pe_id), bufs)?;
                }
                Ok(())
            }
            FabricPrecond::Mg(mg) => {
                // Host-assisted V-cycle: download the residual columns, run
                // the cycle on the host, upload the correction columns.  The
                // column reads/writes are accounted as PE memory traffic.
                let nz = dims.nz;
                let mut r = CellField::<f32>::zeros(dims);
                for (idx, bufs) in buffers.iter().enumerate() {
                    let pe_id = fabric.dims().unlinear(idx);
                    let pe = fabric.pe_mut(pe_id);
                    let column = pe.memory().read(bufs.residual, 0, nz)?;
                    pe.counters_mut().mem_load_bytes += nz as u64 * 4;
                    r.set_column(pe_id.x, pe_id.y, &column);
                }
                let mut z = CellField::<f32>::zeros(dims);
                mg.apply(&r, &mut z);
                for (idx, bufs) in buffers.iter().enumerate() {
                    let pe_id = fabric.dims().unlinear(idx);
                    let pe = fabric.pe_mut(pe_id);
                    pe.memory_mut()
                        .write(bufs.precond_z, 0, &z.column(pe_id.x, pe_id.y))?;
                    pe.counters_mut().mem_store_bytes += nz as u64 * 4;
                }
                Ok(())
            }
        }
    }
}

impl SolveBackend for DataflowBackend {
    fn name(&self) -> String {
        "dataflow".to_string()
    }

    /// Transient steps run at the fabric's native precision (`f32`, §III —
    /// the PEs compute in single precision).
    fn step_precision(&self) -> Precision {
        Precision::F32
    }

    /// Run the state machine as an observable, cancellable session.
    ///
    /// The state machine reports every `ThresholdCheck` (the paper's line-8
    /// convergence test, the natural iteration boundary of the dataflow
    /// loop) to the request's monitor with the fabric-reduced `rᵀr` —
    /// bitwise the value recorded in the report's [`ConvergenceHistory`].  A
    /// [`Flow::Stop`] exits the state machine at that boundary; the partial
    /// solution columns are still extracted from the PEs and reported.  A
    /// fabric error (a column that overflows PE memory, …) is a
    /// [`SolveError`] naming this backend.
    fn solve(
        &self,
        workload: &Workload,
        config: &SolveConfig,
        request: &mut SolveRequest<'_>,
    ) -> std::result::Result<SolveReport, SolveError> {
        request
            .run(|monitor, span, _| self.run(workload, config, monitor, span))
            .map_err(|e| SolveError::new(self.name(), e.to_string()))
    }
}

impl DataflowBackend {
    /// Load `workload` onto a fresh fabric and run the CG state machine on
    /// it; the fabric setup is recorded as a `build-fabric-program` span.
    fn run(
        &self,
        workload: &Workload,
        config: &SolveConfig,
        monitor: &mut dyn SolveMonitor,
        span: &Span,
    ) -> Result<SolveReport> {
        // audit: allow(wall-clock) — telemetry: feeds the report's elapsed
        // seconds, never a numeric decision.
        #[allow(clippy::disallowed_methods)]
        let start = Instant::now();
        let dims = workload.dims();
        let spec = self
            .spec
            .unwrap_or_else(|| WseSpec::cs2_region(dims.nx, dims.ny));
        let build = span.child("build-fabric-program");
        let mapping = ProblemMapping::new(dims);
        let mut fabric = Fabric::new(mapping.fabric_dims());
        let mut colors = ColorAllocator::new();

        // ---------------------------------------------------------------- setup
        // Allocate and load every PE's column data.
        let mut buffers: Vec<PeColumnBuffers> = Vec::with_capacity(fabric.num_pes());
        for idx in 0..fabric.num_pes() {
            let pe_id = fabric.dims().unlinear(idx);
            let pe = fabric.pe_mut(pe_id);
            let bufs = PeColumnBuffers::allocate(pe, workload, pe_id.x, pe_id.y)?;
            buffers.push(bufs);
        }
        let mut exchange = CardinalExchange::new(&mut fabric, &mut colors)?;
        let allreduce = AllReduce::new(&mut colors)?;

        // Arm the configured preconditioner (communication-only runs skip all
        // floating-point work, so they keep plain CG's schedule).
        let precond = if !self.options.compute_enabled {
            FabricPrecond::None
        } else {
            match config.preconditioner {
                PreconditionerKind::None => FabricPrecond::None,
                PreconditionerKind::Jacobi => FabricPrecond::Jacobi,
                PreconditionerKind::Mg => FabricPrecond::Mg(Box::new(
                    MultigridVcycle::<f32>::from_workload(workload, 1, MgConfig::default()),
                )),
            }
        };

        // Host-side initialisation of the Newton system (the paper loads the mesh
        // and initial condition from the host as well): r₀ and the rhs columns.
        let coeffs32 = workload.transmissibility().convert::<f32>();
        let p0: CellField<f32> = workload.initial_pressure();
        let r0 = residual(&p0, &coeffs32, workload.dirichlet());
        let rhs = newton_rhs(&r0, workload.dirichlet());
        for (idx, bufs) in buffers.iter().enumerate() {
            let pe_id = fabric.dims().unlinear(idx);
            let column = rhs.column(pe_id.x, pe_id.y);
            kernel::init_cg_state(fabric.pe_mut(pe_id), bufs, &column)?;
        }
        build.finish();

        let tolerance = config.effective_tolerance(workload);
        let max_iterations = if self.options.compute_enabled {
            config.effective_max_iterations(workload)
        } else {
            self.options.forced_iterations
        };
        let criterion =
            StoppingCriterion::new(tolerance.max(f64::MIN_POSITIVE), max_iterations.max(1));

        // ------------------------------------------------------------ state machine
        let mut machine = CgStateMachine::new(max_iterations);
        let mut critical_path_hops = 0usize;
        let mut rr = self.global_rr(&mut fabric, &allreduce, &buffers, &mut critical_path_hops)?;
        let mut history = ConvergenceHistory::starting_from(rr as f64);
        machine
            .advance(CgEvent::Initialized)
            // audit: allow(panic) — invariant: Initialized is the one event the
            // table accepts in Init; the machine was constructed one line up.
            .expect("Init -> IterCheck");

        let mut d_ad = 0.0f32;
        let mut alpha = 0.0f32;
        let mut rr_new = rr;
        let mut stopped: Option<StopReason> = None;

        // PCG initialisation: z₀ = M⁻¹ r₀, d₀ = z₀, and the α/β numerator
        // r·z.  Convergence stays on the unpreconditioned rᵀr, so histories
        // remain directly comparable with plain CG.
        let mut rz = rr;
        if !precond.is_none() {
            precond.apply(&mut fabric, &buffers, dims)?;
            for (idx, bufs) in buffers.iter().enumerate() {
                let pe_id = fabric.dims().unlinear(idx);
                kernel::set_direction_from_z(fabric.pe_mut(pe_id), bufs)?;
            }
            rz = self.global_rz(&mut fabric, &allreduce, &buffers, &mut critical_path_hops)?;
        }

        if self.options.compute_enabled && criterion.is_converged(rr as f64) {
            history.converged = true;
            monitor.on_event(&SolveEvent::Started {
                initial_rr: rr as f64,
            });
            monitor.on_event(&SolveEvent::Converged {
                iterations: 0,
                rr: rr as f64,
            });
            machine
                .advance(CgEvent::BudgetExhausted)
                // audit: allow(panic) — invariant: the machine sits in IterCheck
                // right after Initialized, where BudgetExhausted is accepted.
                .expect("IterCheck -> Done");
        } else if let Flow::Stop(reason) = monitor.on_event(&SolveEvent::Started {
            initial_rr: rr as f64,
        }) {
            monitor.on_event(&SolveEvent::Stopped(reason));
            stopped = Some(reason);
        }

        while stopped.is_none() && !machine.is_done() {
            let state = machine.state();
            let event = match state {
                CgState::IterCheck => machine.budget_event(),
                CgState::ExchangeHalos => {
                    exchange.exchange(&mut fabric, &buffers)?;
                    // The four steps are dependency-chained; each step is a one-hop
                    // transfer overlapped across the fabric.
                    critical_path_hops += 4;
                    CgEvent::ExchangeComplete
                }
                CgState::ComputeJx => {
                    if self.options.compute_enabled {
                        for (idx, bufs) in buffers.iter().enumerate() {
                            let pe_id = fabric.dims().unlinear(idx);
                            kernel::compute_jd(fabric.pe_mut(pe_id), bufs)?;
                        }
                    }
                    CgEvent::ComputeComplete
                }
                CgState::LocalDotDAd => CgEvent::LocalDotReady,
                CgState::AllReduceDAd => {
                    let mut partials = vec![0.0f32; fabric.num_pes()];
                    if self.options.compute_enabled {
                        for idx in 0..fabric.num_pes() {
                            let pe_id = fabric.dims().unlinear(idx);
                            partials[idx] =
                                kernel::local_dot_d_ad(fabric.pe_mut(pe_id), &buffers[idx])?;
                        }
                    }
                    let (value, report) = allreduce.reduce_scalar(&mut fabric, &partials)?;
                    critical_path_hops += report.critical_path_hops;
                    d_ad = value;
                    CgEvent::ReduceComplete
                }
                CgState::ComputeAlpha => {
                    if self.options.compute_enabled {
                        if d_ad <= 0.0 || !d_ad.is_finite() {
                            // Breakdown (loss of positive definiteness in f32):
                            // terminate cleanly rather than diverge.
                            for event in [
                                CgEvent::ScalarReady,
                                CgEvent::UpdateComplete,
                                CgEvent::UpdateComplete,
                                CgEvent::LocalDotReady,
                                CgEvent::ReduceComplete,
                                CgEvent::Converged,
                            ] {
                                // audit: allow(panic) — invariant: this unwind walks the
                                // ComputeAlpha row of the total transition table in order.
                                machine.advance(event).expect("breakdown unwind");
                            }
                            continue;
                        }
                        alpha = if precond.is_none() {
                            rr / d_ad
                        } else {
                            rz / d_ad
                        };
                    } else {
                        alpha = 0.0;
                    }
                    CgEvent::ScalarReady
                }
                CgState::UpdateSolution => {
                    if self.options.compute_enabled {
                        for (idx, bufs) in buffers.iter().enumerate() {
                            let pe_id = fabric.dims().unlinear(idx);
                            let pe = fabric.pe_mut(pe_id);
                            let nz = pe.memory().len(bufs.solution)?;
                            pe.axpy(
                                mffv_fabric::Dsd::full(bufs.solution, nz),
                                mffv_fabric::Dsd::full(bufs.direction, nz),
                                alpha,
                            )?;
                        }
                    }
                    CgEvent::UpdateComplete
                }
                CgState::UpdateResidual => {
                    if self.options.compute_enabled {
                        for (idx, bufs) in buffers.iter().enumerate() {
                            let pe_id = fabric.dims().unlinear(idx);
                            let pe = fabric.pe_mut(pe_id);
                            let nz = pe.memory().len(bufs.residual)?;
                            pe.axpy(
                                mffv_fabric::Dsd::full(bufs.residual, nz),
                                mffv_fabric::Dsd::full(bufs.operator_out, nz),
                                -alpha,
                            )?;
                        }
                    }
                    CgEvent::UpdateComplete
                }
                CgState::LocalDotRR => CgEvent::LocalDotReady,
                CgState::AllReduceRR => {
                    rr_new =
                        self.global_rr(&mut fabric, &allreduce, &buffers, &mut critical_path_hops)?;
                    CgEvent::ReduceComplete
                }
                CgState::ThresholdCheck => {
                    history.record(rr_new as f64);
                    if self.options.compute_enabled && criterion.is_converged(rr_new as f64) {
                        history.converged = true;
                        monitor.on_event(&SolveEvent::Iteration {
                            k: history.iterations,
                            rr: rr_new as f64,
                        });
                        monitor.on_event(&SolveEvent::Converged {
                            iterations: history.iterations,
                            rr: rr_new as f64,
                        });
                        CgEvent::Converged
                    } else {
                        if let Flow::Stop(reason) = monitor.on_event(&SolveEvent::Iteration {
                            k: history.iterations,
                            rr: rr_new as f64,
                        }) {
                            // Exit at this iteration boundary: the loop
                            // condition sees `stopped` before the next state.
                            monitor.on_event(&SolveEvent::Stopped(reason));
                            stopped = Some(reason);
                        }
                        CgEvent::NotConverged
                    }
                }
                CgState::UpdateDirection => {
                    if self.options.compute_enabled {
                        if precond.is_none() {
                            let beta = if rr > 0.0 { rr_new / rr } else { 0.0 };
                            for (idx, bufs) in buffers.iter().enumerate() {
                                let pe_id = fabric.dims().unlinear(idx);
                                kernel::apply_beta_update(fabric.pe_mut(pe_id), bufs, beta)?;
                            }
                        } else {
                            // PCG direction update: z = M⁻¹ r, β = r·z / rz,
                            // d = z + β d.  The extra r·z all-reduce rides the
                            // same fabric reduction tree as α's denominator.
                            precond.apply(&mut fabric, &buffers, dims)?;
                            let rz_new = self.global_rz(
                                &mut fabric,
                                &allreduce,
                                &buffers,
                                &mut critical_path_hops,
                            )?;
                            let beta = if rz > 0.0 { rz_new / rz } else { 0.0 };
                            for (idx, bufs) in buffers.iter().enumerate() {
                                let pe_id = fabric.dims().unlinear(idx);
                                kernel::apply_beta_update_z(fabric.pe_mut(pe_id), bufs, beta)?;
                            }
                            rz = rz_new;
                        }
                        rr = rr_new;
                    }
                    CgEvent::ScalarReady
                }
                // audit: allow(panic) — invariant: the `while !machine.is_done()`
                // loop never re-enters Init and exits before Done is matched.
                CgState::Init | CgState::Done => unreachable!("handled outside the loop"),
            };
            machine
                .advance(event)
                // audit: allow(panic) — invariant: every arm above emits the
                // event its state row accepts; the table is total for them.
                .expect("transition table is total for generated events");
        }

        // -------------------------------------------------------------- extraction
        let mut delta = CellField::<f32>::zeros(dims);
        for (idx, bufs) in buffers.iter().enumerate() {
            let pe_id = fabric.dims().unlinear(idx);
            let nz = dims.nz;
            let column = fabric.pe(pe_id).memory().read(bufs.solution, 0, nz)?;
            delta.set_column(pe_id.x, pe_id.y, &column);
        }
        let mut pressure = p0;
        pressure.axpy(1.0, &delta);
        let pressure: CellField<f64> = pressure.convert();
        let final_residual_max = final_residual_max_f64(workload, &pressure);

        let stats = DataflowRunStats {
            iterations: machine.iteration(),
            total_cells: dims.num_cells(),
            total_compute: fabric.total_compute(),
            max_per_pe_compute: fabric.max_per_pe_compute(),
            fabric: *fabric.stats(),
            critical_path_hops,
            host_wall_seconds: start.elapsed().as_secs_f64(),
        };
        let modelled_time =
            stats.modelled_time(spec, self.options.overlap, self.options.simd_efficiency());
        let memory_plan = MemoryPlan::new(dims.nz, self.options.reuse);
        let counters = [
            ("total_flops", stats.total_compute.flops as f64),
            ("total_mem_bytes", stats.total_compute.mem_bytes() as f64),
            (
                "total_fabric_recv_wavelets",
                stats.total_compute.fabric_recv_wavelets as f64,
            ),
            ("fabric_link_bytes", stats.fabric.link_bytes as f64),
            ("fabric_messages", stats.fabric.messages_sent as f64),
            ("critical_path_hops", stats.critical_path_hops as f64),
            ("memory_plan_bytes", memory_plan.data_bytes() as f64),
            ("compute_time_seconds", modelled_time.compute_time),
            ("fabric_time_seconds", modelled_time.fabric_time),
            ("latency_time_seconds", modelled_time.latency_time),
        ];
        let device = DeviceSection {
            device: format!("CS-2 region {}x{}", spec.fabric.width, spec.fabric.height),
            modelled_time_seconds: modelled_time.total,
            counters: counters
                .into_iter()
                .map(|(name, value)| (name.to_string(), value))
                .collect(),
        };
        Ok(SolveReport {
            backend: self.name(),
            pressure,
            history,
            final_residual_max,
            host_wall_seconds: stats.host_wall_seconds,
            device: Some(device),
            stopped,
        })
    }

    /// Per-PE `r·z` partials reduced over the fabric (PCG's α/β numerator).
    fn global_rz(
        &self,
        fabric: &mut Fabric,
        allreduce: &AllReduce,
        buffers: &[PeColumnBuffers],
        critical_path_hops: &mut usize,
    ) -> Result<f32> {
        let mut partials = vec![0.0f32; fabric.num_pes()];
        for idx in 0..fabric.num_pes() {
            let pe_id = fabric.dims().unlinear(idx);
            partials[idx] = kernel::local_dot_rz(fabric.pe_mut(pe_id), &buffers[idx])?;
        }
        let (value, report) = allreduce.reduce_scalar(fabric, &partials)?;
        *critical_path_hops += report.critical_path_hops;
        Ok(value)
    }

    /// Per-PE `r·r` partials reduced over the fabric.
    fn global_rr(
        &self,
        fabric: &mut Fabric,
        allreduce: &AllReduce,
        buffers: &[PeColumnBuffers],
        critical_path_hops: &mut usize,
    ) -> Result<f32> {
        let mut partials = vec![0.0f32; fabric.num_pes()];
        if self.options.compute_enabled {
            for idx in 0..fabric.num_pes() {
                let pe_id = fabric.dims().unlinear(idx);
                partials[idx] = kernel::local_dot_rr(fabric.pe_mut(pe_id), &buffers[idx])?;
            }
        }
        let (value, report) = allreduce.reduce_scalar(fabric, &partials)?;
        *critical_path_hops += report.critical_path_hops;
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mffv_mesh::workload::WorkloadSpec;
    use mffv_solver::backend::HostBackend;

    fn oracle(w: &Workload) -> SolveReport {
        HostBackend::oracle()
            .solve(w, &SolveConfig::default(), &mut SolveRequest::new())
            .unwrap()
    }

    fn solve(backend: DataflowBackend, w: &Workload, config: &SolveConfig) -> SolveReport {
        backend.solve(w, config, &mut SolveRequest::new()).unwrap()
    }

    fn config(tolerance: f64) -> SolveConfig {
        SolveConfig {
            tolerance: Some(tolerance),
            ..SolveConfig::default()
        }
    }

    #[test]
    fn backend_solves_and_matches_the_host_oracle() {
        let w = WorkloadSpec::quickstart().scaled(2).build();
        let config = SolveConfig {
            tolerance: Some(1e-10),
            ..SolveConfig::default()
        };
        let dataflow = solve(DataflowBackend::paper(), &w, &config);
        let oracle = HostBackend::oracle()
            .solve(&w, &config, &mut SolveRequest::new())
            .unwrap();
        assert!(dataflow.converged());
        assert!(dataflow.max_abs_diff(&oracle) < 1e-3);
        let device = dataflow
            .device
            .expect("dataflow backend must model a device");
        assert!(device.modelled_time_seconds > 0.0);
        assert!(device.counter("fabric_link_bytes").unwrap() > 0.0);
        assert!(device.counter("critical_path_hops").unwrap() > 0.0);
        assert!(device.device.starts_with("CS-2 region"));
    }

    #[test]
    fn communication_only_mode_survives_the_facade_config() {
        let w = WorkloadSpec::quickstart().scaled(2).build();
        let backend = DataflowBackend::with_options(SolverOptions::communication_only(5));
        let report = solve(backend, &w, &SolveConfig::default());
        assert_eq!(report.iterations(), 5);
        let device = report.device.unwrap();
        assert!(device.counter("fabric_link_bytes").unwrap() > 0.0);
    }

    #[test]
    fn explicit_spec_changes_the_device_label() {
        let w = WorkloadSpec::quickstart().scaled(4).build();
        let backend = DataflowBackend::paper().with_spec(WseSpec::cs2());
        let report = solve(backend, &w, &SolveConfig::default());
        assert_eq!(report.device.unwrap().device, "CS-2 region 750x994");
    }

    #[test]
    fn dataflow_solve_matches_host_oracle_on_quickstart() {
        let w = WorkloadSpec::quickstart().scaled(2).build();
        let report = solve(DataflowBackend::paper(), &w, &config(1e-10));
        assert!(report.converged(), "dataflow CG did not converge");
        assert!(report.final_residual_max < 1e-3);
        let oracle = oracle(&w);
        let diff = oracle.pressure.max_abs_diff(&report.pressure);
        assert!(diff < 2e-4, "dataflow vs host mismatch: {diff}");
    }

    #[test]
    fn dataflow_solve_on_heterogeneous_fig5_scenario() {
        let w = WorkloadSpec::fig5(Dims::new(6, 5, 4)).build();
        let report = solve(DataflowBackend::paper(), &w, &config(1e-12));
        assert!(report.converged());
        let oracle = oracle(&w);
        let scale = oracle.pressure.max_abs();
        let rel = oracle.pressure.max_abs_diff(&report.pressure) / scale;
        assert!(rel < 1e-3, "relative mismatch {rel}");
    }

    #[test]
    fn preconditioned_dataflow_solves_match_the_oracle() {
        let w = WorkloadSpec::quickstart().scaled(2).build();
        let oracle = oracle(&w);
        let plain = solve(DataflowBackend::paper(), &w, &config(1e-10));
        for kind in [PreconditionerKind::Jacobi, PreconditionerKind::Mg] {
            let cfg = SolveConfig {
                tolerance: Some(1e-10),
                preconditioner: kind,
                ..SolveConfig::default()
            };
            let report = solve(DataflowBackend::paper(), &w, &cfg);
            assert!(report.converged(), "{} did not converge", kind.label());
            let diff = oracle.pressure.max_abs_diff(&report.pressure);
            assert!(diff < 1e-3, "{} vs oracle gap {diff}", kind.label());
            // A preconditioner must not take more iterations than plain CG
            // allowing slack for f32 effects on this small problem.
            assert!(
                report.iterations() <= plain.iterations() + 5,
                "{}: {} iters vs plain {}",
                kind.label(),
                report.iterations(),
                plain.iterations()
            );
        }
    }

    #[test]
    fn iteration_count_is_bounded_by_unknowns() {
        let w = WorkloadSpec::quickstart().scaled(2).build();
        let report = solve(DataflowBackend::paper(), &w, &SolveConfig::default());
        assert!(report.iterations() <= w.dims().num_cells());
        assert!(report.iterations() > 1);
    }

    #[test]
    fn communication_only_run_moves_data_but_does_no_flops_in_the_kernel() {
        let w = WorkloadSpec::quickstart().scaled(2).build();
        let full = solve(DataflowBackend::paper(), &w, &SolveConfig::default());
        let comm = solve(
            DataflowBackend::with_options(SolverOptions::communication_only(5)),
            &w,
            &SolveConfig::default(),
        );
        let full_device = full.device.as_ref().unwrap();
        let comm_device = comm.device.as_ref().unwrap();
        assert_eq!(comm.iterations(), 5);
        assert!(comm_device.counter("fabric_link_bytes").unwrap() > 0.0);
        // The only FLOPs left are the all-reduce additions.
        assert!(
            comm_device.counter("total_flops").unwrap()
                < full_device.counter("total_flops").unwrap() / 10.0
        );
    }

    #[test]
    fn modelled_time_has_positive_components() {
        let w = WorkloadSpec::quickstart().scaled(2).build();
        let report = solve(DataflowBackend::paper(), &w, &SolveConfig::default());
        let device = report.device.as_ref().unwrap();
        assert!(device.modelled_time_seconds > 0.0);
        assert!(device.counter("compute_time_seconds").unwrap() > 0.0);
        assert!(device.counter("critical_path_hops").unwrap() > 0.0);
        assert!(device.counter("memory_plan_bytes").unwrap() > 0.0);
    }

    #[test]
    fn residual_history_decreases_broadly() {
        let w = WorkloadSpec::quickstart().scaled(2).build();
        let report = solve(DataflowBackend::paper(), &w, &SolveConfig::default());
        assert!(report.history.is_broadly_decreasing(1e3));
        assert!(report.history.final_rr() < report.history.initial_rr());
    }
}
