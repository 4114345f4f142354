//! The dataflow fabric as a [`SolveBackend`]: Algorithm 1 executed on the
//! simulated fabric.
//!
//! [`DataflowBackend::solve`] loads a workload onto the fabric (one z-column per
//! PE, §III-A), builds the right-hand side of the Newton system, and then drives
//! the 14-state CG state machine under the [`SolveConfig`]'s tolerance,
//! iteration cap and preconditioner, plain CG or Jacobi (multigrid is refused
//! with a [`SolveError`]: the device model prices no V-cycle, so it runs on
//! the host backends only): each iteration performs the Table-I halo
//! exchange of the direction column, the per-PE matrix-free operator application
//! (Algorithm 2), two whole-fabric all-reduces for α and the convergence test,
//! and the vector updates — all through the fabric's DSD instruction set so
//! every FLOP, byte and hop is counted.
//!
//! The unified [`SolveReport`] carries the pressure field (for numerical
//! integrity checks against the host and GPU-reference solvers, §V-B), the
//! convergence history, and a device section with the measured counters and the
//! modelled device time.  The backend runs the §III program with all three
//! §III-E enhancements on: the device-time model assumes vectorised kernels
//! and overlapped communication, and the memory plan aggressive buffer reuse.
//! Its one setting is the Table-IV communication-only run, which keeps a
//! fixed iteration count and plain CG's schedule.

use crate::allreduce::AllReduce;
use crate::comm::CardinalExchange;
use crate::kernel;
use crate::mapping::{MemoryPlan, PeColumnBuffers, ReuseStrategy};
use crate::state_machine::{CgEvent, CgState, CgStateMachine};
use mffv_fabric::error::Result;
use mffv_fabric::{
    ColorAllocator, DeviceTimeModel, Fabric, FabricDims, ProcessingElement, WseSpec,
};
use mffv_fv::residual::{newton_rhs, residual};
use mffv_mesh::{CellField, Workload};
use mffv_solver::backend::{
    final_residual_max_f64, DeviceSection, Precision, PreconditionerKind, SolveBackend,
    SolveConfig, SolveError, SolveReport, SolveRequest,
};
use mffv_solver::convergence::{ConvergenceHistory, StoppingCriterion};
use mffv_solver::monitor::{Flow, SolveEvent, SolveMonitor, StopReason};
use mffv_telemetry::{Span, Stopwatch};

/// The simulated WSE-2 dataflow fabric as a facade backend, with device
/// time modelled on a CS-2 region the size of the problem's fabric footprint.
#[derive(Clone, Copy, Debug, Default)]
pub struct DataflowBackend {
    /// `Some(n)` runs the Table-IV communication-only experiment, in which
    /// "all floating-point operations" are excluded: only the communication
    /// schedule runs, for exactly `n` iterations of plain CG's schedule,
    /// whatever the `SolveConfig`'s iteration cap and preconditioner.
    pub comm_only_iterations: Option<usize>,
}

impl DataflowBackend {
    /// The paper's production configuration: the full solve.
    pub fn paper() -> Self {
        Self::default()
    }

    /// The Table-IV communication-only run, terminated at `iterations` (the
    /// paper stops it at the converged run's step count).
    pub fn communication_only(iterations: usize) -> Self {
        Self {
            comm_only_iterations: Some(iterations),
        }
    }
}

/// `z = D⁻¹ · r` on every PE: Jacobi lives on the fabric, a resident
/// inverse-diagonal column per PE (see [`kernel::jacobi_precond`]).
fn apply_jacobi(fabric: &mut Fabric, buffers: &[PeColumnBuffers]) -> Result<()> {
    for (idx, bufs) in buffers.iter().enumerate() {
        let pe_id = fabric.dims().unlinear(idx);
        kernel::jacobi_precond(fabric.pe_mut(pe_id), bufs)?;
    }
    Ok(())
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
    /// [`SolveError`] naming this backend, and so is a full solve under
    /// [`PreconditionerKind::Mg`], refused before any fabric is built.
    fn solve(
        &self,
        workload: &Workload,
        config: &SolveConfig,
        request: &mut SolveRequest<'_>,
    ) -> std::result::Result<SolveReport, SolveError> {
        if self.comm_only_iterations.is_none() && config.preconditioner == PreconditionerKind::Mg {
            return Err(SolveError::new(
                self.name(),
                "the `mg` preconditioner runs on the host backends only; \
                 the CS-2 model prices plain CG and Jacobi",
            ));
        }
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
        let start = Stopwatch::start();
        let dims = workload.dims();
        let compute = self.comm_only_iterations.is_none();
        let build = span.child("build-fabric-program");
        // One z-column of cells per PE (§III-A).
        let mut fabric = Fabric::new(FabricDims::new(dims.nx, dims.ny));
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

        // Jacobi is the one preconditioner on the fabric (`solve` refuses
        // multigrid); communication-only runs skip all floating-point work,
        // so they keep plain CG's schedule under any preconditioner.
        let jacobi = compute && config.preconditioner == PreconditionerKind::Jacobi;

        // Host-side initialisation of the Newton system (the paper loads the mesh
        // and initial condition from the host as well): r₀ and the rhs columns.
        let coeffs32 = workload.transmissibility().convert::<f32>();
        let p0: CellField<f32> = workload.initial_pressure();
        let mut rhs = residual(&p0, &coeffs32, workload.dirichlet());
        newton_rhs(&mut rhs, workload.dirichlet());
        for (idx, bufs) in buffers.iter().enumerate() {
            let pe_id = fabric.dims().unlinear(idx);
            let column = rhs.column(pe_id.x, pe_id.y);
            kernel::init_cg_state(fabric.pe_mut(pe_id), bufs, &column)?;
        }
        build.finish();

        let tolerance = config.effective_tolerance(workload);
        let max_iterations = match self.comm_only_iterations {
            None => config.effective_max_iterations(workload),
            Some(iterations) => iterations,
        };
        let criterion =
            StoppingCriterion::new(tolerance.max(f64::MIN_POSITIVE), max_iterations.max(1));

        // ------------------------------------------------------------ state machine
        // Latency-critical hops: exchange steps and all-reduce chains.
        let mut hops = 0usize;
        // One dot product over the fabric: `local` computes each PE's partial
        // over its column, the all-reduce sums the partials, and its hops
        // join the critical path.  A communication-only run reduces zeroed
        // partials.
        let global_dot = |fabric: &mut Fabric,
                          hops: &mut usize,
                          local: fn(&mut ProcessingElement, &PeColumnBuffers) -> Result<f32>|
         -> Result<f32> {
            let mut partials = vec![0.0f32; fabric.num_pes()];
            if compute {
                for (idx, (partial, bufs)) in partials.iter_mut().zip(&buffers).enumerate() {
                    let pe_id = fabric.dims().unlinear(idx);
                    *partial = local(fabric.pe_mut(pe_id), bufs)?;
                }
            }
            let (value, report) = allreduce.reduce_scalar(fabric, &partials)?;
            *hops += report.critical_path_hops;
            Ok(value)
        };
        let mut machine = CgStateMachine::new(max_iterations);
        let mut rr = global_dot(&mut fabric, &mut hops, kernel::local_dot_rr)?;
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

        // PCG initialisation: z₀ = D⁻¹ r₀, d₀ = z₀, and the α/β numerator
        // r·z.  Convergence stays on the unpreconditioned rᵀr, so histories
        // remain directly comparable with plain CG.
        let mut rz = rr;
        if jacobi {
            apply_jacobi(&mut fabric, &buffers)?;
            for (idx, bufs) in buffers.iter().enumerate() {
                let pe_id = fabric.dims().unlinear(idx);
                kernel::set_direction_from_z(fabric.pe_mut(pe_id), bufs)?;
            }
            rz = global_dot(&mut fabric, &mut hops, kernel::local_dot_rz)?;
        }

        if compute && criterion.is_converged(rr as f64) {
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
                    hops += 4;
                    CgEvent::ExchangeComplete
                }
                CgState::ComputeJx => {
                    if compute {
                        for (idx, bufs) in buffers.iter().enumerate() {
                            let pe_id = fabric.dims().unlinear(idx);
                            kernel::compute_jd(fabric.pe_mut(pe_id), bufs)?;
                        }
                    }
                    CgEvent::ComputeComplete
                }
                CgState::LocalDotDAd => CgEvent::LocalDotReady,
                CgState::AllReduceDAd => {
                    d_ad = global_dot(&mut fabric, &mut hops, kernel::local_dot_d_ad)?;
                    CgEvent::ReduceComplete
                }
                CgState::ComputeAlpha => {
                    if compute {
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
                        alpha = if jacobi { rz / d_ad } else { rr / d_ad };
                    } else {
                        alpha = 0.0;
                    }
                    CgEvent::ScalarReady
                }
                CgState::UpdateSolution => {
                    if compute {
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
                    if compute {
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
                    rr_new = global_dot(&mut fabric, &mut hops, kernel::local_dot_rr)?;
                    CgEvent::ReduceComplete
                }
                CgState::ThresholdCheck => {
                    history.record(rr_new as f64);
                    if compute && criterion.is_converged(rr_new as f64) {
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
                    if compute {
                        if jacobi {
                            // PCG direction update: z = D⁻¹ r, β = r·z / rz,
                            // d = z + β d.  The extra r·z all-reduce rides the
                            // same fabric reduction tree as α's denominator.
                            apply_jacobi(&mut fabric, &buffers)?;
                            let rz_new = global_dot(&mut fabric, &mut hops, kernel::local_dot_rz)?;
                            let beta = if rz > 0.0 { rz_new / rz } else { 0.0 };
                            for (idx, bufs) in buffers.iter().enumerate() {
                                let pe_id = fabric.dims().unlinear(idx);
                                kernel::apply_beta_update_z(fabric.pe_mut(pe_id), bufs, beta)?;
                            }
                            rz = rz_new;
                        } else {
                            let beta = if rr > 0.0 { rr_new / rr } else { 0.0 };
                            for (idx, bufs) in buffers.iter().enumerate() {
                                let pe_id = fabric.dims().unlinear(idx);
                                kernel::apply_beta_update(fabric.pe_mut(pe_id), bufs, beta)?;
                            }
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

        let host_wall_seconds = start.elapsed_seconds();
        let spec = WseSpec::cs2_region(dims.nx, dims.ny);
        // The slowest PE bounds each bulk-synchronous step.
        let modelled_time = DeviceTimeModel::new(spec).estimate(&fabric.max_per_pe_compute(), hops);
        let total_compute = fabric.total_compute();
        let fabric_stats = fabric.stats();
        let memory_plan = MemoryPlan::new(dims.nz, ReuseStrategy::Aggressive);
        let counters = [
            ("total_flops", total_compute.flops as f64),
            ("total_mem_bytes", total_compute.mem_bytes() as f64),
            (
                "total_fabric_recv_wavelets",
                total_compute.fabric_recv_wavelets as f64,
            ),
            ("fabric_link_bytes", fabric_stats.link_bytes as f64),
            ("fabric_messages", fabric_stats.messages_sent as f64),
            ("critical_path_hops", hops as f64),
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
            host_wall_seconds,
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
    use mffv_solver::monitor::RecordingMonitor;

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
        let backend = DataflowBackend::communication_only(5);
        let report = solve(backend, &w, &SolveConfig::default());
        assert_eq!(report.iterations(), 5);
        let device = report.device.unwrap();
        assert!(device.counter("fabric_link_bytes").unwrap() > 0.0);
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
        let cfg = SolveConfig {
            preconditioner: PreconditionerKind::Jacobi,
            ..config(1e-10)
        };
        let report = solve(DataflowBackend::paper(), &w, &cfg);
        assert!(report.converged(), "jacobi did not converge");
        let diff = oracle.pressure.max_abs_diff(&report.pressure);
        assert!(diff < 1e-3, "jacobi vs oracle gap {diff}");
        // A preconditioner must not take more iterations than plain CG
        // allowing slack for f32 effects on this small problem.
        assert!(
            report.iterations() <= plain.iterations() + 5,
            "jacobi: {} iters vs plain {}",
            report.iterations(),
            plain.iterations()
        );
    }

    #[test]
    fn multigrid_is_refused_before_a_fabric_is_built() {
        let mg = SolveConfig {
            preconditioner: PreconditionerKind::Mg,
            ..SolveConfig::default()
        };
        // A column too deep for PE memory: building its fabric fails, so
        // an error that names `mg` was returned before any fabric existed.
        let deep = WorkloadSpec::paper_grid(2, 2, 3000).build();
        let plain = DataflowBackend::paper()
            .solve(&deep, &SolveConfig::default(), &mut SolveRequest::new())
            .unwrap_err();
        assert!(plain.detail().contains("out of local memory"), "{plain}");
        let w = WorkloadSpec::quickstart().scaled(2).build();
        for workload in [&w, &deep] {
            let mut monitor = RecordingMonitor::new();
            let err = DataflowBackend::paper()
                .solve(
                    workload,
                    &mg,
                    &mut SolveRequest::new().monitor(&mut monitor),
                )
                .unwrap_err();
            assert_eq!(err.backend_name(), "dataflow");
            assert!(err.detail().contains("`mg`"), "{err}");
            assert!(monitor.events.is_empty(), "a refused solve starts nothing");
        }
        // The communication-only run ignores the preconditioner.
        let comm = solve(DataflowBackend::communication_only(5), &w, &mg);
        assert_eq!(comm.iterations(), 5);
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
            DataflowBackend::communication_only(5),
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
