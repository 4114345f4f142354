//! Backward-Euler transient simulation: implicit time stepping with wells.
//!
//! The steady solves of this workspace answer "what pressure field balances
//! the wells?" once.  This module chains them in time: the slightly
//! compressible mass balance
//!
//! ```text
//! V_K · c_t · (p_K^{n+1} − p_K^n) / Δt  =  Σ_L Υλ (p_L^{n+1} − p_K^{n+1})  +  q_K(p^{n+1})
//! ```
//!
//! is discretised with backward Euler (unconditionally stable for any
//! `Δt > 0`) and solved per step for the pressure update `δ = p^{n+1} − p^n`:
//!
//! ```text
//! (A + D + W) δ = r(pⁿ) + q(pⁿ)
//! ```
//!
//! where `A` is the existing SPD flux operator, `D = diag(V·c_t/Δt)` the
//! accumulation term and `W = diag(Σ WI)` the productivity indices of active
//! BHP wells — both folded into the planned stencil kernels through
//! [`MatrixFreeOperator::set_diagonal_shift`](mffv_fv::MatrixFreeOperator::set_diagonal_shift),
//! so the branch-free, fused, multithreaded apply path (and its bitwise
//! thread-count independence) carries over unchanged to every step.
//!
//! Every step runs on one [`SolveContext`] at the backend's
//! [`step_precision`](SolveBackend::step_precision): the operator and
//! preconditioner are built once per run, and a step only swaps the
//! `V·c_t/Δt`/well diagonal in place when that coefficient or the active
//! wells change.  Steps **warm-start**: each CG solve begins from the
//! previous step's `δ` (successive updates are similar for smooth
//! schedules), which measurably reduces total CG iterations against cold
//! zero starts while remaining fully deterministic.  [`run_transient`]
//! drives the schedule of a [`TransientSpec`] and assembles the
//! [`TransientReport`]: per-step [`SolveReport`]s, requested pressure
//! snapshots, and cumulative per-well volumes.  [`run_transient_summary`]
//! runs the same stepping loop but folds each step into the report's
//! [`summary_report`](TransientReport::summary_report) as it finishes, so
//! it holds one pressure field rather than one per step.

use crate::backend::{Precision, SolveBackend, SolveConfig, SolveError, SolveReport, SolveRequest};
use crate::cg::ConjugateGradient;
use crate::context::{ContextKey, SolveContext, SolveContextCache};
use crate::convergence::ConvergenceHistory;
use crate::monitor::{SolveMonitor, StopPolicy, StopReason};
use crate::trace::traced;
use mffv_fv::residual::{interior_mass_imbalance, residual};
use mffv_fv::{newton_rhs_into, residual_into};
use mffv_mesh::{CellField, Scalar, TransientSpec, Well, Workload};
use mffv_telemetry::{Span, Stopwatch};

/// Everything one backward-Euler step needs, borrowed from the driver's
/// state: the (steady) workload, the transient spec, the current pressure
/// `pⁿ` and the optional warm-start update from the previous step.
struct StepRequest<'a> {
    workload: &'a Workload,
    spec: &'a TransientSpec,
    /// Pressure at the start of the step, `pⁿ` (Dirichlet values imposed).
    pressure: &'a CellField<f64>,
    /// The previous step's `δ`, when warm starting; `None` starts CG from
    /// zero.
    warm_delta: Option<&'a CellField<f64>>,
    /// Step start time, seconds (well schedules are evaluated here).
    time: f64,
    /// Step size, seconds.
    dt: f64,
}

impl StepRequest<'_> {
    /// The accumulation diagonal coefficient `V·c_t/Δt` (uniform over the
    /// grid: the mesh has uniform spacing).
    fn accumulation_coefficient(&self) -> f64 {
        self.workload.mesh().cell_volume() * self.spec.total_compressibility / self.dt
    }

    /// The wells active during this step, with their completion cells'
    /// linear indices (schedule evaluated at the step start time).
    fn active_wells(&self) -> Vec<(usize, &Well)> {
        let dims = self.workload.dims();
        self.spec
            .wells
            .wells()
            .iter()
            .filter(|w| w.is_active(self.time))
            .map(|w| (dims.linear(w.cell), w))
            .collect()
    }

    /// The step's diagonal shift `D + W`: accumulation everywhere plus WI
    /// at the `active` BHP wells.
    fn diagonal_shift(&self, active: &[(usize, &Well)]) -> CellField<f64> {
        let mut diag = CellField::constant(self.workload.dims(), self.accumulation_coefficient());
        for &(k, well) in active {
            diag.set(k, diag.get(k) + well.diagonal_coefficient());
        }
        diag
    }
}

/// Identifies a step's diagonal shift without touching the field: the bits
/// of the accumulation coefficient `V·c_t/Δt` plus the active wells'
/// completion cells and productivity indices — exactly the inputs of
/// [`StepRequest::diagonal_shift`].  Keying the coefficient rather than `Δt`
/// alone keeps a cached context from reusing the shift of an earlier run
/// with another compressibility or cell volume.  While the key is unchanged
/// (fixed `Δt`, static schedule, same spec) the installed shift is reused
/// as-is.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct ShiftKey {
    pub(crate) accumulation_bits: u64,
    pub(crate) wells: Vec<(usize, u64)>,
}

impl ShiftKey {
    fn of(request: &StepRequest<'_>, active: &[(usize, &Well)]) -> Self {
        Self {
            accumulation_bits: request.accumulation_coefficient().to_bits(),
            wells: active
                .iter()
                .map(|&(k, well)| (k, well.diagonal_coefficient().to_bits()))
                .collect(),
        }
    }
}

/// What one backward-Euler step produced.
struct StepOutcome {
    /// Pressure at the end of the step, `p^{n+1}`, in canonical `f64`.
    pressure: CellField<f64>,
    /// The update `δ = p^{n+1} − pⁿ` (the next step's warm start).
    delta: CellField<f64>,
    history: ConvergenceHistory,
    stopped: Option<StopReason>,
    /// Per-well volumetric rate (m³/s, positive = injection) evaluated at
    /// `p^{n+1}`, in the spec's well order; zero for inactive wells.
    well_rates: Vec<f64>,
}

/// Solve one backward-Euler step at precision `T` on `ctx` (prepared for
/// `key`, the run's shifted context key).
///
/// The step system `(A + D + W) δ = r(pⁿ) + q(pⁿ)` is SPD for any `Δt > 0`
/// (even without Dirichlet cells: the accumulation diagonal regularises the
/// pure-Neumann operator), so the unmodified CG loop applies.  Dirichlet
/// rows are pinned to `δ = 0`, keeping boundary pressures exact.
fn step<T: Scalar>(
    ctx: &mut SolveContext<T>,
    key: ContextKey,
    request: &StepRequest<'_>,
    config: &SolveConfig,
    monitor: &mut dyn SolveMonitor,
) -> StepOutcome {
    let workload = request.workload;
    let dims = workload.dims();
    let active = request.active_wells();
    // Build-phase spans stay off the step: the run's operator is built once.
    ctx.prepare(workload, key, &Span::null());
    ctx.set_shift(ShiftKey::of(request, &active), || {
        request.diagonal_shift(&active)
    });
    let solver = ConjugateGradient::with_tolerance(
        config.effective_tolerance(workload),
        config.effective_max_iterations(workload),
    );
    let (operator, precond, buffers) = ctx.parts(dims);

    // RHS: flux residual at pⁿ (Dirichlet rows zeroed) plus well sources,
    // evaluated with the operator's own converted coefficient table.
    buffers.pressure.convert_from(request.pressure);
    residual_into(
        &buffers.pressure,
        operator.coefficients(),
        workload.dirichlet(),
        &mut buffers.residual,
    );
    newton_rhs_into(&buffers.residual, workload.dirichlet(), &mut buffers.rhs);
    for &(k, well) in &active {
        let source = T::from_f64(well.rate_at(request.pressure.get(k)));
        buffers.rhs.set(k, buffers.rhs.get(k) + source);
    }
    // The pressure buffer is free once the RHS is built: it carries the
    // warm start.
    let x0 = request.warm_delta.map(|delta| {
        buffers.pressure.convert_from(delta);
        &buffers.pressure
    });
    let stopped = solver.solve_into(
        operator,
        precond,
        &buffers.rhs,
        x0,
        monitor,
        &Span::null(),
        &mut buffers.cg,
    );

    let delta: CellField<f64> = buffers.cg.solution().convert();
    let mut pressure = request.pressure.clone();
    pressure.axpy(1.0, &delta);
    let well_rates = request
        .spec
        .wells
        .wells()
        .iter()
        .map(|w| {
            if w.is_active(request.time) {
                w.rate_at(pressure.get(dims.linear(w.cell)))
            } else {
                0.0
            }
        })
        .collect();
    StepOutcome {
        pressure,
        delta,
        history: buffers.cg.history().clone(),
        stopped,
        well_rates,
    }
}

/// One completed (or stopped) step of a transient run.
#[derive(Clone, Debug)]
pub struct TransientStep {
    /// 0-based step index.
    pub index: usize,
    /// Step start time, seconds.
    pub start_time: f64,
    /// Step size, seconds.
    pub dt: f64,
    /// The step's unified solve report: `pressure` is `p^{n+1}`, `history`
    /// the step's CG record, and `final_residual_max` the max-norm residual
    /// of the **transient** equation `D δ − r(p^{n+1}) − q(p^{n+1})` over
    /// non-Dirichlet cells (m³/s).
    pub report: SolveReport,
    /// Per-well volumetric rate at `p^{n+1}` (m³/s, positive = injection),
    /// in spec order; zero while a well is off-schedule.
    pub well_rates: Vec<f64>,
    /// Net accumulation rate `Σ_K V·c_t/Δt · δ_K` over non-Dirichlet cells
    /// (m³/s) — the volume the reservoir stores during this step, per
    /// second.
    pub accumulation_rate: f64,
    /// Net inflow through Dirichlet boundary cells at `p^{n+1}` (m³/s).
    pub boundary_inflow: f64,
}

impl TransientStep {
    /// Step end time, seconds.
    pub fn end_time(&self) -> f64 {
        self.start_time + self.dt
    }

    /// Total well inflow during the step (m³/s; production counts negative).
    pub fn well_inflow(&self) -> f64 {
        mffv_fv::seq_sum(self.well_rates.iter().copied())
    }

    /// Discrete mass-balance defect of the step (m³/s): accumulation minus
    /// well and boundary inflow.  Zero up to the CG tolerance for a
    /// converged step.
    pub fn mass_balance_error(&self) -> f64 {
        self.accumulation_rate - self.well_inflow() - self.boundary_inflow
    }
}

/// A full pressure field captured for a requested snapshot time.
#[derive(Clone, Debug)]
pub struct PressureSnapshot {
    /// The time the snapshot was requested at (seconds).
    pub requested_time: f64,
    /// The time the captured field actually corresponds to: the end of the
    /// first step reaching the requested time.  Equal to `requested_time`
    /// when the request lands on a step boundary; later (never earlier)
    /// when it falls inside a step — e.g. under a ramped dt.
    pub time: f64,
    /// The captured pressure field, `p(time)`.
    pub pressure: CellField<f64>,
}

/// Cumulative volume exchanged by one well over the run.
#[derive(Clone, Debug)]
pub struct WellTotal {
    /// The well's name.
    pub name: String,
    /// Net volume (m³, positive = injected into the reservoir).
    pub net_volume: f64,
    /// Volume injected while the well's rate was positive (m³, ≥ 0).
    pub injected: f64,
    /// Volume produced while the well's rate was negative (m³, ≥ 0).
    pub produced: f64,
}

/// The result of a transient run: per-step reports, snapshots, well totals.
#[derive(Clone, Debug)]
pub struct TransientReport {
    /// Name of the backend that stepped the run.
    pub backend: String,
    /// Every executed step, in time order.  A stopped run keeps the partial
    /// final step (its report has `stopped` set).
    pub steps: Vec<TransientStep>,
    /// Pressure snapshots at the spec's requested times, in request order
    /// (a stopped run carries only the times its completed steps reached).
    pub snapshots: Vec<PressureSnapshot>,
    /// Cumulative per-well volumes, in the spec's well order.  Only
    /// *completed* steps are billed: a stopped run's partial final step
    /// contributes nothing to the ledger.
    pub wells: Vec<WellTotal>,
    /// The initial pressure field `p⁰`.
    pub initial_pressure: CellField<f64>,
    /// `Some(reason)` when a stop policy ended the run before its horizon;
    /// `steps` then holds the state reached so far.
    pub stopped: Option<StopReason>,
    /// Wall-clock seconds of the whole run on the host.
    pub host_wall_seconds: f64,
}

impl TransientReport {
    /// Pressure at the end of the run (the initial field when the run was
    /// stopped before its first step completed).
    pub fn final_pressure(&self) -> &CellField<f64> {
        self.steps
            .last()
            .map(|s| &s.report.pressure)
            .unwrap_or(&self.initial_pressure)
    }

    /// Number of executed steps.
    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }

    /// Total CG iterations across all steps.
    pub fn total_iterations(&self) -> usize {
        self.steps.iter().map(|s| s.report.iterations()).sum()
    }

    /// Whether every step's CG met its tolerance.
    pub fn all_converged(&self) -> bool {
        self.stopped.is_none() && self.steps.iter().all(|s| s.report.converged())
    }

    /// Simulated seconds actually covered: a stopped run's partial final
    /// step counts only up to its start (its pressure never reached the
    /// step's end state).
    pub fn simulated_time(&self) -> f64 {
        self.steps
            .last()
            .map(|s| {
                if s.report.stopped.is_none() {
                    s.end_time()
                } else {
                    s.start_time
                }
            })
            .unwrap_or(0.0)
    }

    /// Total volume injected by all wells (m³, ≥ 0).
    pub fn total_injected(&self) -> f64 {
        mffv_fv::seq_sum(self.wells.iter().map(|w| w.injected))
    }

    /// Total volume produced by all wells (m³, ≥ 0).
    pub fn total_produced(&self) -> f64 {
        mffv_fv::seq_sum(self.wells.iter().map(|w| w.produced))
    }

    /// The worst per-step mass-balance defect (m³/s).
    pub fn max_mass_balance_error(&self) -> f64 {
        self.steps
            .iter()
            .map(|s| s.mass_balance_error().abs())
            // audit: allow(float-reduction) — reassociation-safe: max is
            // associative and commutative over the non-NaN values here.
            .fold(0.0, f64::max)
    }

    /// All step histories concatenated into one [`ConvergenceHistory`]:
    /// starts from the first step's initial `rᵀr` and records every CG
    /// iteration of every step, so `iterations` is the run total.
    /// `converged` means the run finished and every step converged.
    pub fn merged_history(&self) -> ConvergenceHistory {
        let mut merged = MergedHistory::new();
        for step in &self.steps {
            merged.add(&step.report.history);
        }
        merged.finish(self.stopped)
    }

    /// Condense the run into one [`SolveReport`] (the shape engine batches
    /// and agreement tables understand): the final pressure with the merged
    /// history, the last step's transient-equation residual, and the run's
    /// stop state.
    pub fn summary_report(&self) -> SolveReport {
        SolveReport {
            backend: self.backend.clone(),
            pressure: self.final_pressure().clone(),
            history: self.merged_history(),
            final_residual_max: self
                .steps
                .last()
                .map(|s| s.report.final_residual_max)
                .unwrap_or(0.0),
            host_wall_seconds: self.host_wall_seconds,
            device: None,
            stopped: self.stopped,
        }
    }
}

impl std::fmt::Display for TransientReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "transient @ {}: {} steps over {:.4e} s, {} CG iterations total{}",
            self.backend,
            self.num_steps(),
            self.simulated_time(),
            self.total_iterations(),
            match self.stopped {
                Some(reason) => format!(" (stopped: {reason})"),
                None => String::new(),
            }
        )?;
        for well in &self.wells {
            writeln!(
                f,
                "  well {:12} net {:+.4e} m³ (injected {:.4e}, produced {:.4e})",
                well.name, well.net_volume, well.injected, well.produced
            )?;
        }
        Ok(())
    }
}

/// Step histories appended into one, as [`TransientReport::merged_history`]
/// defines it; [`run_transient_summary`] folds each step in as it finishes.
struct MergedHistory {
    /// `None` until the first step arrives.
    history: Option<ConvergenceHistory>,
    /// Whether every step so far converged.
    converged: bool,
}

impl MergedHistory {
    fn new() -> Self {
        Self {
            history: None,
            converged: true,
        }
    }

    /// Append one step's iterations (its initial `rᵀr` only for the first).
    fn add(&mut self, step: &ConvergenceHistory) {
        let merged = self
            .history
            .get_or_insert_with(|| ConvergenceHistory::starting_from(step.initial_rr()));
        for &rr in &step.residual_norms_squared[1..] {
            merged.record(rr);
        }
        self.converged &= step.converged;
    }

    /// The merged history: `converged` when the run was not stopped and
    /// every step converged; the empty default when no step ran.
    fn finish(self, stopped: Option<StopReason>) -> ConvergenceHistory {
        match self.history {
            Some(mut merged) => {
                merged.converged = stopped.is_none() && self.converged;
                merged
            }
            None => ConvergenceHistory::default(),
        }
    }
}

/// Drive a [`TransientSpec`]'s full schedule on `backend`'s step precision,
/// warm-starting successive steps and threading `policy` through every
/// per-step session (one shared wall-clock deadline; per-step budgets and
/// stagnation rules).
///
/// `request` carries the run's observer, span and cache:
/// * its monitor sees the concatenated
///   [`SolveEvent`](crate::monitor::SolveEvent) stream of every step — each
///   step re-emits `Started` with its own initial residual, then its
///   iterations — exactly as the per-step histories record them (bitwise).
///   A [`Flow::Stop`](crate::monitor::Flow::Stop) it returns ends the
///   current step (and thereby the run) at the next iteration boundary,
///   exactly like a policy stop; the policy keeps stop precedence.  This is
///   the serving path: a daemon streams the events over a socket while the
///   shared `policy` keeps its one wall-clock deadline across steps.
/// * under its span each time step records a `step` span, with the inner CG
///   loop traced beneath it (see [`crate::trace`]) and the
///   mass-ledger/residual bookkeeping in an `accounting` child.  Tracing
///   never perturbs the numerics.
/// * its cache (a fresh one when it brings none, or one armed by
///   [`transient_session`](SolveBackend::transient_session)) holds the
///   run's one operator and preconditioner.
///
/// A stopped step truncates the run: the partial step is kept and the
/// report's `stopped` is set.  Invalid specs (bad dt policy, wells outside
/// the grid or completing in Dirichlet cells) fail up front with a
/// [`SolveError`].
pub fn run_transient(
    backend: &dyn SolveBackend,
    workload: &Workload,
    spec: &TransientSpec,
    config: &SolveConfig,
    policy: &StopPolicy,
    request: &mut SolveRequest<'_>,
) -> Result<TransientReport, SolveError> {
    let mut steps: Vec<TransientStep> = Vec::new();
    // One slot per requested time, filled at capture and flattened in
    // request order at the end.
    let mut snapshots: Vec<Option<PressureSnapshot>> = vec![None; spec.snapshot_times.len()];
    let mut wells: Vec<WellTotal> = spec
        .wells
        .wells()
        .iter()
        .map(|w| WellTotal {
            name: w.name.clone(),
            net_volume: 0.0,
            injected: 0.0,
            produced: 0.0,
        })
        .collect();
    let end = step_through(backend, workload, spec, config, policy, request, |step| {
        // The well ledger and snapshots only credit *completed* steps: a
        // stopped step's pressure is an unconverged partial iterate, so
        // billing its full dt of well volume would overstate what was
        // simulated (the partial step stays inspectable in `steps`).
        if step.report.stopped.is_none() {
            for (total, &rate) in wells.iter_mut().zip(&step.well_rates) {
                let volume = rate * step.dt;
                total.net_volume += volume;
                if volume >= 0.0 {
                    total.injected += volume;
                } else {
                    total.produced -= volume;
                }
            }
            // Relative guard so a requested time equal to the horizon (or
            // a step boundary) is captured despite float dust in the
            // accumulated time.
            let snap_eps = spec.total_time * 1e-9;
            for (slot, &ts) in snapshots.iter_mut().zip(&spec.snapshot_times) {
                if slot.is_none() && step.end_time() >= ts - snap_eps {
                    *slot = Some(PressureSnapshot {
                        requested_time: ts,
                        // Label the field with the time it actually
                        // corresponds to — the step end — not the
                        // request.
                        time: step.end_time(),
                        pressure: step.report.pressure.clone(),
                    });
                }
            }
        }
        let pressure = step.report.pressure.clone();
        steps.push(step);
        pressure
    })?;
    Ok(TransientReport {
        backend: backend.name(),
        steps,
        snapshots: snapshots.into_iter().flatten().collect(),
        wells,
        initial_pressure: initial_pressure(workload, spec),
        stopped: end.stopped,
        host_wall_seconds: end.host_wall_seconds,
    })
}

/// Run a transient exactly as [`run_transient`] does, but keep only its
/// summary: the returned report equals
/// [`run_transient`]`(..)?.`[`summary_report`](TransientReport::summary_report)`()`
/// bit for bit in every field but `host_wall_seconds`.
///
/// Each finished step is folded in as it ends (its history appended, its
/// residual kept only while it is the last), and the final pressure is the
/// loop's own field, moved.  So the run holds one pressure field however
/// many steps it takes, where the full report keeps one per step.  This is
/// the path of engine and daemon transient jobs.
pub fn run_transient_summary(
    backend: &dyn SolveBackend,
    workload: &Workload,
    spec: &TransientSpec,
    config: &SolveConfig,
    policy: &StopPolicy,
    request: &mut SolveRequest<'_>,
) -> Result<SolveReport, SolveError> {
    let mut history = MergedHistory::new();
    let mut final_residual_max = 0.0;
    let end = step_through(backend, workload, spec, config, policy, request, |step| {
        history.add(&step.report.history);
        final_residual_max = step.report.final_residual_max;
        step.report.pressure
    })?;
    Ok(SolveReport {
        backend: backend.name(),
        pressure: end.pressure,
        history: history.finish(end.stopped),
        final_residual_max,
        host_wall_seconds: end.host_wall_seconds,
        device: None,
        stopped: end.stopped,
    })
}

/// The pressure a run starts from, `p⁰`: the spec's uniform initial
/// pressure with the Dirichlet values imposed, or the workload's own.
fn initial_pressure(workload: &Workload, spec: &TransientSpec) -> CellField<f64> {
    match spec.initial_pressure {
        Some(p0) => {
            let mut field = CellField::constant(workload.dims(), p0);
            workload.dirichlet().impose(&mut field);
            field
        }
        None => workload.initial_pressure(),
    }
}

/// How [`step_through`] ended a run.
struct RunEnd {
    /// The last step's `p^{n+1}` (partial when the run was stopped), or `p⁰`
    /// when no step ran.
    pressure: CellField<f64>,
    stopped: Option<StopReason>,
    /// Wall-clock seconds of the whole run on the host.
    host_wall_seconds: f64,
}

/// The one stepping loop behind [`run_transient`] and
/// [`run_transient_summary`]: validate the spec, then step its schedule
/// from [`initial_pressure`] as [`run_transient`] documents.
///
/// Each finished step, the partial step of a stopped run included, goes to
/// `keep`, inside the step's `accounting` span.  `keep` keeps what its
/// caller needs and hands back the step's end pressure `p^{n+1}`, which
/// the next step starts from.
fn step_through(
    backend: &dyn SolveBackend,
    workload: &Workload,
    spec: &TransientSpec,
    config: &SolveConfig,
    policy: &StopPolicy,
    request: &mut SolveRequest<'_>,
    mut keep: impl FnMut(TransientStep) -> CellField<f64>,
) -> Result<RunEnd, SolveError> {
    let name = backend.name();
    let dims = workload.dims();
    spec.validate(dims)
        .map_err(|e| SolveError::new(&name, format!("invalid transient spec: {e}")))?;
    for well in spec.wells.wells() {
        if workload.dirichlet().contains_linear(dims.linear(well.cell)) {
            return Err(SolveError::new(
                &name,
                format!(
                    "well `{}` completes in a Dirichlet cell; its source term would be \
                     discarded by the pinned boundary row",
                    well.name
                ),
            ));
        }
    }

    // Anchors the run's shared StopPolicy deadline (consume_deadline) and
    // elapsed-seconds telemetry; it never feeds the numerics of a step.
    let started = Stopwatch::start();
    let mut fresh = SolveContextCache::new();
    let cache = match request.cache.as_deref_mut() {
        Some(cache) => cache,
        None => &mut fresh,
    };
    // Hashed once per run: every step prepares the same operator.
    let key = ContextKey::of(
        workload,
        config.effective_threads(),
        config.preconditioner,
        true,
    );
    let precision = backend.step_precision();
    let mut pressure = initial_pressure(workload, spec);

    let acc_rate = |delta: &CellField<f64>, dt: f64| -> f64 {
        let coeff = workload.mesh().cell_volume() * spec.total_compressibility / dt;
        let mut sum = 0.0;
        for k in 0..dims.num_cells() {
            if !workload.dirichlet().contains_linear(k) {
                sum += delta.get(k);
            }
        }
        coeff * sum
    };

    let mut warm: Option<CellField<f64>> = None;
    let mut run_stopped = None;
    for (index, (time, dt)) in spec.schedule().into_iter().enumerate() {
        let step_request = StepRequest {
            workload,
            spec,
            pressure: &pressure,
            warm_delta: if spec.warm_start { warm.as_ref() } else { None },
            time,
            dt,
        };
        let step_span = request.span.child("step");
        let step_started = Stopwatch::start();
        // One monitor per step: the policy session (its deadline shared
        // across the run) ahead of the request's observer, mirrored into
        // the step's CG spans.  Observers change no arithmetic.
        let outcome = policy.consume_deadline(started.elapsed()).observe(
            request.monitor.as_deref_mut(),
            |monitor| {
                traced(&step_span, monitor, |monitor| match precision {
                    Precision::F64 => {
                        step(&mut cache.f64_context, key, &step_request, config, monitor)
                    }
                    Precision::F32 => {
                        step(&mut cache.f32_context, key, &step_request, config, monitor)
                    }
                })
            },
        );
        let step_wall = step_started.elapsed_seconds();
        let accounting = step_span.child("accounting");

        // Transient-equation residual and boundary inflow at p^{n+1}.
        let r_new = residual(
            &outcome.pressure,
            workload.transmissibility(),
            workload.dirichlet(),
        );
        let boundary_inflow = interior_mass_imbalance(&r_new, workload.dirichlet());
        let accumulation_rate = acc_rate(&outcome.delta, dt);
        let acc_coeff = workload.mesh().cell_volume() * spec.total_compressibility / dt;
        let mut step_residual_max = 0.0f64;
        {
            let mut q = vec![0.0f64; dims.num_cells()];
            for (well, &rate) in spec.wells.wells().iter().zip(&outcome.well_rates) {
                q[dims.linear(well.cell)] += rate;
            }
            for (k, &qk) in q.iter().enumerate() {
                if !workload.dirichlet().contains_linear(k) {
                    let defect = acc_coeff * outcome.delta.get(k) - r_new.get(k) - qk;
                    step_residual_max = step_residual_max.max(defect.abs());
                }
            }
        }

        let stopped = outcome.stopped;
        pressure = keep(TransientStep {
            index,
            start_time: time,
            dt,
            report: SolveReport {
                backend: name.clone(),
                pressure: outcome.pressure,
                history: outcome.history,
                final_residual_max: step_residual_max,
                host_wall_seconds: step_wall,
                device: None,
                stopped,
            },
            well_rates: outcome.well_rates,
            accumulation_rate,
            boundary_inflow,
        });
        warm = Some(outcome.delta);
        accounting.finish();

        if let Some(reason) = stopped {
            run_stopped = Some(reason);
            break;
        }
    }

    Ok(RunEnd {
        pressure,
        stopped: run_stopped,
        host_wall_seconds: started.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::HostBackend;
    use mffv_mesh::workload::{BoundarySpec, WorkloadSpec};
    use mffv_mesh::{CellIndex, Dims, WellSet};

    fn closed_workload(dims: Dims) -> Workload {
        WorkloadSpec {
            name: format!("closed-{dims}"),
            boundary: BoundarySpec::None,
            dims,
            ..WorkloadSpec::quickstart()
        }
        .build()
    }

    #[test]
    fn single_cell_bhp_decay_matches_the_discrete_rate() {
        // One cell, one BHP well, no Dirichlet: backward Euler gives the
        // exact recurrence p^{n+1} = (D pⁿ + WI·p_bhp) / (D + WI).
        let workload = closed_workload(Dims::new(1, 1, 1));
        let (p_bhp, wi, ct, dt) = (5.0, 0.25, 2.0, 0.5);
        let spec = TransientSpec::new(5.0 * dt, dt, ct)
            .with_wells(WellSet::empty().with(mffv_mesh::Well::bhp(
                "w",
                CellIndex::new(0, 0, 0),
                p_bhp,
                wi,
            )))
            .with_initial_pressure(1.0);
        let config = SolveConfig {
            tolerance: Some(1e-28),
            ..SolveConfig::default()
        };
        let report = run_transient(
            &HostBackend::oracle(),
            &workload,
            &spec,
            &config,
            &StopPolicy::new(),
            &mut SolveRequest::new(),
        )
        .unwrap();
        assert_eq!(report.num_steps(), 5);
        let d = workload.mesh().cell_volume() * ct / dt;
        let mut p = 1.0f64;
        for step in &report.steps {
            p = (d * p + wi * p_bhp) / (d + wi);
            let got = step.report.pressure.get(0);
            assert!(
                (got - p).abs() < 1e-12,
                "step {}: {} vs exact {}",
                step.index,
                got,
                p
            );
        }
        // Monotone relaxation towards the BHP.
        assert!(report.final_pressure().get(0) > 1.0);
        assert!(report.final_pressure().get(0) < p_bhp);
    }

    #[test]
    fn mass_balance_closes_on_a_sealed_reservoir() {
        let workload = closed_workload(Dims::new(6, 5, 4));
        let dims = workload.dims();
        let spec = TransientSpec::new(4.0, 0.5, 1e-3)
            .with_wells(
                WellSet::empty()
                    .with(mffv_mesh::Well::rate("inj", CellIndex::new(0, 0, 0), 2.0))
                    .with(mffv_mesh::Well::rate(
                        "prod",
                        CellIndex::new(dims.nx - 1, dims.ny - 1, dims.nz - 1),
                        -1.25,
                    )),
            )
            .with_initial_pressure(10.0);
        let config = SolveConfig {
            tolerance: Some(1e-24),
            ..SolveConfig::default()
        };
        let report = run_transient(
            &HostBackend::oracle(),
            &workload,
            &spec,
            &config,
            &StopPolicy::new(),
            &mut SolveRequest::new(),
        )
        .unwrap();
        assert!(report.all_converged());
        assert_eq!(report.num_steps(), 8);
        // No boundary: injected − produced must equal stored volume.
        for step in &report.steps {
            assert!(step.boundary_inflow.abs() < 1e-9);
            assert!(
                step.mass_balance_error().abs() < 1e-8,
                "step {}: {}",
                step.index,
                step.mass_balance_error()
            );
        }
        assert!((report.total_injected() - 2.0 * 4.0).abs() < 1e-9);
        assert!((report.total_produced() - 1.25 * 4.0).abs() < 1e-9);
    }

    #[test]
    fn snapshots_and_schedules_are_honoured() {
        let workload = closed_workload(Dims::new(4, 4, 2));
        let spec = TransientSpec::new(2.0, 0.25, 1e-3)
            .with_wells(WellSet::empty().with(
                mffv_mesh::Well::rate("inj", CellIndex::new(0, 0, 0), 1.0).scheduled(0.0, 1.0),
            ))
            .with_initial_pressure(0.0)
            .with_snapshots([0.5, 2.0]);
        let config = SolveConfig {
            tolerance: Some(1e-24),
            ..SolveConfig::default()
        };
        let report = run_transient(
            &HostBackend::oracle(),
            &workload,
            &spec,
            &config,
            &StopPolicy::new(),
            &mut SolveRequest::new(),
        )
        .unwrap();
        assert_eq!(report.snapshots.len(), 2);
        assert_eq!(report.snapshots[0].requested_time, 0.5);
        assert_eq!(report.snapshots[0].time, 0.5);
        // The well shuts in at t = 1: later steps exchange nothing.
        for step in &report.steps {
            if step.start_time >= 1.0 {
                assert_eq!(step.well_rates[0], 0.0);
            } else {
                assert_eq!(step.well_rates[0], 1.0);
            }
        }
        assert!((report.wells[0].net_volume - 1.0).abs() < 1e-12);
        // Sealed reservoir + shut-in well: pressure settles and stays.
        assert!(report.all_converged());
    }

    #[test]
    fn wells_in_dirichlet_cells_are_rejected() {
        let workload = WorkloadSpec::quickstart().build();
        let spec = TransientSpec::new(1.0, 0.5, 1e-9).with_wells(
            WellSet::empty().with(mffv_mesh::Well::rate("w", CellIndex::new(0, 0, 0), 1.0)),
        );
        let err = run_transient(
            &HostBackend::oracle(),
            &workload,
            &spec,
            &SolveConfig::default(),
            &StopPolicy::new(),
            &mut SolveRequest::new(),
        )
        .unwrap_err();
        assert!(err.detail().contains("Dirichlet"), "{}", err.detail());
    }

    #[test]
    fn merged_history_and_summary_report_aggregate_the_run() {
        let workload = closed_workload(Dims::new(4, 3, 2));
        let spec = TransientSpec::new(1.0, 0.25, 1e-3)
            .with_wells(WellSet::empty().with(mffv_mesh::Well::rate(
                "inj",
                CellIndex::new(1, 1, 1),
                0.5,
            )))
            .with_initial_pressure(1.0);
        let config = SolveConfig {
            tolerance: Some(1e-20),
            ..SolveConfig::default()
        };
        let report = run_transient(
            &HostBackend::oracle(),
            &workload,
            &spec,
            &config,
            &StopPolicy::new(),
            &mut SolveRequest::new(),
        )
        .unwrap();
        let merged = report.merged_history();
        assert_eq!(merged.iterations, report.total_iterations());
        assert_eq!(
            merged.residual_norms_squared.len(),
            report.total_iterations() + 1
        );
        assert!(merged.converged);
        let summary = report.summary_report();
        assert_eq!(summary.backend, "host-f64");
        assert_eq!(summary.iterations(), report.total_iterations());
        assert_eq!(
            summary.pressure.as_slice(),
            report.final_pressure().as_slice()
        );
        assert!(report.to_string().contains("well"));
    }

    #[test]
    fn iteration_budget_policy_stops_the_run_with_partial_state() {
        let workload = closed_workload(Dims::new(8, 8, 4));
        let spec = TransientSpec::new(10.0, 1.0, 1e-6).with_wells(
            WellSet::empty().with(mffv_mesh::Well::rate("inj", CellIndex::new(4, 4, 2), 1.0)),
        );
        let config = SolveConfig {
            tolerance: Some(1e-30),
            ..SolveConfig::default()
        };
        let policy = StopPolicy::new().iteration_budget(2);
        let report = run_transient(
            &HostBackend::oracle(),
            &workload,
            &spec,
            &config,
            &policy,
            &mut SolveRequest::new(),
        )
        .unwrap();
        assert_eq!(report.stopped, Some(StopReason::IterationBudget));
        assert_eq!(report.num_steps(), 1);
        assert_eq!(report.steps[0].report.iterations(), 2);
        assert!(report.steps[0].report.was_stopped());
        assert!(!report.all_converged());
        // A partial step is not billed: no well volume, no simulated time.
        assert_eq!(report.total_injected(), 0.0);
        assert_eq!(report.wells[0].net_volume, 0.0);
        assert_eq!(report.simulated_time(), 0.0);
    }

    #[test]
    fn snapshots_come_back_in_request_order_even_when_unsorted() {
        let workload = closed_workload(Dims::new(4, 4, 2));
        let spec = TransientSpec::new(2.0, 0.25, 1e-3)
            .with_wells(WellSet::empty().with(mffv_mesh::Well::rate(
                "inj",
                CellIndex::new(1, 1, 1),
                0.5,
            )))
            .with_initial_pressure(1.0)
            .with_snapshots([2.0, 0.5]);
        let config = SolveConfig {
            tolerance: Some(1e-24),
            ..SolveConfig::default()
        };
        let report = run_transient(
            &HostBackend::oracle(),
            &workload,
            &spec,
            &config,
            &StopPolicy::new(),
            &mut SolveRequest::new(),
        )
        .unwrap();
        let requested: Vec<f64> = report.snapshots.iter().map(|s| s.requested_time).collect();
        assert_eq!(
            requested,
            vec![2.0, 0.5],
            "request order, not capture order"
        );
        // Both requests land on step boundaries, so capture times match.
        let captured: Vec<f64> = report.snapshots.iter().map(|s| s.time).collect();
        assert_eq!(captured, vec![2.0, 0.5]);
    }

    #[test]
    fn runs_on_an_armed_session_match_a_fresh_run_bitwise() {
        use crate::backend::PreconditionerKind;
        let workload = closed_workload(Dims::new(6, 5, 4));
        // A ramped dt and a shut-in well change the diagonal shift between
        // steps; the BHP producer adds its WI to the shift.
        let spec = TransientSpec::new(2.0, 0.25, 1e-3)
            .with_dt_policy(mffv_mesh::DtPolicy::ramp(0.1, 1.5, 0.5))
            .with_wells(
                WellSet::empty()
                    .with(
                        mffv_mesh::Well::rate("inj", CellIndex::new(0, 0, 0), 1.0)
                            .scheduled(0.0, 1.0),
                    )
                    .with(mffv_mesh::Well::bhp(
                        "prod",
                        CellIndex::new(5, 4, 3),
                        5.0,
                        0.25,
                    )),
            )
            .with_initial_pressure(10.0);
        for preconditioner in PreconditionerKind::ALL {
            let config = SolveConfig {
                tolerance: Some(1e-20),
                preconditioner,
                ..SolveConfig::default()
            };
            let run = |request: &mut SolveRequest<'_>| {
                run_transient(
                    &HostBackend::oracle(),
                    &workload,
                    &spec,
                    &config,
                    &StopPolicy::new(),
                    request,
                )
                .unwrap()
            };
            let fresh = run(&mut SolveRequest::new());
            // An armed session builds the operator up front; both runs on it
            // only swap the diagonal shift.
            let mut cache = HostBackend::oracle()
                .transient_session(&workload, &config)
                .unwrap();
            for round in 0..2 {
                let warm = run(&mut SolveRequest::new().cache(&mut cache));
                assert_eq!(warm.num_steps(), fresh.num_steps());
                for (a, b) in fresh.steps.iter().zip(&warm.steps) {
                    let bits = |f: &CellField<f64>| -> Vec<u64> {
                        f.as_slice().iter().map(|v| v.to_bits()).collect()
                    };
                    assert_eq!(bits(&a.report.pressure), bits(&b.report.pressure));
                    assert_eq!(
                        a.report.history, b.report.history,
                        "{preconditioner:?} round {round}"
                    );
                }
            }
            let stats = cache.f64_context.stats();
            assert_eq!(stats.misses, 1, "{preconditioner:?}");
            assert_eq!(stats.hits as usize, 2 * fresh.num_steps());
        }
    }

    #[test]
    fn a_shared_session_never_reuses_another_specs_shift() {
        use crate::backend::PreconditionerKind;
        let workload = closed_workload(Dims::new(6, 5, 4));
        let config = SolveConfig {
            tolerance: Some(1e-20),
            preconditioner: PreconditionerKind::Jacobi,
            ..SolveConfig::default()
        };
        // Same Δt and wells: the runs' shifts differ only through c_t.
        let spec = |ct: f64| {
            TransientSpec::new(1.0, 0.25, ct)
                .with_wells(WellSet::empty().with(mffv_mesh::Well::bhp(
                    "prod",
                    CellIndex::new(5, 4, 3),
                    5.0,
                    0.25,
                )))
                .with_initial_pressure(10.0)
        };
        let run = |ct: f64, request: &mut SolveRequest<'_>| {
            run_transient(
                &HostBackend::oracle(),
                &workload,
                &spec(ct),
                &config,
                &StopPolicy::new(),
                request,
            )
            .unwrap()
        };
        let mut cache = SolveContextCache::new();
        for ct in [1e-3, 1e-5, 1e-3] {
            let fresh = run(ct, &mut SolveRequest::new());
            let shared = run(ct, &mut SolveRequest::new().cache(&mut cache));
            for (a, b) in fresh.steps.iter().zip(&shared.steps) {
                assert_eq!(a.report.history, b.report.history, "c_t {ct}");
                assert_eq!(
                    a.report.pressure.as_slice(),
                    b.report.pressure.as_slice(),
                    "c_t {ct}"
                );
            }
        }
        assert_eq!(cache.f64_context.stats().misses, 1);
    }
}
