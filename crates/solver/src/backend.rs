//! The backend-agnostic solve abstraction behind the `mffv::Simulation` facade.
//!
//! The paper's central experiment runs the *same* matrix-free FV pressure solve
//! on three targets — a host f64 oracle, a GPU-style reference and the simulated
//! dataflow fabric — and compares results (§V-B).  Historically every target had
//! its own entry point, option struct and report type; this module defines the
//! shared contract they all implement instead:
//!
//! * [`SolveConfig`] — the normalized cross-backend settings (tolerance,
//!   iteration cap, apply threads, preconditioner), with `None` meaning "use
//!   the workload's own defaults" — the one place any backend reads them
//!   from; the arithmetic [`Precision`] belongs to the backend;
//! * [`SolveBackend`] — one object-safe trait every solver implements, with
//!   one [`solve`](SolveBackend::solve) entry point;
//! * [`SolveRequest`] — the per-call half of a solve: the optional live
//!   monitor, telemetry span and warm [`SolveContextCache`];
//! * [`SolveReport`] — one report shape: pressure normalized to `f64`,
//!   convergence history, final residual, and an optional [`DeviceSection`]
//!   for backends that model device time;
//! * [`SolveError`] — one error type (backends with richer internal errors,
//!   like the fabric simulator, stringify into it);
//! * [`HostBackend`] — the sequential host oracle, implemented right here.
//!
//! The GPU-style reference and the dataflow solver implement [`SolveBackend`]
//! in their own crates (`mffv-gpu-ref`, `mffv-core`); the umbrella `mffv` crate
//! wires all three into the `Simulation` builder.

use crate::context::SolveContextCache;
use crate::convergence::ConvergenceHistory;
use crate::monitor::{NullMonitor, SolveMonitor, StopReason};
use crate::trace::traced;
use mffv_fv::residual::residual;
use mffv_mesh::{CellField, Workload};
use mffv_telemetry::{Span, Stopwatch};

/// Floating-point precision of a solve, a property of the backend: the
/// device-style backends are `f32` by construction (the paper's machines
/// compute in single precision); [`HostBackend`] runs either way.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Precision {
    /// IEEE single precision (the device precision of the paper).
    F32,
    /// IEEE double precision (the oracle precision of §V-B).
    #[default]
    F64,
}

impl Precision {
    /// Short label used in backend names and reports.
    pub fn label(&self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::F64 => "f64",
        }
    }
}

/// Which preconditioner a backend's Krylov loop runs under.
///
/// The default is [`PreconditionerKind::None`] — plain CG, the paper's
/// Algorithm 1 — so existing configurations and histories are unchanged.
/// All three backends honour the selection; histories always record the
/// *unpreconditioned* `rᵀr`, so convergence curves stay comparable across
/// kinds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PreconditionerKind {
    /// Plain CG (Algorithm 1 of the paper).
    #[default]
    None,
    /// Diagonal (Jacobi) scaling.
    Jacobi,
    /// The geometric-multigrid V-cycle of [`mffv_fv::mg`]: iteration counts
    /// roughly flat in grid size.
    Mg,
}

impl PreconditionerKind {
    /// Every kind, in declaration order (sweep axes iterate this).
    pub const ALL: [PreconditionerKind; 3] = [
        PreconditionerKind::None,
        PreconditionerKind::Jacobi,
        PreconditionerKind::Mg,
    ];

    /// Short stable label used in spec files, CLI flags and sweep names.
    pub fn label(&self) -> &'static str {
        match self {
            PreconditionerKind::None => "none",
            PreconditionerKind::Jacobi => "jacobi",
            PreconditionerKind::Mg => "mg",
        }
    }

    /// Parse a [`label`](Self::label) back into a kind.
    pub fn parse(s: &str) -> Option<PreconditionerKind> {
        match s {
            "none" => Some(PreconditionerKind::None),
            "jacobi" => Some(PreconditionerKind::Jacobi),
            "mg" => Some(PreconditionerKind::Mg),
            _ => None,
        }
    }
}

/// Cross-backend solve settings: the only home of a solve's tolerance,
/// iteration cap and preconditioner, which every backend reads from here.
/// The arithmetic precision is not a setting of the solve but of the
/// backend ([`SolveBackend::step_precision`]).
///
/// `None` fields fall back to the workload's own tolerance / iteration cap, so
/// a default `SolveConfig` reproduces each backend's historical defaults.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SolveConfig {
    /// Convergence tolerance on `rᵀr` (the paper's Algorithm 1, line 8).
    pub tolerance: Option<f64>,
    /// Iteration cap (`k_max`).  A dataflow backend in communication-only
    /// mode runs its own forced iteration count instead.
    pub max_iterations: Option<usize>,
    /// Scoped threads for the host backend's planned stencil kernels (`None`
    /// = 1, the sequential path).  Results are bitwise identical for every
    /// thread count; device-style backends model their own parallelism and
    /// ignore this knob.
    pub threads: Option<usize>,
    /// Preconditioner of the Krylov loop (default: none, plain CG).
    pub preconditioner: PreconditionerKind,
}

impl SolveConfig {
    /// The tolerance to use for `workload`.
    pub fn effective_tolerance(&self, workload: &Workload) -> f64 {
        self.tolerance.unwrap_or_else(|| workload.tolerance())
    }

    /// The iteration cap to use for `workload`.
    pub fn effective_max_iterations(&self, workload: &Workload) -> usize {
        self.max_iterations
            .unwrap_or_else(|| workload.max_iterations())
    }

    /// The host apply-thread count (at least 1).
    pub fn effective_threads(&self) -> usize {
        self.threads.unwrap_or(1).max(1)
    }
}

/// Device-side section of a [`SolveReport`], for backends that model a device
/// (modelled seconds plus backend-specific counters).
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceSection {
    /// Human-readable device description ("A100", "CS-2 region 16x16", …).
    pub device: String,
    /// Modelled device time of the solve, seconds.
    pub modelled_time_seconds: f64,
    /// Backend-specific named counters (fabric bytes, transfer bytes, FLOPs…).
    pub counters: Vec<(String, f64)>,
}

impl DeviceSection {
    /// Look up a counter by name.
    pub fn counter(&self, name: &str) -> Option<f64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

/// The unified result every backend produces.
#[derive(Clone, Debug)]
pub struct SolveReport {
    /// Name of the backend that produced this report (unique within a run set).
    pub backend: String,
    /// The converged pressure field, normalized to `f64` for comparison across
    /// backends regardless of their native precision.
    pub pressure: CellField<f64>,
    /// Convergence history of the underlying Krylov solve.
    pub history: ConvergenceHistory,
    /// Max-norm of the residual of Eq. (3) at the returned pressure, evaluated
    /// on the host in `f64` — a backend-independent quality check.
    pub final_residual_max: f64,
    /// Wall-clock seconds of the host-side execution (not device time).
    pub host_wall_seconds: f64,
    /// Device-time model and counters, for backends that have one.
    pub device: Option<DeviceSection>,
    /// `Some(reason)` when a [`SolveMonitor`] or stop policy ended the solve
    /// early; the pressure and history then carry the partial state reached
    /// at the stop boundary.  `None` for solves that converged or exhausted
    /// their own iteration cap.
    pub stopped: Option<StopReason>,
}

impl SolveReport {
    /// Iterations performed by the underlying solve.
    pub fn iterations(&self) -> usize {
        self.history.iterations
    }

    /// Whether the solve met its tolerance before the iteration cap.
    pub fn converged(&self) -> bool {
        self.history.converged
    }

    /// Why the solve was stopped early, when it was.
    pub fn stop_reason(&self) -> Option<StopReason> {
        self.stopped
    }

    /// Whether a monitor or stop policy ended the solve early.
    pub fn was_stopped(&self) -> bool {
        self.stopped.is_some()
    }

    /// Treat an early stop as an error: returns the report unchanged when the
    /// solve ran to its natural end, or [`SolveError::Stopped`] otherwise —
    /// the `?`-friendly strict form for callers that cannot use partial
    /// results.
    pub fn require_completed(self) -> Result<SolveReport, SolveError> {
        match self.stopped {
            None => Ok(self),
            Some(reason) => Err(SolveError::stopped(self.backend, reason)),
        }
    }

    /// Modelled device seconds, when the backend models a device.
    pub fn modelled_time(&self) -> Option<f64> {
        self.device.as_ref().map(|d| d.modelled_time_seconds)
    }

    /// Maximum absolute pressure difference against another backend's report.
    pub fn max_abs_diff(&self, other: &SolveReport) -> f64 {
        self.pressure.max_abs_diff(&other.pressure)
    }
}

/// Unified error type of the facade.
///
/// [`SolveError::Backend`] is a genuine failure: backends with structured
/// internal errors (the fabric simulator's `FabricError`) stringify into its
/// `detail`, and the backend name says where the failure came from.
/// [`SolveError::Stopped`] is the strict-caller form of an early stop (see
/// [`SolveReport::require_completed`]): not a failure of the backend, but an
/// error for code paths that need a completed solve.
///
/// Implements [`std::error::Error`], so `?` works against
/// `Box<dyn std::error::Error>`:
///
/// ```
/// use mffv_solver::backend::{HostBackend, SolveBackend, SolveConfig, SolveRequest};
/// use mffv_mesh::WorkloadSpec;
///
/// fn main() -> Result<(), Box<dyn std::error::Error>> {
///     let w = WorkloadSpec::quickstart().build();
///     let report = HostBackend::oracle().solve(
///         &w,
///         &SolveConfig::default(),
///         &mut SolveRequest::new(),
///     )?;
///     assert!(report.converged());
///     Ok(())
/// }
/// ```
#[derive(Clone, Debug, PartialEq)]
pub enum SolveError {
    /// The backend failed to produce a report.
    Backend {
        /// Name of the failing backend.
        backend: String,
        /// Human-readable failure description.
        detail: String,
    },
    /// The solve was stopped early by a monitor, stop policy or cancellation
    /// — before it could run to its natural end.
    Stopped {
        /// Name of the stopped backend.
        backend: String,
        /// Why the session ended.
        reason: StopReason,
    },
}

impl SolveError {
    /// Build a failure error for `backend`.
    pub fn new(backend: impl Into<String>, detail: impl Into<String>) -> Self {
        SolveError::Backend {
            backend: backend.into(),
            detail: detail.into(),
        }
    }

    /// Build a stopped-session error for `backend`.
    pub fn stopped(backend: impl Into<String>, reason: StopReason) -> Self {
        SolveError::Stopped {
            backend: backend.into(),
            reason,
        }
    }

    /// Name of the backend the error came from.
    pub fn backend_name(&self) -> &str {
        match self {
            SolveError::Backend { backend, .. } | SolveError::Stopped { backend, .. } => backend,
        }
    }

    /// Human-readable description of what went wrong.
    pub fn detail(&self) -> String {
        match self {
            SolveError::Backend { detail, .. } => detail.clone(),
            SolveError::Stopped { reason, .. } => reason.to_string(),
        }
    }

    /// The stop reason, when this error records an early stop rather than a
    /// backend failure.
    pub fn stop_reason(&self) -> Option<StopReason> {
        match self {
            SolveError::Backend { .. } => None,
            SolveError::Stopped { reason, .. } => Some(*reason),
        }
    }

    /// Whether this error records an early stop (cancellation, deadline, …)
    /// rather than a backend failure.
    pub fn is_stopped(&self) -> bool {
        matches!(self, SolveError::Stopped { .. })
    }
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::Backend { backend, detail } => {
                write!(f, "backend `{backend}` failed: {detail}")
            }
            SolveError::Stopped { backend, reason } => {
                write!(f, "backend `{backend}` stopped: {reason}")
            }
        }
    }
}

impl std::error::Error for SolveError {}

/// Max-norm of the Eq. (3) residual at `pressure`, evaluated in `f64` with the
/// workload's native `f64` coefficients — the backend-independent quality
/// check every [`SolveReport`] must carry regardless of solve precision.
pub fn final_residual_max_f64(workload: &Workload, pressure: &CellField<f64>) -> f64 {
    residual(pressure, workload.transmissibility(), workload.dirichlet()).max_abs()
}

/// The parent span of requests that record nothing.
static NULL_SPAN: Span = Span::null();

/// The per-call half of a solve: who observes it, where its spans go, and
/// which warm cache it may reuse.  `SolveRequest::new()` asks for a plain
/// solve — no monitor, no tracing, a throwaway cache.
pub struct SolveRequest<'a> {
    /// Live observer of the Krylov loop: it receives a
    /// [`SolveEvent`](crate::monitor::SolveEvent) at every iteration
    /// boundary — `rr` payloads bitwise identical to the report's history —
    /// and may stop the solve by returning
    /// [`Flow::Stop`](crate::monitor::Flow::Stop), in which case the partial
    /// report comes back with [`SolveReport::stopped`] set.
    pub monitor: Option<&'a mut dyn SolveMonitor>,
    /// Parent of the solve's phase spans (`build-operator`, `cg-loop` with
    /// per-chunk `iters`, `mg.vcycle`, …; see [`crate::trace`]); a null span
    /// by default.  Tracing never touches solve arithmetic: traced and
    /// untraced reports are bitwise identical.
    pub span: &'a Span,
    /// Warm per-worker contexts to reuse (the zero-allocation serving path);
    /// `None` solves on a throwaway cache.  Reports are bitwise identical
    /// either way.
    pub cache: Option<&'a mut SolveContextCache>,
}

impl Default for SolveRequest<'_> {
    fn default() -> Self {
        Self {
            monitor: None,
            span: &NULL_SPAN,
            cache: None,
        }
    }
}

impl<'a> SolveRequest<'a> {
    /// A plain request: no monitor, no tracing, a throwaway cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach a live monitor.
    pub fn monitor(mut self, monitor: &'a mut dyn SolveMonitor) -> Self {
        self.monitor = Some(monitor);
        self
    }

    /// Record phase spans under `span`.
    pub fn span(mut self, span: &'a Span) -> Self {
        self.span = span;
        self
    }

    /// Reuse the warm contexts of `cache`.
    pub fn cache(mut self, cache: &'a mut SolveContextCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Run `f` with the request's monitor (a [`NullMonitor`] when none),
    /// mirrored into `cg-loop` spans when the span records; the request's
    /// span; and its cache (a fresh one when none).  Every backend's
    /// [`solve`](SolveBackend::solve) goes through here, so the monitor is
    /// wrapped exactly once per solve.
    pub fn run<R>(
        &mut self,
        f: impl FnOnce(&mut dyn SolveMonitor, &Span, &mut SolveContextCache) -> R,
    ) -> R {
        let span = self.span;
        let mut fresh = SolveContextCache::default();
        let cache = match self.cache.as_deref_mut() {
            Some(cache) => cache,
            None => &mut fresh,
        };
        let mut null_monitor = NullMonitor;
        let monitor: &mut dyn SolveMonitor = match self.monitor.as_deref_mut() {
            Some(monitor) => monitor,
            None => &mut null_monitor,
        };
        traced(span, monitor, |monitor| f(monitor, span, cache))
    }
}

/// One pressure-solve target: host oracle, GPU-style reference, dataflow
/// fabric, or any other.  Object-safe.
pub trait SolveBackend {
    /// Unique, stable name ("host-f64", "gpu-ref-A100", "dataflow"…).
    fn name(&self) -> String;

    /// Solve `workload`'s pressure problem under `config`, observed,
    /// traced and cached as `request` asks (see [`SolveRequest`]).  A
    /// monitor stop returns the partial report with
    /// [`SolveReport::stopped`] set.
    fn solve(
        &self,
        workload: &Workload,
        config: &SolveConfig,
        request: &mut SolveRequest<'_>,
    ) -> Result<SolveReport, SolveError>;

    /// The arithmetic precision this backend computes in — its steady
    /// solves and the transient systems it steps alike.
    ///
    /// Defaults to `f64`; device-style backends (the paper's machines
    /// compute in single precision) override it to [`Precision::F32`], and
    /// the host backend reports its configured precision.
    fn step_precision(&self) -> Precision {
        Precision::F64
    }

    /// Arm a cache for a transient run of `workload` (see
    /// [`crate::transient`]): the planned operator and preconditioner are
    /// built now, at [`step_precision`](Self::step_precision).  Hand it to
    /// [`run_transient`](crate::transient::run_transient) as the request's
    /// cache and every step of the run only swaps their `Δt`-dependent
    /// diagonal in place; a run without a cache builds the same state on
    /// its first step.
    fn transient_session(
        &self,
        workload: &Workload,
        config: &SolveConfig,
    ) -> Result<SolveContextCache, SolveError> {
        let mut cache = SolveContextCache::new();
        let span = Span::null();
        match self.step_precision() {
            Precision::F64 => cache.f64_context.prepare(workload, config, true, &span),
            Precision::F32 => cache.f32_context.prepare(workload, config, true, &span),
        };
        Ok(cache)
    }
}

/// The host oracle: matrix-free (P)CG on the planned stencil kernels at a
/// selectable precision, no device model.  Every solve runs on a
/// [`SolveContext`](crate::context::SolveContext) — the request's warm one,
/// or a throwaway.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostBackend {
    /// Arithmetic precision of the solve.
    pub precision: Precision,
}

impl HostBackend {
    /// The §V-B oracle configuration: `f64`.
    pub fn oracle() -> Self {
        Self {
            precision: Precision::F64,
        }
    }

    /// A host solve at the paper's device precision, `f32`.
    pub fn f32() -> Self {
        Self {
            precision: Precision::F32,
        }
    }
}

impl SolveBackend for HostBackend {
    fn name(&self) -> String {
        format!("host-{}", self.precision.label())
    }

    fn step_precision(&self) -> Precision {
        self.precision
    }

    fn solve(
        &self,
        workload: &Workload,
        config: &SolveConfig,
        request: &mut SolveRequest<'_>,
    ) -> Result<SolveReport, SolveError> {
        let start = Stopwatch::start();
        let (pressure, history, final_residual_max, stopped) =
            request.run(|monitor, span, cache| match self.precision {
                Precision::F64 => {
                    let ctx = &mut cache.f64_context;
                    let stopped = ctx.solve(workload, config, monitor, span);
                    (
                        ctx.pressure().clone(),
                        ctx.history().clone(),
                        ctx.final_residual_max(),
                        stopped,
                    )
                }
                Precision::F32 => {
                    let ctx = &mut cache.f32_context;
                    let stopped = ctx.solve(workload, config, monitor, span);
                    let pressure: CellField<f64> = ctx.pressure().convert();
                    // Re-evaluate the residual in f64 so the field keeps its
                    // backend-independent contract (the f32 solve evaluated
                    // it in device precision).
                    let final_residual_max = final_residual_max_f64(workload, &pressure);
                    (pressure, ctx.history().clone(), final_residual_max, stopped)
                }
            });
        Ok(SolveReport {
            backend: self.name(),
            pressure,
            history,
            final_residual_max,
            host_wall_seconds: start.elapsed().as_secs_f64(),
            device: None,
            stopped,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mffv_mesh::workload::WorkloadSpec;

    #[test]
    fn default_config_uses_workload_settings() {
        let w = WorkloadSpec::quickstart().build();
        let c = SolveConfig::default();
        assert_eq!(c.effective_tolerance(&w), w.tolerance());
        assert_eq!(c.effective_max_iterations(&w), w.max_iterations());
        let tight = SolveConfig {
            tolerance: Some(1e-14),
            max_iterations: Some(7),
            ..c
        };
        assert_eq!(tight.effective_tolerance(&w), 1e-14);
        assert_eq!(tight.effective_max_iterations(&w), 7);
    }

    #[test]
    fn host_backend_solves_and_reports() {
        let w = WorkloadSpec::quickstart().build();
        let report = HostBackend::oracle()
            .solve(&w, &SolveConfig::default(), &mut SolveRequest::new())
            .unwrap();
        assert_eq!(report.backend, "host-f64");
        assert!(report.converged());
        assert!(report.iterations() > 0);
        assert!(report.final_residual_max < 1e-6);
        assert!(report.device.is_none());
        assert!(report.modelled_time().is_none());
    }

    #[test]
    fn host_precisions_agree_to_single_precision() {
        let w = WorkloadSpec::quickstart().build();
        let config = SolveConfig {
            tolerance: Some(1e-10),
            ..SolveConfig::default()
        };
        let f64_report = HostBackend::oracle()
            .solve(&w, &config, &mut SolveRequest::new())
            .unwrap();
        let f32_report = HostBackend::f32()
            .solve(&w, &config, &mut SolveRequest::new())
            .unwrap();
        assert_eq!(f32_report.backend, "host-f32");
        assert!(f64_report.max_abs_diff(&f32_report) < 1e-3);
    }

    #[test]
    fn device_section_counter_lookup() {
        let section = DeviceSection {
            device: "test".into(),
            modelled_time_seconds: 1.0,
            counters: vec![("flops".into(), 42.0)],
        };
        assert_eq!(section.counter("flops"), Some(42.0));
        assert_eq!(section.counter("missing"), None);
    }

    #[test]
    fn solve_error_displays_backend_and_detail() {
        let e = SolveError::new("dataflow", "out of local memory");
        let msg = e.to_string();
        assert!(msg.contains("dataflow") && msg.contains("out of local memory"));
        assert_eq!(e.backend_name(), "dataflow");
        assert!(!e.is_stopped());
        let s = SolveError::stopped("host-f64", StopReason::DeadlineExpired);
        assert_eq!(s.stop_reason(), Some(StopReason::DeadlineExpired));
        assert!(s.to_string().contains("stopped: deadline expired"), "{s}");
        // Both variants box into std::error::Error.
        let _: Box<dyn std::error::Error> = Box::new(s);
    }

    #[test]
    fn host_backend_reports_a_deadline_stop_with_partial_state() {
        use crate::monitor::StopPolicy;
        let w = WorkloadSpec::quickstart().build();
        let config = SolveConfig {
            tolerance: Some(1e-14),
            ..SolveConfig::default()
        };
        let mut session = StopPolicy::new()
            .deadline(std::time::Duration::ZERO)
            .session();
        let report = HostBackend::oracle()
            .solve(&w, &config, &mut SolveRequest::new().monitor(&mut session))
            .unwrap();
        assert_eq!(report.stopped, Some(StopReason::DeadlineExpired));
        assert!(!report.converged());
        assert_eq!(report.iterations(), 0);
        assert!(report.history.initial_rr() > 0.0);
        let err = report.require_completed().unwrap_err();
        assert_eq!(err.stop_reason(), Some(StopReason::DeadlineExpired));
    }
}
