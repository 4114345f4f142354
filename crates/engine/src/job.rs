//! Job descriptions and per-job results for the batch engine.
//!
//! A [`JobSpec`] is a *value*: a declarative description of one solve
//! (workload spec, target backend, solve settings, permeability seed) that can
//! be cloned, queued, and executed on any worker thread.  Workloads are
//! materialised on the worker — the heavy permeability/transmissibility
//! fields are never built on the submitting thread, and never shared between
//! jobs — which is what makes batch results independent of worker count.

use crate::backend::Backend;
use mffv_mesh::{TransientSpec, WorkloadSpec};
use mffv_solver::backend::{
    PreconditionerKind, SolveConfig, SolveError, SolveReport, SolveRequest,
};
use mffv_solver::context::SolveContextCache;
use mffv_solver::monitor::{SolveMonitor, StopPolicy, StopReason};
use mffv_solver::transient::run_transient;

/// One unit of work for the engine: solve `workload_spec` on `backend` under
/// `solve_config`, with stochastic permeability reseeded from `seed` and the
/// solve session governed by `stop_policy`.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// The problem to solve (materialised on the worker thread).
    pub workload_spec: WorkloadSpec,
    /// The solve target.
    pub backend: Backend,
    /// Cross-backend solve settings (`None` fields fall back to the
    /// workload's own tolerance / iteration cap).
    pub solve_config: SolveConfig,
    /// Optional seed override for stochastic permeability models
    /// ([`WorkloadSpec::with_permeability_seed`]).  `None` (the default)
    /// solves the spec exactly as written — its own seed included — so a
    /// default job is bitwise identical to a serial solve of the same spec;
    /// deterministic models ignore the seed either way.
    pub seed: Option<u64>,
    /// Per-job stop rules (deadline, iteration budget, stagnation /
    /// divergence detection, cancellation).  An empty policy (the default)
    /// runs the exact unmonitored solve path; the engine adds its own
    /// cancel token here before executing.
    pub stop_policy: StopPolicy,
    /// When set, the job runs the transient scenario instead of a single
    /// steady solve: the full backward-Euler schedule executes on the
    /// worker and the job completes with the run's summary report (final
    /// pressure, concatenated per-step CG history).
    pub transient: Option<TransientSpec>,
}

impl JobSpec {
    /// A job with default solve settings and no seed override.
    pub fn new(workload_spec: WorkloadSpec, backend: Backend) -> Self {
        Self {
            workload_spec,
            backend,
            solve_config: SolveConfig::default(),
            seed: None,
            stop_policy: StopPolicy::new(),
            transient: None,
        }
    }

    /// A transient job: run `transient_spec`'s whole backward-Euler schedule
    /// on `backend` (see [`mffv_solver::transient`]).
    pub fn transient(
        workload_spec: WorkloadSpec,
        backend: Backend,
        transient_spec: TransientSpec,
    ) -> Self {
        Self::new(workload_spec, backend).with_transient(transient_spec)
    }

    /// Turn the job into a transient run of `transient_spec`.
    pub fn with_transient(mut self, transient_spec: TransientSpec) -> Self {
        self.transient = Some(transient_spec);
        self
    }

    /// Override the solve settings.
    pub fn with_config(mut self, solve_config: SolveConfig) -> Self {
        self.solve_config = solve_config;
        self
    }

    /// Override the permeability seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Select the preconditioner of the job's Krylov loop — Jacobi diagonal
    /// scaling or the matrix-free multigrid V-cycle
    /// ([`PreconditionerKind::None`], the default, keeps plain CG).
    pub fn with_preconditioner(mut self, preconditioner: PreconditionerKind) -> Self {
        self.solve_config.preconditioner = preconditioner;
        self
    }

    /// Run the host backend's planned stencil kernels on `threads` scoped
    /// threads (bitwise-identical results for every thread count; ignored by
    /// device-style backends).  Composes with the engine's worker pool: a
    /// 4-worker engine running jobs with 2 apply threads uses up to 8 cores.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.solve_config.threads = Some(threads);
        self
    }

    /// Attach stop rules to the job's solve session.
    pub fn with_stop_policy(mut self, stop_policy: StopPolicy) -> Self {
        self.stop_policy = stop_policy;
        self
    }

    /// The workload spec the job actually solves: `workload_spec` with the
    /// job's seed override (when set) applied to stochastic permeability
    /// models.  Exposed so serial reference runs (tests, examples) can
    /// reproduce a job exactly.
    pub fn effective_spec(&self) -> WorkloadSpec {
        match self.seed {
            Some(seed) => self.workload_spec.with_permeability_seed(seed),
            None => self.workload_spec.clone(),
        }
    }

    /// Display label: `workload @ backend`.
    pub fn label(&self) -> String {
        format!("{} @ {}", self.workload_spec.name, self.backend.name())
    }

    /// Validate the job before it is queued, mapping spec problems into the
    /// unified [`SolveError`] (the engine's job-intake check).
    pub fn validate(&self) -> Result<(), SolveError> {
        self.workload_spec
            .validate()
            .map_err(|e| SolveError::new(self.backend.name(), format!("invalid workload: {e}")))?;
        if let Some(t) = self.solve_config.tolerance {
            if !t.is_finite() || t <= 0.0 {
                return Err(SolveError::new(
                    self.backend.name(),
                    format!("invalid solve config: tolerance must be finite and positive, got {t}"),
                ));
            }
        }
        if self.solve_config.max_iterations == Some(0) {
            return Err(SolveError::new(
                self.backend.name(),
                "invalid solve config: max_iterations must be non-zero",
            ));
        }
        if let Some(transient) = &self.transient {
            transient.validate(self.workload_spec.dims).map_err(|e| {
                SolveError::new(self.backend.name(), format!("invalid transient spec: {e}"))
            })?;
        }
        Ok(())
    }

    /// Run the job to completion on the calling thread: validation,
    /// workload materialisation, then the steady solve or the transient
    /// schedule (whose summary report is returned).
    ///
    /// `request` carries the job's live observer, span and cache:
    /// * its monitor sees the job's full
    ///   [`SolveEvent`](mffv_solver::monitor::SolveEvent) stream — the
    ///   per-iteration events of a steady solve, or the concatenated per-step
    ///   sessions of a transient — bitwise-identical to the recorded history,
    ///   and may stop the job; the job's own [`StopPolicy`] keeps stop
    ///   precedence.  This is the serving path: a daemon streams the events
    ///   over a socket while policy deadlines and cancel tokens keep working.
    /// * its span receives `materialise-workload` and the solve's phase spans.
    /// * its cache (a worker's long-lived [`SolveContextCache`]) supplies the
    ///   workload and operator of the previous job when the keys match.  A
    ///   steady and a transient operator key differently, so alternating the
    ///   two kinds on one spec rebuilds the operator at every switch.
    ///
    /// The engine calls this from its workers, behind panic isolation;
    /// `execute(&mut SolveRequest::new())` — a fresh cache — is the serial
    /// reference path.  Reports are bitwise identical either way.
    pub fn execute(&self, request: &mut SolveRequest<'_>) -> Result<SolveReport, SolveError> {
        self.validate()?;
        let materialise = request.span.child("materialise-workload");
        let spec = self.effective_spec();
        let mut fresh = SolveContextCache::new();
        let cache = match request.cache.as_deref_mut() {
            Some(cache) => cache,
            None => &mut fresh,
        };
        let workload = cache
            .checkout_workload(&spec)
            .map_err(|e| SolveError::new(self.backend.name(), format!("invalid workload: {e}")))?;
        materialise.finish();
        let backend = self.backend.instantiate();
        let observer = request.monitor.as_deref_mut();
        let result = match &self.transient {
            Some(transient) => run_transient(
                backend.as_ref(),
                &workload,
                transient,
                &self.solve_config,
                &self.stop_policy,
                &mut SolveRequest {
                    // The cast reborrows the observer for this call only.
                    monitor: observer.map(|m| m as &mut dyn SolveMonitor),
                    span: request.span,
                    cache: Some(&mut *cache),
                },
            )
            .map(|report| report.summary_report()),
            None => self.stop_policy.observe(observer, |monitor| {
                backend.solve(
                    &workload,
                    &self.solve_config,
                    &mut SolveRequest {
                        monitor: Some(monitor),
                        span: request.span,
                        cache: Some(&mut *cache),
                    },
                )
            }),
        };
        // Hand the workload back so the next same-spec job skips
        // materialisation entirely.
        cache.checkin_workload(spec, workload);
        result
    }
}

/// How one job ended.
#[derive(Clone, Debug)]
pub enum JobStatus {
    /// The solve ran to completion (converged or hit its iteration cap — see
    /// [`SolveReport::converged`]).
    Completed(SolveReport),
    /// The solve session was stopped early — by its [`StopPolicy`], a
    /// [`CancelToken`](mffv_solver::monitor::CancelToken), or batch-level
    /// cancellation.  Distinct from
    /// [`Failed`](Self::Failed): nothing went wrong, the job was told to
    /// stop.  `report` carries the partial state for jobs stopped mid-solve
    /// and is `None` for queued jobs cancelled before they started.
    Stopped {
        /// Why the session ended.
        reason: StopReason,
        /// The partial report (pressure + history at the stop boundary),
        /// when the job had started solving.
        report: Option<SolveReport>,
    },
    /// The backend (or job intake) returned a typed error.
    Failed(SolveError),
    /// The job panicked on its worker; the pool survives and the panic
    /// message is captured here.
    Panicked(String),
}

/// The result of one job, in submission order within a
/// [`BatchReport`](crate::BatchReport).
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// Index of the job in the submitted batch.
    pub index: usize,
    /// Human-readable job label (`workload @ backend`).
    pub label: String,
    /// How the job ended.
    pub status: JobStatus,
    /// Wall-clock seconds the job spent queued before a worker picked it up
    /// (submission back-pressure; `0.0` for jobs cancelled while queued is
    /// *not* special-cased — they report their real wait).
    pub queue_wait_seconds: f64,
    /// Wall-clock seconds the job spent executing on its worker (validation +
    /// materialisation + solve).  `0.0` for jobs cancelled before they
    /// started.
    pub exec_seconds: f64,
}

impl JobOutcome {
    /// Execution wall-clock seconds — the historical `latency_seconds` field,
    /// kept as an accessor so report consumers see unchanged semantics.
    pub fn latency_seconds(&self) -> f64 {
        self.exec_seconds
    }

    /// The solve report, when the job ran to completion.
    pub fn report(&self) -> Option<&SolveReport> {
        match &self.status {
            JobStatus::Completed(report) => Some(report),
            _ => None,
        }
    }

    /// The partial report of a job stopped mid-solve (pressure and
    /// convergence history at the stop boundary).
    pub fn partial_report(&self) -> Option<&SolveReport> {
        match &self.status {
            JobStatus::Stopped { report, .. } => report.as_ref(),
            _ => None,
        }
    }

    /// Whether the job produced a completed report.
    pub fn is_success(&self) -> bool {
        matches!(self.status, JobStatus::Completed(_))
    }

    /// Whether the job was stopped early (policy, deadline or cancellation).
    pub fn is_stopped(&self) -> bool {
        matches!(self.status, JobStatus::Stopped { .. })
    }

    /// Why the job was stopped, when it was.
    pub fn stop_reason(&self) -> Option<StopReason> {
        match &self.status {
            JobStatus::Stopped { reason, .. } => Some(*reason),
            _ => None,
        }
    }

    /// The failure description for failed or panicked jobs.  Stopped jobs
    /// are not failures — see [`stop_reason`](Self::stop_reason).
    pub fn failure(&self) -> Option<String> {
        match &self.status {
            JobStatus::Completed(_) | JobStatus::Stopped { .. } => None,
            JobStatus::Failed(e) => Some(e.to_string()),
            JobStatus::Panicked(msg) => Some(format!("panicked: {msg}")),
        }
    }

    /// Short status cell for tables: `ok`, `stopped`, `failed`, or
    /// `panicked`.
    pub fn status_label(&self) -> &'static str {
        match &self.status {
            JobStatus::Completed(_) => "ok",
            JobStatus::Stopped { .. } => "stopped",
            JobStatus::Failed(_) => "failed",
            JobStatus::Panicked(_) => "panicked",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_intake_rejects_invalid_specs_with_a_typed_error() {
        let bad_spec = WorkloadSpec {
            max_iterations: 0,
            ..WorkloadSpec::quickstart()
        };
        let err = JobSpec::new(bad_spec, Backend::host())
            .validate()
            .unwrap_err();
        assert_eq!(err.backend_name(), "host-f64");
        assert!(err.detail().contains("max_iterations"), "{}", err.detail());
    }

    #[test]
    fn job_intake_rejects_invalid_solve_configs() {
        let nan_tol =
            JobSpec::new(WorkloadSpec::quickstart(), Backend::host()).with_config(SolveConfig {
                tolerance: Some(f64::NAN),
                ..SolveConfig::default()
            });
        assert!(nan_tol
            .validate()
            .unwrap_err()
            .detail()
            .contains("tolerance"));

        let zero_cap =
            JobSpec::new(WorkloadSpec::quickstart(), Backend::host()).with_config(SolveConfig {
                max_iterations: Some(0),
                ..SolveConfig::default()
            });
        assert!(zero_cap
            .validate()
            .unwrap_err()
            .detail()
            .contains("max_iterations"));
    }

    #[test]
    fn default_jobs_preserve_the_specs_own_permeability_seed() {
        use mffv_mesh::PermeabilityModel;
        let spec = WorkloadSpec {
            permeability: PermeabilityModel::LogNormal {
                mean_log: 0.0,
                std_log: 0.5,
                seed: 42,
            },
            ..WorkloadSpec::quickstart()
        };
        let job = JobSpec::new(spec.clone(), Backend::host());
        assert_eq!(job.effective_spec(), spec);
        assert_ne!(
            job.with_seed(0).effective_spec().permeability,
            spec.permeability
        );
    }

    #[test]
    fn execute_solves_on_the_requested_backend() {
        let report = JobSpec::new(WorkloadSpec::quickstart(), Backend::host())
            .execute(&mut SolveRequest::new())
            .unwrap();
        assert_eq!(report.backend, "host-f64");
        assert!(report.converged());
    }

    #[test]
    fn transient_jobs_execute_the_whole_schedule() {
        use mffv_mesh::workload::BoundarySpec;
        use mffv_mesh::{CellIndex, TransientSpec, Well, WellSet};
        let spec = WorkloadSpec {
            name: "engine-transient".into(),
            boundary: BoundarySpec::None,
            dims: mffv_mesh::Dims::new(5, 4, 3),
            tolerance: 1e-18,
            ..WorkloadSpec::quickstart()
        };
        let transient = TransientSpec::new(1.0, 0.25, 1e-3)
            .with_wells(WellSet::empty().with(Well::rate("inj", CellIndex::new(2, 2, 1), 1.0)))
            .with_initial_pressure(1.0);
        let job = JobSpec::transient(spec, Backend::host(), transient);
        let report = job.execute(&mut SolveRequest::new()).unwrap();
        assert_eq!(report.backend, "host-f64");
        assert!(report.converged());
        assert!(
            report.iterations() > 4,
            "4 steps of CG merged into one history"
        );
        assert!(report.pressure.get(0) > 1.0, "injection raises pressure");

        // Re-execution is bitwise identical (worker-count independence rests
        // on this).
        let again = job.execute(&mut SolveRequest::new()).unwrap();
        let bits = |r: &SolveReport| -> Vec<u64> {
            r.pressure.as_slice().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(&report), bits(&again));
    }

    #[test]
    fn job_intake_rejects_invalid_transient_specs() {
        use mffv_mesh::TransientSpec;
        let job = JobSpec::new(WorkloadSpec::quickstart(), Backend::host())
            .with_transient(TransientSpec::new(1.0, -0.5, 1e-9));
        let err = job.validate().unwrap_err();
        assert!(err.detail().contains("transient"), "{}", err.detail());
    }

    #[test]
    fn labels_and_status_helpers() {
        let job = JobSpec::new(WorkloadSpec::quickstart(), Backend::dataflow());
        assert_eq!(job.label(), "quickstart-16x16x8 @ dataflow");
        let outcome = JobOutcome {
            index: 0,
            label: job.label(),
            status: JobStatus::Panicked("boom".into()),
            queue_wait_seconds: 0.0,
            exec_seconds: 0.0,
        };
        assert!(!outcome.is_success());
        assert!(outcome.report().is_none());
        assert_eq!(outcome.failure().unwrap(), "panicked: boom");
        assert_eq!(outcome.status_label(), "panicked");
    }
}
