//! The `Simulation` builder — one backend-agnostic entry point for every
//! pressure solve in the workspace.
//!
//! ```
//! use mffv::prelude::*;
//!
//! let workload = WorkloadSpec::quickstart().build();
//! let report = Simulation::new(workload)
//!     .tolerance(1e-10)
//!     .backend(Backend::host())
//!     .run()
//!     .unwrap();
//! assert!(report.converged());
//! ```
//!
//! `run()` executes the primary (first-registered) backend; `run_all()`
//! executes every registered backend — or the three paper targets when none
//! was registered — returning a per-backend outcome for each (one failing
//! backend does not discard the completed reports); `compare()` condenses the
//! successful runs into the §V-B numerical-integrity table
//! ([`AgreementReport`]), carrying any failures alongside; and `batch()`
//! executes the registered backends concurrently on the `mffv-engine` worker
//! pool, returning its [`BatchReport`].
//!
//! Solves are observable, cancellable *sessions*: `monitor()` streams typed
//! per-iteration events to a [`SolveMonitor`], and `deadline()` /
//! `cancel_token()` / `stop_policy()` attach declarative stop rules that end
//! a solve at an iteration boundary with its partial history reported.

use crate::backend::Backend;
use crate::report::{AgreementReport, SolveReport};
use mffv_engine::{BatchReport, Engine, JobSpec};
use mffv_mesh::{TransientSpec, Workload, WorkloadSpec};
use mffv_solver::backend::{PreconditionerKind, SolveConfig, SolveError, SolveRequest};
use mffv_solver::monitor::{CancelToken, SolveMonitor, StopPolicy};
use mffv_solver::transient::{run_transient, TransientReport};
use mffv_telemetry::{Span, Tracer};
use std::collections::BTreeMap;
use std::time::Duration;

/// Builder facade over the three solver implementations.
///
/// The solve settings (tolerance, iteration cap, preconditioner, apply
/// threads) go into one [`SolveConfig`] that every backend reads; the
/// arithmetic precision is the backend's own ([`Backend::host`] is `f64`,
/// [`Backend::host_f32`] `f32`, the device backends `f32`).
#[derive(Clone, Debug)]
pub struct Simulation {
    workload: Workload,
    config: SolveConfig,
    backends: Vec<Backend>,
    policy: StopPolicy,
    tracer: Tracer,
}

impl Simulation {
    /// A simulation of `workload` with its own tolerance/iteration settings
    /// and no backend registered yet (`run()` then uses the host oracle).
    pub fn new(workload: Workload) -> Self {
        Self {
            workload,
            config: SolveConfig::default(),
            backends: Vec::new(),
            policy: StopPolicy::new(),
            tracer: Tracer::disabled(),
        }
    }

    /// Convenience: build the workload from a spec first.
    pub fn from_spec(spec: &WorkloadSpec) -> Self {
        Self::new(spec.build())
    }

    /// Override the convergence tolerance on `rᵀr` for every backend.
    pub fn tolerance(mut self, tolerance: f64) -> Self {
        self.config.tolerance = Some(tolerance);
        self
    }

    /// Override the iteration cap for every backend.
    pub fn max_iterations(mut self, max_iterations: usize) -> Self {
        self.config.max_iterations = Some(max_iterations);
        self
    }

    /// Select the preconditioner for every backend's Krylov loop:
    /// [`PreconditionerKind::Jacobi`](mffv_solver::PreconditionerKind) for
    /// diagonal scaling or
    /// [`PreconditionerKind::Mg`](mffv_solver::PreconditionerKind) for the
    /// matrix-free geometric-multigrid V-cycle (near-constant iteration
    /// counts as the grid is refined).  The default (`None`) keeps the plain
    /// CG of earlier releases, bitwise identical.
    pub fn preconditioner(mut self, preconditioner: PreconditionerKind) -> Self {
        self.config.preconditioner = preconditioner;
        self
    }

    /// Run the host backend's planned stencil kernels on `threads` scoped
    /// threads.  Results — pressure fields and convergence histories — are
    /// bitwise identical for every thread count; the knob only changes how
    /// fast the hot apply/update passes run.  Device-style backends model
    /// their own parallelism and ignore it.
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = Some(threads);
        self
    }

    /// Register a backend.  The first registered backend is the one `run()`
    /// executes; `run_all()`/`compare()` execute all of them in order.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backends.push(backend);
        self
    }

    /// Register several backends at once.
    pub fn backends(mut self, backends: impl IntoIterator<Item = Backend>) -> Self {
        self.backends.extend(backends);
        self
    }

    /// Attach a full [`StopPolicy`] (iteration budget, deadline, stagnation
    /// and divergence rules, cancellation) to every solve this simulation
    /// runs.  Stopped solves return their partial report with
    /// [`SolveReport::stopped`](mffv_solver::SolveReport) set rather than an
    /// error — use [`SolveReport::require_completed`] for the strict form.
    pub fn stop_policy(mut self, policy: StopPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Bound every solve by `deadline` of wall-clock time (a serving-path
    /// SLA): the solve stops at the first iteration boundary past the
    /// deadline, reporting the partial convergence history.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.policy = self.policy.deadline(deadline);
        self
    }

    /// Watch `token`: cancelling it (from any thread) stops an in-flight
    /// solve at its next iteration boundary.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.policy = self.policy.cancel_token(token);
        self
    }

    /// Record every solve this simulation runs as a span tree under
    /// `tracer` — `solve @ backend` → operator build → `cg-loop` →
    /// per-chunk `iters`, plus per-step spans for transients and the full
    /// queue-wait/execute breakdown for [`batch`](Simulation::batch) runs.
    /// Export via [`mffv_telemetry`]'s text/JSON/Chrome-trace renderers.
    ///
    /// Tracing never alters results: traced solves are bitwise identical to
    /// untraced ones (pinned per backend in `tests/telemetry.rs`), and a
    /// disabled tracer (the default) costs one branch per would-be span.
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// The workload being solved.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// The normalized cross-backend settings.
    pub fn config(&self) -> &SolveConfig {
        &self.config
    }

    /// Run the primary backend (the first registered one, or the host oracle
    /// when none was registered) and return its unified report.
    ///
    /// With no stop policy attached this is the exact unmonitored solve path
    /// (bitwise identical to earlier releases); with one, the solve runs as
    /// a monitored session governed by the policy.
    pub fn run(&self) -> Result<SolveReport, SolveError> {
        self.run_backend(&self.primary_backend())
    }

    /// Run the primary backend as an observable session: `monitor` receives
    /// every [`SolveEvent`](mffv_solver::SolveEvent) of the inner CG loop
    /// (with `rr` payloads bitwise equal to the report's convergence
    /// history) and can stop the solve by returning
    /// [`Flow::Stop`](mffv_solver::Flow::Stop).  Any attached stop policy is
    /// active alongside and takes precedence.
    pub fn monitor(&self, monitor: &mut dyn SolveMonitor) -> Result<SolveReport, SolveError> {
        self.solve_on(&self.primary_backend(), Some(monitor))
    }

    /// Run one specific backend under this simulation's workload, config and
    /// stop policy.
    pub fn run_backend(&self, backend: &Backend) -> Result<SolveReport, SolveError> {
        self.solve_on(backend, None)
    }

    /// Run a transient scenario (implicit backward-Euler time stepping with
    /// wells — see [`mffv_solver::transient`]) on the primary backend.
    ///
    /// Every scenario knob of this builder carries over: tolerance and
    /// iteration caps apply per step, `threads(n)` keeps per-step results
    /// bitwise identical for any thread count, and the attached stop policy
    /// governs the whole run (one shared wall-clock deadline across steps;
    /// per-step iteration budgets).  Returns the [`TransientReport`] with
    /// per-step [`SolveReport`]s, requested snapshots and cumulative well
    /// volumes.
    pub fn transient(&self, spec: &TransientSpec) -> Result<TransientReport, SolveError> {
        self.transient_backend(&self.primary_backend(), spec)
    }

    /// Run a transient scenario on one specific backend (device-style
    /// backends step at their native `f32` precision).
    pub fn transient_backend(
        &self,
        backend: &Backend,
        spec: &TransientSpec,
    ) -> Result<TransientReport, SolveError> {
        let span = self.root_span("transient", backend);
        run_transient(
            backend.instantiate().as_ref(),
            &self.workload,
            spec,
            &self.config,
            &self.policy,
            &mut SolveRequest::new().span(&span),
        )
    }

    /// Run a transient scenario on every registered backend (or the standard
    /// set), returning a per-backend outcome for each — the transient
    /// counterpart of [`run_all`](Simulation::run_all), and the raw material
    /// of cross-backend trajectory comparisons.
    ///
    /// Like `run_all`, report names are kept unique within the returned
    /// set: a second backend producing the same name is suffixed `#2`,
    /// `#3`, … (on the run report and every per-step report).
    pub fn transient_all(
        &self,
        spec: &TransientSpec,
    ) -> Vec<(Backend, Result<TransientReport, SolveError>)> {
        let mut outcomes: Vec<(Backend, Result<TransientReport, SolveError>)> = self
            .effective_backends()
            .into_iter()
            .map(|b| {
                let outcome = self.transient_backend(&b, spec);
                (b, outcome)
            })
            .collect();
        let mut seen = NameDisambiguator::new();
        for (_, outcome) in &mut outcomes {
            if let Ok(report) = outcome {
                if let Some(unique) = seen.disambiguate(&report.backend) {
                    for step in &mut report.steps {
                        step.report.backend = unique.clone();
                    }
                    report.backend = unique;
                }
            }
        }
        outcomes
    }

    /// The backend `run()`/`monitor()` executes.
    fn primary_backend(&self) -> Backend {
        self.backends.first().copied().unwrap_or_else(Backend::host)
    }

    /// The root span a solve or transient run records under, when tracing:
    /// `solve @ host-f64`, `transient @ dataflow`, ….  Null (no allocation,
    /// no clock read) when no recording tracer is attached.
    fn root_span(&self, kind: &str, backend: &Backend) -> Span {
        if self.tracer.is_recording() {
            self.tracer.span(&format!("{kind} @ {}", backend.name()))
        } else {
            Span::null()
        }
    }

    /// Dispatch one backend solve under the stop policy, with `observer`
    /// (when any) watching behind it.
    fn solve_on(
        &self,
        backend: &Backend,
        observer: Option<&mut dyn SolveMonitor>,
    ) -> Result<SolveReport, SolveError> {
        let span = self.root_span("solve", backend);
        self.policy.observe(observer, |monitor| {
            backend.instantiate().solve(
                &self.workload,
                &self.config,
                &mut SolveRequest::new().monitor(monitor).span(&span),
            )
        })
    }

    /// Run every registered backend — or [`Backend::standard_set`] when none
    /// was registered — and return a per-backend outcome for each, in
    /// execution order.  One failing backend no longer discards the reports
    /// the other backends completed.
    ///
    /// Report names are kept unique within the returned set: a second backend
    /// producing the same name (e.g. two dataflow configurations) is suffixed
    /// `#2`, `#3`, … so [`AgreementReport`] lookups and the pairwise table
    /// stay unambiguous.
    pub fn run_all(&self) -> Vec<(Backend, Result<SolveReport, SolveError>)> {
        let mut outcomes: Vec<(Backend, Result<SolveReport, SolveError>)> = self
            .effective_backends()
            .into_iter()
            .map(|b| {
                let outcome = self.run_backend(&b);
                (b, outcome)
            })
            .collect();
        let mut seen = NameDisambiguator::new();
        for (_, outcome) in &mut outcomes {
            if let Ok(report) = outcome {
                if let Some(unique) = seen.disambiguate(&report.backend) {
                    report.backend = unique;
                }
            }
        }
        outcomes
    }

    /// Run every backend and condense the successful results into the
    /// cross-backend agreement report (the programmatic §V-B integrity
    /// table).  Backends that fail are recorded in
    /// [`AgreementReport::failures`] instead of discarding the completed
    /// runs; `Err` is returned only when *no* backend produced a report.
    pub fn compare(&self) -> Result<AgreementReport, SolveError> {
        let mut reports = Vec::new();
        let mut failures = Vec::new();
        for (_, outcome) in self.run_all() {
            match outcome {
                Ok(report) => reports.push(report),
                Err(error) => failures.push(error),
            }
        }
        if reports.is_empty() {
            return Err(failures
                .into_iter()
                .next()
                .unwrap_or_else(|| SolveError::new("simulation", "no backend produced a report")));
        }
        Ok(
            AgreementReport::from_reports(self.workload.name(), self.workload.dims(), reports)
                .with_failures(failures),
        )
    }

    /// Run every registered backend (or the standard set) concurrently on a
    /// `workers`-thread [`Engine`] — the batch counterpart of [`run_all`].
    /// Per-job outcomes arrive in backend registration order regardless of
    /// worker count, and each report is bitwise identical to the
    /// corresponding serial [`run_backend`] result.
    ///
    /// [`run_all`]: Simulation::run_all
    /// [`run_backend`]: Simulation::run_backend
    pub fn batch(&self, workers: usize) -> BatchReport {
        let jobs: Vec<JobSpec> = self
            .effective_backends()
            .into_iter()
            .map(|backend| {
                JobSpec::new(self.workload.spec().clone(), backend)
                    .with_config(self.config)
                    .with_stop_policy(self.policy.clone())
            })
            .collect();
        let mut batch = Engine::new(workers)
            .with_tracer(self.tracer.clone())
            .run(jobs);
        // The same duplicate-name disambiguation `run_all` applies, so two
        // configurations of one backend stay distinguishable in the report.
        let mut seen = NameDisambiguator::new();
        for outcome in &mut batch.outcomes {
            let report = match &mut outcome.status {
                mffv_engine::JobStatus::Completed(report) => report,
                mffv_engine::JobStatus::Stopped {
                    report: Some(report),
                    ..
                } => report,
                _ => continue,
            };
            if let Some(unique) = seen.disambiguate(&report.backend) {
                report.backend = unique;
                outcome.label = format!("{} @ {}", self.workload.spec().name, report.backend);
            }
        }
        batch
    }

    fn effective_backends(&self) -> Vec<Backend> {
        if self.backends.is_empty() {
            Backend::standard_set()
        } else {
            self.backends.clone()
        }
    }
}

/// Keeps report names unique within one run set: the second, third, …
/// occurrence of a name gains a `#2`, `#3`, … suffix (two dataflow
/// configurations in one comparison stay distinguishable in
/// [`AgreementReport`] lookups and pairwise tables).  Shared by
/// [`Simulation::run_all`] and [`Simulation::batch`].
///
/// Keyed on a `BTreeMap`, not a `HashMap`: suffix assignment must depend only
/// on submission order, never on hash-seed-dependent iteration (the
/// `nondet-iter` audit rule — see `AUDIT.md`).
struct NameDisambiguator {
    seen: BTreeMap<String, usize>,
}

impl NameDisambiguator {
    fn new() -> Self {
        Self {
            seen: BTreeMap::new(),
        }
    }

    /// Register one occurrence of `name`; returns the suffixed replacement
    /// when this is a repeat, `None` when the name is still unique.
    fn disambiguate(&mut self, name: &str) -> Option<String> {
        let count = self.seen.entry(name.to_string()).or_insert(0);
        *count += 1;
        (*count > 1).then(|| format!("{name}#{count}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_defaults_to_the_host_oracle() {
        let report = Simulation::from_spec(&WorkloadSpec::quickstart())
            .tolerance(1e-10)
            .run()
            .unwrap();
        assert_eq!(report.backend, "host-f64");
        assert!(report.converged());
    }

    #[test]
    fn run_executes_the_first_registered_backend() {
        let report = Simulation::from_spec(&WorkloadSpec::quickstart())
            .tolerance(1e-10)
            .backend(Backend::gpu_ref())
            .backend(Backend::dataflow())
            .run()
            .unwrap();
        assert_eq!(report.backend, "gpu-ref-A100");
    }

    #[test]
    fn run_all_defaults_to_the_standard_set_and_agrees() {
        let agreement = Simulation::from_spec(&WorkloadSpec::quickstart())
            .tolerance(1e-10)
            .compare()
            .unwrap();
        assert_eq!(agreement.reports.len(), 3);
        assert_eq!(agreement.pairwise.len(), 3);
        assert!(
            agreement.max_pairwise_diff() < 1e-3,
            "backends disagree: {}",
            agreement.max_pairwise_diff()
        );
        assert!(agreement
            .report("dataflow")
            .unwrap()
            .modelled_time()
            .is_some());
    }

    /// Unwrap every outcome of a `run_all`, panicking on the first failure.
    fn all_reports(outcomes: Vec<(Backend, Result<SolveReport, SolveError>)>) -> Vec<SolveReport> {
        outcomes
            .into_iter()
            .map(|(b, outcome)| outcome.unwrap_or_else(|e| panic!("{}: {e}", b.name())))
            .collect()
    }

    #[test]
    fn facade_tolerance_reaches_every_backend() {
        // A loose tolerance must reduce iteration counts on all backends.
        let sim = Simulation::from_spec(&WorkloadSpec::quickstart());
        let loose = all_reports(sim.clone().tolerance(1e-2).run_all());
        let tight = all_reports(sim.tolerance(1e-12).run_all());
        for (l, t) in loose.iter().zip(tight.iter()) {
            assert_eq!(l.backend, t.backend);
            assert!(
                l.iterations() < t.iterations(),
                "{}: {} !< {}",
                l.backend,
                l.iterations(),
                t.iterations()
            );
        }
    }

    #[test]
    fn duplicate_backend_names_are_disambiguated() {
        use mffv_core::SolverOptions;
        let reports = all_reports(
            Simulation::from_spec(&WorkloadSpec::quickstart())
                .tolerance(1e-10)
                .backend(Backend::dataflow())
                .backend(Backend::dataflow_with(
                    SolverOptions::paper().without_vectorization(),
                ))
                .run_all(),
        );
        assert_eq!(reports[0].backend, "dataflow");
        assert_eq!(reports[1].backend, "dataflow#2");
    }

    #[test]
    fn run_all_keeps_completed_reports_when_one_backend_fails() {
        // A 3000-deep column overflows a PE's memory, so the dataflow backend
        // fails — but the host outcomes must survive alongside the error.
        let workload = WorkloadSpec::paper_grid(3, 3, 3000).build();
        let outcomes = Simulation::new(workload)
            .tolerance(1e-8)
            .backend(Backend::host())
            .backend(Backend::dataflow())
            .backend(Backend::host_f32())
            .run_all();
        assert_eq!(outcomes.len(), 3);
        assert_eq!(outcomes[0].1.as_ref().unwrap().backend, "host-f64");
        let error = outcomes[1].1.as_ref().unwrap_err();
        assert_eq!(error.backend_name(), "dataflow");
        assert!(error.detail().contains("memory"), "{}", error.detail());
        assert_eq!(outcomes[2].1.as_ref().unwrap().backend, "host-f32");
    }

    #[test]
    fn compare_summarises_successes_and_carries_failures() {
        let workload = WorkloadSpec::paper_grid(3, 3, 3000).build();
        let agreement = Simulation::new(workload)
            .tolerance(1e-8)
            .backend(Backend::host())
            .backend(Backend::dataflow())
            .backend(Backend::host_f32())
            .compare()
            .unwrap();
        assert_eq!(agreement.reports.len(), 2);
        assert_eq!(agreement.pairwise.len(), 1);
        assert_eq!(agreement.failures.len(), 1);
        assert_eq!(agreement.failures[0].backend_name(), "dataflow");
        assert!(agreement.to_string().contains("FAILED"));
    }

    #[test]
    fn compare_errors_only_when_every_backend_fails() {
        let workload = WorkloadSpec::paper_grid(3, 3, 3000).build();
        let error = Simulation::new(workload)
            .backend(Backend::dataflow())
            .compare()
            .expect_err("the only backend fails, so compare must");
        assert_eq!(error.backend_name(), "dataflow");
    }

    #[test]
    fn batch_disambiguates_duplicate_backend_names() {
        use mffv_core::SolverOptions;
        let batch = Simulation::from_spec(&WorkloadSpec::quickstart())
            .tolerance(1e-10)
            .backend(Backend::dataflow())
            .backend(Backend::dataflow_with(
                SolverOptions::paper().without_vectorization(),
            ))
            .batch(2);
        assert!(batch.all_succeeded());
        let names: Vec<&str> = batch
            .outcomes
            .iter()
            .map(|o| o.report().unwrap().backend.as_str())
            .collect();
        assert_eq!(names, vec!["dataflow", "dataflow#2"]);
        assert!(batch.outcomes[1].label.ends_with("dataflow#2"));
    }

    #[test]
    fn batch_matches_the_serial_backends_bitwise() {
        let sim = Simulation::from_spec(&WorkloadSpec::quickstart())
            .tolerance(1e-10)
            .backend(Backend::host())
            .backend(Backend::dataflow());
        let batch = sim.batch(2);
        assert_eq!(batch.jobs(), 2);
        assert!(batch.all_succeeded());
        assert_eq!(batch.workers, 2);
        assert!(batch.latency.p95 >= batch.latency.p50);
        let serial: Vec<SolveReport> = all_reports(sim.run_all());
        for (outcome, reference) in batch.outcomes.iter().zip(serial.iter()) {
            let report = outcome.report().unwrap();
            assert_eq!(report.backend, reference.backend);
            let bits = |r: &SolveReport| -> Vec<u64> {
                r.pressure.as_slice().iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(report), bits(reference), "{}", report.backend);
        }
    }

    #[test]
    fn transient_runs_on_every_backend_and_respects_the_builder_knobs() {
        use mffv_mesh::workload::BoundarySpec;
        use mffv_mesh::{CellIndex, Well, WellSet};
        let workload = WorkloadSpec {
            name: "facade-transient".into(),
            boundary: BoundarySpec::None,
            dims: mffv_mesh::Dims::new(6, 6, 3),
            ..WorkloadSpec::quickstart()
        }
        .build();
        let spec = mffv_mesh::TransientSpec::new(2.0, 0.25, 1e-3)
            .with_wells(WellSet::empty().with(Well::rate("inj", CellIndex::new(2, 2, 1), 1.0)))
            .with_initial_pressure(1.0);
        let sim = Simulation::new(workload).tolerance(1e-18);

        let host = sim.transient(&spec).unwrap();
        assert_eq!(host.backend, "host-f64");
        assert_eq!(host.num_steps(), 8);
        assert!(host.all_converged());
        assert!(
            host.final_pressure().get(0) > 1.0,
            "injection raises pressure"
        );

        let outcomes = sim.transient_all(&spec);
        assert_eq!(outcomes.len(), 3);
        for (backend, outcome) in &outcomes {
            let report = outcome.as_ref().unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(report.num_steps(), 8, "{}", backend.name());
            // Device backends step in f32 but track the f64 oracle closely.
            assert!(
                report.final_pressure().max_abs_diff(host.final_pressure()) < 1e-3,
                "{} drifted from the host trajectory",
                backend.name()
            );
        }
    }

    #[test]
    fn transient_all_disambiguates_duplicate_backend_names() {
        use mffv_mesh::workload::BoundarySpec;
        use mffv_mesh::{CellIndex, Well, WellSet};
        let workload = WorkloadSpec {
            name: "transient-dup".into(),
            boundary: BoundarySpec::None,
            dims: mffv_mesh::Dims::new(4, 4, 2),
            ..WorkloadSpec::quickstart()
        }
        .build();
        let spec = mffv_mesh::TransientSpec::new(0.5, 0.25, 1e-3)
            .with_wells(WellSet::empty().with(Well::rate("inj", CellIndex::new(1, 1, 1), 1.0)))
            .with_initial_pressure(1.0);
        let outcomes = Simulation::new(workload)
            .tolerance(1e-16)
            .backend(Backend::dataflow())
            .backend(Backend::dataflow())
            .transient_all(&spec);
        let names: Vec<&str> = outcomes
            .iter()
            .map(|(_, o)| o.as_ref().unwrap().backend.as_str())
            .collect();
        assert_eq!(names, vec!["dataflow", "dataflow#2"]);
        assert!(outcomes[1].1.as_ref().unwrap().steps[0]
            .report
            .backend
            .ends_with("#2"));
    }

    #[test]
    fn multigrid_preconditioner_agrees_across_backends() {
        let agreement = Simulation::from_spec(&WorkloadSpec::quickstart())
            .tolerance(1e-10)
            .preconditioner(PreconditionerKind::Mg)
            .compare()
            .unwrap();
        assert_eq!(agreement.reports.len(), 3);
        assert!(
            agreement.max_pairwise_diff() < 1e-3,
            "MG-preconditioned backends disagree: {}",
            agreement.max_pairwise_diff()
        );
    }

    #[test]
    fn precision_selects_the_host_arithmetic() {
        let report = Simulation::from_spec(&WorkloadSpec::quickstart())
            .backend(Backend::host_f32())
            .tolerance(1e-9)
            .run()
            .unwrap();
        assert_eq!(report.backend, "host-f32");
    }
}
