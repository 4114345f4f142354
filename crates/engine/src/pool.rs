//! The [`Engine`] configuration and its batch front.
//!
//! [`Engine::run`] is a batch client of the engine's one worker pool
//! ([`crate::service`]): it starts a service sized to the batch, submits
//! every job through [`EngineService::submit`], drains, and files
//! each outcome by its ticket.  A fresh service numbers its tickets `0..n` in
//! submission order, so the ticket is the job's index and the returned
//! [`BatchReport`] lists outcomes in submission order no matter how many
//! workers ran or how execution interleaved; a panicking job costs exactly
//! one outcome, never the pool.
//!
//! With a recording [`Tracer`] attached ([`Engine::with_tracer`]) the batch
//! emits a span tree — `engine-batch` → one span per job label →
//! `queue-wait` (opened at submission, closed at pop) and `execute` on the
//! executing worker's lane — whose aggregated *shape* is identical for any
//! worker count.  Per-worker busy/idle stats and a merged execution-latency
//! histogram land in the report either way, and an attached
//! [`MetricsRegistry`] ([`Engine::with_metrics`]) receives the same
//! `engine.service.*` and `engine.context.*` metrics as the daemon's.
//!
//! [`EngineService::submit`]: crate::EngineService::submit

use crate::job::{JobOutcome, JobSpec};
use crate::report::BatchReport;
use crate::service::{ServiceJob, ShutdownMode};
use mffv_solver::monitor::CancelToken;
use mffv_telemetry::{LogHistogram, MetricsRegistry, Stopwatch, Tracer};
use std::sync::mpsc;

/// The concurrent batch-solve engine.
#[derive(Clone, Debug)]
pub struct Engine {
    workers: usize,
    cancel: Option<CancelToken>,
    tracer: Tracer,
    metrics: Option<MetricsRegistry>,
}

impl Engine {
    /// An engine with `workers` worker threads (at least 1).
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
            cancel: None,
            tracer: Tracer::disabled(),
            metrics: None,
        }
    }

    /// An engine sized to the machine: one worker per available hardware
    /// thread (1 when parallelism cannot be determined).
    pub fn with_available_parallelism() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::new(workers)
    }

    /// Watch `token` for batch-level cancellation.  When the token trips,
    /// in-flight solves stop at their next iteration boundary and every job
    /// still queued is drained as
    /// [`JobStatus::Stopped`](crate::JobStatus::Stopped) with
    /// [`StopReason::Cancelled`](crate::StopReason::Cancelled) — the pool
    /// never blocks on a cancelled batch, and [`Engine::run`] still returns
    /// a complete, submission-ordered [`BatchReport`].
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Record batch execution as a span tree under `tracer`.  A disabled
    /// tracer (the default) keeps every span operation a no-op; job results
    /// are bitwise identical either way.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Publish the workers' metrics into `registry` as jobs run:
    /// `engine.service.jobs.*` counts by status, the
    /// `engine.service.queue.high_water` gauge, the
    /// `engine.service.exec_seconds` histogram and the `engine.context.*`
    /// counters.
    pub fn with_metrics(mut self, registry: MetricsRegistry) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The tracer attached with [`with_tracer`](Self::with_tracer) (disabled
    /// by default).
    pub(crate) fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The metrics registry attached with
    /// [`with_metrics`](Self::with_metrics), if any.
    pub(crate) fn metrics(&self) -> Option<&MetricsRegistry> {
        self.metrics.as_ref()
    }

    /// The batch-level cancel token attached with
    /// [`with_cancel_token`](Self::with_cancel_token), if any.
    pub(crate) fn cancel(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// Execute `jobs` across the worker pool and aggregate the results.
    ///
    /// Guarantees:
    /// * **deterministic ordering** — `report.outcomes[i]` is job `i`, for
    ///   any worker count;
    /// * **failure isolation** — a job that returns an error or panics is
    ///   reported as [`JobStatus::Failed`](crate::JobStatus::Failed) /
    ///   [`JobStatus::Panicked`](crate::JobStatus::Panicked) without
    ///   affecting other jobs or the pool;
    /// * **determinism of results** — each job materialises its own workload
    ///   from its spec and seed, so its report is bitwise identical to a
    ///   serial run of the same spec.
    pub fn run(&self, jobs: Vec<JobSpec>) -> BatchReport {
        let started = Stopwatch::start();
        let total = jobs.len();
        // An empty batch starts no workers: there is nothing to pop, and a
        // phantom worker would report a `WorkerStats` row for work that never
        // existed.
        let workers = self.workers.min(total);
        let service = self.start_pool(workers, Some(self.tracer.span("engine-batch")));
        let (sender, receiver) = mpsc::channel();
        for job in jobs {
            let sender = sender.clone();
            let submitted = service.submit(ServiceJob::new(job, move |outcome| {
                // The receiver outlives the workers, so the send cannot fail.
                let _ = sender.send(outcome);
            }));
            // audit: allow(panic) — invariant: only `join` or dropping the
            // service closes its queue, and neither has happened yet.
            assert!(submitted.is_ok(), "a fresh service accepts every job");
        }
        drop(sender);
        let queue_high_water = service.queue_high_water();
        let (worker_stats, histograms): (Vec<_>, Vec<_>) =
            service.join(ShutdownMode::Drain).into_iter().unzip();
        let mut exec_histogram = LogHistogram::new();
        for hist in &histograms {
            exec_histogram.merge(hist);
        }
        let mut slots: Vec<Option<JobOutcome>> = (0..total).map(|_| None).collect();
        for outcome in receiver {
            let index = outcome.index;
            slots[index] = Some(outcome);
        }
        let outcomes = slots
            .into_iter()
            // audit: allow(panic) — invariant: Drain joins every worker, and a
            // worker fires each popped job's `on_done` before popping again.
            .map(|slot| slot.expect("every submitted job reports its outcome"))
            .collect();
        BatchReport::new(outcomes, workers, started.elapsed_seconds()).with_engine_stats(
            worker_stats,
            exec_histogram,
            queue_high_water,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Backend;
    use crate::StopPolicy;
    use mffv_mesh::{PermeabilityModel, WorkloadSpec};
    use mffv_solver::backend::SolveRequest;

    fn tiny_jobs(n: usize) -> Vec<JobSpec> {
        (0..n)
            .map(|i| {
                JobSpec::new(
                    WorkloadSpec::quickstart().scaled(2 + (i % 2)),
                    Backend::host(),
                )
            })
            .collect()
    }

    #[test]
    fn outcomes_keep_submission_order_for_any_worker_count() {
        let jobs = tiny_jobs(6);
        for workers in [1, 3, 8] {
            let report = Engine::new(workers).run(jobs.clone());
            assert_eq!(report.outcomes.len(), 6);
            for (i, outcome) in report.outcomes.iter().enumerate() {
                assert_eq!(outcome.index, i);
                assert_eq!(outcome.label, jobs[i].label());
                assert!(outcome.is_success(), "{:?}", outcome.failure());
            }
        }
    }

    #[test]
    fn invalid_jobs_fail_at_intake_without_stopping_the_batch() {
        let mut jobs = tiny_jobs(3);
        jobs.insert(
            1,
            JobSpec::new(
                WorkloadSpec {
                    max_iterations: 0,
                    ..WorkloadSpec::quickstart()
                },
                Backend::host(),
            ),
        );
        let report = Engine::new(2).run(jobs);
        assert_eq!(report.succeeded(), 3);
        assert_eq!(report.failed(), 1);
        let failure = report.outcomes[1].failure().unwrap();
        assert!(failure.contains("max_iterations"), "{failure}");
    }

    #[test]
    fn an_empty_batch_reports_zero_jobs_and_spawns_no_workers() {
        let report = Engine::new(4).run(Vec::new());
        assert_eq!(report.jobs(), 0);
        assert!(report.all_succeeded());
        assert_eq!(report.latency.samples, 0);
        // No phantom workers: nothing ran, so no WorkerStats rows either.
        assert_eq!(report.workers, 0);
        assert!(report.worker_stats.is_empty());
        assert_eq!(report.exec_histogram.count(), 0);
    }

    #[test]
    fn context_pooling_is_bitwise_invisible_and_counted() {
        // Two specs alternating across one worker: every switch is a cache
        // miss, every repeat a hit; outcomes must be bitwise identical to
        // serial fresh-context executions.
        let jobs = tiny_jobs(6);
        let registry = MetricsRegistry::new();
        let pooled = Engine::new(1)
            .with_metrics(registry.clone())
            .run(jobs.clone());
        assert!(pooled.all_succeeded());
        for (outcome, job) in pooled.outcomes.iter().zip(&jobs) {
            let pooled = outcome.report().unwrap();
            let fresh = job.execute(&mut SolveRequest::new()).unwrap();
            assert_eq!(
                pooled.history.residual_norms_squared,
                fresh.history.residual_norms_squared
            );
            let bits = |r: &mffv_solver::backend::SolveReport| -> Vec<u64> {
                r.pressure.as_slice().iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(pooled), bits(&fresh));
        }
        // tiny_jobs alternates two specs, so a single worker alternates
        // miss/hit; at minimum the first job of each spec misses.
        let hits = registry.counter("engine.context.hits");
        let misses = registry.counter("engine.context.misses");
        assert!(misses >= 2, "misses = {misses}");
        assert_eq!(hits + misses, 2 * 6, "workload + context lookups per job");
    }

    #[test]
    fn worker_floors() {
        assert_eq!(Engine::new(0).workers(), 1);
        assert!(Engine::with_available_parallelism().workers() >= 1);
    }

    #[test]
    fn engine_stats_cover_every_worker_and_job() {
        let report = Engine::new(3).run(tiny_jobs(5));
        assert_eq!(report.worker_stats.len(), 3);
        let jobs: usize = report.worker_stats.iter().map(|w| w.jobs).sum();
        assert_eq!(jobs, 5);
        assert_eq!(report.exec_histogram.count(), 5);
        assert!(report.queue_high_water >= 1);
        assert!(report.queue_high_water <= 5);
        for (i, w) in report.worker_stats.iter().enumerate() {
            assert_eq!(w.worker, i);
            assert!(w.busy_seconds <= report.busy_seconds() + 1e-9);
        }
    }

    #[test]
    fn traced_batches_emit_a_span_per_job_with_wait_and_execute_children() {
        let tracer = Tracer::new();
        let jobs = tiny_jobs(4);
        let report = Engine::new(2).with_tracer(tracer.clone()).run(jobs.clone());
        assert!(report.all_succeeded());
        let tree = tracer.phase_tree();
        let batch = tree.find("engine-batch").expect("batch span");
        for job in &jobs {
            let job_node = batch.find(&job.label()).expect("per-job span");
            assert!(job_node.find("queue-wait").is_some());
            assert!(job_node.find("execute").is_some());
        }
    }

    #[test]
    fn metrics_registry_collects_batch_rollups() {
        let spec = WorkloadSpec::quickstart().scaled(2);
        let completed = JobSpec::new(spec.clone(), Backend::host());
        let stopped = JobSpec::new(spec.clone(), Backend::host())
            .with_stop_policy(StopPolicy::new().iteration_budget(3));
        let invalid = JobSpec::new(
            WorkloadSpec {
                max_iterations: 0,
                ..spec.clone()
            },
            Backend::host(),
        );
        // An empty layer list passes intake but panics on the worker.
        let panicking = JobSpec::new(
            WorkloadSpec {
                permeability: PermeabilityModel::Layered {
                    layer_values: Vec::new(),
                },
                ..spec
            },
            Backend::host(),
        );
        let registry = MetricsRegistry::new();
        let report = Engine::new(2)
            .with_metrics(registry.clone())
            .run(vec![completed, stopped, invalid, panicking]);
        let labels: Vec<&str> = report.outcomes.iter().map(|o| o.status_label()).collect();
        assert_eq!(labels, ["ok", "stopped", "failed", "panicked"]);
        // Batches publish under the daemon's namespace, panics included.
        for (status, count) in [
            ("submitted", 4),
            ("ok", 1),
            ("stopped", 1),
            ("failed", 1),
            ("panicked", 1),
        ] {
            let name = format!("engine.service.jobs.{status}");
            assert_eq!(registry.counter(&name), count, "{name}");
        }
        // Nothing lands outside the one namespace.
        let snapshot = registry.snapshot();
        let names = snapshot
            .counters
            .iter()
            .map(|(name, _)| name)
            .chain(snapshot.gauges.iter().map(|(name, _)| name))
            .chain(snapshot.histograms.iter().map(|(name, _)| name));
        for name in names {
            assert!(
                name.starts_with("engine.service.") || name.starts_with("engine.context."),
                "{name}"
            );
        }
        assert!(registry.gauge("engine.service.queue.high_water").unwrap() >= 1.0);
        assert_eq!(
            registry
                .histogram("engine.service.exec_seconds")
                .unwrap()
                .count(),
            4
        );
    }
}
