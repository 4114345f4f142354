//! The worker-pool batch executor.
//!
//! [`Engine::run`] pushes queued jobs through a [`BoundedQueue`] to a pool
//! of scoped `std::thread` workers.  Each worker pops jobs, executes them
//! behind [`std::panic::catch_unwind`], and writes the outcome into a result
//! slot addressed by the job's submission index — so the returned
//! [`BatchReport`] lists outcomes in submission order no matter how many
//! workers ran or how execution interleaved, and a panicking job costs
//! exactly one result slot, never the pool.
//!
//! With a recording [`Tracer`] attached ([`Engine::with_tracer`]) the batch
//! emits a span tree — `engine-batch` → one span per job label →
//! `queue-wait` (opened at submission, closed at pop) and `execute` on the
//! executing worker's lane — whose aggregated *shape* is identical for any
//! worker count.  Per-worker busy/idle stats and a merged execution-latency
//! histogram land in the report either way, and optionally in an attached
//! [`MetricsRegistry`] ([`Engine::with_metrics`]).

use crate::job::{JobOutcome, JobSpec, JobStatus};
use crate::queue::BoundedQueue;
use crate::report::{BatchReport, WorkerStats};
use mffv_solver::backend::SolveRequest;
use mffv_solver::context::SolveContextCache;
use mffv_solver::monitor::{CancelToken, StopReason};
use mffv_telemetry::{LogHistogram, MetricsRegistry, Span, Stopwatch, Tracer};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};

/// One queued unit of work: the job plus its telemetry context.  The
/// `queue-wait` span is opened on the submitting thread and closed on the
/// worker that pops the job — span parentage travels in the value.
struct QueuedJob {
    index: usize,
    job: JobSpec,
    /// Started at submission; read at pop for `queue_wait_seconds`.
    queued: Stopwatch,
    /// Per-job root span (child of `engine-batch`, named by the job label).
    root: Span,
    /// Open `queue-wait` child, finished the moment a worker dequeues.
    wait: Span,
}

/// The concurrent batch-solve engine.
#[derive(Clone, Debug)]
pub struct Engine {
    workers: usize,
    queue_capacity: usize,
    cancel: Option<CancelToken>,
    tracer: Tracer,
    metrics: Option<MetricsRegistry>,
}

impl Engine {
    /// An engine with `workers` worker threads (at least 1) and a default
    /// queue bound of twice the worker count.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        Self {
            workers,
            queue_capacity: workers * 2,
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

    /// Override the job-queue bound (back-pressure on the submitting thread).
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Watch `token` for batch-level cancellation.  When the token trips,
    /// in-flight solves stop at their next iteration boundary and every job
    /// still queued is drained as [`JobStatus::Stopped`] with
    /// [`StopReason::Cancelled`] — the pool never blocks on a cancelled
    /// batch, and [`Engine::run`] still returns a complete, submission-
    /// ordered [`BatchReport`].
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

    /// Publish batch rollups (job counts by status, queue high-water, the
    /// merged execution-latency histogram) into `registry` after each run.
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

    /// Bound of the job queue.
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// Execute `jobs` across the worker pool and aggregate the results.
    ///
    /// Guarantees:
    /// * **deterministic ordering** — `report.outcomes[i]` is job `i`, for
    ///   any worker count;
    /// * **failure isolation** — a job that returns an error or panics is
    ///   reported as [`JobStatus::Failed`] / [`JobStatus::Panicked`] without
    ///   affecting other jobs or the pool;
    /// * **determinism of results** — each job materialises its own workload
    ///   from its spec and seed, so its report is bitwise identical to a
    ///   serial run of the same spec.
    pub fn run(&self, jobs: Vec<JobSpec>) -> BatchReport {
        let started = Stopwatch::start();
        let total = jobs.len();
        let batch_span = self.tracer.span("engine-batch");
        let queue: BoundedQueue<QueuedJob> = BoundedQueue::new(self.queue_capacity);
        let slots: Mutex<Vec<Option<JobOutcome>>> = Mutex::new((0..total).map(|_| None).collect());
        // An empty batch spawns no workers: there is nothing to pop, and a
        // phantom worker would report a `WorkerStats` row for work that never
        // existed.
        let spawned = if total == 0 {
            0
        } else {
            self.workers.min(total)
        };
        // Each worker folds its stats locally (no per-job contention) and
        // pushes one `(stats, histogram)` pair at shutdown.
        let worker_stats: Mutex<Vec<(WorkerStats, LogHistogram)>> =
            Mutex::new(Vec::with_capacity(spawned));

        std::thread::scope(|scope| {
            for worker in 0..spawned {
                let queue = &queue;
                let slots = &slots;
                let worker_stats = &worker_stats;
                scope.spawn(move || {
                    let mut local = WorkerStats {
                        worker,
                        jobs: 0,
                        busy_seconds: 0.0,
                    };
                    let mut exec_hist = LogHistogram::new();
                    // One warm solve context per worker, reused across jobs
                    // (results are bitwise identical to fresh-context runs).
                    let mut context_cache = SolveContextCache::new();
                    while let Some(item) = queue.pop() {
                        let queue_wait = item.queued.elapsed_seconds();
                        item.wait.finish();
                        // A tripped batch token drains the queue instead of
                        // blocking the pool: jobs that never started report
                        // `Stopped(Cancelled)` with no partial state (and no
                        // execution latency — only their real queue wait).
                        let outcome = if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
                        {
                            JobOutcome {
                                index: item.index,
                                label: item.job.label(),
                                status: JobStatus::Stopped {
                                    reason: StopReason::Cancelled,
                                    report: None,
                                },
                                queue_wait_seconds: queue_wait,
                                exec_seconds: 0.0,
                            }
                        } else {
                            let exec_span = item.root.child_on_lane("execute", worker as u32 + 1);
                            let outcome = execute_job(
                                item.index,
                                item.job,
                                self.cancel.as_ref(),
                                &exec_span,
                                queue_wait,
                                &mut context_cache,
                            );
                            exec_span.finish();
                            local.busy_seconds += outcome.exec_seconds;
                            exec_hist.record(outcome.exec_seconds);
                            outcome
                        };
                        local.jobs += 1;
                        let index = outcome.index;
                        let mut slots = slots.lock().unwrap_or_else(PoisonError::into_inner);
                        slots[index] = Some(outcome);
                    }
                    if let Some(metrics) = &self.metrics {
                        let stats = context_cache.stats();
                        metrics.add("engine.context.hits", stats.hits);
                        metrics.add("engine.context.misses", stats.misses);
                        metrics.add("engine.context.scratch_reallocs", stats.scratch_reallocs);
                    }
                    let mut stats = worker_stats.lock().unwrap_or_else(PoisonError::into_inner);
                    stats.push((local, exec_hist));
                });
            }
            for (index, job) in jobs.into_iter().enumerate() {
                let root = batch_span.child(&job.label());
                let wait = root.child("queue-wait");
                queue.push(QueuedJob {
                    index,
                    job,
                    queued: Stopwatch::start(),
                    root,
                    wait,
                });
            }
            queue.close();
        });

        let queue_high_water = queue.high_water();
        let outcomes: Vec<JobOutcome> = slots
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .into_iter()
            // audit: allow(panic) — invariant: queue.close() plus the scope
            // join guarantee every submitted index was popped and its slot
            // written before we get here (panicking jobs are caught earlier).
            .map(|slot| slot.expect("every queued job writes its result slot"))
            .collect();
        let mut per_worker = worker_stats
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        per_worker.sort_by_key(|(stats, _)| stats.worker);
        let mut exec_histogram = LogHistogram::new();
        for (_, hist) in &per_worker {
            exec_histogram.merge(hist);
        }
        batch_span.finish();
        let report = BatchReport::new(outcomes, spawned, started.elapsed_seconds())
            .with_engine_stats(
                per_worker.into_iter().map(|(stats, _)| stats).collect(),
                exec_histogram,
                queue_high_water,
            );
        if let Some(metrics) = &self.metrics {
            metrics.add("engine.jobs.submitted", report.jobs() as u64);
            metrics.add("engine.jobs.ok", report.succeeded() as u64);
            metrics.add("engine.jobs.stopped", report.stopped() as u64);
            metrics.add("engine.jobs.failed", report.failed() as u64);
            metrics.max_gauge("engine.queue.high_water", report.queue_high_water as f64);
            metrics.merge_histogram("engine.exec_seconds", &report.exec_histogram);
        }
        report
    }
}

/// Run one job behind panic isolation on the worker's warm `cache`, timing
/// its execution.  The engine's cancel token joins the job's own stop
/// policy; an early-stopped solve (job policy or batch cancellation) becomes
/// [`JobStatus::Stopped`] carrying the partial report.
fn execute_job(
    index: usize,
    job: JobSpec,
    engine_token: Option<&CancelToken>,
    span: &Span,
    queue_wait_seconds: f64,
    cache: &mut SolveContextCache,
) -> JobOutcome {
    let job = with_engine_token(job, engine_token);
    let label = job.label();
    let started = Stopwatch::start();
    let status = status_from_result(catch_unwind(AssertUnwindSafe(|| {
        job.execute(&mut SolveRequest::new().span(span).cache(cache))
    })));
    JobOutcome {
        index,
        label,
        status,
        queue_wait_seconds,
        exec_seconds: started.elapsed_seconds(),
    }
}

/// `job` with the engine's cancel token added to its stop policy, so a
/// tripped token stops the in-flight solve at its next iteration boundary.
pub(crate) fn with_engine_token(mut job: JobSpec, token: Option<&CancelToken>) -> JobSpec {
    if let Some(token) = token {
        job.stop_policy = job.stop_policy.cancel_token(token.clone());
    }
    job
}

/// Map a panic-isolated execution result onto a [`JobStatus`]: early stops
/// (policy, deadline, cancellation) are `Stopped`, typed backend errors are
/// `Failed`, and a caught panic becomes `Panicked` with its message.  Shared
/// by the batch workers above and the persistent service workers
/// ([`crate::service`]).
pub(crate) fn status_from_result(
    result: std::thread::Result<
        Result<mffv_solver::backend::SolveReport, mffv_solver::backend::SolveError>,
    >,
) -> JobStatus {
    match result {
        Ok(Ok(report)) => match report.stopped {
            Some(reason) => JobStatus::Stopped {
                reason,
                report: Some(report),
            },
            None => JobStatus::Completed(report),
        },
        Ok(Err(error)) => match error.stop_reason() {
            Some(reason) => JobStatus::Stopped {
                reason,
                report: None,
            },
            None => JobStatus::Failed(error),
        },
        Err(payload) => JobStatus::Panicked(panic_message(payload.as_ref())),
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Backend;
    use mffv_mesh::WorkloadSpec;

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
    fn worker_and_queue_floors() {
        let engine = Engine::new(0).with_queue_capacity(0);
        assert_eq!(engine.workers(), 1);
        assert_eq!(engine.queue_capacity(), 1);
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
        assert!(report.queue_high_water <= Engine::new(3).queue_capacity());
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
        let registry = MetricsRegistry::new();
        let report = Engine::new(2)
            .with_metrics(registry.clone())
            .run(tiny_jobs(3));
        assert!(report.all_succeeded());
        assert_eq!(registry.counter("engine.jobs.submitted"), 3);
        assert_eq!(registry.counter("engine.jobs.ok"), 3);
        assert_eq!(registry.counter("engine.jobs.failed"), 0);
        assert!(registry.gauge("engine.queue.high_water").unwrap() >= 1.0);
        assert_eq!(
            registry.histogram("engine.exec_seconds").unwrap().count(),
            3
        );
    }
}
