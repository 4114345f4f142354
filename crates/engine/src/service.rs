//! The engine's one worker pool, and its persistent front.
//!
//! [`Engine::start`] spawns the workers once and keeps them alive behind an
//! [`EngineService`] handle; jobs arrive one at a time through
//! [`EngineService::submit`], which queues the job and returns at once (each
//! producer bounds its own input, see [`crate::queue`]).  Each submitted job
//! carries its own completion callback and, optionally, a live
//! [`SolveEvent`] observer — the hook a solve daemon uses to stream
//! convergence over a socket while the solve runs.  [`Engine::run`] is a
//! batch client of the same pool: it starts a service sized to the batch,
//! submits every job and drains.
//!
//! Every worker runs the same loop: pop a job, close its `queue-wait` span,
//! run it behind [`catch_unwind`] on the worker's warm
//! [`SolveContextCache`] (an `execute` span on the worker's lane), publish
//! the `engine.service.*` and `engine.context.*` metrics, and hand the
//! [`JobOutcome`] to the job's callback.  A panicking job or callback costs
//! one outcome, never the worker.
//!
//! Shutdown is explicit and two-flavoured ([`EngineService::shutdown`],
//! callable through a shared handle):
//!
//! * [`ShutdownMode::Drain`] — refuse new submissions, let every queued job
//!   run to completion, then join the workers (the SIGTERM path: nothing
//!   accepted is dropped);
//! * [`ShutdownMode::Abort`] — additionally trip the service-wide
//!   [`CancelToken`], so in-flight solves stop at their next iteration
//!   boundary and still-queued jobs complete as
//!   [`JobStatus::Stopped`]/[`StopReason::Cancelled`] (their callbacks still
//!   fire — nothing is silently lost).
//!
//! Dropping the handle without a shutdown closes the queue: the workers
//! finish what is queued and exit, unjoined.

use crate::job::{JobOutcome, JobSpec, JobStatus};
use crate::pool::Engine;
use crate::queue::JobQueue;
use crate::report::WorkerStats;
use mffv_solver::backend::{SolveError, SolveReport, SolveRequest};
use mffv_solver::context::{ContextStats, SolveContextCache};
use mffv_solver::monitor::{monitor_fn, CancelToken, Flow, SolveEvent, SolveMonitor, StopReason};
use mffv_telemetry::{MetricsRegistry, Span, Stopwatch, Tracer};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

/// How [`EngineService::shutdown`] winds the pool down.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShutdownMode {
    /// Stop accepting, finish everything already queued, then join.
    Drain,
    /// Stop accepting, cancel in-flight and queued jobs, then join.
    Abort,
}

/// A live [`SolveEvent`] observer attached to a [`ServiceJob`].
pub type EventObserver = Box<dyn FnMut(&SolveEvent) -> Flow + Send>;

/// One unit of service work: the [`JobSpec`] plus its delivery callbacks.
///
/// `on_event` (optional) observes the live [`SolveEvent`] stream on the
/// worker thread — bitwise the recorded convergence history — and may stop
/// the solve by returning [`Flow::Stop`].  `on_done` always fires exactly
/// once, on the worker, with the job's [`JobOutcome`]; it runs behind the
/// same panic isolation as the job itself.
pub struct ServiceJob {
    /// The solve to run.
    pub job: JobSpec,
    /// Live event observer, called at every iteration boundary.
    pub on_event: Option<EventObserver>,
    /// Completion callback (fires exactly once per accepted job).
    pub on_done: Box<dyn FnOnce(JobOutcome) + Send>,
}

impl ServiceJob {
    /// A service job delivering its outcome to `on_done`.
    pub fn new(job: JobSpec, on_done: impl FnOnce(JobOutcome) + Send + 'static) -> Self {
        Self {
            job,
            on_event: None,
            on_done: Box::new(on_done),
        }
    }

    /// Attach a live event observer.
    pub fn with_events(
        mut self,
        on_event: impl FnMut(&SolveEvent) -> Flow + Send + 'static,
    ) -> Self {
        self.on_event = Some(Box::new(on_event));
        self
    }
}

/// One queued job plus its telemetry context.  The `queue-wait` span is
/// opened on the submitting thread and closed on the worker that pops the
/// job — span parentage travels in the value.
struct QueuedServiceJob {
    ticket: usize,
    job: ServiceJob,
    /// Started at submission; read at pop for `queue_wait_seconds`.
    queued: Stopwatch,
    /// The job's label span.
    root: Span,
    /// Open `queue-wait` child, finished the moment a worker dequeues.
    wait: Span,
}

struct ServiceShared {
    queue: JobQueue<QueuedServiceJob>,
    /// Tripped by [`ShutdownMode::Abort`] or the batch's own token; threaded
    /// into every job as its engine token, so in-flight solves stop at the
    /// next boundary.
    cancel: CancelToken,
    metrics: Option<MetricsRegistry>,
}

/// Handle to a started engine service: submit jobs, shut down.  Both take
/// `&self`, so one handle can be shared by every submitting thread.
/// Dropping the handle without calling [`shutdown`](EngineService::shutdown)
/// closes the queue: the workers finish what is queued and exit, unjoined.
pub struct EngineService {
    shared: Arc<ServiceShared>,
    /// Taken (left empty) by the first shutdown.
    workers: Mutex<Vec<JoinHandle<WorkerStats>>>,
    tracer: Tracer,
    /// Parent of every job's label span: `engine-batch` for a batch; `None`
    /// roots each job's span at the tracer.
    parent: Option<Span>,
    next_ticket: AtomicUsize,
}

impl Engine {
    /// Start the engine in persistent service mode: `workers()` threads over
    /// one job queue, inheriting the engine's tracer, metrics registry and
    /// (if configured) cancel token.
    pub fn start(&self) -> EngineService {
        self.start_pool(self.workers(), None)
    }

    /// [`start`](Self::start) with `workers` threads, opening every job's
    /// span under `parent` when one is given.
    pub(crate) fn start_pool(&self, workers: usize, parent: Option<Span>) -> EngineService {
        let shared = Arc::new(ServiceShared {
            queue: JobQueue::new(),
            cancel: self.cancel().cloned().unwrap_or_default(),
            metrics: self.metrics().cloned(),
        });
        let workers = (0..workers)
            .map(|worker| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared, worker))
            })
            .collect();
        EngineService {
            shared,
            workers: Mutex::new(workers),
            tracer: self.tracer().clone(),
            parent,
            next_ticket: AtomicUsize::new(0),
        }
    }
}

impl EngineService {
    /// Queue `job` without blocking.  Returns the job's ticket — its
    /// submission index on this service, which its [`JobOutcome::index`]
    /// carries — or hands the job back unexecuted when the service is
    /// shutting down.
    // Handing the whole job back by value is the point of the Err: the
    // caller keeps its callbacks to reply with.
    #[allow(clippy::result_large_err)]
    pub fn submit(&self, job: ServiceJob) -> Result<usize, ServiceJob> {
        let ticket = self.next_ticket.fetch_add(1, Ordering::SeqCst);
        let label = job.job.label();
        let root = match &self.parent {
            Some(parent) => parent.child(&label),
            None => self.tracer.span(&label),
        };
        let wait = root.child("queue-wait");
        self.shared
            .queue
            .push(QueuedServiceJob {
                ticket,
                job,
                queued: Stopwatch::start(),
                root,
                wait,
            })
            .map_err(|item| item.job)?;
        if let Some(metrics) = &self.shared.metrics {
            metrics.inc("engine.service.jobs.submitted");
            metrics.max_gauge(
                "engine.service.queue.high_water",
                self.queue_high_water() as f64,
            );
        }
        Ok(ticket)
    }

    /// Largest number of jobs ever queued at once.
    pub(crate) fn queue_high_water(&self) -> usize {
        self.shared.queue.high_water()
    }

    /// Shut the service down.  [`ShutdownMode::Drain`] finishes everything
    /// queued; [`ShutdownMode::Abort`] cancels in-flight and queued jobs
    /// (their `on_done` callbacks still fire, as `Stopped(Cancelled)`).
    /// Joins every worker before returning; a later call finds none left.
    pub fn shutdown(&self, mode: ShutdownMode) {
        self.join(mode);
    }

    /// [`shutdown`](Self::shutdown), returning each joined worker's
    /// busy/idle stats in worker order.
    pub(crate) fn join(&self, mode: ShutdownMode) -> Vec<WorkerStats> {
        if matches!(mode, ShutdownMode::Abort) {
            self.shared.cancel.cancel();
        }
        self.shared.queue.close();
        self.workers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain(..)
            // A worker that panicked outside job isolation has already lost
            // its thread and its stats; joining the rest is still the right
            // cleanup.
            .filter_map(|handle| handle.join().ok())
            .collect()
    }
}

impl Drop for EngineService {
    fn drop(&mut self) {
        // Without this, a handle dropped before `shutdown` would leave every
        // worker parked in `pop` forever, holding its context cache.
        self.shared.queue.close();
    }
}

/// The one worker loop, shared by the daemon's service and
/// [`Engine::run`].
fn worker_loop(shared: &ServiceShared, worker: usize) -> WorkerStats {
    let mut worker_stats = WorkerStats {
        worker,
        jobs: 0,
        busy_seconds: 0.0,
    };
    // One warm solve context per worker, kept across jobs for the lifetime
    // of the pool: after the first job of a spec, repeats reuse the
    // operator, preconditioner and CG scratch (results are bitwise identical
    // to fresh-context runs).
    let mut context_cache = SolveContextCache::new();
    let mut last_context_stats = ContextStats::default();
    while let Some(item) = shared.queue.pop() {
        let QueuedServiceJob {
            ticket,
            job: service_job,
            queued,
            root,
            wait,
        } = item;
        let queue_wait_seconds = queued.elapsed_seconds();
        wait.finish();
        let ServiceJob {
            job,
            mut on_event,
            on_done,
        } = service_job;
        let label = job.label();
        let (status, exec_seconds) = if shared.cancel.is_cancelled() {
            // A tripped token drains the queue instead of solving: jobs that
            // never started report `Stopped(Cancelled)` with no partial
            // state and no execution latency — only their real queue wait.
            let status = JobStatus::Stopped {
                reason: StopReason::Cancelled,
                report: None,
            };
            (status, 0.0)
        } else {
            let exec_span = root.child_on_lane("execute", worker as u32 + 1);
            let started = Stopwatch::start();
            let job = with_engine_token(job, &shared.cancel);
            let result = catch_unwind(AssertUnwindSafe(|| {
                let mut streamer = on_event
                    .as_mut()
                    .map(|callback| monitor_fn(|event: &SolveEvent| callback(event)));
                job.execute(&mut SolveRequest {
                    monitor: streamer.as_mut().map(|s| s as &mut dyn SolveMonitor),
                    span: &exec_span,
                    cache: Some(&mut context_cache),
                })
            }));
            exec_span.finish();
            let exec_seconds = started.elapsed_seconds();
            worker_stats.busy_seconds += exec_seconds;
            if let Some(metrics) = &shared.metrics {
                metrics.observe("engine.service.exec_seconds", exec_seconds);
            }
            (status_from_result(result), exec_seconds)
        };
        worker_stats.jobs += 1;
        root.finish();
        if let Some(metrics) = &shared.metrics {
            let key = match &status {
                JobStatus::Completed(_) => "engine.service.jobs.ok",
                JobStatus::Stopped { .. } => "engine.service.jobs.stopped",
                JobStatus::Failed(_) => "engine.service.jobs.failed",
                JobStatus::Panicked(_) => "engine.service.jobs.panicked",
            };
            metrics.inc(key);
            // Publish per-job context-cache deltas, so a long-lived
            // service's counters stay live rather than appearing only at
            // worker exit.
            let stats = context_cache.stats();
            metrics.add("engine.context.hits", stats.hits - last_context_stats.hits);
            metrics.add(
                "engine.context.misses",
                stats.misses - last_context_stats.misses,
            );
            metrics.add(
                "engine.context.scratch_reallocs",
                stats.scratch_reallocs - last_context_stats.scratch_reallocs,
            );
            last_context_stats = stats;
        }
        let outcome = JobOutcome {
            index: ticket,
            label,
            status,
            queue_wait_seconds,
            exec_seconds,
        };
        // Completion callbacks get the same isolation as jobs: a panicking
        // callback must not take the worker down with it.
        let _ = catch_unwind(AssertUnwindSafe(move || (on_done)(outcome)));
    }
    worker_stats
}

/// `job` with the service's cancel token added to its stop policy, so a
/// tripped token stops the in-flight solve at its next iteration boundary.
fn with_engine_token(mut job: JobSpec, token: &CancelToken) -> JobSpec {
    job.stop_policy = job.stop_policy.cancel_token(token.clone());
    job
}

/// Map a panic-isolated execution result onto a [`JobStatus`]: early stops
/// (policy, deadline, cancellation) are `Stopped`, typed backend errors are
/// `Failed`, and a caught panic becomes `Panicked` with its message.
fn status_from_result(result: std::thread::Result<Result<SolveReport, SolveError>>) -> JobStatus {
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
    use mffv_mesh::workload::BoundarySpec;
    use mffv_mesh::{CellIndex, Dims, TransientSpec, Well, WellSet, WorkloadSpec};
    use std::sync::mpsc;
    use std::time::Duration;

    fn quick_job() -> JobSpec {
        JobSpec::new(WorkloadSpec::quickstart().scaled(2), Backend::host())
    }

    #[test]
    fn service_executes_jobs_and_delivers_outcomes() {
        let service = Engine::new(2).start();
        let (tx, rx) = mpsc::channel();
        for ticket in 0..4 {
            let tx = tx.clone();
            let submitted = service.submit(ServiceJob::new(quick_job(), move |outcome| {
                tx.send(outcome).ok();
            }));
            assert_eq!(submitted.ok(), Some(ticket));
        }
        let outcomes: Vec<JobOutcome> = (0..4).map(|_| rx.recv().unwrap()).collect();
        assert!(outcomes.iter().all(|o| o.is_success()));
        service.shutdown(ShutdownMode::Drain);
    }

    /// A job only a cancel can end: 10⁶ transient steps on a 4×4×2 grid,
    /// each a cold-started CG capped at 20 iterations, far short of its
    /// 1e-300 tolerance.  An injector with no Dirichlet boundary keeps the
    /// pressure rising, so every step iterates.  A steady solve cannot plug
    /// a worker: even at 1e-30 it converges within milliseconds.
    fn plug_job() -> JobSpec {
        let workload = WorkloadSpec {
            name: "plug-4x4x2".to_string(),
            dims: Dims::new(4, 4, 2),
            boundary: BoundarySpec::None,
            tolerance: 1e-300,
            max_iterations: 20,
            ..WorkloadSpec::quickstart()
        };
        let injector = Well::rate("inj", CellIndex::new(1, 1, 0), 1.0);
        let transient = TransientSpec::new(1e6, 1.0, 1e-3)
            .with_wells(WellSet::empty().with(injector))
            .with_initial_pressure(0.0)
            .cold_start();
        JobSpec::transient(workload, Backend::host(), transient)
    }

    #[test]
    fn abort_stops_the_in_flight_job_and_drains_the_queue_unexecuted() {
        // One worker plugged by a job only the abort can end, two quick
        // jobs queued behind it.
        let registry = MetricsRegistry::new();
        let service = Engine::new(1).with_metrics(registry.clone()).start();
        let (tx, rx) = mpsc::channel();
        let slow = plug_job();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let plug_tx = tx.clone();
        service
            .submit(
                ServiceJob::new(slow, move |o| {
                    plug_tx.send(o).ok();
                })
                .with_events(move |_| {
                    started_tx.send(()).ok();
                    Flow::Continue
                }),
            )
            .ok()
            .expect("plug accepted");
        // Wait until the plug is actually executing (first event), so the
        // next submissions stay queued.
        started_rx.recv().unwrap();
        for _ in 0..2 {
            let tx = tx.clone();
            service
                .submit(ServiceJob::new(quick_job(), move |o| {
                    tx.send(o).ok();
                }))
                .ok()
                .expect("accepted");
        }
        service.shutdown(ShutdownMode::Abort);
        let outcomes: Vec<JobOutcome> = rx.try_iter().collect();
        assert_eq!(outcomes.len(), 3);
        for outcome in &outcomes {
            assert_eq!(outcome.stop_reason(), Some(StopReason::Cancelled));
        }
        let plug = &outcomes[0];
        assert_eq!(plug.index, 0);
        assert!(
            plug.partial_report().is_some(),
            "abort cancels the plug mid-solve"
        );
        assert!(plug.exec_seconds > 0.0);
        for queued in &outcomes[1..] {
            assert!(queued.partial_report().is_none());
            assert_eq!(queued.exec_seconds, 0.0);
        }
        // Only the job that ran has an execution latency.
        let exec = registry.histogram("engine.service.exec_seconds").unwrap();
        assert_eq!(exec.count(), 1);
        assert_eq!(exec.clamped(), 0);
        assert_eq!(registry.counter("engine.service.jobs.stopped"), 3);
    }

    #[test]
    fn drain_shutdown_finishes_queued_jobs() {
        let service = Engine::new(1).start();
        let (tx, rx) = mpsc::channel();
        for _ in 0..3 {
            let tx = tx.clone();
            service
                .submit(ServiceJob::new(quick_job(), move |o| {
                    tx.send(o).ok();
                }))
                .ok()
                .expect("accepted");
        }
        service.shutdown(ShutdownMode::Drain);
        let outcomes: Vec<JobOutcome> = rx.try_iter().collect();
        assert_eq!(outcomes.len(), 3);
        assert!(outcomes.iter().all(|o| o.is_success()));
    }

    #[test]
    fn submissions_after_shutdown_begin_are_refused() {
        let service = Engine::new(1).start();
        service.shared.queue.close();
        let refused = service.submit(ServiceJob::new(quick_job(), |_| {}));
        assert!(refused.is_err(), "a closed queue hands the job back");
        service.shutdown(ShutdownMode::Drain);
    }

    #[test]
    fn a_dropped_service_lets_its_workers_exit() {
        let service = Engine::new(2).start();
        let shared = Arc::downgrade(&service.shared);
        drop(service);
        // Each worker holds a strong reference until its loop returns.
        for _ in 0..500 {
            if shared.strong_count() == 0 {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!(
            "{} workers still parked after the handle was dropped",
            shared.strong_count()
        );
    }

    #[test]
    fn streamed_events_match_the_recorded_history() {
        use mffv_solver::monitor::RecordingMonitor;
        let service = Engine::new(1).start();
        let (tx, rx) = mpsc::channel();
        let (ev_tx, ev_rx) = mpsc::channel();
        let job = quick_job();
        service
            .submit(
                ServiceJob::new(job.clone(), move |o| {
                    tx.send(o).ok();
                })
                .with_events(move |event| {
                    ev_tx.send(*event).ok();
                    Flow::Continue
                }),
            )
            .ok()
            .expect("accepted");
        let outcome = rx.recv().unwrap();
        assert!(outcome.is_success());
        service.shutdown(ShutdownMode::Drain);
        let streamed: Vec<SolveEvent> = ev_rx.try_iter().collect();
        let mut recorder = RecordingMonitor::new();
        job.execute(&mut SolveRequest::new().monitor(&mut recorder))
            .unwrap();
        assert_eq!(
            streamed, recorder.events,
            "live stream == in-process replay"
        );
    }
}
