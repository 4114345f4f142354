//! Aggregated results of one engine batch.
//!
//! A [`BatchReport`] keeps every per-job [`JobOutcome`] (in submission order)
//! and summarises the run as a service would: wall-clock time, throughput in
//! jobs/s and cells/s, and latency percentiles over the per-job solve times
//! (via [`mffv_perf::LatencyStats`]).  When the batch ran through
//! [`Engine::run`](crate::Engine::run) the report also carries the engine's
//! own telemetry: per-worker busy/idle accounting ([`WorkerStats`]) and the
//! queue's high-water depth.  Its `Display` impl prints the per-job status
//! table followed by the aggregate lines — the output the sweep report binary
//! and the CI smoke step show.

use crate::job::JobOutcome;
use mffv_perf::report::format_table;
use mffv_perf::LatencyStats;
use mffv_solver::backend::SolveReport;

/// Busy/idle accounting for one worker thread of a batch.
#[derive(Clone, Debug, Default)]
pub struct WorkerStats {
    /// Worker index (0-based; lane `worker + 1` in Chrome traces).
    pub worker: usize,
    /// Jobs this worker executed (including drained cancellations).
    pub jobs: usize,
    /// Wall-clock seconds the worker spent executing jobs.
    pub busy_seconds: f64,
}

impl WorkerStats {
    /// Seconds the worker spent idle (queue waits, startup/shutdown skew)
    /// out of `wall_seconds` of batch wall time.
    pub fn idle_seconds(&self, wall_seconds: f64) -> f64 {
        (wall_seconds - self.busy_seconds).max(0.0)
    }

    /// Fraction of the batch wall time this worker was busy (`0..=1`).
    pub fn utilisation(&self, wall_seconds: f64) -> f64 {
        if wall_seconds > 0.0 {
            (self.busy_seconds / wall_seconds).clamp(0.0, 1.0)
        } else {
            0.0
        }
    }
}

/// Aggregated outcome of one [`Engine::run`](crate::Engine::run) call.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// Per-job outcomes, in submission order (independent of worker count).
    pub outcomes: Vec<JobOutcome>,
    /// Number of worker threads the batch ran on.
    pub workers: usize,
    /// Wall-clock seconds from submission of the first job to completion of
    /// the last.
    pub wall_seconds: f64,
    /// Latency percentiles over the per-job execution wall times.
    pub latency: LatencyStats,
    /// Per-worker busy/idle accounting, by worker index.  Empty for reports
    /// assembled outside [`Engine::run`](crate::Engine::run).
    pub worker_stats: Vec<WorkerStats>,
    /// Largest depth the job queue reached (at most the number of jobs in
    /// the batch).
    pub queue_high_water: usize,
}

impl BatchReport {
    /// Aggregate `outcomes` (already in submission order).
    ///
    /// Latency percentiles cover only jobs that actually ran on a worker:
    /// queued jobs drained by a cancellation (stopped with no partial
    /// report) never experienced an execution latency and would skew the
    /// percentiles toward zero.
    pub fn new(outcomes: Vec<JobOutcome>, workers: usize, wall_seconds: f64) -> Self {
        let latencies: Vec<f64> = outcomes
            .iter()
            .filter(|o| !(o.is_stopped() && o.partial_report().is_none()))
            .map(|o| o.exec_seconds)
            .collect();
        Self {
            outcomes,
            workers,
            wall_seconds,
            latency: LatencyStats::from_samples(&latencies),
            worker_stats: Vec::new(),
            queue_high_water: 0,
        }
    }

    /// Attach the engine's own telemetry: per-worker busy/idle stats and the
    /// queue high-water mark.
    pub fn with_engine_stats(
        mut self,
        worker_stats: Vec<WorkerStats>,
        queue_high_water: usize,
    ) -> Self {
        self.worker_stats = worker_stats;
        self.queue_high_water = queue_high_water;
        self
    }

    /// Number of jobs in the batch.
    pub fn jobs(&self) -> usize {
        self.outcomes.len()
    }

    /// Number of jobs that produced a completed report.
    pub fn succeeded(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_success()).count()
    }

    /// Number of jobs stopped early (policy, deadline or cancellation) —
    /// deliberately not counted as failures.
    pub fn stopped(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_stopped()).count()
    }

    /// Number of jobs that failed or panicked.
    pub fn failed(&self) -> usize {
        self.jobs() - self.succeeded() - self.stopped()
    }

    /// Whether every job produced a completed report (no failures *and* no
    /// early stops).
    pub fn all_succeeded(&self) -> bool {
        self.succeeded() == self.jobs()
    }

    /// Completed solve reports, in submission order.
    pub fn reports(&self) -> impl Iterator<Item = &SolveReport> {
        self.outcomes.iter().filter_map(|o| o.report())
    }

    /// Batch throughput in jobs per wall-clock second.
    pub fn jobs_per_second(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.jobs() as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    /// Aggregate solve throughput in cell·iterations per wall-clock second,
    /// summed over completed jobs — the engine-level analogue of the paper's
    /// cells/s weak-scaling metric.
    pub fn cell_iterations_per_second(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            return 0.0;
        }
        let work = mffv_mesh::seq_sum(
            self.reports()
                .map(|r| r.pressure.dims().num_cells() as f64 * r.iterations() as f64),
        );
        work / self.wall_seconds
    }

    /// Sum of per-job execution latencies — the serial-execution time the
    /// pool amortised; `busy_seconds / wall_seconds` is the effective
    /// parallelism.
    pub fn busy_seconds(&self) -> f64 {
        mffv_mesh::seq_sum(self.outcomes.iter().map(|o| o.exec_seconds))
    }

    /// Sum of per-job queue waits — the time jobs spent queued behind busy
    /// workers across the batch.
    pub fn queue_wait_seconds(&self) -> f64 {
        mffv_mesh::seq_sum(self.outcomes.iter().map(|o| o.queue_wait_seconds))
    }
}

impl std::fmt::Display for BatchReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let rows: Vec<Vec<String>> = self
            .outcomes
            .iter()
            .map(|o| {
                let (iterations, converged, detail) = match (o.report(), o.stop_reason()) {
                    (Some(r), _) => (
                        r.iterations().to_string(),
                        r.converged().to_string(),
                        String::new(),
                    ),
                    (None, Some(reason)) => (
                        o.partial_report()
                            .map(|r| r.iterations().to_string())
                            .unwrap_or_else(|| "-".into()),
                        "-".into(),
                        format!("stopped: {reason}"),
                    ),
                    (None, None) => ("-".into(), "-".into(), o.failure().unwrap_or_default()),
                };
                vec![
                    o.index.to_string(),
                    o.label.clone(),
                    o.status_label().to_string(),
                    iterations,
                    converged,
                    format!("{:.3e}", o.queue_wait_seconds),
                    format!("{:.3e}", o.exec_seconds),
                    detail,
                ]
            })
            .collect();
        writeln!(
            f,
            "{}",
            format_table(
                &[
                    "#",
                    "Job",
                    "Status",
                    "Iterations",
                    "Converged",
                    "Queue [s]",
                    "Exec [s]",
                    "Detail"
                ],
                &rows
            )
        )?;
        writeln!(
            f,
            "{} jobs on {} workers: {} ok, {} stopped, {} failed in {:.3} s wall ({:.2} jobs/s, {:.3e} cell-iter/s)",
            self.jobs(),
            self.workers,
            self.succeeded(),
            self.stopped(),
            self.failed(),
            self.wall_seconds,
            self.jobs_per_second(),
            self.cell_iterations_per_second(),
        )?;
        write!(
            f,
            "latency: p50 {:.3e} s, p95 {:.3e} s, p99 {:.3e} s, mean {:.3e} s, max {:.3e} s",
            self.latency.p50,
            self.latency.p95,
            self.latency.p99,
            self.latency.mean,
            self.latency.max
        )?;
        if self.queue_high_water > 0 || !self.worker_stats.is_empty() {
            write!(
                f,
                "\nqueue: high-water {} items, total wait {:.3e} s",
                self.queue_high_water,
                self.queue_wait_seconds()
            )?;
        }
        for w in &self.worker_stats {
            write!(
                f,
                "\nworker {}: {} jobs, busy {:.3e} s, idle {:.3e} s ({:.0}% busy)",
                w.worker,
                w.jobs,
                w.busy_seconds,
                w.idle_seconds(self.wall_seconds),
                w.utilisation(self.wall_seconds) * 100.0
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobStatus;
    use mffv_solver::backend::SolveError;

    fn outcome(index: usize, status: JobStatus, latency: f64) -> JobOutcome {
        JobOutcome {
            index,
            label: format!("job-{index} @ host-f64"),
            status,
            queue_wait_seconds: 0.5 * latency,
            exec_seconds: latency,
        }
    }

    #[test]
    fn aggregates_counts_and_latencies() {
        let report = BatchReport::new(
            vec![
                outcome(
                    0,
                    JobStatus::Failed(SolveError::new("host-f64", "bad")),
                    0.1,
                ),
                outcome(1, JobStatus::Panicked("boom".into()), 0.2),
            ],
            4,
            0.5,
        );
        assert_eq!(report.jobs(), 2);
        assert_eq!(report.succeeded(), 0);
        assert_eq!(report.failed(), 2);
        assert!(!report.all_succeeded());
        assert_eq!(report.latency.samples, 2);
        assert!((report.jobs_per_second() - 4.0).abs() < 1e-12);
        assert!((report.busy_seconds() - 0.3).abs() < 1e-12);
        assert!((report.queue_wait_seconds() - 0.15).abs() < 1e-12);
        assert_eq!(report.cell_iterations_per_second(), 0.0);
    }

    #[test]
    fn stopped_jobs_are_counted_apart_from_failures() {
        use mffv_solver::monitor::StopReason;
        let report = BatchReport::new(
            vec![
                outcome(
                    0,
                    JobStatus::Stopped {
                        reason: StopReason::Cancelled,
                        report: None,
                    },
                    0.0,
                ),
                outcome(
                    1,
                    JobStatus::Failed(SolveError::new("host-f64", "bad")),
                    0.1,
                ),
            ],
            2,
            0.5,
        );
        assert_eq!(report.jobs(), 2);
        assert_eq!(report.stopped(), 1);
        assert_eq!(report.failed(), 1);
        assert_eq!(report.succeeded(), 0);
        assert!(!report.all_succeeded());
        // The drained job never ran: its synthetic 0.0 latency must not
        // enter the percentile samples.
        assert_eq!(report.latency.samples, 1);
        let text = report.to_string();
        assert!(text.contains("stopped: cancelled"), "{text}");
        assert!(text.contains("1 stopped"), "{text}");
    }

    #[test]
    fn display_shows_status_throughput_and_percentiles() {
        let report = BatchReport::new(
            vec![outcome(
                0,
                JobStatus::Failed(SolveError::new("host-f64", "invalid workload")),
                0.25,
            )],
            2,
            1.0,
        );
        let text = report.to_string();
        assert!(text.contains("failed"), "{text}");
        assert!(text.contains("invalid workload"), "{text}");
        assert!(text.contains("jobs/s"), "{text}");
        assert!(text.contains("p50"), "{text}");
        assert!(text.contains("p95"), "{text}");
        assert!(text.contains("p99"), "{text}");
        assert!(text.contains("Queue [s]"), "{text}");
        assert!(text.contains("Exec [s]"), "{text}");
    }

    #[test]
    fn engine_stats_attach_and_render() {
        let report = BatchReport::new(
            vec![outcome(
                0,
                JobStatus::Failed(SolveError::new("host-f64", "bad")),
                0.25,
            )],
            2,
            1.0,
        )
        .with_engine_stats(
            vec![
                WorkerStats {
                    worker: 0,
                    jobs: 1,
                    busy_seconds: 0.25,
                },
                WorkerStats {
                    worker: 1,
                    jobs: 0,
                    busy_seconds: 0.0,
                },
            ],
            3,
        );
        assert_eq!(report.queue_high_water, 3);
        assert_eq!(report.latency.samples, 1);
        assert!((report.worker_stats[0].idle_seconds(1.0) - 0.75).abs() < 1e-12);
        assert!((report.worker_stats[0].utilisation(1.0) - 0.25).abs() < 1e-12);
        let text = report.to_string();
        assert!(text.contains("high-water 3"), "{text}");
        assert!(text.contains("worker 0: 1 jobs"), "{text}");
        assert!(text.contains("worker 1: 0 jobs"), "{text}");
        assert!(text.contains("% busy"), "{text}");
    }
}
