#![forbid(unsafe_code)]
//! # mffv-engine — concurrent batch-solve engine
//!
//! The execution subsystem that turns the one-solve-at-a-time `Simulation`
//! facade into a multi-scenario solve service: a `std::thread` worker pool
//! (no external dependencies) that executes many independent pressure solves
//! concurrently and reports service-style throughput.
//!
//! ## Queue / worker / report design
//!
//! One worker loop serves both fronts: [`Engine::run`] for batches and
//! [`EngineService`] ([`Engine::start`]) for a long-running daemon.  A batch
//! is a client of the service: it starts one sized to the batch, submits
//! every job and drains.
//!
//! ```text
//!  submit                   (ticket, ServiceJob)
//!  ───────────────▶ JobQueue ──┬──▶ worker 0 ──┐
//!  (never blocks)              ├──▶ worker 1 ──┤ on_done(JobOutcome)
//!                              └──▶ worker N ──┤
//!                                              ├──▶ daemon: terminal frame to the client
//!                                              └──▶ Engine::run: slots[ticket] ──▶ BatchReport
//!                                                   (outcomes in submission order
//!                                                    + throughput/latency)
//! ```
//!
//! * **Jobs are values.**  A [`JobSpec`] carries a `WorkloadSpec`, a
//!   [`Backend`], a `SolveConfig` and a seed; the heavy workload fields are
//!   materialised *on the worker*, never shared, so jobs are independent by
//!   construction.
//! * **One queue, bounded by its producers.**  Jobs flow through a
//!   [`queue::JobQueue`] (`Mutex` + `Condvar`) whose push never blocks: a
//!   batch submits a `Vec` it already holds, and a daemon session holds at
//!   most its admission window, so the queue never holds more than its
//!   producers already do.
//! * **Failure isolation.**  Workers run each job behind
//!   `std::panic::catch_unwind`; a panicking or failing job becomes a
//!   [`JobStatus::Panicked`] / [`JobStatus::Failed`] outcome and the pool
//!   keeps draining.  Invalid specs are rejected at job intake with a
//!   descriptive `SolveError` (see `WorkloadSpec::validate`).
//! * **Deterministic results.**  A fresh service numbers its tickets `0..n`
//!   in submission order, and a batch files each outcome by its ticket, so
//!   [`BatchReport::outcomes`] is ordered identically for 1 or 64 workers —
//!   and because every solve is sequential and self-contained, per-job
//!   results are **bitwise identical** across worker counts and to a serial
//!   run of the same spec.
//! * **Seed reproducibility.**  [`JobSpec::seed`] reseeds stochastic
//!   permeability models through `WorkloadSpec::with_permeability_seed`;
//!   `(spec, backend, config, seed)` fully determines a job's result, so any
//!   row of a [`BatchReport`] can be replayed exactly with
//!   [`JobSpec::execute`].
//!
//! ## Scenario sweeps
//!
//! [`SweepBuilder`] fans one base spec across grids × tolerances ×
//! permeability seeds × transient axes × preconditioners × backends:
//!
//! ```
//! use mffv_engine::{Backend, Engine, SweepBuilder};
//! use mffv_mesh::{Dims, WorkloadSpec};
//!
//! let jobs = SweepBuilder::new(WorkloadSpec::quickstart())
//!     .grids([Dims::new(8, 8, 4), Dims::new(12, 12, 6)])
//!     .backends([Backend::host(), Backend::dataflow()])
//!     .jobs();
//! let report = Engine::new(2).run(jobs);
//! assert!(report.all_succeeded());
//! println!("{report}"); // per-job status + throughput + p50/p95/p99 latency
//! ```
//!
//! ## Telemetry
//!
//! Every run collects per-worker busy/idle stats and the queue's high-water
//! depth into the [`BatchReport`], beside the latency percentiles of its
//! jobs.  Attach a recording `Tracer`
//! ([`Engine::with_tracer`](pool::Engine::with_tracer)) to additionally get
//! a span tree — `engine-batch` → per-job label → `queue-wait`/`execute` —
//! exportable as a Chrome trace via `mffv_telemetry`; job results stay
//! bitwise identical with tracing on or off.  Both fronts publish into an
//! attached `MetricsRegistry` under one namespace:
//! `engine.service.jobs.{submitted,ok,stopped,failed,panicked}`,
//! `engine.service.exec_seconds`, `engine.service.queue.high_water` and
//! `engine.context.{hits,misses,scratch_reallocs}`.

pub mod backend;
pub mod job;
pub mod pool;
pub mod queue;
pub mod report;
pub mod service;
pub mod sweep;

pub use backend::Backend;
pub use job::{JobOutcome, JobSpec, JobStatus};
pub use pool::Engine;
pub use report::{BatchReport, WorkerStats};
pub use service::{EngineService, ServiceJob, ShutdownMode};
pub use sweep::SweepBuilder;
// The session-control vocabulary of `mffv-solver`, re-exported so engine
// users can cancel batches and attach stop policies without a direct
// `mffv-solver` dependency.
pub use mffv_solver::monitor::{CancelToken, StopPolicy, StopReason};
// Telemetry vocabulary for attaching tracers/registries to an engine.
pub use mffv_telemetry::{LogHistogram, MetricsRegistry, Tracer};

/// Convenient glob import for downstream crates and examples.
pub mod prelude {
    pub use crate::backend::Backend;
    pub use crate::job::{JobOutcome, JobSpec, JobStatus};
    pub use crate::pool::Engine;
    pub use crate::report::{BatchReport, WorkerStats};
    pub use crate::service::{EngineService, ServiceJob, ShutdownMode};
    pub use crate::sweep::SweepBuilder;
    pub use mffv_solver::monitor::{CancelToken, StopPolicy, StopReason};
    pub use mffv_telemetry::{LogHistogram, MetricsRegistry, Tracer};
}
