#![forbid(unsafe_code)]
//! # mffv-solver
//!
//! Krylov solvers for the FV linear systems: the conjugate-gradient method of the
//! paper's Algorithm 1 (optionally preconditioned — Jacobi, a natural extension
//! the paper leaves for future work, or multigrid), deterministic reduction
//! utilities matching the order of the whole-fabric all-reduce (§III-C), a
//! one-Newton-step driver that turns a workload into a converged pressure field,
//! and the pooled [`SolveContext`] every host solve runs on.
//!
//! The solvers are written against the [`mffv_fv::LinearOperator`] abstraction so
//! the identical iteration runs on the sequential matrix-free kernel, the assembled
//! CSR baseline, the GPU-style reference and (re-implemented as a state machine) the
//! dataflow fabric.

pub mod backend;
pub mod cg;
pub mod context;
pub mod convergence;
pub mod monitor;
pub mod newton;
pub mod pcg;
pub mod reduction;
pub mod trace;
pub mod transient;

pub use backend::{
    DeviceSection, HostBackend, Precision, PreconditionerKind, SolveBackend, SolveConfig,
    SolveError, SolveReport, SolveRequest,
};
pub use cg::{CgScratch, ConjugateGradient, SolveOutcome};
pub use context::{ContextKey, ContextStats, SolveContext, SolveContextCache};
pub use convergence::{ConvergenceHistory, StoppingCriterion};
pub use mffv_fv::{MgConfig, MultigridVcycle, Preconditioner};
pub use monitor::{
    monitor_fn, CancelToken, Flow, FnMonitor, MonitorFanout, NullMonitor, PolicySession,
    RecordingMonitor, SolveEvent, SolveMonitor, StopPolicy, StopReason,
};
pub use newton::{solve_pressure, NewtonScratch};
pub use pcg::JacobiPreconditioner;
pub use trace::{TraceMonitor, TRACE_CHUNK_ITERS};
pub use transient::{run_transient, PressureSnapshot, TransientReport, TransientStep, WellTotal};

/// Convenient glob import.
pub mod prelude {
    pub use crate::backend::{
        DeviceSection, HostBackend, Precision, PreconditionerKind, SolveBackend, SolveConfig,
        SolveError, SolveReport, SolveRequest,
    };
    pub use crate::cg::{CgScratch, ConjugateGradient, SolveOutcome};
    pub use crate::context::{ContextKey, ContextStats, SolveContext, SolveContextCache};
    pub use crate::convergence::{ConvergenceHistory, StoppingCriterion};
    pub use crate::monitor::{
        monitor_fn, CancelToken, Flow, FnMonitor, MonitorFanout, NullMonitor, PolicySession,
        RecordingMonitor, SolveEvent, SolveMonitor, StopPolicy, StopReason,
    };
    pub use crate::newton::{solve_pressure, NewtonScratch};
    pub use crate::pcg::JacobiPreconditioner;
    pub use crate::reduction::fabric_ordered_dot;
    pub use crate::trace::{TraceMonitor, TRACE_CHUNK_ITERS};
    pub use crate::transient::{
        run_transient, PressureSnapshot, TransientReport, TransientStep, WellTotal,
    };
    pub use mffv_fv::{MgConfig, MultigridVcycle, Preconditioner};
}
