#![forbid(unsafe_code)]
//! # mffv-core
//!
//! The paper's primary contribution, reproduced on the simulated fabric: a
//! **matrix-free finite-volume solver for single-phase flow designed for a dataflow
//! architecture** (§III).  The crate maps the 3-D problem onto the 2-D fabric,
//! implements the paper's communication machinery, and drives the conjugate-gradient
//! iteration as an event-driven state machine:
//!
//! * [`mapping`] — the cell-based data mapping of Figure 3 (every z-column of cells
//!   lives on one PE) and the PE local-memory plan, including the §III-E1 buffer
//!   reuse strategies and the resulting maximum column depth per 48 KiB PE;
//! * [`comm`] — the four-step cardinal halo exchange of Table I, driven by colours
//!   C1–C4 with completion-callback colours and the Listing-1 switch-position
//!   toggling (Figure 4);
//! * [`allreduce`] — the whole-fabric all-reduce of §III-C (row reduction, right-most
//!   column reduction, two-phase broadcast back);
//! * [`kernel`] — the per-PE matrix-free computation of `(Jx)` over the local
//!   z-column (Algorithm 2), vertical neighbours resolved in local memory, horizontal
//!   neighbours from the received halos, executed with DSD vector operations;
//! * [`state_machine`] — the 14-state conjugate-gradient state machine of §III-D;
//! * [`backend`] — [`DataflowBackend`], the crate's one entry point: its
//!   [`solve`](mffv_solver::SolveBackend::solve) reads tolerance, iteration cap and
//!   preconditioner from the facade's `SolveConfig`, runs the state machine on a
//!   freshly loaded fabric in `f32`, and returns the unified `SolveReport` with the
//!   measured counters and modelled device time;
//! * [`options`] — the optimisation toggles of §III-E (buffer reuse, communication
//!   overlap, vectorisation) and the communication-only mode, used by the ablation
//!   benchmarks;
//! * [`stats`] — the per-run statistics behind Table IV (data-movement versus
//!   computation time split) and the roofline inputs.

pub mod allreduce;
pub mod backend;
pub mod comm;
pub mod kernel;
pub mod mapping;
pub mod options;
pub mod state_machine;
pub mod stats;

pub use backend::DataflowBackend;
pub use comm::CardinalExchange;
pub use mapping::{MemoryPlan, PeColumnBuffers, ProblemMapping, ReuseStrategy};
pub use options::SolverOptions;
pub use state_machine::{CgEvent, CgState, CgStateMachine};
pub use stats::DataflowRunStats;

/// Convenient glob import.
pub mod prelude {
    pub use crate::allreduce::AllReduce;
    pub use crate::backend::DataflowBackend;
    pub use crate::comm::CardinalExchange;
    pub use crate::mapping::{MemoryPlan, ProblemMapping, ReuseStrategy};
    pub use crate::options::SolverOptions;
    pub use crate::state_machine::{CgEvent, CgState, CgStateMachine};
    pub use crate::stats::DataflowRunStats;
}
