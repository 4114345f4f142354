//! Solver options: the §III-E optimisation toggles.
//!
//! The paper highlights three algorithmic enhancements — PE-memory buffer reuse,
//! asynchronous communication overlapped with compute, and DSD vectorisation.  The
//! toggles here let the ablation benchmarks quantify each one, and the
//! `compute_enabled` switch reproduces the Table-IV experiment in which "all
//! floating-point operations" are excluded to measure data-communication time alone.
//!
//! These are the only dataflow-specific settings.  Tolerance, iteration cap and
//! preconditioner come from the facade's
//! [`SolveConfig`](mffv_solver::SolveConfig), like on every other backend.

use crate::mapping::ReuseStrategy;
use mffv_fabric::timing::OverlapMode;

/// The dataflow-specific half of a solve's configuration: how the fabric
/// program is built and modelled.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SolverOptions {
    /// Buffer-reuse strategy assumed by the memory plan (§III-E1).
    pub reuse: ReuseStrategy,
    /// Whether asynchronous communication is assumed to overlap with computation in
    /// the device-time model (§III-E2).
    pub overlap: OverlapMode,
    /// Whether the per-PE kernel is assumed to use the dual SIMD units via DSD
    /// vectorisation (§III-E3); scalar execution halves the effective FLOP rate in
    /// the device-time model.
    pub vectorized: bool,
    /// When `false`, floating-point work is skipped and only the communication
    /// schedule runs — the Table-IV "data movement only" configuration.  The solve
    /// then runs exactly `forced_iterations` iterations of plain CG's schedule,
    /// whatever the `SolveConfig`'s iteration cap and preconditioner.
    pub compute_enabled: bool,
    /// Iteration count used when `compute_enabled` is `false` (the paper terminates
    /// its communication-only run at step 225 to match the converged run).
    pub forced_iterations: usize,
}

impl Default for SolverOptions {
    fn default() -> Self {
        Self {
            reuse: ReuseStrategy::Aggressive,
            overlap: OverlapMode::Overlapped,
            vectorized: true,
            compute_enabled: true,
            forced_iterations: 0,
        }
    }
}

impl SolverOptions {
    /// The paper's production configuration: every optimisation on.
    pub fn paper() -> Self {
        Self::default()
    }

    /// The Table-IV communication-only configuration, terminated at `iterations`.
    pub fn communication_only(iterations: usize) -> Self {
        Self {
            compute_enabled: false,
            forced_iterations: iterations,
            ..Self::default()
        }
    }

    /// Disable the overlap optimisation (ablation).
    pub fn without_overlap(mut self) -> Self {
        self.overlap = OverlapMode::Serialized;
        self
    }

    /// Disable vectorisation (ablation).
    pub fn without_vectorization(mut self) -> Self {
        self.vectorized = false;
        self
    }

    /// Use the straightforward (no reuse) memory plan (ablation).
    pub fn without_buffer_reuse(mut self) -> Self {
        self.reuse = ReuseStrategy::None;
        self
    }

    /// Effective SIMD width factor used by the device-time model.
    pub fn simd_efficiency(&self) -> f64 {
        if self.vectorized {
            1.0
        } else {
            0.5
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_paper_configuration() {
        let o = SolverOptions::default();
        assert_eq!(o, SolverOptions::paper());
        assert_eq!(o.reuse, ReuseStrategy::Aggressive);
        assert_eq!(o.overlap, OverlapMode::Overlapped);
        assert!(o.vectorized);
        assert!(o.compute_enabled);
        assert_eq!(o.simd_efficiency(), 1.0);
    }

    #[test]
    fn ablation_builders_flip_exactly_one_knob() {
        let base = SolverOptions::paper();
        let no_overlap = base.without_overlap();
        assert_eq!(no_overlap.overlap, OverlapMode::Serialized);
        assert_eq!(no_overlap.reuse, base.reuse);
        let scalar = base.without_vectorization();
        assert!(!scalar.vectorized);
        assert_eq!(scalar.simd_efficiency(), 0.5);
        let naive = base.without_buffer_reuse();
        assert_eq!(naive.reuse, ReuseStrategy::None);
    }

    #[test]
    fn communication_only_configuration() {
        let o = SolverOptions::communication_only(225);
        assert!(!o.compute_enabled);
        assert_eq!(o.forced_iterations, 225);
    }
}
