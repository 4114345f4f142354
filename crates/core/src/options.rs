//! Solver options: the dataflow-specific settings of a solve.
//!
//! The paper highlights three algorithmic enhancements (§III-E) — PE-memory buffer
//! reuse, asynchronous communication overlapped with compute, and DSD
//! vectorisation.  The backend always plans aggressive buffer reuse and models
//! overlapped communication; the `vectorized` toggle switches the third off, and
//! the `compute_enabled` switch reproduces the Table-IV experiment in which "all
//! floating-point operations" are excluded to measure data-communication time alone.
//!
//! These are the only dataflow-specific settings.  Tolerance, iteration cap and
//! preconditioner come from the facade's
//! [`SolveConfig`](mffv_solver::SolveConfig), like on every other backend.

/// The dataflow-specific half of a solve's configuration: how the fabric
/// program is built and modelled.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SolverOptions {
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

    /// Disable vectorisation (ablation).
    pub fn without_vectorization(mut self) -> Self {
        self.vectorized = false;
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
        assert!(o.vectorized);
        assert!(o.compute_enabled);
        assert_eq!(o.simd_efficiency(), 1.0);
    }

    #[test]
    fn ablation_builders_flip_exactly_one_knob() {
        let base = SolverOptions::paper();
        let scalar = base.without_vectorization();
        assert!(!scalar.vectorized);
        assert_eq!(scalar.simd_efficiency(), 0.5);
    }

    #[test]
    fn communication_only_configuration() {
        let o = SolverOptions::communication_only(225);
        assert!(!o.compute_enabled);
        assert_eq!(o.forced_iterations, 225);
    }
}
