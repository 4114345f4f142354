//! Stopping criteria and convergence history.
//!
//! The paper's Algorithm 1 exits when `rᵀr < ε` (line 8) or when the iteration
//! count reaches `k_max` (line 4); the evaluation uses `ε = 2 × 10⁻¹⁰` and reports
//! the number of steps to convergence for every grid (Table III).

/// When to stop the CG iteration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StoppingCriterion {
    /// Threshold on the *squared* residual norm `rᵀr` (exactly the paper's line 8).
    pub tolerance: f64,
    /// Maximum number of iterations (`k_max`).
    pub max_iterations: usize,
}

impl StoppingCriterion {
    /// Build a criterion; panics on a non-positive tolerance or zero iteration cap.
    pub fn new(tolerance: f64, max_iterations: usize) -> Self {
        assert!(tolerance > 0.0, "tolerance must be positive");
        assert!(max_iterations > 0, "at least one iteration must be allowed");
        Self {
            tolerance,
            max_iterations,
        }
    }

    /// The paper's evaluation setting: `2 × 10⁻¹⁰`, generous iteration cap.
    pub fn paper() -> Self {
        Self::new(2e-10, 100_000)
    }

    /// Whether `rr = rᵀr` satisfies the convergence test.
    #[inline]
    pub fn is_converged(&self, rr: f64) -> bool {
        rr < self.tolerance
    }
}

impl Default for StoppingCriterion {
    fn default() -> Self {
        Self::paper()
    }
}

/// Record of a Krylov solve.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ConvergenceHistory {
    /// `rᵀr` after every iteration, starting with the initial residual.
    pub residual_norms_squared: Vec<f64>,
    /// Whether the tolerance was met before the iteration cap.
    pub converged: bool,
    /// Number of iterations actually performed.
    pub iterations: usize,
}

impl ConvergenceHistory {
    /// Start a history from the initial `rᵀr`.
    pub fn starting_from(initial_rr: f64) -> Self {
        Self {
            residual_norms_squared: vec![initial_rr],
            converged: false,
            iterations: 0,
        }
    }

    /// Record the `rᵀr` after one more iteration.
    pub fn record(&mut self, rr: f64) {
        self.residual_norms_squared.push(rr);
        self.iterations += 1;
    }

    /// Reset to a fresh history starting from `initial_rr`, keeping the
    /// entry buffer's capacity — the pooled-scratch counterpart of
    /// [`starting_from`](Self::starting_from).  After warmup a reused
    /// history records a whole solve without reallocating.
    pub fn reset_from(&mut self, initial_rr: f64) {
        self.residual_norms_squared.clear();
        self.residual_norms_squared.push(initial_rr);
        self.converged = false;
        self.iterations = 0;
    }

    /// The initial `rᵀr`.
    pub fn initial_rr(&self) -> f64 {
        *self.residual_norms_squared.first().unwrap_or(&f64::NAN)
    }

    /// The final `rᵀr`.
    pub fn final_rr(&self) -> f64 {
        *self.residual_norms_squared.last().unwrap_or(&f64::NAN)
    }

    /// Whether the recorded residual history is monotonically non-increasing within
    /// a tolerance factor (CG residual norms are not strictly monotone, but the
    /// paper's SPD systems should show a broadly decreasing trend; this helper lets
    /// tests assert "no blow-up").
    pub fn is_broadly_decreasing(&self, allowed_growth: f64) -> bool {
        let mut best = f64::INFINITY;
        for &rr in &self.residual_norms_squared {
            if rr > best * allowed_growth {
                return false;
            }
            best = best.min(rr);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_criterion() {
        let c = StoppingCriterion::paper();
        assert_eq!(c.tolerance, 2e-10);
        assert!(c.is_converged(1e-10));
        assert!(!c.is_converged(3e-10));
        assert_eq!(StoppingCriterion::default(), c);
    }

    #[test]
    #[should_panic]
    fn zero_tolerance_rejected() {
        let _ = StoppingCriterion::new(0.0, 10);
    }

    #[test]
    #[should_panic]
    fn zero_iterations_rejected() {
        let _ = StoppingCriterion::new(1e-6, 0);
    }

    #[test]
    fn history_accumulates() {
        let mut h = ConvergenceHistory::starting_from(100.0);
        h.record(10.0);
        h.record(1.0);
        h.converged = true;
        assert_eq!(h.iterations, 2);
        assert_eq!(h.initial_rr(), 100.0);
        assert_eq!(h.final_rr(), 1.0);
        assert!(h.is_broadly_decreasing(1.0));
    }

    #[test]
    fn blow_up_detected() {
        let mut h = ConvergenceHistory::starting_from(1.0);
        h.record(0.5);
        h.record(50.0);
        assert!(!h.is_broadly_decreasing(10.0));
        assert!(h.is_broadly_decreasing(200.0));
    }
}
