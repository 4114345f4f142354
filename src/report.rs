//! Unified reporting for the [`Simulation`](crate::Simulation) facade.
//!
//! Re-exports the per-backend [`SolveReport`] shape (defined next to the
//! [`SolveBackend`](mffv_solver::backend::SolveBackend) trait) and adds the
//! cross-backend [`AgreementReport`] — the programmatic form of the paper's
//! §V-B numerical-integrity table: every registered backend's iterations,
//! residual and modelled time, plus the pairwise maximum pressure
//! disagreements.

pub use mffv_solver::backend::{DeviceSection, SolveError, SolveReport};

use mffv_mesh::{Dims, Scalar};
use mffv_perf::report::format_table;

/// Maximum pressure disagreement between one pair of backends.
#[derive(Clone, Debug)]
pub struct PairwiseDisagreement {
    /// First backend name.
    pub a: String,
    /// Second backend name.
    pub b: String,
    /// `max |p_a - p_b|` over all cells.
    pub max_abs_diff: f64,
    /// The same, relative to the pair's pressure scale `max(|p_a|, |p_b|)`.
    pub max_rel_diff: f64,
}

/// Cross-backend agreement summary produced by
/// [`Simulation::compare`](crate::Simulation::compare).
#[derive(Clone, Debug)]
pub struct AgreementReport {
    /// Name of the workload all backends solved.
    pub workload: String,
    /// Grid extents of the workload.
    pub dims: Dims,
    /// Per-backend reports, in execution order.
    pub reports: Vec<SolveReport>,
    /// All backend pairs and their maximum pressure disagreements.
    pub pairwise: Vec<PairwiseDisagreement>,
    /// Backends that failed to produce a report (their errors, in execution
    /// order).  The agreement table is computed over the successful backends
    /// only, so one failing backend no longer discards the completed runs.
    pub failures: Vec<SolveError>,
}

impl AgreementReport {
    /// Build the agreement summary from individual backend reports.
    pub fn from_reports(
        workload: impl Into<String>,
        dims: Dims,
        reports: Vec<SolveReport>,
    ) -> Self {
        let mut pairwise = Vec::new();
        for i in 0..reports.len() {
            for j in (i + 1)..reports.len() {
                let max_abs_diff = reports[i].max_abs_diff(&reports[j]);
                let scale = reports[i]
                    .pressure
                    .max_abs()
                    .max(reports[j].pressure.max_abs())
                    .max(f64::MIN_POSITIVE);
                pairwise.push(PairwiseDisagreement {
                    a: reports[i].backend.clone(),
                    b: reports[j].backend.clone(),
                    max_abs_diff,
                    max_rel_diff: max_abs_diff / scale,
                });
            }
        }
        Self {
            workload: workload.into(),
            dims,
            reports,
            pairwise,
            failures: Vec::new(),
        }
    }

    /// Attach the errors of backends that failed to run (see
    /// [`Simulation::compare`](crate::Simulation::compare)).
    pub fn with_failures(mut self, failures: Vec<SolveError>) -> Self {
        self.failures = failures;
        self
    }

    /// The report of a named backend, if it ran.
    pub fn report(&self, backend: &str) -> Option<&SolveReport> {
        self.reports.iter().find(|r| r.backend == backend)
    }

    /// Largest absolute pressure disagreement over all backend pairs (NaN
    /// when a pressure holds a NaN cell).
    pub fn max_pairwise_diff(&self) -> f64 {
        self.pairwise
            .iter()
            .map(|p| p.max_abs_diff)
            // audit: allow(float-reduction) — reassociation-safe: a
            // NaN-propagating max is associative and commutative.
            .fold(0.0, Scalar::max_with)
    }

    /// Largest relative pressure disagreement over all backend pairs (NaN
    /// when a pressure holds a NaN cell).
    pub fn max_pairwise_rel_diff(&self) -> f64 {
        self.pairwise
            .iter()
            .map(|p| p.max_rel_diff)
            // audit: allow(float-reduction) — reassociation-safe: a
            // NaN-propagating max is associative and commutative.
            .fold(0.0, Scalar::max_with)
    }

    /// Whether every pair of backends agrees to `tolerance` in the relative
    /// max-norm (the §V-B integrity criterion: f32 device precision ⇒ `1e-3`).
    ///
    /// A backend that failed to run cannot agree with anything, so this is
    /// `false` whenever [`failures`](Self::failures) is non-empty — agreement
    /// over the surviving subset must not pass vacuously.
    pub fn agrees_within(&self, tolerance: f64) -> bool {
        self.failures.is_empty() && self.max_pairwise_rel_diff() < tolerance
    }
}

impl std::fmt::Display for AgreementReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Numerical integrity — {} ({}, {} backends)",
            self.workload,
            self.dims,
            self.reports.len()
        )?;
        let rows: Vec<Vec<String>> = self
            .reports
            .iter()
            .map(|r| {
                vec![
                    r.backend.clone(),
                    r.iterations().to_string(),
                    r.converged().to_string(),
                    format!("{:.3e}", r.final_residual_max),
                    r.modelled_time()
                        .map(|t| format!("{t:.4e}"))
                        .unwrap_or_else(|| "-".to_string()),
                ]
            })
            .collect();
        writeln!(
            f,
            "{}",
            format_table(
                &[
                    "Backend",
                    "Iterations",
                    "Converged",
                    "|r|_max",
                    "Modelled time [s]"
                ],
                &rows
            )
        )?;
        let rows: Vec<Vec<String>> = self
            .pairwise
            .iter()
            .map(|p| {
                vec![
                    format!("{} vs {}", p.a, p.b),
                    format!("{:.3e}", p.max_abs_diff),
                    format!("{:.3e}", p.max_rel_diff),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            format_table(&["Pair", "max |Δp| [Pa]", "max |Δp| / scale"], &rows)
        )?;
        for failure in &self.failures {
            write!(f, "\nFAILED: {failure}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mffv_mesh::CellField;
    use mffv_solver::convergence::ConvergenceHistory;

    fn fake_report(name: &str, value: f64) -> SolveReport {
        let dims = Dims::new(2, 2, 2);
        SolveReport {
            backend: name.to_string(),
            pressure: CellField::constant(dims, value),
            history: ConvergenceHistory::starting_from(1.0),
            final_residual_max: 0.0,
            host_wall_seconds: 0.0,
            device: None,
            stopped: None,
        }
    }

    #[test]
    fn pairwise_disagreements_cover_all_pairs() {
        let dims = Dims::new(2, 2, 2);
        let reports = vec![
            fake_report("a", 1.0),
            fake_report("b", 1.0005),
            fake_report("c", 2.0),
        ];
        let agreement = AgreementReport::from_reports("test", dims, reports);
        assert_eq!(agreement.pairwise.len(), 3);
        assert!((agreement.max_pairwise_diff() - 1.0).abs() < 1e-12);
        assert!(!agreement.agrees_within(1e-3));
        assert!(agreement.agrees_within(0.6));
        assert!(agreement.report("b").is_some());
        assert!(agreement.report("missing").is_none());
    }

    #[test]
    fn a_pressure_with_nan_cells_never_agrees() {
        let dims = Dims::new(2, 2, 2);
        let mut poisoned = fake_report("b", 1.0);
        for k in (0..dims.num_cells()).step_by(2) {
            poisoned.pressure.set(k, f64::NAN);
        }
        let agreement =
            AgreementReport::from_reports("test", dims, vec![fake_report("a", 1.0), poisoned]);
        assert!(agreement.max_pairwise_diff().is_nan());
        assert!(agreement.max_pairwise_rel_diff().is_nan());
        assert!(!agreement.agrees_within(1e-3));
        assert!(!agreement.agrees_within(f64::INFINITY));
    }

    #[test]
    fn display_renders_both_tables() {
        let dims = Dims::new(2, 2, 2);
        let agreement = AgreementReport::from_reports(
            "quickstart",
            dims,
            vec![fake_report("a", 1.0), fake_report("b", 1.0)],
        );
        assert!(agreement.failures.is_empty());
        let text = agreement.to_string();
        assert!(text.contains("Numerical integrity"));
        assert!(text.contains("a vs b"));
        assert!(text.contains("Backend"));
        assert!(!text.contains("FAILED"));
    }

    #[test]
    fn failures_are_carried_and_rendered() {
        let dims = Dims::new(2, 2, 2);
        let agreement =
            AgreementReport::from_reports("quickstart", dims, vec![fake_report("a", 1.0)])
                .with_failures(vec![SolveError::new("dataflow", "out of local memory")]);
        assert_eq!(agreement.failures.len(), 1);
        // A failed backend forbids vacuous agreement at any tolerance.
        assert!(!agreement.agrees_within(f64::INFINITY));
        let text = agreement.to_string();
        assert!(text.contains("FAILED: backend `dataflow` failed: out of local memory"));
    }
}
