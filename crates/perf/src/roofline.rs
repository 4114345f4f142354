//! The roofline model (Figure 6).
//!
//! Attainable performance at arithmetic intensity `AI` is
//! `min(peak, AI × bandwidth)` for each bandwidth ceiling; a kernel is
//! compute-bound with respect to a ceiling when its intensity puts the bandwidth
//! term above the compute peak.  The paper reports the CS-2 kernel compute-bound
//! for both its memory and fabric intensities at 68 % of peak, and the A100 kernel
//! memory-bound at 78 % of its ceiling.

use crate::machine::MachineSpec;

/// A roofline for one machine.
#[derive(Clone, Debug)]
pub struct Roofline {
    spec: MachineSpec,
}

impl Roofline {
    /// Build the roofline of a machine.
    pub fn new(spec: MachineSpec) -> Self {
        Self { spec }
    }

    /// Attainable FLOP/s at an arithmetic intensity, against a named bandwidth
    /// ceiling (`None` uses the slowest level).
    pub fn attainable(&self, arithmetic_intensity: f64, bandwidth: Option<&str>) -> f64 {
        let bw = match bandwidth {
            Some(name) => {
                self.spec
                    .bandwidth(name)
                    // audit: allow(panic) — invariant: documented panicking
                    // lookup; callers pass names enumerated by the spec itself.
                    .expect("unknown bandwidth level")
                    .bytes_per_second
            }
            None => self.spec.slowest_bandwidth().bytes_per_second,
        };
        (arithmetic_intensity * bw).min(self.spec.peak_flops)
    }

    /// Whether a kernel with this intensity is compute-bound against a ceiling.
    pub fn is_compute_bound(&self, arithmetic_intensity: f64, bandwidth: Option<&str>) -> bool {
        self.attainable(arithmetic_intensity, bandwidth) >= self.spec.peak_flops
    }

    /// Fraction of the attainable ceiling a measured performance achieves at a given
    /// intensity.
    pub fn fraction_of_attainable(
        &self,
        arithmetic_intensity: f64,
        achieved_flops: f64,
        bandwidth: Option<&str>,
    ) -> f64 {
        achieved_flops / self.attainable(arithmetic_intensity, bandwidth)
    }

    /// Generate the (intensity, attainable) series of the roofline chart between two
    /// intensities on a log grid — the data behind Figure 6.
    pub fn chart_series(
        &self,
        bandwidth: Option<&str>,
        min_intensity: f64,
        max_intensity: f64,
        points: usize,
    ) -> Vec<(f64, f64)> {
        assert!(points >= 2, "a chart series needs at least two points");
        assert!(min_intensity > 0.0 && max_intensity > min_intensity);
        let log_min = min_intensity.ln();
        let log_max = max_intensity.ln();
        (0..points)
            .map(|i| {
                let t = i as f64 / (points - 1) as f64;
                let ai = (log_min + t * (log_max - log_min)).exp();
                (ai, self.attainable(ai, bandwidth))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opcount::CellOpCounts;

    #[test]
    fn cs2_kernel_is_compute_bound_for_both_intensities() {
        // The paper's Figure-6 conclusion: compute-bound for memory AND fabric.
        let roofline = Roofline::new(MachineSpec::cs2());
        let counts = CellOpCounts::paper_table5();
        assert!(roofline.is_compute_bound(counts.memory_arithmetic_intensity(), Some("Memory")));
        assert!(roofline.is_compute_bound(counts.fabric_arithmetic_intensity(), Some("Fabric")));
    }

    #[test]
    fn a100_kernel_is_memory_bound() {
        let roofline = Roofline::new(MachineSpec::a100());
        let counts = CellOpCounts::paper_table5();
        // Against the HBM ceiling the kernel intensity is far below the ridge point.
        assert!(!roofline.is_compute_bound(counts.memory_arithmetic_intensity(), Some("HBM")));
    }

    #[test]
    fn papers_achieved_fraction_is_consistent() {
        // 1.217 PFLOP/s on a 1.785 PFLOP/s peak is the paper's 68 %.
        let roofline = Roofline::new(MachineSpec::cs2());
        let counts = CellOpCounts::paper_table5();
        let fraction = roofline.fraction_of_attainable(
            counts.fabric_arithmetic_intensity(),
            1.217e15,
            Some("Fabric"),
        );
        assert!((fraction - 0.6818).abs() < 0.01, "fraction {fraction}");
    }

    #[test]
    fn attainable_is_min_of_peak_and_bandwidth_term() {
        let roofline = Roofline::new(MachineSpec::a100());
        // Far left of the ridge: bandwidth-limited.
        let low = roofline.attainable(0.01, Some("HBM"));
        assert!((low - 0.01 * 1_262.9e9).abs() / low < 1e-12);
        // Far right: compute-limited.
        assert_eq!(roofline.attainable(1e6, Some("HBM")), 14.7e12);
    }

    #[test]
    fn chart_series_is_monotone_and_clamped() {
        let roofline = Roofline::new(MachineSpec::cs2());
        let series = roofline.chart_series(Some("Memory"), 1e-2, 1e2, 33);
        assert_eq!(series.len(), 33);
        for pair in series.windows(2) {
            assert!(pair[1].0 > pair[0].0);
            assert!(pair[1].1 >= pair[0].1);
        }
        assert_eq!(series.last().unwrap().1, 1.785e15);
    }

    #[test]
    #[should_panic]
    fn chart_series_rejects_degenerate_ranges() {
        let roofline = Roofline::new(MachineSpec::cs2());
        let _ = roofline.chart_series(None, 1.0, 0.5, 10);
    }
}
