//! Analytic GPU device-time model.
//!
//! The paper's roofline analysis (Figure 6, bottom) shows the GPU kernel is
//! **memory-bound**, achieving ≈78 % of the A100's bandwidth-limited ceiling.  The
//! model therefore estimates kernel time from the DRAM traffic of the matrix-free
//! CG iteration divided by the effective (ceiling × efficiency) bandwidth — the same
//! reasoning the paper uses, applied to the machine ceilings it publishes.

use mffv_mesh::Dims;

/// A modelled GPU.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GpuSpec {
    /// Marketing name, for reports.
    pub name: &'static str,
    /// FP32 peak, FLOP/s (the paper's A100 roofline states 14.7 TFLOP/s).
    pub peak_flops: f64,
    /// HBM bandwidth, bytes/s (the paper's A100 roofline states 1262.9 GB/s).
    pub hbm_bandwidth: f64,
    /// Fraction of the bandwidth ceiling the kernel achieves (the paper reports
    /// ≈78 % of peak for its memory-bound kernel).
    pub achieved_fraction: f64,
}

impl GpuSpec {
    /// The A100 used in the paper's evaluation (40 GB variant).
    pub fn a100() -> Self {
        Self {
            name: "A100",
            peak_flops: 14.7e12,
            hbm_bandwidth: 1.2629e12,
            achieved_fraction: 0.78,
        }
    }

    /// The H100 (part of a Grace Hopper superchip, 95 GB) used in the paper.
    pub fn h100() -> Self {
        Self {
            name: "H100",
            peak_flops: 66.9e12,
            hbm_bandwidth: 3.35e12,
            achieved_fraction: 0.62,
        }
    }

    /// Effective sustained bandwidth.
    pub fn effective_bandwidth(&self) -> f64 {
        self.hbm_bandwidth * self.achieved_fraction
    }
}

/// DRAM traffic of one matrix-free CG iteration, bytes per cell.
///
/// Per iteration every cell's thread reads its own value and six neighbours of the
/// direction vector (7 × 4 B, partially served by cache — counted at 3 effective
/// reads), the six transmissibilities (24 B), the Dirichlet mask (4 B) and writes
/// the operator output (4 B); the CG vector updates (2 dots + 3 axpy-style updates)
/// add ~13 further accesses.  The total, ≈96 B/cell, is the traffic the roofline
/// model divides by the effective bandwidth.
pub const DRAM_BYTES_PER_CELL_PER_ITERATION: f64 = 96.0;

/// Analytic GPU kernel-time model.
#[derive(Clone, Copy, Debug)]
pub struct GpuTimeModel {
    spec: GpuSpec,
}

impl GpuTimeModel {
    /// A model over a GPU spec.
    pub fn new(spec: GpuSpec) -> Self {
        Self { spec }
    }

    /// Time of a single matrix-free operator application over the mesh, seconds.
    pub fn kernel_time(&self, dims: Dims) -> f64 {
        let traffic = dims.num_cells() as f64 * DRAM_BYTES_PER_CELL_PER_ITERATION;
        traffic / self.spec.effective_bandwidth()
    }

    /// Time of a full CG solve of `iterations` iterations, seconds.
    pub fn cg_time(&self, dims: Dims, iterations: usize) -> f64 {
        self.kernel_time(dims) * iterations.max(1) as f64
    }

    /// Achieved FLOP/s implied by the model for a mesh (96 FLOPs per cell per
    /// iteration, Table V).
    pub fn achieved_flops(&self, dims: Dims) -> f64 {
        let flops = dims.num_cells() as f64 * 96.0;
        flops / self.kernel_time(dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_ceilings_are_encoded() {
        let a = GpuSpec::a100();
        assert!((a.peak_flops - 14.7e12).abs() < 1e6);
        assert!((a.hbm_bandwidth - 1262.9e9).abs() < 1e6);
        assert!(a.effective_bandwidth() < a.hbm_bandwidth);
        let h = GpuSpec::h100();
        assert!(h.hbm_bandwidth > a.hbm_bandwidth);
    }

    #[test]
    fn kernel_time_scales_linearly_with_cells_and_iterations() {
        let model = GpuTimeModel::new(GpuSpec::a100());
        let small = model.cg_time(Dims::new(100, 100, 100), 10);
        let bigger = model.cg_time(Dims::new(200, 100, 100), 10);
        assert!((bigger / small - 2.0).abs() < 1e-9);
        let more_iters = model.cg_time(Dims::new(100, 100, 100), 20);
        assert!((more_iters / small - 2.0).abs() < 1e-9);
    }

    #[test]
    fn paper_scale_problem_is_in_the_tens_of_seconds_on_a100() {
        // Table II/III: the 750 × 994 × 922 mesh over 225 iterations takes ≈23 s on
        // the A100.  The analytic model must land in the same order of magnitude.
        let model = GpuTimeModel::new(GpuSpec::a100());
        let t = model.cg_time(Dims::new(750, 994, 922), 225);
        assert!(
            t > 5.0 && t < 60.0,
            "modelled A100 time {t} s out of expected range"
        );
        // And the H100 is faster but in the same order (paper: ≈11.4 s).
        let th = GpuTimeModel::new(GpuSpec::h100()).cg_time(Dims::new(750, 994, 922), 225);
        assert!(th < t);
        assert!(
            th > 2.0 && th < 30.0,
            "modelled H100 time {th} s out of expected range"
        );
    }

    #[test]
    fn gpu_is_memory_bound_in_the_model() {
        // Achieved FLOP/s must sit far below the FP32 peak — the Figure-6 statement
        // that the GPU kernel is memory-bound.
        let model = GpuTimeModel::new(GpuSpec::a100());
        let achieved = model.achieved_flops(Dims::new(750, 994, 922));
        assert!(achieved < 0.2 * GpuSpec::a100().peak_flops);
    }
}
