//! Device-time cost model for the simulated wafer-scale fabric.
//!
//! The real CS-2 measures kernel time with hardware timestamp counters; the
//! simulator cannot, so device time is *modelled* from counted work using the
//! machine ceilings the paper itself publishes in its roofline analysis (Figure 6):
//! 1.785 PFLOP/s fp32 peak, 20 PB/s aggregate local-memory bandwidth and 3.3 PB/s
//! fabric bandwidth over the 750 × 994 usable fabric.  The model deliberately
//! mirrors the paper's own reasoning: per-PE time is the larger of the FLOP time and
//! the memory-traffic time (compute-bound kernels sit at the FLOP ceiling), fabric
//! transfers overlap with compute (the §III-E2 asynchronous communication), and
//! long-range collectives add a per-hop latency term that grows with the fabric
//! diagonal — which is exactly why Algorithm 1 scales slightly worse than
//! Algorithm 2 in Table III.

use crate::geometry::FabricDims;
use crate::stats::OpCounters;

/// Machine description of a WSE-2-class device.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WseSpec {
    /// Usable fabric extents.
    pub fabric: FabricDims,
    /// Aggregate fp32 peak over the usable fabric, FLOP/s.
    pub peak_flops: f64,
    /// Aggregate local-memory bandwidth, bytes/s.
    pub memory_bandwidth: f64,
    /// Aggregate fabric (inter-PE) bandwidth, bytes/s.
    pub fabric_bandwidth: f64,
    /// Latency of one router hop, seconds.
    pub hop_latency: f64,
    /// Fixed per-kernel-launch overhead, seconds (task scheduling, colour
    /// activation).
    pub launch_overhead: f64,
}

impl WseSpec {
    /// The CS-2 configuration used throughout the paper's evaluation (§V, Figure 6).
    pub fn cs2() -> Self {
        Self {
            fabric: FabricDims::cs2(),
            peak_flops: 1.785e15,
            memory_bandwidth: 20.0e15,
            fabric_bandwidth: 3.3e15,
            // ~1 cycle per hop at ~1.1 GHz.
            hop_latency: 0.9e-9,
            launch_overhead: 2.0e-6,
        }
    }

    /// The same per-PE rates applied to a smaller active region of the fabric (weak
    /// scaling experiments use sub-rectangles of the full wafer).
    pub fn cs2_region(width: usize, height: usize) -> Self {
        let full = Self::cs2();
        let scale = (width * height) as f64 / full.fabric.num_pes() as f64;
        Self {
            fabric: FabricDims::new(width, height),
            peak_flops: full.peak_flops * scale,
            memory_bandwidth: full.memory_bandwidth * scale,
            fabric_bandwidth: full.fabric_bandwidth * scale,
            hop_latency: full.hop_latency,
            launch_overhead: full.launch_overhead,
        }
    }

    /// Per-PE fp32 peak, FLOP/s.
    pub fn per_pe_flops(&self) -> f64 {
        self.peak_flops / self.fabric.num_pes() as f64
    }

    /// Per-PE local-memory bandwidth, bytes/s.
    pub fn per_pe_memory_bandwidth(&self) -> f64 {
        self.memory_bandwidth / self.fabric.num_pes() as f64
    }

    /// Per-PE fabric bandwidth, bytes/s.
    pub fn per_pe_fabric_bandwidth(&self) -> f64 {
        self.fabric_bandwidth / self.fabric.num_pes() as f64
    }
}

/// The device-time model.
#[derive(Clone, Copy, Debug)]
pub struct DeviceTimeModel {
    spec: WseSpec,
}

/// A breakdown of modelled device time.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TimeBreakdown {
    /// Time attributable to floating-point work, s.
    pub compute_time: f64,
    /// Time attributable to local-memory traffic, s.
    pub memory_time: f64,
    /// Time attributable to fabric transfers (bandwidth term), s.
    pub fabric_time: f64,
    /// Time attributable to hop latency along the critical path, s.
    pub latency_time: f64,
    /// Total modelled device time, s.
    pub total: f64,
}

impl DeviceTimeModel {
    /// A model over a machine spec.
    pub fn new(spec: WseSpec) -> Self {
        Self { spec }
    }

    /// Model device time from the *per-PE maximum* counters (the slowest PE bounds a
    /// bulk-synchronous step) and a critical-path hop count for collectives.
    /// Asynchronous sends overlap with compute (§III-E2), so the total is the
    /// larger of the local and the communication time, plus the launch
    /// overhead.
    pub fn estimate(&self, max_per_pe: &OpCounters, critical_path_hops: usize) -> TimeBreakdown {
        let compute_time = max_per_pe.flops as f64 / self.spec.per_pe_flops();
        let memory_time = max_per_pe.mem_bytes() as f64 / self.spec.per_pe_memory_bandwidth();
        let fabric_time = max_per_pe.fabric_bytes() as f64 / self.spec.per_pe_fabric_bandwidth();
        let latency_time = critical_path_hops as f64 * self.spec.hop_latency;

        // Within one PE, FLOPs and memory accesses are issued by the same core: the
        // slower of the two ceilings bounds the local step.
        let local = compute_time.max(memory_time);
        let comm = fabric_time + latency_time;
        let total = local.max(comm) + self.spec.launch_overhead;
        TimeBreakdown {
            compute_time,
            memory_time,
            fabric_time,
            latency_time,
            total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cs2_spec_matches_paper_ceilings() {
        let s = WseSpec::cs2();
        assert_eq!(s.fabric.num_pes(), 745_500);
        assert!((s.peak_flops - 1.785e15).abs() < 1e9);
        assert!((s.memory_bandwidth - 20.0e15).abs() < 1e9);
        assert!((s.fabric_bandwidth - 3.3e15).abs() < 1e9);
        // Per-PE peak ≈ 2.4 GFLOP/s.
        assert!((s.per_pe_flops() - 2.394e9).abs() / 2.394e9 < 0.01);
    }

    #[test]
    fn region_scaling_preserves_per_pe_rates() {
        let full = WseSpec::cs2();
        let region = WseSpec::cs2_region(200, 200);
        assert!((full.per_pe_flops() - region.per_pe_flops()).abs() < 1.0);
        assert!((full.per_pe_memory_bandwidth() - region.per_pe_memory_bandwidth()).abs() < 1.0);
        assert_eq!(region.fabric.num_pes(), 40_000);
    }

    #[test]
    fn compute_bound_kernel_is_limited_by_flops() {
        // Table V ratio: 96 FLOPs vs 268 × 4 B of memory traffic per cell is
        // compute-bound on the CS-2 (the paper's Figure 6 conclusion).
        let model = DeviceTimeModel::new(WseSpec::cs2());
        let per_cell = OpCounters {
            flops: 96,
            mem_load_bytes: 268 * 4,
            mem_store_bytes: 0,
            fabric_recv_wavelets: 8,
            fabric_sent_wavelets: 0,
        };
        let t = model.estimate(&per_cell, 0);
        assert!(t.compute_time > t.memory_time);
        assert!(t.compute_time > t.fabric_time);
    }

    #[test]
    fn latency_grows_with_hops() {
        let model = DeviceTimeModel::new(WseSpec::cs2());
        let c = OpCounters {
            flops: 10,
            ..Default::default()
        };
        let near = model.estimate(&c, 10);
        let far = model.estimate(&c, 1000);
        assert!(far.total > near.total);
        assert!((far.latency_time - 1000.0 * WseSpec::cs2().hop_latency).abs() < 1e-12);
    }
}
