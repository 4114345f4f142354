//! Run statistics: the measured quantities behind Tables II–IV and Figure 6.
//!
//! The simulator produces two kinds of numbers: **measured counts** (FLOPs, memory
//! traffic, fabric traffic, hop depths — exact, from the functional execution) and
//! **modelled device time** (derived from those counts and the machine ceilings of
//! [`mffv_fabric::WseSpec`]).  [`DataflowRunStats`] collects both and derives the
//! modelled device time and the achieved FLOP/s of Figure 6.

use mffv_fabric::stats::{FabricStats, OpCounters};
use mffv_fabric::timing::{DeviceTimeModel, OverlapMode, TimeBreakdown, WseSpec};

/// Statistics of one dataflow solve.
#[derive(Clone, Debug, Default)]
pub struct DataflowRunStats {
    /// Number of CG iterations performed.
    pub iterations: usize,
    /// Total cells in the problem.
    pub total_cells: usize,
    /// Sum of compute counters over all PEs.
    pub total_compute: OpCounters,
    /// Element-wise maximum of per-PE counters (bounds bulk-synchronous time).
    pub max_per_pe_compute: OpCounters,
    /// Fabric-wide traffic statistics.
    pub fabric: FabricStats,
    /// Accumulated latency-critical hop count (exchange steps + all-reduce chains).
    pub critical_path_hops: usize,
    /// Wall-clock seconds the host simulation took (NOT device time; reported for
    /// transparency only).
    pub host_wall_seconds: f64,
}

impl DataflowRunStats {
    /// Model the device time of this run on a machine, with the given overlap
    /// assumption and SIMD efficiency (1.0 = vectorised, 0.5 = scalar).
    pub fn modelled_time(
        &self,
        spec: WseSpec,
        overlap: OverlapMode,
        simd_efficiency: f64,
    ) -> TimeBreakdown {
        let model = DeviceTimeModel::new(spec);
        let mut counters = self.max_per_pe_compute;
        // Scalar execution halves the effective SIMD throughput: model it as extra
        // FLOP "work" at the same peak rate.
        if simd_efficiency > 0.0 && simd_efficiency < 1.0 {
            counters.flops = (counters.flops as f64 / simd_efficiency).round() as u64;
        }
        model.estimate(&counters, self.critical_path_hops, overlap)
    }

    /// Achieved FLOP/s given a modelled total time (the Figure-6 dot).
    pub fn achieved_flops(&self, total_time: f64) -> f64 {
        if total_time <= 0.0 {
            0.0
        } else {
            self.total_compute.flops as f64 / total_time
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stats() -> DataflowRunStats {
        DataflowRunStats {
            iterations: 10,
            total_cells: 1000,
            total_compute: OpCounters {
                flops: 96_000,
                mem_load_bytes: 800_000,
                mem_store_bytes: 272_000,
                fabric_recv_wavelets: 8_000,
                fabric_sent_wavelets: 8_000,
            },
            max_per_pe_compute: OpCounters {
                flops: 960,
                mem_load_bytes: 8_000,
                mem_store_bytes: 2_720,
                fabric_recv_wavelets: 80,
                fabric_sent_wavelets: 80,
            },
            fabric: FabricStats::default(),
            critical_path_hops: 200,
            host_wall_seconds: 0.1,
        }
    }

    #[test]
    fn scalar_execution_increases_modelled_time() {
        let stats = sample_stats();
        let vectorised = stats.modelled_time(WseSpec::cs2(), OverlapMode::Overlapped, 1.0);
        let scalar = stats.modelled_time(WseSpec::cs2(), OverlapMode::Overlapped, 0.5);
        assert!(scalar.compute_time > vectorised.compute_time);
    }

    #[test]
    fn overlap_never_slower_than_serialized() {
        let stats = sample_stats();
        let overlapped = stats.modelled_time(WseSpec::cs2(), OverlapMode::Overlapped, 1.0);
        let serialized = stats.modelled_time(WseSpec::cs2(), OverlapMode::Serialized, 1.0);
        assert!(overlapped.total <= serialized.total);
    }

    #[test]
    fn throughput_and_flops_scale_with_time() {
        let stats = sample_stats();
        assert_eq!(stats.achieved_flops(2.0), 48_000.0);
        assert_eq!(stats.achieved_flops(0.0), 0.0);
    }
}
