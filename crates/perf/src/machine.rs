//! Machine descriptions used by the roofline model.
//!
//! The ceilings are the ones the paper itself prints on its Figure-6 rooflines:
//! CS-2 — 1.785 PFLOP/s fp32, 20 PB/s memory, 3.3 PB/s fabric; A100 — 14.7 TFLOP/s,
//! L1 19 353.6 GB/s, L2 3 705.0 GB/s, HBM 1 262.9 GB/s.  The device-time models
//! own the figures they share with the rooflines: the CS-2's come from
//! [`WseSpec::cs2`], the A100's peak and HBM bandwidth from [`GpuSpec::a100`].
//! The A100's L1 and L2 levels are stated only here.

use mffv_fabric::WseSpec;
use mffv_gpu_ref::GpuSpec;

/// A named bandwidth level (roofline slope).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BandwidthLevel {
    /// Label ("HBM", "Fabric", …).
    pub name: &'static str,
    /// Bandwidth in bytes/s.
    pub bytes_per_second: f64,
}

/// A machine as the roofline model sees it: one compute ceiling, several bandwidth
/// ceilings.
#[derive(Clone, Debug, PartialEq)]
pub struct MachineSpec {
    /// Machine name.
    pub name: &'static str,
    /// FP32 peak, FLOP/s.
    pub peak_flops: f64,
    /// Bandwidth levels, fastest first.
    pub bandwidths: Vec<BandwidthLevel>,
}

impl MachineSpec {
    /// The CS-2 as characterised in the paper (Figure 6, top).
    pub fn cs2() -> Self {
        let cs2 = WseSpec::cs2();
        Self {
            name: "CS-2",
            peak_flops: cs2.peak_flops,
            bandwidths: vec![
                BandwidthLevel {
                    name: "Memory",
                    bytes_per_second: cs2.memory_bandwidth,
                },
                BandwidthLevel {
                    name: "Fabric",
                    bytes_per_second: cs2.fabric_bandwidth,
                },
            ],
        }
    }

    /// The A100 as characterised in the paper (Figure 6, bottom).
    pub fn a100() -> Self {
        let a100 = GpuSpec::a100();
        Self {
            name: a100.name,
            peak_flops: a100.peak_flops,
            bandwidths: vec![
                BandwidthLevel {
                    name: "L1",
                    bytes_per_second: 19_353.6e9,
                },
                BandwidthLevel {
                    name: "L2",
                    bytes_per_second: 3_705.0e9,
                },
                BandwidthLevel {
                    name: "HBM",
                    bytes_per_second: a100.hbm_bandwidth,
                },
            ],
        }
    }

    /// The slowest (lowest) bandwidth level — the one that usually bounds a
    /// memory-bound kernel.
    pub fn slowest_bandwidth(&self) -> BandwidthLevel {
        *self
            .bandwidths
            .iter()
            .min_by(|a, b| a.bytes_per_second.total_cmp(&b.bytes_per_second))
            // audit: allow(panic) — invariant: every MachineSpec constructor
            // installs at least one bandwidth level.
            .expect("a machine needs at least one bandwidth level")
    }

    /// The bandwidth level with the given name, if present.
    pub fn bandwidth(&self, name: &str) -> Option<BandwidthLevel> {
        self.bandwidths.iter().copied().find(|b| b.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_ceilings_are_reproduced() {
        let cs2 = MachineSpec::cs2();
        assert_eq!(cs2.peak_flops, 1.785e15);
        assert_eq!(cs2.bandwidth("Fabric").unwrap().bytes_per_second, 3.3e15);
        let a100 = MachineSpec::a100();
        assert_eq!(a100.peak_flops, 14.7e12);
        assert_eq!(a100.bandwidth("HBM").unwrap().bytes_per_second, 1_262.9e9);
        assert_eq!(a100.bandwidths.len(), 3);
    }

    #[test]
    fn slowest_bandwidth_is_the_memory_system() {
        assert_eq!(MachineSpec::a100().slowest_bandwidth().name, "HBM");
        assert_eq!(MachineSpec::cs2().slowest_bandwidth().name, "Fabric");
    }

    #[test]
    fn cs2_peak_dwarfs_the_gpus() {
        assert!(MachineSpec::cs2().peak_flops / MachineSpec::a100().peak_flops > 100.0);
    }

    #[test]
    fn unknown_bandwidth_name_is_none() {
        assert!(MachineSpec::cs2().bandwidth("L2").is_none());
    }
}
