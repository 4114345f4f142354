//! Execution statistics: per-PE operation counters and fabric-wide traffic.
//!
//! The paper's performance analysis is built entirely on counted quantities —
//! FLOPs, memory loads/stores and fabric loads per cell (Table V), data-movement
//! versus compute time (Table IV) and roofline positions (Figure 6).  The simulator
//! counts the same quantities during functional execution so the models in
//! `mffv-perf` can be validated against *measured* counts rather than only static
//! formulas.

/// Per-PE compute and traffic counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounters {
    /// Floating-point operations executed (an FMA counts as 2, as in the paper).
    pub flops: u64,
    /// Bytes loaded from local memory.
    pub mem_load_bytes: u64,
    /// Bytes stored to local memory.
    pub mem_store_bytes: u64,
    /// Wavelets received from the fabric (landed on the ramp).
    pub fabric_recv_wavelets: u64,
    /// Wavelets injected into the fabric from this PE.
    pub fabric_sent_wavelets: u64,
}

impl OpCounters {
    /// Total local-memory traffic in bytes.
    pub fn mem_bytes(&self) -> u64 {
        self.mem_load_bytes + self.mem_store_bytes
    }

    /// Total fabric traffic in bytes (4 bytes per wavelet).
    pub fn fabric_bytes(&self) -> u64 {
        4 * (self.fabric_recv_wavelets + self.fabric_sent_wavelets)
    }

    /// Arithmetic intensity with respect to local memory traffic (FLOP / byte).
    pub fn memory_arithmetic_intensity(&self) -> f64 {
        if self.mem_bytes() == 0 {
            0.0
        } else {
            self.flops as f64 / self.mem_bytes() as f64
        }
    }

    /// Arithmetic intensity with respect to fabric traffic (FLOP / byte).
    pub fn fabric_arithmetic_intensity(&self) -> f64 {
        if self.fabric_bytes() == 0 {
            0.0
        } else {
            self.flops as f64 / self.fabric_bytes() as f64
        }
    }

    /// Element-wise sum of two counters.
    pub fn merged(&self, other: &OpCounters) -> OpCounters {
        OpCounters {
            flops: self.flops + other.flops,
            mem_load_bytes: self.mem_load_bytes + other.mem_load_bytes,
            mem_store_bytes: self.mem_store_bytes + other.mem_store_bytes,
            fabric_recv_wavelets: self.fabric_recv_wavelets + other.fabric_recv_wavelets,
            fabric_sent_wavelets: self.fabric_sent_wavelets + other.fabric_sent_wavelets,
        }
    }

    /// Reset all counters to zero.
    pub fn reset(&mut self) {
        *self = OpCounters::default();
    }
}

/// Fabric-wide traffic statistics accumulated across every `send`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Number of messages injected into the fabric.
    pub messages_sent: u64,
    /// Number of link crossings (message granularity).
    pub link_crossings: u64,
    /// Number of wavelet·hop units (payload wavelets × links crossed).
    pub wavelet_hops: u64,
    /// Payload bytes moved across links (bytes × links crossed).
    pub link_bytes: u64,
    /// Messages delivered to PE ramps.
    pub deliveries: u64,
    /// Switch-advance control commands executed.
    pub control_advances: u64,
    /// Deepest single route (in links) observed — an indicator of the critical path
    /// of broadcast/reduction patterns.
    pub max_route_depth: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_intensities() {
        let c = OpCounters {
            flops: 96,
            mem_load_bytes: 800,
            mem_store_bytes: 272,
            fabric_recv_wavelets: 8,
            fabric_sent_wavelets: 0,
        };
        assert_eq!(c.mem_bytes(), 1072);
        assert_eq!(c.fabric_bytes(), 32);
        assert!((c.memory_arithmetic_intensity() - 96.0 / 1072.0).abs() < 1e-12);
        assert!((c.fabric_arithmetic_intensity() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn zero_traffic_gives_zero_intensity() {
        let c = OpCounters::default();
        assert_eq!(c.memory_arithmetic_intensity(), 0.0);
        assert_eq!(c.fabric_arithmetic_intensity(), 0.0);
    }

    #[test]
    fn merge_and_reset() {
        let a = OpCounters {
            flops: 10,
            mem_load_bytes: 4,
            ..Default::default()
        };
        let b = OpCounters {
            flops: 5,
            mem_store_bytes: 8,
            ..Default::default()
        };
        let m = a.merged(&b);
        assert_eq!(m.flops, 15);
        assert_eq!(m.mem_bytes(), 12);
        let mut c = m;
        c.reset();
        assert_eq!(c, OpCounters::default());
    }
}
