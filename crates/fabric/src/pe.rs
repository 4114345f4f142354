//! A processing element: local memory, router, mailboxes and the vectorised
//! (DSD-driven) instruction set.
//!
//! "Each PE computes independently using data from its own private local memory"
//! (§III).  The instruction set implemented here is the subset the matrix-free FV
//! kernel needs — the same FMUL / FSUB / FADD / FNEG / FMA / FMOV operations the
//! paper counts in Table V — each operation updating the PE's [`OpCounters`] with
//! its FLOPs and memory traffic so measured counts can be compared with the
//! paper's static accounting.

use crate::color::{Color, NUM_ROUTABLE_COLORS};
use crate::dsd::Dsd;
use crate::error::FabricError;
use crate::geometry::PeId;
use crate::memory::{BufferId, PeMemory};
use crate::router::Router;
use crate::stats::OpCounters;
use std::collections::VecDeque;

const F32_BYTES: u64 = 4;

/// One processing element of the fabric.
#[derive(Clone, Debug)]
pub struct ProcessingElement {
    id: PeId,
    memory: PeMemory,
    router: Router,
    mailboxes: Vec<VecDeque<Vec<f32>>>,
    counters: OpCounters,
}

impl ProcessingElement {
    /// A PE with the default 48 KiB local memory.
    pub fn new(id: PeId) -> Self {
        Self::with_memory(id, PeMemory::new(id))
    }

    /// A PE with explicit memory (tests use reduced capacities).
    pub fn with_memory(id: PeId, memory: PeMemory) -> Self {
        Self {
            id,
            memory,
            router: Router::new(id),
            mailboxes: vec![VecDeque::new(); NUM_ROUTABLE_COLORS as usize],
            counters: OpCounters::default(),
        }
    }

    /// PE coordinates.
    pub fn id(&self) -> PeId {
        self.id
    }

    /// Immutable access to local memory.
    pub fn memory(&self) -> &PeMemory {
        &self.memory
    }

    /// Mutable access to local memory.
    pub fn memory_mut(&mut self) -> &mut PeMemory {
        &mut self.memory
    }

    /// Immutable access to the router.
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// Mutable access to the router.
    pub fn router_mut(&mut self) -> &mut Router {
        &mut self.router
    }

    /// The PE's operation counters.
    pub fn counters(&self) -> &OpCounters {
        &self.counters
    }

    /// Mutable access to the counters (used by the fabric when accounting traffic).
    pub fn counters_mut(&mut self) -> &mut OpCounters {
        &mut self.counters
    }

    /// Reset the compute counters (memory allocations and mailboxes are preserved).
    pub fn reset_counters(&mut self) {
        self.counters.reset();
    }

    // ---------------------------------------------------------------- mailboxes

    /// Deliver a payload to the mailbox of a colour (called by the fabric when a
    /// wavelet train lands on this PE's ramp).
    pub(crate) fn deliver(&mut self, color: Color, payload: Vec<f32>) {
        self.counters.fabric_recv_wavelets += payload.len() as u64;
        self.mailboxes[color.index()].push_back(payload);
    }

    /// Number of messages waiting on a colour.
    pub fn pending(&self, color: Color) -> usize {
        self.mailboxes[color.index()].len()
    }

    /// Pop the oldest message of a colour.
    pub fn take_message(&mut self, color: Color) -> Result<Vec<f32>, FabricError> {
        self.mailboxes[color.index()]
            .pop_front()
            .ok_or(FabricError::EmptyMailbox { pe: self.id, color })
    }

    // ------------------------------------------------------- vectorised compute

    /// Allocate a named buffer in local memory.
    pub fn alloc(&mut self, name: &str, len: usize) -> Result<BufferId, FabricError> {
        self.memory.alloc(name, len)
    }

    /// `dst[i] = src[i]` (FMOV: 0 FLOPs, 1 load + 1 store per element).
    pub fn fmovs(&mut self, dst: Dsd, src: Dsd) -> Result<(), FabricError> {
        let values = src.gather(&self.memory)?;
        self.check_same_len(dst, src)?;
        dst.scatter(&mut self.memory, &values)?;
        self.counters.mem_load_bytes += values.len() as u64 * F32_BYTES;
        self.counters.mem_store_bytes += values.len() as u64 * F32_BYTES;
        Ok(())
    }

    /// Fill a view with a constant (counts stores only).
    pub fn fill(&mut self, dst: Dsd, value: f32) -> Result<(), FabricError> {
        dst.scatter(&mut self.memory, &vec![value; dst.len])?;
        self.counters.mem_store_bytes += dst.len as u64 * F32_BYTES;
        Ok(())
    }

    /// `dst[i] = a[i] + b[i]` (FADD: 1 FLOP, 2 loads + 1 store per element).
    pub fn fadds(&mut self, dst: Dsd, a: Dsd, b: Dsd) -> Result<(), FabricError> {
        self.binary_op(dst, a, b, |x, y| x + y, 1)
    }

    /// `dst[i] = a[i] - b[i]` (FSUB: 1 FLOP, 2 loads + 1 store per element).
    pub fn fsubs(&mut self, dst: Dsd, a: Dsd, b: Dsd) -> Result<(), FabricError> {
        self.binary_op(dst, a, b, |x, y| x - y, 1)
    }

    /// `dst[i] = acc[i] + a[i] * b[i]` (FMA: 2 FLOPs, 3 loads + 1 store per element).
    pub fn fmacs(&mut self, dst: Dsd, acc: Dsd, a: Dsd, b: Dsd) -> Result<(), FabricError> {
        if dst.len != acc.len || dst.len != a.len || dst.len != b.len {
            return Err(FabricError::DsdOutOfRange {
                detail: format!(
                    "fmacs length mismatch: dst {}, acc {}, a {}, b {}",
                    dst.len, acc.len, a.len, b.len
                ),
            });
        }
        let va = a.gather(&self.memory)?;
        let vb = b.gather(&self.memory)?;
        let vacc = acc.gather(&self.memory)?;
        let out: Vec<f32> = vacc
            .iter()
            .zip(va.iter().zip(vb.iter()))
            .map(|(&c, (&x, &y))| x.mul_add(y, c))
            .collect();
        dst.scatter(&mut self.memory, &out)?;
        let n = dst.len as u64;
        self.counters.flops += 2 * n;
        self.counters.mem_load_bytes += 3 * n * F32_BYTES;
        self.counters.mem_store_bytes += n * F32_BYTES;
        Ok(())
    }

    /// `dst[i] = src[i] * scalar` (FMUL with a scalar operand held in a register).
    pub fn fmuls_scalar(&mut self, dst: Dsd, src: Dsd, scalar: f32) -> Result<(), FabricError> {
        let values: Vec<f32> = src
            .gather(&self.memory)?
            .iter()
            .map(|v| v * scalar)
            .collect();
        self.check_same_len(dst, src)?;
        dst.scatter(&mut self.memory, &values)?;
        let n = dst.len as u64;
        self.counters.flops += n;
        self.counters.mem_load_bytes += n * F32_BYTES;
        self.counters.mem_store_bytes += n * F32_BYTES;
        Ok(())
    }

    /// `dst[i] += src[i] * scalar` (the axpy update of CG lines 6–7; FMA per element).
    pub fn axpy(&mut self, dst: Dsd, src: Dsd, scalar: f32) -> Result<(), FabricError> {
        self.check_same_len(dst, src)?;
        let vs = src.gather(&self.memory)?;
        let vd = dst.gather(&self.memory)?;
        let out: Vec<f32> = vd
            .iter()
            .zip(vs.iter())
            .map(|(&d, &s)| s.mul_add(scalar, d))
            .collect();
        dst.scatter(&mut self.memory, &out)?;
        let n = dst.len as u64;
        self.counters.flops += 2 * n;
        self.counters.mem_load_bytes += 2 * n * F32_BYTES;
        self.counters.mem_store_bytes += n * F32_BYTES;
        Ok(())
    }

    /// `dst[i] = src[i] + dst[i] * scalar` (the search-direction update of CG
    /// line 10; FMA per element).
    pub fn xpby(&mut self, dst: Dsd, src: Dsd, scalar: f32) -> Result<(), FabricError> {
        self.check_same_len(dst, src)?;
        let vs = src.gather(&self.memory)?;
        let vd = dst.gather(&self.memory)?;
        let out: Vec<f32> = vd
            .iter()
            .zip(vs.iter())
            .map(|(&d, &s)| d.mul_add(scalar, s))
            .collect();
        dst.scatter(&mut self.memory, &out)?;
        let n = dst.len as u64;
        self.counters.flops += 2 * n;
        self.counters.mem_load_bytes += 2 * n * F32_BYTES;
        self.counters.mem_store_bytes += n * F32_BYTES;
        Ok(())
    }

    /// Local dot product `Σ a[i]·b[i]` (FMA per element, result kept in a register —
    /// no store traffic).
    pub fn dot_local(&mut self, a: Dsd, b: Dsd) -> Result<f32, FabricError> {
        if a.len != b.len {
            return Err(FabricError::DsdOutOfRange {
                detail: format!("dot length mismatch: {} vs {}", a.len, b.len),
            });
        }
        let va = a.gather(&self.memory)?;
        let vb = b.gather(&self.memory)?;
        let mut acc = 0.0f32;
        for (&x, &y) in va.iter().zip(vb.iter()) {
            acc = x.mul_add(y, acc);
        }
        let n = a.len as u64;
        self.counters.flops += 2 * n;
        self.counters.mem_load_bytes += 2 * n * F32_BYTES;
        Ok(acc)
    }

    fn binary_op(
        &mut self,
        dst: Dsd,
        a: Dsd,
        b: Dsd,
        op: impl Fn(f32, f32) -> f32,
        flops_per_element: u64,
    ) -> Result<(), FabricError> {
        if dst.len != a.len || dst.len != b.len {
            return Err(FabricError::DsdOutOfRange {
                detail: format!("length mismatch: dst {}, a {}, b {}", dst.len, a.len, b.len),
            });
        }
        let va = a.gather(&self.memory)?;
        let vb = b.gather(&self.memory)?;
        let out: Vec<f32> = va.iter().zip(vb.iter()).map(|(&x, &y)| op(x, y)).collect();
        dst.scatter(&mut self.memory, &out)?;
        let n = dst.len as u64;
        self.counters.flops += flops_per_element * n;
        self.counters.mem_load_bytes += 2 * n * F32_BYTES;
        self.counters.mem_store_bytes += n * F32_BYTES;
        Ok(())
    }

    fn check_same_len(&self, a: Dsd, b: Dsd) -> Result<(), FabricError> {
        if a.len != b.len {
            return Err(FabricError::DsdOutOfRange {
                detail: format!("length mismatch: {} vs {}", a.len, b.len),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pe_with_buffers(len: usize) -> (ProcessingElement, BufferId, BufferId, BufferId) {
        let mut pe = ProcessingElement::with_memory(
            PeId::new(0, 0),
            PeMemory::with_capacity(PeId::new(0, 0), 16 * 1024, 64),
        );
        let a = pe.alloc("a", len).unwrap();
        let b = pe.alloc("b", len).unwrap();
        let c = pe.alloc("c", len).unwrap();
        (pe, a, b, c)
    }

    #[test]
    fn elementwise_ops_compute_and_count() {
        let (mut pe, a, b, c) = pe_with_buffers(4);
        pe.memory_mut().write(a, 0, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        pe.memory_mut()
            .write(b, 0, &[10.0, 20.0, 30.0, 40.0])
            .unwrap();
        pe.fadds(Dsd::full(c, 4), Dsd::full(a, 4), Dsd::full(b, 4))
            .unwrap();
        assert_eq!(
            pe.memory().read(c, 0, 4).unwrap(),
            vec![11.0, 22.0, 33.0, 44.0]
        );
        pe.fsubs(Dsd::full(c, 4), Dsd::full(b, 4), Dsd::full(a, 4))
            .unwrap();
        assert_eq!(
            pe.memory().read(c, 0, 4).unwrap(),
            vec![9.0, 18.0, 27.0, 36.0]
        );
        // 2 binary ops × 4 elements × 1 FLOP each.
        assert_eq!(pe.counters().flops, 8);
        // 2 ops × 4 elements × (2 loads + 1 store) × 4 bytes.
        assert_eq!(pe.counters().mem_load_bytes, 2 * 4 * 2 * 4);
        assert_eq!(pe.counters().mem_store_bytes, 2 * 4 * 4);
    }

    #[test]
    fn fma_neg_mov_fill() {
        let (mut pe, a, b, c) = pe_with_buffers(3);
        pe.memory_mut().write(a, 0, &[1.0, 2.0, 3.0]).unwrap();
        pe.memory_mut().write(b, 0, &[4.0, 5.0, 6.0]).unwrap();
        pe.fill(Dsd::full(c, 3), 1.0).unwrap();
        pe.fmacs(
            Dsd::full(c, 3),
            Dsd::full(c, 3),
            Dsd::full(a, 3),
            Dsd::full(b, 3),
        )
        .unwrap();
        assert_eq!(pe.memory().read(c, 0, 3).unwrap(), vec![5.0, 11.0, 19.0]);
        pe.fmovs(Dsd::full(a, 3), Dsd::full(c, 3)).unwrap();
        assert_eq!(pe.memory().read(a, 0, 3).unwrap(), vec![5.0, 11.0, 19.0]);
        // FMA counts 2 FLOPs per element, FMOV 0.
        assert_eq!(pe.counters().flops, 3 * 2);
    }

    #[test]
    fn axpy_xpby_scalar_and_dot() {
        let (mut pe, a, b, _c) = pe_with_buffers(4);
        pe.memory_mut().write(a, 0, &[1.0, 1.0, 1.0, 1.0]).unwrap();
        pe.memory_mut().write(b, 0, &[2.0, 2.0, 2.0, 2.0]).unwrap();
        pe.axpy(Dsd::full(a, 4), Dsd::full(b, 4), 3.0).unwrap();
        assert_eq!(pe.memory().read(a, 0, 4).unwrap(), vec![7.0; 4]);
        pe.xpby(Dsd::full(a, 4), Dsd::full(b, 4), 0.5).unwrap();
        assert_eq!(pe.memory().read(a, 0, 4).unwrap(), vec![5.5; 4]);
        pe.fmuls_scalar(Dsd::full(a, 4), Dsd::full(a, 4), 2.0)
            .unwrap();
        assert_eq!(pe.memory().read(a, 0, 4).unwrap(), vec![11.0; 4]);
        let dot = pe.dot_local(Dsd::full(a, 4), Dsd::full(b, 4)).unwrap();
        assert_eq!(dot, 88.0);
    }

    #[test]
    fn mailboxes_fifo_order() {
        let mut pe = ProcessingElement::new(PeId::new(2, 3));
        let c = Color::new(1);
        pe.deliver(c, vec![1.0]);
        pe.deliver(c, vec![2.0]);
        assert_eq!(pe.pending(c), 2);
        assert_eq!(pe.take_message(c).unwrap(), vec![1.0]);
        assert_eq!(pe.take_message(c).unwrap(), vec![2.0]);
        assert!(pe.take_message(c).is_err());
        assert_eq!(pe.counters().fabric_recv_wavelets, 2);
    }

    #[test]
    fn length_mismatches_rejected() {
        let (mut pe, a, b, c) = pe_with_buffers(4);
        assert!(pe
            .fadds(Dsd::full(c, 4), Dsd::new(a, 0, 2), Dsd::full(b, 4))
            .is_err());
        assert!(pe.dot_local(Dsd::new(a, 0, 2), Dsd::full(b, 4)).is_err());
        assert!(pe
            .fmacs(
                Dsd::full(c, 4),
                Dsd::full(c, 4),
                Dsd::new(a, 0, 3),
                Dsd::full(b, 4)
            )
            .is_err());
    }

    #[test]
    fn reset_counters_only_clears_counts() {
        let (mut pe, a, b, c) = pe_with_buffers(2);
        pe.fadds(Dsd::full(c, 2), Dsd::full(a, 2), Dsd::full(b, 2))
            .unwrap();
        assert!(pe.counters().flops > 0);
        pe.reset_counters();
        assert_eq!(pe.counters().flops, 0);
        assert_eq!(pe.memory().len(c).unwrap(), 2);
    }
}
