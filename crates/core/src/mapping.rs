//! Data mapping and PE local-memory planning (§III-A and §III-E1).
//!
//! "We decompose the data domain such that every cell from the Z-dimension is mapped
//! to the same PE, while the X and Y dimensions are mapped across the two axes of
//! the fabric … we map a cell with coordinates (x, y, z) in the 3D mesh onto PE
//! (x, y)." (§III-A)
//!
//! The second half of this module is the memory-plan analysis behind the paper's
//! §III-E1 optimisation: each PE has 48 KiB of local memory, so what fits — and how
//! deep a z-column can be — depends on how aggressively buffers are reused.
//! [`MemoryPlan`] models both the straightforward allocation and the reused one, and
//! [`MemoryPlan::max_nz`] answers "what is the deepest column a 48 KiB PE can hold?",
//! which is the quantity that decides whether the paper's 922-deep column fits.

use mffv_fabric::error::FabricError;
use mffv_fabric::memory::PE_MEMORY_BYTES;
use mffv_fabric::{BufferId, ProcessingElement};
use mffv_mesh::Workload;

/// Code and runtime bytes a [`MemoryPlan`] reserves on each PE for the FV
/// kernel.  The executed PE reserves
/// [`DEFAULT_CODE_RESERVATION_BYTES`](mffv_fabric::memory::DEFAULT_CODE_RESERVATION_BYTES)
/// instead.
pub const KERNEL_CODE_BYTES: usize = 2048;

/// How aggressively PE-local buffers are reused (§III-E1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReuseStrategy {
    /// One buffer per logical array, no sharing: solution, residual, direction,
    /// right-hand side, operator output, Dirichlet mask as full f32 column, four
    /// halo buffers and the six transmissibility columns.
    None,
    /// The paper's hand-managed reuse: the right-hand side folds into the initial
    /// residual, the operator output overwrites a halo buffer once it is consumed,
    /// only two halo buffers are kept live (the X-phase halos are consumed before
    /// the Y-phase halos arrive), and the Dirichlet mask is packed to one byte per
    /// cell.
    Aggressive,
}

/// A per-PE memory plan: the list of named buffers (in f32 elements, with packed
/// buffers expressed as fractional columns rounded up) for a column of depth `nz`.
#[derive(Clone, Debug, PartialEq)]
pub struct MemoryPlan {
    /// Column depth the plan is for.
    pub nz: usize,
    /// Reuse strategy the plan encodes.
    pub strategy: ReuseStrategy,
    /// Named allocations and their sizes in bytes.
    pub allocations: Vec<(String, usize)>,
}

impl MemoryPlan {
    /// Build the plan for a column of depth `nz` under a reuse strategy.
    pub fn new(nz: usize, strategy: ReuseStrategy) -> Self {
        let col = 4 * nz; // bytes per f32 column
        let mut allocations: Vec<(String, usize)> = Vec::new();
        match strategy {
            ReuseStrategy::None => {
                for name in ["solution", "residual", "direction", "rhs", "operator_out"] {
                    allocations.push((name.to_string(), col));
                }
                for dir in ["east", "west", "north", "south", "up", "down"] {
                    allocations.push((format!("transmissibility_{dir}"), col));
                }
                allocations.push(("dirichlet_mask_f32".to_string(), col));
                for dir in ["west", "east", "south", "north"] {
                    allocations.push((format!("halo_{dir}"), col));
                }
            }
            ReuseStrategy::Aggressive => {
                for name in ["solution", "residual", "direction"] {
                    allocations.push((name.to_string(), col));
                }
                for dir in ["east", "west", "north", "south", "up", "down"] {
                    allocations.push((format!("transmissibility_{dir}"), col));
                }
                // rhs is folded into the initial residual; operator output overwrites
                // the first halo buffer once its contribution is consumed; only two
                // halo buffers stay live because X-phase halos are consumed before
                // the Y-phase data arrives.
                allocations.push(("halo_a (reused: X/Y halos + operator_out)".to_string(), col));
                allocations.push(("halo_b (reused: X/Y halos)".to_string(), col));
                // Dirichlet mask packed to one byte per cell.
                allocations.push(("dirichlet_mask_packed".to_string(), nz));
            }
        }
        Self {
            nz,
            strategy,
            allocations,
        }
    }

    /// Total data bytes the plan needs.
    pub fn data_bytes(&self) -> usize {
        self.allocations.iter().map(|(_, b)| b).sum()
    }

    /// Total bytes including the [`KERNEL_CODE_BYTES`] reservation.
    pub fn total_bytes(&self) -> usize {
        self.data_bytes() + KERNEL_CODE_BYTES
    }

    /// Whether the plan fits a PE's [`PE_MEMORY_BYTES`].
    pub fn fits(&self) -> bool {
        self.total_bytes() <= PE_MEMORY_BYTES
    }

    /// The deepest column a PE's [`PE_MEMORY_BYTES`] can hold under a
    /// strategy.
    pub fn max_nz(strategy: ReuseStrategy) -> usize {
        // Bytes per cell of column depth: derived from the plan of a unit column.
        let per_cell = Self::new(1, strategy).data_bytes();
        (PE_MEMORY_BYTES - KERNEL_CODE_BYTES) / per_cell
    }
}

/// Handles to the buffers a PE holds for the matrix-free CG kernel.  The executed
/// simulator always allocates the straightforward set (the reuse analysis above is
/// what decides feasibility at paper scale; executed problems use short columns).
#[derive(Clone, Copy, Debug)]
pub struct PeColumnBuffers {
    /// The CG solution update δp (becomes the pressure increment).
    pub solution: BufferId,
    /// The CG residual r.
    pub residual: BufferId,
    /// The CG search direction d (the vector the operator is applied to and the
    /// quantity exchanged with neighbouring PEs).
    pub direction: BufferId,
    /// The operator output A·d.
    pub operator_out: BufferId,
    /// Transmissibility columns in `Direction::ALL` order (E, W, N, S, Up, Down).
    pub transmissibility: [BufferId; 6],
    /// Dirichlet mask (1.0 where the cell is a Dirichlet cell).
    pub dirichlet_mask: BufferId,
    /// Halo buffers for the four cardinal neighbours' direction columns
    /// (W, E, S, N order to match Table I's fill order).
    pub halo_west: BufferId,
    pub halo_east: BufferId,
    pub halo_south: BufferId,
    pub halo_north: BufferId,
    /// The preconditioned residual `z = M⁻¹ r` (PCG only; zero-filled
    /// otherwise).
    pub precond_z: BufferId,
    /// Inverse of the operator diagonal (1 on Dirichlet rows), the resident
    /// column behind the on-fabric Jacobi preconditioner.
    pub inv_diag: BufferId,
}

impl PeColumnBuffers {
    /// Allocate the full buffer set on a PE for a column of depth `nz`, loading the
    /// per-column data from the workload.
    pub fn allocate(
        pe: &mut ProcessingElement,
        workload: &Workload,
        x: usize,
        y: usize,
    ) -> Result<Self, FabricError> {
        let dims = workload.dims();
        let nz = dims.nz;
        let solution = pe.alloc("solution", nz)?;
        let residual = pe.alloc("residual", nz)?;
        let direction = pe.alloc("direction", nz)?;
        let operator_out = pe.alloc("operator_out", nz)?;
        let mut transmissibility = [solution; 6];
        for (i, dir) in mffv_mesh::Direction::ALL.iter().enumerate() {
            let buf = pe.alloc(&format!("transmissibility_{}", dir.compass()), nz)?;
            let column: Vec<f32> = workload
                .transmissibility()
                .column_dir(x, y, *dir)
                .iter()
                .map(|&v| v as f32)
                .collect();
            pe.memory_mut().write(buf, 0, &column)?;
            transmissibility[i] = buf;
        }
        let dirichlet_mask = pe.alloc("dirichlet_mask", nz)?;
        let mut mask = vec![0.0f32; nz];
        for (z, flag) in mask.iter_mut().enumerate() {
            let linear = dims.linear(mffv_mesh::CellIndex::new(x, y, z));
            if workload.dirichlet().contains_linear(linear) {
                *flag = 1.0;
            }
        }
        pe.memory_mut().write(dirichlet_mask, 0, &mask)?;

        let halo_west = pe.alloc("halo_west", nz)?;
        let halo_east = pe.alloc("halo_east", nz)?;
        let halo_south = pe.alloc("halo_south", nz)?;
        let halo_north = pe.alloc("halo_north", nz)?;

        let precond_z = pe.alloc("precond_z", nz)?;
        let inv_diag = pe.alloc("inv_diag", nz)?;
        // Operator diagonal: the sum of the six face coefficients (boundary
        // faces carry zero coefficients, so the raw row sum is exact), with
        // identity rows on Dirichlet cells.
        let mut inv = vec![1.0f32; nz];
        for (z, slot) in inv.iter_mut().enumerate() {
            let linear = dims.linear(mffv_mesh::CellIndex::new(x, y, z));
            if workload.dirichlet().contains_linear(linear) {
                continue;
            }
            let diag = workload.transmissibility().row_sum(linear) as f32;
            if diag.is_finite() && diag > 0.0 {
                *slot = 1.0 / diag;
            }
        }
        pe.memory_mut().write(inv_diag, 0, &inv)?;

        Ok(Self {
            solution,
            residual,
            direction,
            operator_out,
            transmissibility,
            dirichlet_mask,
            halo_west,
            halo_east,
            halo_south,
            halo_north,
            precond_z,
            inv_diag,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mffv_fabric::PeId;
    use mffv_mesh::workload::WorkloadSpec;

    #[test]
    fn naive_plan_is_larger_than_aggressive_plan() {
        let naive = MemoryPlan::new(922, ReuseStrategy::None);
        let reuse = MemoryPlan::new(922, ReuseStrategy::Aggressive);
        assert!(naive.data_bytes() > reuse.data_bytes());
        // Straightforward allocation: 16 full columns.
        assert_eq!(naive.data_bytes(), 16 * 4 * 922);
        // Reused allocation: 11 full columns + packed mask.
        assert_eq!(reuse.data_bytes(), 11 * 4 * 922 + 922);
    }

    #[test]
    fn papers_column_depth_fits_only_with_reuse() {
        // The paper runs Nz = 922 on 48 KiB PEs; without the §III-E1 reuse the
        // straightforward allocation does not fit.
        let naive = MemoryPlan::new(922, ReuseStrategy::None);
        let reuse = MemoryPlan::new(922, ReuseStrategy::Aggressive);
        assert!(!naive.fits());
        assert!(reuse.fits());
    }

    #[test]
    fn max_nz_brackets_the_paper_depth() {
        let max_naive = MemoryPlan::max_nz(ReuseStrategy::None);
        let max_reuse = MemoryPlan::max_nz(ReuseStrategy::Aggressive);
        assert!(
            max_naive < 922,
            "naive plan unexpectedly fits 922 (max {max_naive})"
        );
        assert!(
            max_reuse >= 922,
            "aggressive plan must fit the paper's 922 (max {max_reuse})"
        );
        assert!(max_reuse > max_naive);
        // Consistency: a plan at exactly max_nz fits, one cell deeper does not.
        let plan = MemoryPlan::new(max_reuse, ReuseStrategy::Aggressive);
        assert!(plan.fits());
        let over = MemoryPlan::new(max_reuse + 1, ReuseStrategy::Aggressive);
        assert!(!over.fits());
    }

    #[test]
    fn buffers_allocate_and_load_workload_columns() {
        let w = WorkloadSpec::quickstart().build();
        let mut pe = ProcessingElement::new(PeId::new(1, 1));
        let bufs = PeColumnBuffers::allocate(&mut pe, &w, 1, 1).unwrap();
        let nz = w.dims().nz;
        assert_eq!(pe.memory().len(bufs.solution).unwrap(), nz);
        // Transmissibility column matches the host-side table.
        let east: Vec<f32> = w
            .transmissibility()
            .column_dir(1, 1, mffv_mesh::Direction::XP)
            .iter()
            .map(|&v| v as f32)
            .collect();
        assert_eq!(
            pe.memory().read(bufs.transmissibility[0], 0, nz).unwrap(),
            east
        );
    }

    #[test]
    fn dirichlet_columns_are_marked() {
        let w = WorkloadSpec::quickstart().build();
        // Column (0, 0) is the source well: every cell is Dirichlet.
        let mut pe = ProcessingElement::new(PeId::new(0, 0));
        let bufs = PeColumnBuffers::allocate(&mut pe, &w, 0, 0).unwrap();
        let nz = w.dims().nz;
        let mask = pe.memory().read(bufs.dirichlet_mask, 0, nz).unwrap();
        assert!(mask.iter().all(|&m| m == 1.0));
        // An interior column has no Dirichlet cells.
        let mut pe2 = ProcessingElement::new(PeId::new(3, 3));
        let bufs2 = PeColumnBuffers::allocate(&mut pe2, &w, 3, 3).unwrap();
        let mask2 = pe2.memory().read(bufs2.dirichlet_mask, 0, nz).unwrap();
        assert!(mask2.iter().all(|&m| m == 0.0));
    }
}
