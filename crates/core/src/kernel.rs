//! The per-PE matrix-free kernel (Algorithm 2 on the fabric).
//!
//! Each PE applies the operator to its own z-column: the two vertical neighbours are
//! read from local memory (they live on the same PE under the Figure-3 mapping), the
//! four horizontal neighbours come from the halo buffers filled by the Table-I
//! exchange, and every arithmetic step is issued as a DSD vector operation so the
//! per-cell FLOP and traffic counts can be compared with the paper's Table V.
//!
//! The kernel computes the SPD form of the operator (see `mffv-fv`): because every
//! CG vector is identically zero on Dirichlet cells, the received halo values of
//! Dirichlet neighbours are zero and the Dirichlet-eliminated coupling drops out
//! automatically; the Dirichlet rows themselves are overwritten with the identity
//! (`(Jx)_K ← x_K`, the `else` branch of Algorithm 2).
//!
//! Buffer reuse (§III-E1): the horizontal halo buffers are consumed in place
//! (`halo ← direction − halo`) and the first of them is then reused as the scratch
//! column for the vertical differences, so the kernel needs no additional temporary
//! storage beyond the operator output column.

use crate::mapping::PeColumnBuffers;
use mffv_fabric::error::Result;
use mffv_fabric::{Dsd, ProcessingElement};
use mffv_mesh::Direction;

/// Compute `operator_out = A · direction` for one PE's column.
///
/// The halo buffers must contain the neighbouring PEs' direction columns (or zeros
/// on fabric edges); they are overwritten by the computation and must be refilled by
/// the next exchange before calling this again.
pub fn compute_jd(pe: &mut ProcessingElement, bufs: &PeColumnBuffers) -> Result<()> {
    let nz = pe.memory().len(bufs.direction)?;
    let out = Dsd::full(bufs.operator_out, nz);
    let d = Dsd::full(bufs.direction, nz);
    pe.fill(out, 0.0)?;

    // Horizontal contributions: out += T_dir · (d − halo_dir), halo consumed in
    // place.  The transmissibility column is zero on boundary faces, so edge PEs can
    // run the identical instruction stream (uniform per-cell work, as in Table V).
    let horizontal = [
        (Direction::XP, bufs.halo_east),
        (Direction::XM, bufs.halo_west),
        (Direction::YP, bufs.halo_south),
        (Direction::YM, bufs.halo_north),
    ];
    for (dir, halo) in horizontal {
        let t = Dsd::full(bufs.transmissibility[dir.index()], nz);
        let h = Dsd::full(halo, nz);
        pe.fsubs(h, d, h)?; // halo ← d − halo
        pe.fmacs(out, out, t, h)?; // out ← out + T · (d − halo)
    }

    // Vertical contributions, resolved entirely in local memory.  The consumed west
    // halo buffer doubles as the scratch column for the shifted differences.
    if nz > 1 {
        let scratch = Dsd::new(bufs.halo_west, 0, nz - 1);
        // Up neighbours (z+1) contribute to cells 0 .. nz-2.
        let d_lo = Dsd::new(bufs.direction, 0, nz - 1);
        let d_hi = Dsd::new(bufs.direction, 1, nz - 1);
        let t_up = Dsd::new(bufs.transmissibility[Direction::ZP.index()], 0, nz - 1);
        let out_lo = Dsd::new(bufs.operator_out, 0, nz - 1);
        pe.fsubs(scratch, d_lo, d_hi)?;
        pe.fmacs(out_lo, out_lo, t_up, scratch)?;
        // Down neighbours (z-1) contribute to cells 1 .. nz-1.
        let t_down = Dsd::new(bufs.transmissibility[Direction::ZM.index()], 1, nz - 1);
        let out_hi = Dsd::new(bufs.operator_out, 1, nz - 1);
        pe.fsubs(scratch, d_hi, d_lo)?;
        pe.fmacs(out_hi, out_hi, t_down, scratch)?;
    }

    // Dirichlet rows: (Jx)_K ← x_K.
    apply_dirichlet_identity(pe, bufs, nz)?;
    Ok(())
}

/// Overwrite the operator output with the identity on Dirichlet rows.
fn apply_dirichlet_identity(
    pe: &mut ProcessingElement,
    bufs: &PeColumnBuffers,
    nz: usize,
) -> Result<()> {
    let mask = pe.memory().read(bufs.dirichlet_mask, 0, nz)?;
    let direction = pe.memory().read(bufs.direction, 0, nz)?;
    pe.counters_mut().mem_load_bytes += 2 * nz as u64 * 4;
    for z in 0..nz {
        if mask[z] != 0.0 {
            pe.memory_mut()
                .write(bufs.operator_out, z, &[direction[z]])?;
            pe.counters_mut().mem_store_bytes += 4;
        }
    }
    Ok(())
}

/// Initialise the CG state on one PE from a right-hand-side column:
/// `residual ← rhs`, `direction ← rhs`, `solution ← 0`.
pub fn init_cg_state(
    pe: &mut ProcessingElement,
    bufs: &PeColumnBuffers,
    rhs: &[f32],
) -> Result<()> {
    let nz = pe.memory().len(bufs.residual)?;
    assert_eq!(rhs.len(), nz, "rhs column length mismatch");
    pe.memory_mut().write(bufs.residual, 0, rhs)?;
    pe.counters_mut().mem_store_bytes += nz as u64 * 4;
    pe.fmovs(Dsd::full(bufs.direction, nz), Dsd::full(bufs.residual, nz))?;
    pe.fill(Dsd::full(bufs.solution, nz), 0.0)?;
    Ok(())
}

/// Local partial dot product `direction · operator_out` for the α denominator.
pub fn local_dot_d_ad(pe: &mut ProcessingElement, bufs: &PeColumnBuffers) -> Result<f32> {
    let nz = pe.memory().len(bufs.direction)?;
    pe.dot_local(
        Dsd::full(bufs.direction, nz),
        Dsd::full(bufs.operator_out, nz),
    )
}

/// Local partial dot product `residual · residual` for the convergence test and β.
pub fn local_dot_rr(pe: &mut ProcessingElement, bufs: &PeColumnBuffers) -> Result<f32> {
    let nz = pe.memory().len(bufs.residual)?;
    pe.dot_local(Dsd::full(bufs.residual, nz), Dsd::full(bufs.residual, nz))
}

/// `z ← D⁻¹ · r`: the on-fabric Jacobi preconditioner, one fill plus one fused
/// multiply-accumulate over the resident inverse-diagonal column.
pub fn jacobi_precond(pe: &mut ProcessingElement, bufs: &PeColumnBuffers) -> Result<()> {
    let nz = pe.memory().len(bufs.residual)?;
    let z = Dsd::full(bufs.precond_z, nz);
    pe.fill(z, 0.0)?;
    pe.fmacs(
        z,
        z,
        Dsd::full(bufs.inv_diag, nz),
        Dsd::full(bufs.residual, nz),
    )
}

/// `direction ← z` after the initial preconditioner application (PCG sets
/// d₀ = z₀ = M⁻¹ r₀).
pub fn set_direction_from_z(pe: &mut ProcessingElement, bufs: &PeColumnBuffers) -> Result<()> {
    let nz = pe.memory().len(bufs.direction)?;
    pe.fmovs(Dsd::full(bufs.direction, nz), Dsd::full(bufs.precond_z, nz))
}

/// Local partial dot product `residual · z` for the PCG α numerator and β.
pub fn local_dot_rz(pe: &mut ProcessingElement, bufs: &PeColumnBuffers) -> Result<f32> {
    let nz = pe.memory().len(bufs.residual)?;
    pe.dot_local(Dsd::full(bufs.residual, nz), Dsd::full(bufs.precond_z, nz))
}

/// `direction = z + β · direction` (the PCG direction update).
pub fn apply_beta_update_z(
    pe: &mut ProcessingElement,
    bufs: &PeColumnBuffers,
    beta: f32,
) -> Result<()> {
    let nz = pe.memory().len(bufs.direction)?;
    pe.xpby(
        Dsd::full(bufs.direction, nz),
        Dsd::full(bufs.precond_z, nz),
        beta,
    )
}

/// `direction = residual + β · direction` (CG line 10).
pub fn apply_beta_update(
    pe: &mut ProcessingElement,
    bufs: &PeColumnBuffers,
    beta: f32,
) -> Result<()> {
    let nz = pe.memory().len(bufs.direction)?;
    pe.xpby(
        Dsd::full(bufs.direction, nz),
        Dsd::full(bufs.residual, nz),
        beta,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mffv_fabric::PeId;
    use mffv_fv::{LinearOperator, MatrixFreeOperator};
    use mffv_mesh::workload::{BoundarySpec, WorkloadSpec};
    use mffv_mesh::{CellField, CellIndex, Dims, PermeabilityModel};

    /// A single-column workload (1 × 1 × nz): no horizontal neighbours, so one PE
    /// holds the entire problem and the kernel must match the host operator exactly.
    fn single_column_workload(nz: usize) -> mffv_mesh::Workload {
        WorkloadSpec {
            name: "single-column".to_string(),
            dims: Dims::new(1, 1, nz),
            spacing: [1.0, 1.0, 1.0],
            permeability: PermeabilityModel::LogNormal {
                mean_log: 0.0,
                std_log: 1.0,
                seed: 5,
            },
            viscosity: 1.0,
            boundary: BoundarySpec::None,
            tolerance: 1e-12,
            max_iterations: 100,
        }
        .build()
    }

    #[test]
    fn single_column_matches_host_operator() {
        let nz = 12;
        let w = single_column_workload(nz);
        let mut pe = ProcessingElement::new(PeId::new(0, 0));
        let bufs = PeColumnBuffers::allocate(&mut pe, &w, 0, 0).unwrap();
        let d_host = CellField::<f32>::from_fn(w.dims(), |c| (c.z as f32 * 0.3) - 1.0);
        pe.memory_mut()
            .write(bufs.direction, 0, &d_host.column(0, 0))
            .unwrap();
        compute_jd(&mut pe, &bufs).unwrap();
        let got = pe.memory().read(bufs.operator_out, 0, nz).unwrap();

        let op = MatrixFreeOperator::<f32>::from_workload(&w);
        let expected = op.apply_new(&d_host);
        for (z, &g) in got.iter().enumerate() {
            let e = expected.at(CellIndex::new(0, 0, z));
            assert!(
                (g - e).abs() <= 1e-5 * e.abs().max(1.0),
                "z={z}: kernel {g} vs host {e}"
            );
        }
    }

    #[test]
    fn dirichlet_rows_become_identity() {
        let nz = 6;
        let w = WorkloadSpec {
            name: "dirichlet-column".to_string(),
            dims: Dims::new(2, 1, nz),
            spacing: [1.0, 1.0, 1.0],
            permeability: PermeabilityModel::Homogeneous { value: 1.0 },
            viscosity: 1.0,
            boundary: BoundarySpec::SourceProducer {
                source_pressure: 1.0,
                producer_pressure: 0.0,
            },
            tolerance: 1e-12,
            max_iterations: 100,
        }
        .build();
        // The source column (0, 0) is entirely Dirichlet.
        let mut pe = ProcessingElement::new(PeId::new(0, 0));
        let bufs = PeColumnBuffers::allocate(&mut pe, &w, 0, 0).unwrap();
        let d: Vec<f32> = (0..nz).map(|z| z as f32 + 1.0).collect();
        pe.memory_mut().write(bufs.direction, 0, &d).unwrap();
        compute_jd(&mut pe, &bufs).unwrap();
        let got = pe.memory().read(bufs.operator_out, 0, nz).unwrap();
        assert_eq!(got, d, "Dirichlet rows must reproduce the input column");
    }

    #[test]
    fn manually_filled_halos_reproduce_horizontal_coupling() {
        // A 3x1xN strip: compute the middle PE's column with halos filled by hand
        // from the host-side direction field and compare against the host operator.
        let nz = 5;
        let dims = Dims::new(3, 1, nz);
        let w = WorkloadSpec::paper_grid(3, 1, nz).build();
        let d_host = CellField::<f32>::from_fn(dims, |c| (c.x * 10 + c.z) as f32 * 0.5 + 1.0);
        // Zero the Dirichlet cells as the CG flow guarantees.
        let mut d_zeroed = d_host.clone();
        for idx in 0..dims.num_cells() {
            if w.dirichlet().contains_linear(idx) {
                d_zeroed.set(idx, 0.0);
            }
        }
        let mut pe = ProcessingElement::new(PeId::new(1, 0));
        let bufs = PeColumnBuffers::allocate(&mut pe, &w, 1, 0).unwrap();
        pe.memory_mut()
            .write(bufs.direction, 0, &d_zeroed.column(1, 0))
            .unwrap();
        pe.memory_mut()
            .write(bufs.halo_west, 0, &d_zeroed.column(0, 0))
            .unwrap();
        pe.memory_mut()
            .write(bufs.halo_east, 0, &d_zeroed.column(2, 0))
            .unwrap();
        compute_jd(&mut pe, &bufs).unwrap();
        let got = pe.memory().read(bufs.operator_out, 0, nz).unwrap();

        let op = MatrixFreeOperator::<f32>::from_workload(&w);
        let expected = op.apply_new(&d_zeroed);
        for (z, &g) in got.iter().enumerate() {
            let e = expected.at(CellIndex::new(1, 0, z));
            assert!(
                (g - e).abs() <= 1e-5 * e.abs().max(1.0),
                "z={z}: {g} vs {e}"
            );
        }
    }

    #[test]
    fn cg_helper_updates_match_reference_arithmetic() {
        let nz = 8;
        let w = single_column_workload(nz);
        let mut pe = ProcessingElement::new(PeId::new(0, 0));
        let bufs = PeColumnBuffers::allocate(&mut pe, &w, 0, 0).unwrap();
        let rhs: Vec<f32> = (0..nz).map(|z| (z as f32).sin()).collect();
        init_cg_state(&mut pe, &bufs, &rhs).unwrap();
        assert_eq!(pe.memory().read(bufs.residual, 0, nz).unwrap(), rhs);
        assert_eq!(pe.memory().read(bufs.direction, 0, nz).unwrap(), rhs);
        assert_eq!(
            pe.memory().read(bufs.solution, 0, nz).unwrap(),
            vec![0.0; nz]
        );

        let rr = local_dot_rr(&mut pe, &bufs).unwrap();
        let expected_rr: f32 = rhs.iter().map(|v| v * v).sum();
        assert!((rr - expected_rr).abs() < 1e-4);

        apply_beta_update(&mut pe, &bufs, 0.5).unwrap();
        let dir = pe.memory().read(bufs.direction, 0, nz).unwrap();
        for z in 0..nz {
            assert!((dir[z] - 1.5 * rhs[z]).abs() < 1e-6);
        }
    }

    #[test]
    fn kernel_counts_flops_per_cell_consistently() {
        // 4 horizontal (fsub + fmac) passes + 2 vertical passes over nz-1 cells:
        // FLOPs = 4·nz·(1+2) + 2·(nz−1)·(1+2); the dot products and axpys are
        // counted separately.  This pins the measured count the perf-model tests
        // compare against.
        let nz = 10;
        let w = single_column_workload(nz);
        let mut pe = ProcessingElement::new(PeId::new(0, 0));
        let bufs = PeColumnBuffers::allocate(&mut pe, &w, 0, 0).unwrap();
        pe.reset_counters();
        compute_jd(&mut pe, &bufs).unwrap();
        let flops = pe.counters().flops;
        let expected = 4 * nz as u64 * 3 + 2 * (nz as u64 - 1) * 3;
        assert_eq!(flops, expected);
    }
}
