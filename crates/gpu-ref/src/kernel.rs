//! The CUDA-style matrix-free device kernel and its block-by-block launch.
//!
//! "Each GPU kernel is scheduled to concurrently invoke a device function that
//! performs the matrix-free FV computation … each GPU thread handles a cell K …
//! Each thread concurrently fetches the cell data for itself and all cell data from
//! its six neighboring cells" (§IV).
//!
//! [`device_thread`] is that device function; [`GpuMatrixFreeOperator`] launches it
//! over the 16×8×8 block grid, running the blocks one after another in launch
//! order on the calling thread, each writing its cells of the output in place.
//! Blocks write disjoint cells, so the order changes no result.  The arithmetic
//! matches the sequential `mffv_fv::MatrixFreeOperator`, which the tests verify.

use crate::launch::LaunchConfig;
use mffv_fv::LinearOperator;
use mffv_mesh::{CellField, CellIndex, Dims, Direction, DirichletSet, Transmissibilities};

/// Flattened, device-resident problem data (the arrays a CUDA implementation would
/// copy to the GPU once at start-up).
#[derive(Clone, Debug)]
pub struct DeviceArrays {
    dims: Dims,
    /// Six transmissibility coefficients per cell in `Direction::ALL` order.
    coeffs: Vec<[f32; 6]>,
    /// 1.0 where the cell is Dirichlet.
    dirichlet: Vec<f32>,
}

impl DeviceArrays {
    /// "Copy all data from host to device memory" (§IV).
    pub fn upload(coeffs: &Transmissibilities<f32>, dirichlet: &DirichletSet) -> Self {
        let dims = coeffs.dims();
        let n = dims.num_cells();
        let mut flat = Vec::with_capacity(n);
        let mut mask = vec![0.0f32; n];
        for (idx, m) in mask.iter_mut().enumerate() {
            flat.push(coeffs.all(idx));
            if dirichlet.contains_linear(idx) {
                *m = 1.0;
            }
        }
        Self {
            dims,
            coeffs: flat,
            dirichlet: mask,
        }
    }

    /// Device-memory footprint in bytes (coefficients + mask), the quantity that
    /// must fit in GPU memory for the paper's "no domain decomposition" strategy.
    pub fn bytes(&self) -> usize {
        self.coeffs.len() * 6 * 4 + self.dirichlet.len() * 4
    }

    /// Grid extents.
    pub fn dims(&self) -> Dims {
        self.dims
    }
}

/// The per-thread device function: computes one entry of the SPD operator output.
#[inline]
pub fn device_thread(arrays: &DeviceArrays, x: &[f32], cell: CellIndex) -> f32 {
    let dims = arrays.dims;
    let k = dims.linear(cell);
    if arrays.dirichlet[k] != 0.0 {
        return x[k];
    }
    let xk = x[k];
    let mut acc = 0.0f32;
    for dir in Direction::ALL {
        if let Some(nb) = dims.neighbor(cell, dir) {
            let l = dims.linear(nb);
            let coeff = arrays.coeffs[k][dir.index()];
            let xl = if arrays.dirichlet[l] != 0.0 {
                0.0
            } else {
                x[l]
            };
            acc = coeff.mul_add(xk - xl, acc);
        }
    }
    acc
}

/// The GPU-style matrix-free operator: a block-by-block launch of [`device_thread`].
#[derive(Clone, Debug)]
pub struct GpuMatrixFreeOperator {
    arrays: DeviceArrays,
    launch: LaunchConfig,
}

impl GpuMatrixFreeOperator {
    /// Build the operator from device arrays with the paper's launch configuration.
    pub fn new(arrays: DeviceArrays) -> Self {
        let launch = LaunchConfig::paper(arrays.dims());
        Self { arrays, launch }
    }

    /// Build directly from a workload (converts coefficients to `f32`).
    pub fn from_workload(workload: &mffv_mesh::Workload) -> Self {
        let coeffs: Transmissibilities<f32> = workload.transmissibility().convert();
        Self::new(DeviceArrays::upload(&coeffs, workload.dirichlet()))
    }

    /// The uploaded device arrays.
    pub fn device_arrays(&self) -> &DeviceArrays {
        &self.arrays
    }

    /// Execute one kernel launch: `out = A x` with one logical GPU thread per cell,
    /// the blocks run in launch order.
    pub fn launch_apply(&self, x: &[f32], out: &mut [f32]) {
        let dims = self.arrays.dims;
        assert_eq!(x.len(), dims.num_cells());
        assert_eq!(out.len(), dims.num_cells());
        for (bx, by, bz) in self.launch.blocks() {
            let (rx, ry, rz) = self.launch.block_cell_ranges(bx, by, bz);
            for z in rz {
                for y in ry.clone() {
                    for xx in rx.clone() {
                        let cell = CellIndex::new(xx, y, z);
                        out[dims.linear(cell)] = device_thread(&self.arrays, x, cell);
                    }
                }
            }
        }
    }
}

impl LinearOperator<f32> for GpuMatrixFreeOperator {
    fn dims(&self) -> Dims {
        self.arrays.dims
    }

    fn apply(&self, x: &CellField<f32>, y: &mut CellField<f32>) {
        assert_eq!(x.dims(), self.arrays.dims);
        assert_eq!(y.dims(), self.arrays.dims);
        self.launch_apply(x.as_slice(), y.as_mut_slice());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mffv_fv::MatrixFreeOperator;
    use mffv_mesh::workload::WorkloadSpec;

    #[test]
    fn gpu_kernel_matches_sequential_operator_bitwise_structure() {
        let w = WorkloadSpec::fig5(Dims::new(10, 7, 6)).build();
        let gpu = GpuMatrixFreeOperator::from_workload(&w);
        let seq = MatrixFreeOperator::<f32>::from_workload(&w);
        let x = CellField::<f32>::from_fn(w.dims(), |c| {
            ((c.x as f32) * 0.5 - (c.y as f32) * 0.25 + (c.z as f32)).sin()
        });
        let y_gpu = gpu.apply_new(&x);
        let y_seq = seq.apply_new(&x);
        let diff = y_gpu.max_abs_diff(&y_seq);
        assert!(
            diff <= 1e-6 * y_seq.max_abs().max(1.0),
            "gpu vs sequential gap {diff}"
        );
    }

    #[test]
    fn dirichlet_rows_pass_through() {
        let w = WorkloadSpec::quickstart().build();
        let gpu = GpuMatrixFreeOperator::from_workload(&w);
        let x = CellField::<f32>::constant(w.dims(), 3.5);
        let y = gpu.apply_new(&x);
        for idx in 0..w.dims().num_cells() {
            if w.dirichlet().contains_linear(idx) {
                assert_eq!(y.get(idx), 3.5);
            }
        }
    }

    #[test]
    fn device_array_footprint_is_reported() {
        let w = WorkloadSpec::quickstart().build();
        let gpu = GpuMatrixFreeOperator::from_workload(&w);
        let n = w.dims().num_cells();
        assert_eq!(gpu.device_arrays().bytes(), n * 6 * 4 + n * 4);
    }
}
