//! Explicitly assembled sparse Jacobian (the matrix-*based* baseline).
//!
//! The paper contrasts the matrix-free approach against the conventional strategy in
//! which "the full matrix J is assembled and stored in a sparse format, and then used
//! in a second step to perform a standard matrix-vector multiplication" (§II-A).
//! This module provides exactly that baseline: a CSR matrix assembled from the TPFA
//! coefficients, a standard SpMV, and a [`LinearOperator`] wrapper so the same CG
//! solver can run on top of it.  The `csr` rows of `spmv_bench` (recorded in
//! `BENCH_spmv.json`) quantify the memory, assembly time and apply time the
//! matrix-free approach removes.

use crate::operator::LinearOperator;
use mffv_mesh::{CellField, Dims, Direction, DirichletSet, Scalar, Transmissibilities};

/// A row's entries in column order: the −z, −y and −x neighbours, the
/// diagonal (`None`), then the +x, +y and +z neighbours.
const ROW_ORDER: [Option<Direction>; 7] = [
    Some(Direction::ZM),
    Some(Direction::YM),
    Some(Direction::XM),
    None,
    Some(Direction::XP),
    Some(Direction::YP),
    Some(Direction::ZP),
];

/// A compressed-sparse-row matrix with 32-bit column indices.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix<T: Scalar> {
    num_rows: usize,
    num_cols: usize,
    row_offsets: Vec<usize>,
    col_indices: Vec<u32>,
    values: Vec<T>,
}

impl<T: Scalar> CsrMatrix<T> {
    /// Assemble a 7-point operator on `coeffs`' grid, writing each row in
    /// [`ROW_ORDER`], which is column order.  A Dirichlet row is the identity.
    /// Any other row holds `off(coeff, neighbour_is_dirichlet)` for each domain
    /// neighbour where that is `Some`, and the diagonal folded by `diagonal`
    /// from zero over the row's coefficients in [`Direction::ALL`] order.
    fn assemble(
        coeffs: &Transmissibilities<T>,
        dirichlet: &DirichletSet,
        off: impl Fn(T, bool) -> Option<T>,
        diagonal: impl Fn(T, T) -> T,
    ) -> Self {
        let dims = coeffs.dims();
        let n = dims.num_cells();
        assert!(
            u32::try_from(n).is_ok(),
            "{n} columns do not fit 32-bit column indices"
        );
        let mut row_offsets = Vec::with_capacity(n + 1);
        let mut col_indices = Vec::with_capacity(7 * n);
        let mut values = Vec::with_capacity(7 * n);
        row_offsets.push(0);
        for c in dims.iter_cells() {
            let k = dims.linear(c);
            if dirichlet.contains_linear(k) {
                col_indices.push(k as u32);
                values.push(T::ONE);
                row_offsets.push(col_indices.len());
                continue;
            }
            let mut diag = T::ZERO;
            for dir in Direction::ALL {
                if dims.neighbor(c, dir).is_some() {
                    diag = diagonal(diag, coeffs.get(k, dir));
                }
            }
            for slot in ROW_ORDER {
                let entry = match slot {
                    None => Some((k, diag)),
                    Some(dir) => dims.neighbor(c, dir).and_then(|nb| {
                        let l = dims.linear(nb);
                        off(coeffs.get(k, dir), dirichlet.contains_linear(l)).map(|v| (l, v))
                    }),
                };
                if let Some((col, value)) = entry {
                    col_indices.push(col as u32);
                    values.push(value);
                }
            }
            row_offsets.push(col_indices.len());
        }
        Self {
            num_rows: n,
            num_cols: n,
            row_offsets,
            col_indices,
            values,
        }
    }

    /// Assemble the SPD Newton operator `A` (the Dirichlet-eliminated form of the
    /// crate docs' "Sign convention") from the TPFA coefficient table and the
    /// Dirichlet set.
    pub fn assemble_spd(coeffs: &Transmissibilities<T>, dirichlet: &DirichletSet) -> Self {
        Self::assemble(
            coeffs,
            dirichlet,
            |coeff, neighbour_is_dirichlet| (!neighbour_is_dirichlet).then(|| -coeff),
            |diag, coeff| diag + coeff,
        )
    }

    /// Assemble the literal Eq. (6) Jacobian (paper sign convention, Dirichlet rows
    /// equal to the identity, Dirichlet columns kept).  Not SPD; provided for
    /// faithfulness tests against [`crate::MatrixFreeOperator::apply_paper_jx`].
    pub fn assemble_paper_jacobian(
        coeffs: &Transmissibilities<T>,
        dirichlet: &DirichletSet,
    ) -> Self {
        Self::assemble(
            coeffs,
            dirichlet,
            |coeff, _| Some(coeff),
            |diag, coeff| diag - coeff,
        )
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of columns.
    pub fn num_cols(&self) -> usize {
        self.num_cols
    }

    /// Memory footprint of the assembled matrix in bytes (values + column indices +
    /// row offsets) — the storage the matrix-free approach avoids.
    pub fn bytes(&self) -> usize {
        self.values.len() * std::mem::size_of::<T>()
            + self.col_indices.len() * std::mem::size_of::<u32>()
            + self.row_offsets.len() * std::mem::size_of::<usize>()
    }

    /// Entry `(row, col)` if stored.
    pub fn get(&self, row: usize, col: usize) -> Option<T> {
        let start = self.row_offsets[row];
        let end = self.row_offsets[row + 1];
        let col = u32::try_from(col).ok()?;
        let cols = &self.col_indices[start..end];
        cols.binary_search(&col)
            .ok()
            .map(|pos| self.values[start + pos])
    }

    /// Standard sparse matrix-vector product `y = A x` on raw slices.
    pub fn spmv(&self, x: &[T], y: &mut [T]) {
        assert_eq!(x.len(), self.num_cols, "input length mismatch");
        assert_eq!(y.len(), self.num_rows, "output length mismatch");
        for (row, out) in y.iter_mut().enumerate() {
            let start = self.row_offsets[row];
            let end = self.row_offsets[row + 1];
            let mut acc = T::ZERO;
            for idx in start..end {
                acc = self.values[idx].mul_add(x[self.col_indices[idx] as usize], acc);
            }
            *out = acc;
        }
    }

    /// Maximum relative asymmetry `|a_ij - a_ji| / max(|a_ij|, |a_ji|)` over stored
    /// entries — zero for a structurally and numerically symmetric matrix.
    pub fn max_asymmetry(&self) -> f64 {
        let mut worst = 0.0f64;
        for row in 0..self.num_rows {
            for idx in self.row_offsets[row]..self.row_offsets[row + 1] {
                let col = self.col_indices[idx] as usize;
                let a = self.values[idx].to_f64();
                let b = self.get(col, row).map(|v| v.to_f64()).unwrap_or(0.0);
                let denom = a.abs().max(b.abs());
                if denom > 0.0 {
                    worst = worst.max((a - b).abs() / denom);
                }
            }
        }
        worst
    }
}

/// A [`LinearOperator`] backed by an assembled CSR matrix defined on a grid.
#[derive(Clone, Debug)]
pub struct AssembledOperator<T: Scalar> {
    dims: Dims,
    matrix: CsrMatrix<T>,
}

impl<T: Scalar> AssembledOperator<T> {
    /// Assemble the SPD operator for a coefficient table and Dirichlet set.
    pub fn new(coeffs: &Transmissibilities<T>, dirichlet: &DirichletSet) -> Self {
        Self {
            dims: coeffs.dims(),
            matrix: CsrMatrix::assemble_spd(coeffs, dirichlet),
        }
    }

    /// Assemble from a workload at precision `T`.
    pub fn from_workload(workload: &mffv_mesh::Workload) -> Self {
        let coeffs: Transmissibilities<T> = workload.transmissibility().convert();
        Self::new(&coeffs, workload.dirichlet())
    }

    /// The underlying CSR matrix.
    pub fn matrix(&self) -> &CsrMatrix<T> {
        &self.matrix
    }
}

impl<T: Scalar> LinearOperator<T> for AssembledOperator<T> {
    fn dims(&self) -> Dims {
        self.dims
    }

    fn apply(&self, x: &CellField<T>, y: &mut CellField<T>) {
        assert_eq!(x.dims(), self.dims);
        assert_eq!(y.dims(), self.dims);
        self.matrix.spmv(x.as_slice(), y.as_mut_slice());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix_free::MatrixFreeOperator;
    use crate::operator::symmetry_defect;
    use mffv_mesh::workload::WorkloadSpec;
    use proptest::prelude::*;

    #[test]
    fn spmv_matches_dense_computation() {
        // Two cells joined by one face of coefficient 2:
        // [[2, -2], [-2, 2]] * [1, 3] = [-4, 4]
        let dims = mffv_mesh::Dims::new(2, 1, 1);
        let coeffs = Transmissibilities::<f64>::uniform(dims, 2.0);
        let m = CsrMatrix::assemble_spd(&coeffs, &DirichletSet::empty());
        assert_eq!(m.get(0, 1), Some(-2.0));
        assert_eq!(m.get(1, 1), Some(2.0));
        let mut y = vec![0.0; 2];
        m.spmv(&[1.0, 3.0], &mut y);
        assert_eq!(y, vec![-4.0, 4.0]);
    }

    #[test]
    fn rows_are_written_in_column_order_with_their_diagonal() {
        let w = WorkloadSpec::fig5(mffv_mesh::Dims::new(6, 5, 4)).build();
        let coeffs = w.transmissibility().clone();
        for m in [
            CsrMatrix::assemble_spd(&coeffs, w.dirichlet()),
            CsrMatrix::assemble_paper_jacobian(&coeffs, w.dirichlet()),
        ] {
            for row in 0..m.num_rows() {
                let cols = &m.col_indices[m.row_offsets[row]..m.row_offsets[row + 1]];
                assert!(cols.windows(2).all(|pair| pair[0] < pair[1]), "row {row}");
                assert!(m.get(row, row).is_some(), "row {row}");
            }
        }
    }

    #[test]
    fn assembled_spd_matches_matrix_free_operator() {
        let w = WorkloadSpec::quickstart().scaled(2).build();
        let coeffs = w.transmissibility().clone();
        let mf = MatrixFreeOperator::new(coeffs.clone(), w.dirichlet());
        let asm = AssembledOperator::new(&coeffs, w.dirichlet());
        let dims = w.dims();
        let x = CellField::from_fn(dims, |c| {
            (c.x as f64 * 1.3) - (c.y as f64 * 0.7) + c.z as f64
        });
        let y_mf = mf.apply_new(&x);
        let y_asm = asm.apply_new(&x);
        assert!(y_mf.max_abs_diff(&y_asm) < 1e-12);
    }

    #[test]
    fn assembled_paper_jacobian_matches_matrix_free_paper_form() {
        let w = WorkloadSpec::quickstart().scaled(2).build();
        let coeffs = w.transmissibility().clone();
        let mf = MatrixFreeOperator::new(coeffs.clone(), w.dirichlet());
        let jac = CsrMatrix::assemble_paper_jacobian(&coeffs, w.dirichlet());
        let dims = w.dims();
        let x = CellField::from_fn(dims, |c| (c.x + 2 * c.y + 3 * c.z) as f64);
        let mut y_mf = CellField::zeros(dims);
        mf.apply_paper_jx(&x, &mut y_mf);
        let mut y_csr = vec![0.0; dims.num_cells()];
        jac.spmv(x.as_slice(), &mut y_csr);
        for (i, &v) in y_csr.iter().enumerate() {
            assert!((y_mf.get(i) - v).abs() < 1e-12);
        }
    }

    #[test]
    fn spd_assembly_is_symmetric() {
        let w = WorkloadSpec::fig5(mffv_mesh::Dims::new(6, 5, 4)).build();
        let asm = AssembledOperator::<f64>::from_workload(&w);
        assert!(asm.matrix().max_asymmetry() < 1e-12);
        assert!(symmetry_defect(&asm, 3) < 1e-10);
    }

    #[test]
    fn nnz_has_seven_point_structure() {
        let dims = mffv_mesh::Dims::new(4, 4, 4);
        let coeffs = Transmissibilities::<f64>::uniform(dims, 1.0);
        let m = CsrMatrix::assemble_spd(&coeffs, &DirichletSet::empty());
        // 64 diagonal entries + 2 * number of interior faces.
        let faces = 3 * 4 * 4 * 3; // (nx-1)*ny*nz per axis, symmetric grid
        assert_eq!(m.values.len(), 64 + 2 * faces);
        assert!(m.bytes() > 0);
        assert_eq!(m.num_rows(), 64);
        assert_eq!(m.num_cols(), 64);
    }

    proptest! {
        #[test]
        fn spmv_is_linear(scale in -5.0f64..5.0) {
            let dims = mffv_mesh::Dims::new(3, 3, 3);
            let coeffs = Transmissibilities::<f64>::uniform(dims, 1.5);
            let m = CsrMatrix::assemble_spd(&coeffs, &DirichletSet::empty());
            let x = CellField::from_fn(dims, |c| c.x as f64 + 0.5 * c.z as f64);
            let mut y1 = vec![0.0; dims.num_cells()];
            m.spmv(x.as_slice(), &mut y1);
            let mut scaled = x.clone();
            scaled.scale(scale);
            let mut y2 = vec![0.0; dims.num_cells()];
            m.spmv(scaled.as_slice(), &mut y2);
            for i in 0..y1.len() {
                prop_assert!((y2[i] - scale * y1[i]).abs() < 1e-9);
            }
        }
    }
}
