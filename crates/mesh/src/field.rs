//! Dense cell-centred fields with the BLAS-1 helpers the solvers need.
//!
//! A [`CellField`] owns one value per mesh cell, stored in the paper's memory layout
//! (X innermost, Z outermost).  The vector operations (`axpy`, `dot`, norms, …) are
//! exactly the host-side counterparts of the per-PE DSD operations the dataflow
//! implementation performs, so they are also used to verify the fabric execution.

use crate::dims::{CellIndex, Dims};
use crate::scalar::Scalar;

/// A dense field with one scalar value per mesh cell.
#[derive(Clone, Debug, PartialEq)]
pub struct CellField<T: Scalar> {
    dims: Dims,
    data: Vec<T>,
}

impl<T: Scalar> CellField<T> {
    /// A field of zeros.
    pub fn zeros(dims: Dims) -> Self {
        Self {
            dims,
            data: vec![T::ZERO; dims.num_cells()],
        }
    }

    /// A field filled with `value`.
    pub fn constant(dims: Dims, value: T) -> Self {
        Self {
            dims,
            data: vec![value; dims.num_cells()],
        }
    }

    /// Build a field by evaluating `f` at every cell.
    pub fn from_fn(dims: Dims, mut f: impl FnMut(CellIndex) -> T) -> Self {
        let mut data = Vec::with_capacity(dims.num_cells());
        for c in dims.iter_cells() {
            data.push(f(c));
        }
        Self { dims, data }
    }

    /// Wrap an existing vector (must have exactly `dims.num_cells()` entries).
    pub fn from_vec(dims: Dims, data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            dims.num_cells(),
            "vector length {} does not match dims {dims}",
            data.len()
        );
        Self { dims, data }
    }

    /// Grid extents of the field.
    pub fn dims(&self) -> Dims {
        self.dims
    }

    /// Number of cells (vector length).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the field has zero cells (never true for a valid [`Dims`]).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw slice in linear-layout order.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable raw slice in linear-layout order.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Value at a cell.
    #[inline]
    pub fn at(&self, c: CellIndex) -> T {
        self.data[self.dims.linear(c)]
    }

    /// Mutable reference to the value at a cell.
    #[inline]
    pub fn at_mut(&mut self, c: CellIndex) -> &mut T {
        let idx = self.dims.linear(c);
        &mut self.data[idx]
    }

    /// Value at a linear index.
    #[inline]
    pub fn get(&self, idx: usize) -> T {
        self.data[idx]
    }

    /// Set the value at a linear index.
    #[inline]
    pub fn set(&mut self, idx: usize, value: T) {
        self.data[idx] = value;
    }

    /// Copy the z-column of cells at fabric position `(x, y)` into a vector ordered
    /// bottom (z = 0) to top (z = nz-1) — the layout each PE holds in local memory.
    pub fn column(&self, x: usize, y: usize) -> Vec<T> {
        let base = self.dims.column_base(x, y);
        let stride = self.dims.column_stride();
        (0..self.dims.nz)
            .map(|z| self.data[base + z * stride])
            .collect()
    }

    /// Overwrite the z-column at `(x, y)` from a slice of length `nz`.
    pub fn set_column(&mut self, x: usize, y: usize, column: &[T]) {
        assert_eq!(column.len(), self.dims.nz, "column length mismatch");
        let base = self.dims.column_base(x, y);
        let stride = self.dims.column_stride();
        for (z, &v) in column.iter().enumerate() {
            self.data[base + z * stride] = v;
        }
    }

    /// Fill every cell with `value`.
    pub fn fill(&mut self, value: T) {
        self.data.iter_mut().for_each(|v| *v = value);
    }

    /// Overwrite every cell from `other` without reallocating — the
    /// buffer-reusing counterpart of `clone()` for pooled solve scratch.
    pub fn copy_from(&mut self, other: &Self) {
        self.check_same_dims(other);
        self.data.copy_from_slice(&other.data);
    }

    /// `self += alpha * other` (the classic axpy update of CG lines 6–7).
    pub fn axpy(&mut self, alpha: T, other: &Self) {
        self.check_same_dims(other);
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a = alpha.mul_add(b, *a);
        }
    }

    /// `self = other + beta * self` (the search-direction update of CG line 10).
    pub fn xpby(&mut self, other: &Self, beta: T) {
        self.check_same_dims(other);
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a = beta.mul_add(*a, b);
        }
    }

    /// `self *= alpha`.
    pub fn scale(&mut self, alpha: T) {
        self.data.iter_mut().for_each(|v| *v *= alpha);
    }

    /// Euclidean dot product with `other`, accumulated left-to-right in linear order.
    pub fn dot(&self, other: &Self) -> T {
        self.check_same_dims(other);
        let mut acc = T::ZERO;
        for (&a, &b) in self.data.iter().zip(other.data.iter()) {
            acc = a.mul_add(b, acc);
        }
        acc
    }

    /// Squared Euclidean norm.
    pub fn norm_squared(&self) -> T {
        self.dot(self)
    }

    /// Euclidean norm.
    pub fn norm(&self) -> T {
        self.norm_squared().sqrt()
    }

    /// Maximum absolute entry; NaN when any entry is NaN.
    pub fn max_abs(&self) -> T {
        self.data.iter().fold(T::ZERO, |m, &v| m.max_with(v.abs()))
    }

    /// Maximum absolute difference against another field; NaN when any
    /// difference is NaN.
    pub fn max_abs_diff(&self, other: &Self) -> T {
        self.check_same_dims(other);
        self.data
            .iter()
            .zip(other.data.iter())
            .fold(T::ZERO, |m, (&a, &b)| m.max_with((a - b).abs()))
    }

    /// Convert the field to a different scalar precision (e.g. `f32` → `f64` for host
    /// verification).
    pub fn convert<U: Scalar>(&self) -> CellField<U> {
        CellField {
            dims: self.dims,
            data: self.data.iter().map(|v| U::from_f64(v.to_f64())).collect(),
        }
    }

    /// Overwrite every cell from `other`, converted to this field's
    /// precision, without reallocating — the buffer-reusing counterpart of
    /// [`convert`](Self::convert).
    pub fn convert_from<U: Scalar>(&mut self, other: &CellField<U>) {
        assert_eq!(self.dims, other.dims(), "field dimension mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.as_slice()) {
            *a = T::from_f64(b.to_f64());
        }
    }

    /// Whether every entry is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Extract the horizontal slice at depth `z` as a row-major (y, then x) vector —
    /// used by the Figure-5 pressure-map rendering.
    pub fn horizontal_slice(&self, z: usize) -> Vec<T> {
        assert!(z < self.dims.nz, "slice depth out of range");
        let mut out = Vec::with_capacity(self.dims.num_columns());
        for y in 0..self.dims.ny {
            for x in 0..self.dims.nx {
                out.push(self.at(CellIndex::new(x, y, z)));
            }
        }
        out
    }

    fn check_same_dims(&self, other: &Self) {
        assert_eq!(self.dims, other.dims, "field dimension mismatch");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn dims() -> Dims {
        Dims::new(4, 3, 2)
    }

    #[test]
    fn construction_and_access() {
        let mut f = CellField::<f64>::zeros(dims());
        assert_eq!(f.len(), 24);
        assert!(!f.is_empty());
        *f.at_mut(CellIndex::new(1, 2, 1)) = 5.0;
        assert_eq!(f.at(CellIndex::new(1, 2, 1)), 5.0);
        assert_eq!(f.get(f.dims().linear(CellIndex::new(1, 2, 1))), 5.0);
    }

    #[test]
    fn from_fn_matches_layout() {
        let d = dims();
        let f = CellField::<f64>::from_fn(d, |c| (c.x + 10 * c.y + 100 * c.z) as f64);
        assert_eq!(f.at(CellIndex::new(3, 2, 1)), 123.0);
        assert_eq!(f.as_slice()[0], 0.0);
        assert_eq!(f.as_slice()[1], 1.0);
    }

    #[test]
    fn column_round_trip() {
        let d = Dims::new(3, 2, 4);
        let f = CellField::<f32>::from_fn(d, |c| (c.x + 10 * c.y + 100 * c.z) as f32);
        let col = f.column(2, 1);
        assert_eq!(col, vec![12.0, 112.0, 212.0, 312.0]);
        let mut g = CellField::<f32>::zeros(d);
        g.set_column(2, 1, &col);
        assert_eq!(g.column(2, 1), col);
        assert_eq!(g.at(CellIndex::new(0, 0, 0)), 0.0);
    }

    #[test]
    fn axpy_and_xpby() {
        let d = dims();
        let mut a = CellField::<f64>::constant(d, 1.0);
        let b = CellField::<f64>::constant(d, 2.0);
        a.axpy(3.0, &b);
        assert!(a.as_slice().iter().all(|&v| v == 7.0));
        a.xpby(&b, 0.5);
        assert!(a.as_slice().iter().all(|&v| v == 5.5));
        a.scale(2.0);
        assert!(a.as_slice().iter().all(|&v| v == 11.0));
    }

    #[test]
    fn dot_and_norms() {
        let d = dims();
        let a = CellField::<f64>::constant(d, 2.0);
        let b = CellField::<f64>::constant(d, 3.0);
        assert_eq!(a.dot(&b), 6.0 * 24.0);
        assert_eq!(a.norm_squared(), 4.0 * 24.0);
        assert!((a.norm() - (96.0f64).sqrt()).abs() < 1e-12);
        assert_eq!(a.max_abs(), 2.0);
        assert_eq!(a.max_abs_diff(&b), 1.0);
    }

    #[test]
    fn max_norms_report_a_nan_cell() {
        let zeros = CellField::<f64>::zeros(dims());
        let mut poisoned = zeros.clone();
        poisoned.set(5, f64::NAN);
        assert!(poisoned.max_abs().is_nan());
        assert!(poisoned.max_abs_diff(&zeros).is_nan());
        assert!(zeros.max_abs_diff(&poisoned).is_nan());
        let mut f32_field = CellField::<f32>::constant(dims(), 3.0);
        f32_field.set(23, f32::NAN);
        assert!(f32_field.max_abs().is_nan());
    }

    #[test]
    fn conversion_and_finiteness() {
        let d = dims();
        let a = CellField::<f32>::constant(d, 1.5);
        let b: CellField<f64> = a.convert();
        assert_eq!(b.at(CellIndex::new(0, 0, 0)), 1.5);
        assert!(a.all_finite());
        let mut c = a.clone();
        c.set(0, f32::NAN);
        assert!(!c.all_finite());
    }

    #[test]
    fn horizontal_slice_is_row_major() {
        let d = Dims::new(2, 2, 2);
        let f = CellField::<f64>::from_fn(d, |c| (c.x + 10 * c.y + 100 * c.z) as f64);
        assert_eq!(f.horizontal_slice(1), vec![100.0, 101.0, 110.0, 111.0]);
    }

    #[test]
    #[should_panic]
    fn mismatched_dims_panic() {
        let a = CellField::<f64>::zeros(Dims::new(2, 2, 2));
        let b = CellField::<f64>::zeros(Dims::new(2, 2, 3));
        let _ = a.dot(&b);
    }

    proptest! {
        #[test]
        fn dot_is_symmetric(values in proptest::collection::vec(-100.0f64..100.0, 24)) {
            let d = dims();
            let a = CellField::from_vec(d, values.clone());
            let b = CellField::from_fn(d, |c| (c.x as f64) - (c.z as f64));
            let ab = a.dot(&b);
            let ba = b.dot(&a);
            prop_assert!((ab - ba).abs() <= 1e-9 * ab.abs().max(1.0));
        }

        #[test]
        fn axpy_matches_manual(alpha in -10.0f64..10.0,
                               values in proptest::collection::vec(-10.0f64..10.0, 24)) {
            let d = dims();
            let base = CellField::from_vec(d, values.clone());
            let other = CellField::from_fn(d, |c| c.y as f64 + 0.5);
            let mut updated = base.clone();
            updated.axpy(alpha, &other);
            for i in 0..base.len() {
                let expected = alpha.mul_add(other.get(i), base.get(i));
                prop_assert!((updated.get(i) - expected).abs() < 1e-12);
            }
        }
    }
}
