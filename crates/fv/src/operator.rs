//! The linear-operator abstraction shared by the matrix-free and assembled paths.
//!
//! The CG solver (Algorithm 1) only ever needs to *apply* the Jacobian to a vector.
//! [`LinearOperator`] captures exactly that, so the same solver runs unchanged on
//! top of the matrix-free kernel (Algorithm 2), the assembled CSR baseline, the
//! GPU-style reference and the dataflow fabric implementation.

use crate::plan::{det_dot, det_norm_squared};
use mffv_mesh::{CellField, Dims, Scalar};
use mffv_telemetry::Span;

/// Something that can compute `y = A x` for cell-sized vectors.
///
/// Beyond the plain apply, the trait carries the two **fused CG kernels** the
/// host Krylov loops are built on — `apply` + `dᵀ(A d)` in one pass, and
/// `x += α d` / `r −= α (A d)` / `rᵀr` in a second pass.  The default
/// implementations run the unfused passes with the deterministic slab-ordered
/// reductions of [`crate::plan`]; implementations with a precomputed plan
/// (the [`MatrixFreeOperator`](crate::MatrixFreeOperator)) override them with
/// genuinely fused, multithreaded single-pass kernels that are **bitwise
/// identical** to these defaults.  Solver iterates therefore do not depend on
/// which implementation (or thread count) computed them.
pub trait LinearOperator<T: Scalar> {
    /// Grid extents of the vectors this operator acts on.
    fn dims(&self) -> Dims;

    /// Compute `y = A x`. `y` must already have the right dimensions.
    fn apply(&self, x: &CellField<T>, y: &mut CellField<T>);

    /// Convenience wrapper allocating the output field.
    fn apply_new(&self, x: &CellField<T>) -> CellField<T> {
        let mut y = CellField::zeros(self.dims());
        self.apply(x, &mut y);
        y
    }

    /// Number of unknowns.
    fn num_rows(&self) -> usize {
        self.dims().num_cells()
    }

    /// Fused CG kernel 1: `ad = A d`, returning `dᵀ(A d)` in the
    /// deterministic slab order of [`det_dot`].
    fn apply_dot(&self, d: &CellField<T>, ad: &mut CellField<T>) -> T {
        self.apply(d, ad);
        det_dot(d, ad)
    }

    /// Fused CG kernel 2: `x += α d`, `r −= α (A d)`, returning the new
    /// `rᵀr` in the deterministic slab order of [`det_norm_squared`].
    fn cg_update(
        &self,
        alpha: T,
        d: &CellField<T>,
        ad: &CellField<T>,
        x: &mut CellField<T>,
        r: &mut CellField<T>,
    ) -> T {
        x.axpy(alpha, d);
        r.axpy(-alpha, ad);
        det_norm_squared(r)
    }
}

/// Something that can apply `z = M⁻¹ r` for an SPD approximation `M ≈ A`.
///
/// This is the abstraction the preconditioned CG loop is written against; the
/// diagonal (Jacobi) preconditioner in `mffv-solver` and the geometric
/// multigrid V-cycle of [`crate::mg`] both implement it.  Implementations
/// must be **fixed linear SPD operations**: the same `r` always produces the
/// bitwise-same `z` regardless of thread count, and the induced inner product
/// `r₁ᵀ M⁻¹ r₂` is symmetric — this is what keeps PCG's short recurrences
/// valid and its residual histories reproducible.
pub trait Preconditioner<T: Scalar> {
    /// Grid extents of the vectors this preconditioner acts on.
    fn dims(&self) -> Dims;

    /// Apply `z = M⁻¹ r`. `z` must already have the right dimensions.
    fn apply(&self, r: &CellField<T>, z: &mut CellField<T>);

    /// Apply `z = M⁻¹ r` under a telemetry span, with `scratch` — a field
    /// of `r`'s shape whose contents the caller neither needs nor reads
    /// afterwards — as work space (the Krylov loop lends its `A·d` buffer).
    /// The default ignores both; structured preconditioners (the multigrid
    /// V-cycle) override it to emit their phase spans and to work in
    /// `scratch`.  Tracing never changes the arithmetic, and neither does
    /// the scratch's prior content: the result is bitwise that of `apply`.
    fn apply_traced(
        &self,
        r: &CellField<T>,
        z: &mut CellField<T>,
        scratch: &mut CellField<T>,
        span: &Span,
    ) {
        let _ = (scratch, span);
        self.apply(r, z);
    }

    /// Short stable label for reports and sweep names ("jacobi", "mg", …).
    fn label(&self) -> &'static str;
}

/// A scaled identity operator, useful in solver unit tests.
#[derive(Clone, Copy, Debug)]
pub struct ScaledIdentity<T: Scalar> {
    dims: Dims,
    scale: T,
}

impl<T: Scalar> ScaledIdentity<T> {
    /// Create `scale · I` on a grid.
    pub fn new(dims: Dims, scale: T) -> Self {
        Self { dims, scale }
    }
}

impl<T: Scalar> LinearOperator<T> for ScaledIdentity<T> {
    fn dims(&self) -> Dims {
        self.dims
    }

    fn apply(&self, x: &CellField<T>, y: &mut CellField<T>) {
        assert_eq!(x.dims(), self.dims);
        assert_eq!(y.dims(), self.dims);
        for i in 0..x.len() {
            y.set(i, self.scale * x.get(i));
        }
    }
}

/// Verify that an operator is symmetric by probing it with random-ish basis
/// combinations: returns the largest relative violation of `⟨Ax, y⟩ = ⟨x, Ay⟩` over
/// `num_probes` deterministic probe pairs.  Used by tests on every operator
/// implementation in the workspace.
pub fn symmetry_defect<T: Scalar, Op: LinearOperator<T>>(op: &Op, num_probes: usize) -> f64 {
    let dims = op.dims();
    let n = dims.num_cells();
    let mut worst = 0.0f64;
    for probe in 0..num_probes {
        // Cheap deterministic pseudo-random vectors (LCG) so the check needs no RNG
        // dependency and is reproducible.
        let mut state = 0x9E37_79B9u64.wrapping_add(probe as u64);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let x = CellField::from_vec(dims, (0..n).map(|_| T::from_f64(next())).collect());
        let y = CellField::from_vec(dims, (0..n).map(|_| T::from_f64(next())).collect());
        let ax = op.apply_new(&x);
        let ay = op.apply_new(&y);
        let lhs = ax.dot(&y).to_f64();
        let rhs = x.dot(&ay).to_f64();
        let denom = lhs.abs().max(rhs.abs()).max(1e-30);
        worst = worst.max((lhs - rhs).abs() / denom);
    }
    worst
}

/// Estimate whether an operator is positive definite by evaluating the Rayleigh
/// quotient `⟨Ax, x⟩ / ⟨x, x⟩` on `num_probes` deterministic probe vectors; returns
/// the smallest quotient found (positive for an SPD operator unless a probe happens
/// to hit the null space).
pub fn min_rayleigh_quotient<T: Scalar, Op: LinearOperator<T>>(op: &Op, num_probes: usize) -> f64 {
    let dims = op.dims();
    let n = dims.num_cells();
    let mut min_q = f64::INFINITY;
    for probe in 0..num_probes {
        let mut state = 0xDEAD_BEEFu64.wrapping_add((probe as u64) << 7);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let x = CellField::from_vec(dims, (0..n).map(|_| T::from_f64(next())).collect());
        let ax = op.apply_new(&x);
        let q = ax.dot(&x).to_f64() / x.norm_squared().to_f64().max(1e-300);
        min_q = min_q.min(q);
    }
    min_q
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_identity_applies() {
        let dims = Dims::new(3, 3, 3);
        let op = ScaledIdentity::new(dims, 2.5f64);
        let x = CellField::constant(dims, 2.0);
        let y = op.apply_new(&x);
        assert!(y.as_slice().iter().all(|&v| v == 5.0));
        assert_eq!(op.num_rows(), 27);
    }

    #[test]
    fn identity_is_symmetric_and_positive() {
        let dims = Dims::new(4, 3, 2);
        let op = ScaledIdentity::new(dims, 3.0f64);
        assert!(symmetry_defect(&op, 4) < 1e-12);
        let q = min_rayleigh_quotient(&op, 4);
        assert!(
            (q - 3.0).abs() < 1e-9,
            "Rayleigh quotient of 3·I must be 3, got {q}"
        );
    }

    #[test]
    fn negative_identity_detected_as_non_positive() {
        let dims = Dims::new(3, 3, 3);
        let op = ScaledIdentity::new(dims, -1.0f64);
        assert!(min_rayleigh_quotient(&op, 2) < 0.0);
    }
}
