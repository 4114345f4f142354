//! Matrix-free application of the Jacobian (Eq. 6 / Algorithm 2).
//!
//! "In the matrix-free approach … `J` is never fully assembled and stored.  Instead,
//! local assembly and matrix-vector multiplication are fused" (§II-A).  The outer
//! loop sweeps over cells and the inner loop traverses each cell's six neighbours,
//! exactly as Algorithm 2 prescribes.

use crate::flux::{ax_contribution_spd, jx_contribution_paper};
use crate::operator::LinearOperator;
use crate::plan::{PlanStats, StencilPlan};
use mffv_mesh::{CellField, Dims, Direction, DirichletSet, Scalar, Transmissibilities};

/// The matrix-free FV operator: owns (references to nothing — it clones the
/// coefficient table into the requested precision) everything needed to apply the
/// Jacobian without assembling it.
///
/// At construction the operator precomputes a [`StencilPlan`] — the partition
/// of the grid into slab-long branch-free runs and a general remainder of
/// Dirichlet cells and their neighbours —
/// so [`apply_spd`](Self::apply_spd) runs the planned kernel by default.  For
/// finite input the planned apply is bitwise identical to the naive
/// per-neighbour loop (kept as [`apply_spd_naive`](Self::apply_spd_naive))
/// for every thread count; see the [`plan`](crate::plan) module for the
/// determinism contract and the non-finite case.
#[derive(Clone, Debug)]
pub struct MatrixFreeOperator<T: Scalar> {
    dims: Dims,
    coeffs: Transmissibilities<T>,
    dirichlet_mask: Vec<bool>,
    num_dirichlet: usize,
    plan: StencilPlan,
    threads: usize,
    /// Optional diagonal shift (the transient accumulation + well terms,
    /// `V·c_t/Δt + Σ WI`); entries on Dirichlet rows are forced to zero so
    /// those rows stay the identity.  `None` is the steady operator.
    diagonal: Option<Vec<T>>,
}

impl<T: Scalar> MatrixFreeOperator<T> {
    /// Build the operator from a coefficient table and the Dirichlet set.
    pub fn new(coeffs: Transmissibilities<T>, dirichlet: &DirichletSet) -> Self {
        let mask = (0..coeffs.dims().num_cells())
            .map(|k| dirichlet.contains_linear(k))
            .collect();
        Self::from_mask(coeffs, mask)
    }

    /// Build from a coefficient table and a per-cell Dirichlet mask (how the
    /// multigrid hierarchy builds its coarse levels).
    pub(crate) fn from_mask(coeffs: Transmissibilities<T>, dirichlet_mask: Vec<bool>) -> Self {
        let dims = coeffs.dims();
        let plan = StencilPlan::new(dims, &dirichlet_mask);
        Self {
            dims,
            coeffs,
            num_dirichlet: plan.stats().dirichlet_cells,
            dirichlet_mask,
            plan,
            threads: 1,
            diagonal: None,
        }
    }

    /// Build from a workload, converting the coefficient table to precision `T`.
    pub fn from_workload(workload: &mffv_mesh::Workload) -> Self {
        Self::new(workload.transmissibility().convert(), workload.dirichlet())
    }

    /// Set the number of scoped threads the planned kernels use (clamped to at
    /// least 1).  Results are bitwise identical for every thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Number of scoped threads the planned kernels use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Augment the operator with a diagonal shift: `A ← A + diag(d)` on
    /// non-Dirichlet rows (entries on Dirichlet rows are zeroed so those
    /// rows stay the identity).  This is the transient accumulation term
    /// `V·c_t/Δt` (plus BHP-well productivity indices) of backward-Euler
    /// stepping; the planned, fused, threaded kernels all honour it
    /// branch-free and stay bitwise identical to the naive shifted loop.
    pub fn with_diagonal_shift(mut self, diag: &CellField<f64>) -> Self {
        self.set_diagonal_shift(diag);
        self
    }

    /// In-place form of [`with_diagonal_shift`](Self::with_diagonal_shift) —
    /// lets time steppers swap the `Δt`-dependent diagonal without
    /// rebuilding the coefficient table or the stencil plan.
    pub fn set_diagonal_shift(&mut self, diag: &CellField<f64>) {
        assert_eq!(diag.dims(), self.dims, "diagonal shift dimension mismatch");
        let mut values: Vec<T> = diag.as_slice().iter().map(|&v| T::from_f64(v)).collect();
        for (k, v) in values.iter_mut().enumerate() {
            if self.dirichlet_mask[k] {
                *v = T::ZERO;
            }
        }
        self.diagonal = Some(values);
    }

    /// The active diagonal shift, when one is set.
    pub fn diagonal_shift(&self) -> Option<&[T]> {
        self.diagonal.as_deref()
    }

    /// `1/diag(A)` of the operator as it stands, diagonal shift included
    /// (see [`inverse_diagonal`]): what Jacobi and every smoother apply.
    pub fn inverse_diagonal(&self) -> Vec<T> {
        inverse_diagonal(
            &self.coeffs,
            |k| self.dirichlet_mask[k],
            self.diagonal.as_deref(),
        )
    }

    /// The precomputed stencil execution plan.
    pub fn plan(&self) -> &StencilPlan {
        &self.plan
    }

    /// Summary counters of the stencil plan (fast-path coverage, slab count).
    pub fn plan_stats(&self) -> PlanStats {
        self.plan.stats()
    }

    /// The coefficient table.
    pub fn coefficients(&self) -> &Transmissibilities<T> {
        &self.coeffs
    }

    /// Whether the cell at a linear index is a Dirichlet cell.
    #[inline]
    pub fn is_dirichlet(&self, linear_index: usize) -> bool {
        self.dirichlet_mask[linear_index]
    }

    /// Number of Dirichlet cells (cached at construction).
    pub fn num_dirichlet(&self) -> usize {
        self.num_dirichlet
    }

    /// Literal Eq. (6): `(Jx)_K = Σ_L Υλ (x_L − x_K)` for non-Dirichlet cells and
    /// `x_K` for Dirichlet cells.  Provided for faithfulness tests and for the
    /// residual computation (`r(p)` for interior cells is exactly `(Jp)_K` with the
    /// flux sign of Eq. 3).
    pub fn apply_paper_jx(&self, x: &CellField<T>, y: &mut CellField<T>) {
        self.check_dims(x, y);
        for c in self.dims.iter_cells() {
            let k = self.dims.linear(c);
            if self.dirichlet_mask[k] {
                y.set(k, x.get(k));
                continue;
            }
            let mut acc = T::ZERO;
            let xk = x.get(k);
            for dir in Direction::ALL {
                if let Some(n) = self.dims.neighbor(c, dir) {
                    let l = self.dims.linear(n);
                    acc += jx_contribution_paper(self.coeffs.get(k, dir), xk, x.get(l));
                }
            }
            y.set(k, acc);
        }
    }

    /// The SPD form handed to CG: `(A x)_K = Σ_L Υλ (x_K − x_L·[L ∉ T_D])` for
    /// non-Dirichlet cells and `x_K` for Dirichlet cells (Dirichlet elimination,
    /// `DESIGN.md` §4).
    ///
    /// Runs the planned branch-free kernel on [`threads`](Self::threads)
    /// scoped threads; bitwise identical to
    /// [`apply_spd_naive`](Self::apply_spd_naive) for every thread count.
    pub fn apply_spd(&self, x: &CellField<T>, y: &mut CellField<T>) {
        self.check_dims(x, y);
        self.plan.apply(
            &self.coeffs,
            &self.dirichlet_mask,
            self.diagonal.as_deref(),
            x,
            y,
            self.threads,
        );
    }

    /// The naive per-cell, per-neighbour reference implementation of
    /// [`apply_spd`](Self::apply_spd) (Algorithm 2 as literally written): an
    /// `Option`-checked neighbour lookup and a Dirichlet branch for all six
    /// directions of every cell.  Kept as the equivalence oracle for the
    /// planned kernel and as the benchmark baseline.
    pub fn apply_spd_naive(&self, x: &CellField<T>, y: &mut CellField<T>) {
        self.check_dims(x, y);
        for c in self.dims.iter_cells() {
            let k = self.dims.linear(c);
            if self.dirichlet_mask[k] {
                y.set(k, x.get(k));
                continue;
            }
            let mut acc = T::ZERO;
            let xk = x.get(k);
            for dir in Direction::ALL {
                if let Some(n) = self.dims.neighbor(c, dir) {
                    let l = self.dims.linear(n);
                    acc += ax_contribution_spd(
                        self.coeffs.get(k, dir),
                        xk,
                        x.get(l),
                        self.dirichlet_mask[l],
                    );
                }
            }
            if let Some(diag) = &self.diagonal {
                acc += diag[k] * xk;
            }
            y.set(k, acc);
        }
    }

    fn check_dims(&self, x: &CellField<T>, y: &CellField<T>) {
        assert_eq!(x.dims(), self.dims, "input field dimension mismatch");
        assert_eq!(y.dims(), self.dims, "output field dimension mismatch");
    }
}

/// The inverse diagonal `1/(row_sum(k) + shift[k])` of the SPD operator of a
/// coefficient table, a Dirichlet predicate and an optional diagonal shift,
/// with 1 on Dirichlet rows and on rows whose sum is not positive.
pub fn inverse_diagonal<T: Scalar>(
    coeffs: &Transmissibilities<T>,
    is_dirichlet: impl Fn(usize) -> bool,
    shift: Option<&[T]>,
) -> Vec<T> {
    let mut inv = vec![T::ONE; coeffs.dims().num_cells()];
    for (k, inv_k) in inv.iter_mut().enumerate() {
        if is_dirichlet(k) {
            continue;
        }
        // The six-term row sum: a boundary face is exactly +0, and adding
        // +0 to a sum that starts at +0 never changes its bits, so this is
        // the sum over the cell's existing neighbours.
        let mut acc = coeffs.row_sum(k);
        if let Some(d) = shift {
            acc += d[k];
        }
        if acc.to_f64() > 0.0 {
            *inv_k = T::ONE / acc;
        }
    }
    inv
}

impl<T: Scalar> LinearOperator<T> for MatrixFreeOperator<T> {
    fn dims(&self) -> Dims {
        self.dims
    }

    fn apply(&self, x: &CellField<T>, y: &mut CellField<T>) {
        self.apply_spd(x, y);
    }

    /// Fused slab-level apply + reduction (bitwise identical to the default
    /// `apply` + `det_dot` sequence, one pass over memory instead of two).
    fn apply_dot(&self, d: &CellField<T>, ad: &mut CellField<T>) -> T {
        self.check_dims(d, ad);
        self.plan.apply_dot(
            &self.coeffs,
            &self.dirichlet_mask,
            self.diagonal.as_deref(),
            d,
            ad,
            self.threads,
        )
    }

    /// Fused slab-level CG update (bitwise identical to the default
    /// axpy/axpy/`det_norm_squared` sequence, one pass over memory instead of
    /// three).
    fn cg_update(
        &self,
        alpha: T,
        d: &CellField<T>,
        ad: &CellField<T>,
        x: &mut CellField<T>,
        r: &mut CellField<T>,
    ) -> T {
        self.plan.cg_update(alpha, d, ad, x, r, self.threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{min_rayleigh_quotient, symmetry_defect};
    use mffv_mesh::permeability::PermeabilityModel;
    use mffv_mesh::workload::{BoundarySpec, WorkloadSpec};
    use mffv_mesh::{CellIndex, DirichletCell};

    fn small_workload() -> mffv_mesh::Workload {
        WorkloadSpec::quickstart().scaled(2).build()
    }

    #[test]
    fn dirichlet_rows_are_identity() {
        let w = small_workload();
        let op = MatrixFreeOperator::<f64>::from_workload(&w);
        let dims = w.dims();
        let x = CellField::from_fn(dims, |c| (c.x + c.y + c.z) as f64 + 1.0);
        let y = op.apply_new(&x);
        for idx in 0..dims.num_cells() {
            if op.is_dirichlet(idx) {
                assert_eq!(y.get(idx), x.get(idx));
            }
        }
        assert_eq!(op.num_dirichlet(), w.dirichlet().len());
    }

    #[test]
    fn constant_vector_is_in_near_null_space_of_paper_form() {
        // For interior cells away from Dirichlet cells, Eq. (6) applied to a constant
        // vector gives zero (the stencil sums differences).
        let dims = Dims::new(6, 6, 4);
        let coeffs = Transmissibilities::<f64>::uniform(dims, 1.0);
        let op = MatrixFreeOperator::new(coeffs, &DirichletSet::empty());
        let x = CellField::constant(dims, 3.0);
        let mut y = CellField::zeros(dims);
        op.apply_paper_jx(&x, &mut y);
        assert!(y.max_abs() < 1e-14);
        // ... and the SPD form agrees (it is the negation on interior cells).
        let mut z = CellField::zeros(dims);
        op.apply_spd(&x, &mut z);
        assert!(z.max_abs() < 1e-14);
    }

    #[test]
    fn paper_form_is_negative_of_spd_form_without_dirichlet() {
        let dims = Dims::new(5, 4, 3);
        let coeffs = Transmissibilities::<f64>::uniform(dims, 2.0);
        let op = MatrixFreeOperator::new(coeffs, &DirichletSet::empty());
        let x = CellField::from_fn(dims, |c| (c.x * 7 + c.y * 3 + c.z) as f64);
        let mut jx = CellField::zeros(dims);
        let mut ax = CellField::zeros(dims);
        op.apply_paper_jx(&x, &mut jx);
        op.apply_spd(&x, &mut ax);
        for i in 0..dims.num_cells() {
            assert!((jx.get(i) + ax.get(i)).abs() < 1e-12);
        }
    }

    #[test]
    fn spd_form_is_symmetric_positive() {
        let w = small_workload();
        let op = MatrixFreeOperator::<f64>::from_workload(&w);
        assert!(symmetry_defect(&op, 4) < 1e-10);
        assert!(min_rayleigh_quotient(&op, 4) > 0.0);
    }

    #[test]
    fn interior_laplacian_value_matches_hand_computation() {
        // Uniform coefficient 1, x = linear ramp along X: the 7-point stencil applied
        // to a linear function vanishes in the interior (discrete Laplacian of a
        // linear field is zero).
        let dims = Dims::new(5, 5, 5);
        let coeffs = Transmissibilities::<f64>::uniform(dims, 1.0);
        let op = MatrixFreeOperator::new(coeffs, &DirichletSet::empty());
        let x = CellField::from_fn(dims, |c| c.x as f64);
        let y = op.apply_new(&x);
        let center = dims.linear(CellIndex::new(2, 2, 2));
        assert!(y.get(center).abs() < 1e-14);
        // A quadratic along X has a constant second difference of 2 (with the SPD
        // sign the stencil yields -2 · coeff).
        let q = CellField::from_fn(dims, |c| (c.x * c.x) as f64);
        let yq = op.apply_new(&q);
        assert!((yq.get(center) - (-2.0)).abs() < 1e-12);
    }

    #[test]
    fn dirichlet_neighbor_coupling_is_dropped_in_spd_form() {
        let dims = Dims::new(3, 1, 1);
        let coeffs = Transmissibilities::<f64>::uniform(dims, 1.0);
        let dirichlet = DirichletSet::new(
            dims,
            vec![DirichletCell {
                cell: CellIndex::new(0, 0, 0),
                value: 5.0,
            }],
        );
        let op = MatrixFreeOperator::new(coeffs, &dirichlet);
        // x = [10, 1, 2]; middle cell: coeff (x1 - x0_dropped) + coeff (x1 - x2)
        //   = (1 - 0) + (1 - 2) = 0
        let x = CellField::from_vec(dims, vec![10.0, 1.0, 2.0]);
        let y = op.apply_new(&x);
        assert_eq!(y.get(0), 10.0); // Dirichlet row: identity
        assert_eq!(y.get(1), 0.0);
        assert_eq!(y.get(2), 1.0); // (x2 - x1) with only one neighbour inside
    }

    #[test]
    fn diagonal_shift_is_bitwise_planned_vs_naive_and_stays_spd() {
        let w = WorkloadSpec::quickstart().scaled(2).build();
        let dims = w.dims();
        let diag = CellField::from_fn(dims, |c| 0.25 + (c.x + 2 * c.y + 3 * c.z) as f64 * 0.125);
        let base = MatrixFreeOperator::<f64>::from_workload(&w);
        let x = CellField::from_fn(dims, |c| (c.x as f64 - 1.5 * c.y as f64) * 0.5 + c.z as f64);

        for threads in [1, 2, 8] {
            let op = base
                .clone()
                .with_threads(threads)
                .with_diagonal_shift(&diag);
            let mut planned = CellField::zeros(dims);
            op.apply_spd(&x, &mut planned);
            let mut naive = CellField::zeros(dims);
            op.apply_spd_naive(&x, &mut naive);
            for k in 0..dims.num_cells() {
                assert_eq!(
                    planned.get(k).to_bits(),
                    naive.get(k).to_bits(),
                    "cell {k}, threads {threads}"
                );
            }
            // Dirichlet rows stay the identity even with a diagonal set.
            for k in 0..dims.num_cells() {
                if op.is_dirichlet(k) {
                    assert_eq!(planned.get(k), x.get(k));
                }
            }
            assert!(symmetry_defect(&op, 3) < 1e-10);
            assert!(min_rayleigh_quotient(&op, 3) > 0.0);
        }

        // The shift is exactly +diag·x on non-Dirichlet rows.
        let op = base.clone().with_diagonal_shift(&diag);
        let plain = base.apply_new(&x);
        let shifted = op.apply_new(&x);
        for k in 0..dims.num_cells() {
            let expect = if op.is_dirichlet(k) {
                plain.get(k)
            } else {
                plain.get(k) + diag.get(k) * x.get(k)
            };
            assert_eq!(shifted.get(k).to_bits(), expect.to_bits());
        }
    }

    /// `JacobiPreconditioner::from_diagonal`'s inversion: 1 where `d ≤ 0`.
    fn invert<T: Scalar>(d: T) -> T {
        if d.to_f64() > 0.0 {
            T::ONE / d
        } else {
            T::ONE
        }
    }

    /// The neighbour loop `JacobiPreconditioner::from_coefficients` ran
    /// before it shared [`inverse_diagonal`].
    fn neighbour_loop_reference<T: Scalar>(
        coeffs: &Transmissibilities<T>,
        dirichlet: &DirichletSet,
    ) -> Vec<T> {
        let dims = coeffs.dims();
        dims.iter_cells()
            .map(|c| {
                let k = dims.linear(c);
                let diag = if dirichlet.contains_linear(k) {
                    T::ONE
                } else {
                    let mut acc = T::ZERO;
                    for dir in Direction::ALL {
                        if dims.neighbor(c, dir).is_some() {
                            acc += coeffs.get(k, dir);
                        }
                    }
                    if acc.to_f64() > 0.0 {
                        acc
                    } else {
                        T::ONE
                    }
                };
                invert(diag)
            })
            .collect()
    }

    /// The shifted-Jacobi closure the solve context ran before it shared
    /// [`inverse_diagonal`].
    fn shifted_row_sum_reference<T: Scalar>(
        op: &MatrixFreeOperator<T>,
        shift: &CellField<f64>,
    ) -> Vec<T> {
        (0..op.dims().num_cells())
            .map(|k| {
                invert(if op.is_dirichlet(k) {
                    T::ONE
                } else {
                    op.coefficients().row_sum(k) + T::from_f64(shift.get(k))
                })
            })
            .collect()
    }

    #[test]
    fn inverse_diagonal_matches_the_loops_it_replaced_bit_for_bit() {
        fn assert_same_bits<T: Scalar>(got: &[T], want: &[T], what: &str) {
            assert_eq!(got.len(), want.len());
            for (k, (g, w)) in got.iter().zip(want).enumerate() {
                assert_eq!(
                    g.to_f64().to_bits(),
                    w.to_f64().to_bits(),
                    "{what}, cell {k}"
                );
            }
        }
        fn check<T: Scalar>(w: &mffv_mesh::Workload) {
            let dims = w.dims();
            // Positive like `V·c_t/Δt` on most rows; on every seventh row
            // negative enough to take the shifted sum below zero.
            let shift = CellField::from_fn(dims, |c| match dims.linear(c) % 7 {
                3 => -1e9,
                r => 0.5 + r as f64 * 0.375,
            });
            let op = MatrixFreeOperator::<T>::from_workload(w);
            let want = neighbour_loop_reference(op.coefficients(), w.dirichlet());
            assert_same_bits(&op.inverse_diagonal(), &want, w.spec().name.as_str());
            let op = op.with_diagonal_shift(&shift);
            let want = shifted_row_sum_reference(&op, &shift);
            assert_same_bits(&op.inverse_diagonal(), &want, "shifted");
        }
        let lognormal = WorkloadSpec {
            name: "lognormal-no-dirichlet".to_string(),
            dims: Dims::new(20, 14, 6),
            spacing: [1.0, 2.0, 0.5],
            permeability: PermeabilityModel::LogNormal {
                mean_log: 0.0,
                std_log: 1.5,
                seed: 5,
            },
            viscosity: 1.0,
            boundary: BoundarySpec::None,
            tolerance: 1e-12,
            max_iterations: 100,
        };
        for spec in [
            WorkloadSpec::quickstart(),
            WorkloadSpec::fig5(Dims::new(36, 24, 8)),
            lognormal,
        ] {
            let w = spec.build();
            check::<f64>(&w);
            check::<f32>(&w);
        }
    }

    #[test]
    fn f32_and_f64_agree_on_small_problems() {
        let w = small_workload();
        let op64 = MatrixFreeOperator::<f64>::from_workload(&w);
        let op32 = MatrixFreeOperator::<f32>::from_workload(&w);
        let dims = w.dims();
        let x64 = CellField::from_fn(dims, |c| (c.x as f64 - c.y as f64) * 0.25);
        let x32: CellField<f32> = x64.convert();
        let y64 = op64.apply_new(&x64);
        let y32 = op32.apply_new(&x32);
        let diff = y64.max_abs_diff(&y32.convert());
        assert!(diff < 1e-5, "precision gap too large: {diff}");
    }
}
