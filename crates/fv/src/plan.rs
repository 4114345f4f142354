//! Planned stencil execution: branch-free, fused, multithreaded matrix-free apply.
//!
//! The paper's premise (§II-A) is that fusing local assembly with the
//! matrix-vector product makes the solve *bandwidth*-bound — which only holds if
//! the inner loop actually streams memory instead of chasing per-neighbour
//! `Option` lookups and Dirichlet branches.  A [`StencilPlan`] is a precomputed
//! partition of the grid into
//!
//! * **interior x-line runs** — maximal contiguous stretches of cells whose six
//!   neighbours all exist at fixed linear offsets (`±1`, `±nx`, `±nx·ny`) and
//!   whose closed stencil contains no Dirichlet cell.  These are applied by a
//!   tight, branch-free, autovectorizable loop over raw slices; and
//! * a **general remainder** — boundary cells, Dirichlet cells and cells
//!   adjacent to Dirichlet cells, handled by the same per-neighbour logic as the
//!   naive kernel.
//!
//! Every cell's output value is computed with *exactly* the arithmetic (same
//! operations, same order) as the naive `apply_spd` loop, so planned and naive
//! applies are bitwise identical.
//!
//! # Deterministic slabs
//!
//! The plan also fixes a partition of the linear cell range into **slabs** of
//! [`SLAB_CELLS`] cells.  Slabs are the unit of both
//!
//! * **reduction determinism** — every dot product in the planned/fused path is
//!   accumulated as a left-to-right FMA chain *within* each slab, and the
//!   per-slab partials are combined in slab order.  [`det_dot`] /
//!   [`det_norm_squared`] implement the identical order for unfused callers, so
//!   fused and unfused CG produce bitwise-identical residual histories; and
//! * **thread scheduling** — the threaded kernels assign whole slabs to scoped
//!   threads ([`std::thread::scope`], std-only).  Thread count only changes
//!   *which* thread computes a slab, never the arithmetic, so results are
//!   bitwise identical for any thread count — the same determinism contract
//!   `mffv-engine` guarantees across worker counts.
//!
//! Grids of at most [`SLAB_CELLS`] cells have a single slab, in which case the
//! deterministic reductions degenerate to the plain left-to-right FMA chain of
//! [`CellField::dot`].

use crate::flux::ax_contribution_spd;
use mffv_mesh::{CellField, Dims, Direction, Scalar};
use std::ops::Range;

/// Cells per deterministic reduction/scheduling slab.
///
/// Fixed (never derived from the thread count) so that reductions associate
/// identically for any number of apply threads.  4096 cells keep a slab's
/// working set (solution, residual, direction, `A d`, coefficients) inside
/// a typical L2 cache, which is what makes slab-level fusion profitable.
pub const SLAB_CELLS: usize = 4096;

/// Memory streams the planned apply touches per cell: the six-coefficient row
/// plus the input read and the output write.  Multiplied by `size_of::<T>()`
/// this is the charged bytes/cell of the effective-bandwidth model shared by
/// the `spmv_bench` report bin and the `roofline_report` example (stencil
/// reuse of `x` and the Dirichlet mask are deliberately not charged).
pub const APPLY_STREAMS_PER_CELL: usize = 8;

/// One maximal branch-free stretch of an interior x-line (clipped to a slab).
#[derive(Clone, Copy, Debug)]
struct Run {
    /// Linear index of the first cell.
    start: usize,
    /// Number of cells.
    len: usize,
}

/// One deterministic slab: a contiguous linear cell range with its branch-free
/// runs and its general-path remainder cells.
#[derive(Clone, Debug)]
struct Slab {
    /// The linear cell range `[start, end)` this slab owns.
    range: Range<usize>,
    /// Branch-free interior runs, in increasing cell order.
    runs: Vec<Run>,
    /// Remainder cells (boundary / Dirichlet / Dirichlet-adjacent), in
    /// increasing cell order.
    general: Vec<usize>,
}

/// Summary counters of a [`StencilPlan`], for reports and benchmarks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Total cells in the grid.
    pub num_cells: usize,
    /// Cells covered by branch-free interior runs.
    pub run_cells: usize,
    /// Cells on the general path (boundary, Dirichlet, Dirichlet-adjacent).
    pub general_cells: usize,
    /// Dirichlet cells (a subset of `general_cells`).
    pub dirichlet_cells: usize,
    /// Number of branch-free runs.
    pub num_runs: usize,
    /// Number of deterministic slabs.
    pub num_slabs: usize,
}

impl PlanStats {
    /// Fraction of cells on the branch-free fast path.
    pub fn run_fraction(&self) -> f64 {
        if self.num_cells == 0 {
            0.0
        } else {
            self.run_cells as f64 / self.num_cells as f64
        }
    }
}

/// A precomputed stencil execution plan for one `(dims, Dirichlet set)` pair.
///
/// Built once per operator (cost: one linear sweep over the mask) and reused
/// by every apply; see the module docs for the run/slab structure.
#[derive(Clone, Debug)]
pub struct StencilPlan {
    dims: Dims,
    slabs: Vec<Slab>,
    stats: PlanStats,
}

impl StencilPlan {
    /// Build the plan for a grid and its Dirichlet mask (`mask[k]` true when
    /// cell `k` is a Dirichlet cell).
    pub fn new(dims: Dims, dirichlet_mask: &[bool]) -> Self {
        assert_eq!(
            dirichlet_mask.len(),
            dims.num_cells(),
            "Dirichlet mask length mismatch"
        );
        let n = dims.num_cells();
        let num_slabs = n.div_ceil(SLAB_CELLS);
        let mut slabs: Vec<Slab> = (0..num_slabs)
            .map(|i| Slab {
                range: i * SLAB_CELLS..((i + 1) * SLAB_CELLS).min(n),
                runs: Vec::new(),
                general: Vec::new(),
            })
            .collect();
        let mut stats = PlanStats {
            num_cells: n,
            num_slabs,
            dirichlet_cells: dirichlet_mask.iter().filter(|&&d| d).count(),
            ..PlanStats::default()
        };

        let sy = dims.y_stride();
        let sz = dims.z_stride();
        for (y, z, line) in dims.iter_x_lines() {
            // A run cell needs all six neighbours present (so the line must be
            // interior in y and z, and the cell interior in x) and a stencil
            // free of Dirichlet cells.
            let line_is_interior = dims.nx >= 3
                && dims.ny >= 3
                && dims.nz >= 3
                && (1..dims.ny - 1).contains(&y)
                && (1..dims.nz - 1).contains(&z);
            let base = line.start;
            let mut run_start: Option<usize> = None;
            for x in 0..dims.nx {
                let k = base + x;
                let eligible = line_is_interior
                    && x >= 1
                    && x < dims.nx - 1
                    && !dirichlet_mask[k]
                    && !dirichlet_mask[k - 1]
                    && !dirichlet_mask[k + 1]
                    && !dirichlet_mask[k - sy]
                    && !dirichlet_mask[k + sy]
                    && !dirichlet_mask[k - sz]
                    && !dirichlet_mask[k + sz];
                if eligible {
                    run_start.get_or_insert(k);
                } else {
                    if let Some(start) = run_start.take() {
                        push_run(&mut slabs, &mut stats, start, k);
                    }
                    slabs[k / SLAB_CELLS].general.push(k);
                    stats.general_cells += 1;
                }
            }
            if let Some(start) = run_start.take() {
                push_run(&mut slabs, &mut stats, start, line.end);
            }
        }
        Self { dims, slabs, stats }
    }

    /// Grid extents the plan was built for.
    pub fn dims(&self) -> Dims {
        self.dims
    }

    /// The plan's summary counters.
    pub fn stats(&self) -> PlanStats {
        self.stats
    }

    /// `y = (A + diag(d)) x` through the plan, on `threads` scoped threads.
    ///
    /// `diag` is the optional **diagonal shift** of the transient
    /// (accumulation-augmented) operator: when present, every non-Dirichlet
    /// cell `K` gains `diag[K] · x_K` *after* its six stencil terms — the
    /// exact operation order of the naive shifted loop, so planned and naive
    /// shifted applies stay bitwise identical.  Dirichlet rows remain the
    /// identity regardless of their `diag` entry.  `None` is the steady
    /// operator, bitwise unchanged from earlier releases.
    pub fn apply<T: Scalar>(
        &self,
        coeffs: &[[T; 6]],
        mask: &[bool],
        diag: Option<&[T]>,
        x: &CellField<T>,
        y: &mut CellField<T>,
        threads: usize,
    ) {
        self.check_fields(coeffs, mask, diag, x.dims(), y.dims());
        let ctx = KernelCtx {
            dims: self.dims,
            coeffs,
            mask,
            diag,
        };
        let xs = x.as_slice();
        if self.group_count(threads) == 1 {
            for slab in &self.slabs {
                apply_slab(slab, &ctx, xs, y.as_mut_slice(), 0);
            }
            return;
        }
        let groups = self.thread_groups(threads);
        std::thread::scope(|scope| {
            let mut rest = y.as_mut_slice();
            let mut consumed = 0usize;
            for group in &groups {
                let group_end = self.slabs[group.end - 1].range.end;
                let (part, tail) = rest.split_at_mut(group_end - consumed);
                rest = tail;
                let offset = consumed;
                consumed = group_end;
                let slabs = &self.slabs[group.clone()];
                scope.spawn(move || {
                    for slab in slabs {
                        apply_slab(slab, &ctx, xs, part, offset);
                    }
                });
            }
        });
    }

    /// Fused `ad = (A + diag) d` and `dᵀ(A d)` in a single pass: each slab is
    /// applied and immediately reduced while its output is cache-hot.
    /// `diag` is the optional diagonal shift (see [`apply`](Self::apply)).
    ///
    /// The returned value is bitwise identical to `apply` followed by
    /// [`det_dot`]`(d, ad)`, for every thread count.
    pub fn apply_dot<T: Scalar>(
        &self,
        coeffs: &[[T; 6]],
        mask: &[bool],
        diag: Option<&[T]>,
        d: &CellField<T>,
        ad: &mut CellField<T>,
        threads: usize,
    ) -> T {
        self.check_fields(coeffs, mask, diag, d.dims(), ad.dims());
        let ctx = KernelCtx {
            dims: self.dims,
            coeffs,
            mask,
            diag,
        };
        let ds = d.as_slice();
        if self.group_count(threads) == 1 {
            // Serial path: fold the per-slab partials inline in slab order —
            // bitwise identical to `combine_partials` over a materialised
            // buffer, with no per-call allocation (the steady-state serving
            // path runs this once per CG iteration).
            let out = ad.as_mut_slice();
            let mut acc: Option<T> = None;
            for slab in &self.slabs {
                apply_slab(slab, &ctx, ds, out, 0);
                let p = slab_dot(&ds[slab.range.clone()], &out[slab.range.clone()]);
                acc = Some(match acc {
                    None => p,
                    Some(acc) => acc + p,
                });
            }
            return acc.unwrap_or(T::ZERO);
        }
        let groups = self.thread_groups(threads);
        let mut partials = vec![T::ZERO; self.slabs.len()];
        std::thread::scope(|scope| {
            let mut rest = ad.as_mut_slice();
            let mut partial_rest = partials.as_mut_slice();
            let mut consumed = 0usize;
            for group in &groups {
                let group_end = self.slabs[group.end - 1].range.end;
                let (part, tail) = rest.split_at_mut(group_end - consumed);
                rest = tail;
                let (parts, ptail) = partial_rest.split_at_mut(group.len());
                partial_rest = ptail;
                let offset = consumed;
                consumed = group_end;
                let slabs = &self.slabs[group.clone()];
                scope.spawn(move || {
                    for (slab, partial) in slabs.iter().zip(parts.iter_mut()) {
                        apply_slab(slab, &ctx, ds, part, offset);
                        let local = slab.range.start - offset..slab.range.end - offset;
                        *partial = slab_dot(&ds[slab.range.clone()], &part[local]);
                    }
                });
            }
        });
        combine_partials(&partials)
    }

    /// Fused CG update: `x += α d`, `r −= α (A d)` and the new `rᵀr`, in a
    /// single pass over the slabs.
    ///
    /// Bitwise identical — for every thread count — to the unfused sequence
    /// `x.axpy(α, d); r.axpy(−α, ad);` followed by [`det_norm_squared`]`(r)`.
    pub fn cg_update<T: Scalar>(
        &self,
        alpha: T,
        d: &CellField<T>,
        ad: &CellField<T>,
        x: &mut CellField<T>,
        r: &mut CellField<T>,
        threads: usize,
    ) -> T {
        assert_eq!(d.dims(), self.dims, "direction dimension mismatch");
        assert_eq!(ad.dims(), self.dims, "operator output dimension mismatch");
        assert_eq!(x.dims(), self.dims, "solution dimension mismatch");
        assert_eq!(r.dims(), self.dims, "residual dimension mismatch");
        let ds = d.as_slice();
        let ads = ad.as_slice();
        if self.group_count(threads) == 1 {
            // Serial path: inline partial fold, no per-call allocation (see
            // `apply_dot` — same bitwise-equivalence argument).
            let xs = x.as_mut_slice();
            let rs = r.as_mut_slice();
            let mut acc: Option<T> = None;
            for slab in &self.slabs {
                let range = slab.range.clone();
                let p = update_slab(
                    alpha,
                    &ds[range.clone()],
                    &ads[range.clone()],
                    &mut xs[range.clone()],
                    &mut rs[range],
                );
                acc = Some(match acc {
                    None => p,
                    Some(acc) => acc + p,
                });
            }
            return acc.unwrap_or(T::ZERO);
        }
        let groups = self.thread_groups(threads);
        let mut partials = vec![T::ZERO; self.slabs.len()];
        {
            std::thread::scope(|scope| {
                let mut x_rest = x.as_mut_slice();
                let mut r_rest = r.as_mut_slice();
                let mut partial_rest = partials.as_mut_slice();
                let mut consumed = 0usize;
                for group in &groups {
                    let group_end = self.slabs[group.end - 1].range.end;
                    let (x_part, x_tail) = x_rest.split_at_mut(group_end - consumed);
                    x_rest = x_tail;
                    let (r_part, r_tail) = r_rest.split_at_mut(group_end - consumed);
                    r_rest = r_tail;
                    let (parts, ptail) = partial_rest.split_at_mut(group.len());
                    partial_rest = ptail;
                    let offset = consumed;
                    consumed = group_end;
                    let slabs = &self.slabs[group.clone()];
                    scope.spawn(move || {
                        for (slab, partial) in slabs.iter().zip(parts.iter_mut()) {
                            let local = slab.range.start - offset..slab.range.end - offset;
                            *partial = update_slab(
                                alpha,
                                &ds[slab.range.clone()],
                                &ads[slab.range.clone()],
                                &mut x_part[local.clone()],
                                &mut r_part[local],
                            );
                        }
                    });
                }
            });
        }
        combine_partials(&partials)
    }

    /// Number of groups [`thread_groups`](Self::thread_groups) would build,
    /// without materialising them.  The kernels test this for 1 to take the
    /// serial path with no per-call allocation — the steady-state serving
    /// hot loop depends on that.
    fn group_count(&self, threads: usize) -> usize {
        threads.clamp(1, self.slabs.len().max(1))
    }

    /// Contiguous slab-index groups for `threads` scoped threads: a balanced
    /// partition (the first `slabs % threads` groups take one extra slab), so
    /// every requested thread gets work whenever there are enough slabs.  At
    /// most one group per slab; a single group short-circuits the spawn
    /// entirely.  Grouping never affects results — reductions are combined in
    /// slab order, not group order.
    fn thread_groups(&self, threads: usize) -> Vec<Range<usize>> {
        let slabs = self.slabs.len();
        let threads = threads.clamp(1, slabs.max(1));
        let base = slabs / threads;
        let extra = slabs % threads;
        let mut groups = Vec::with_capacity(threads);
        let mut start = 0;
        for t in 0..threads {
            let len = base + usize::from(t < extra);
            groups.push(start..start + len);
            start += len;
        }
        groups
    }

    fn check_fields<T: Scalar>(
        &self,
        coeffs: &[[T; 6]],
        mask: &[bool],
        diag: Option<&[T]>,
        xd: Dims,
        yd: Dims,
    ) {
        assert_eq!(
            coeffs.len(),
            self.dims.num_cells(),
            "coefficient table mismatch"
        );
        assert_eq!(mask.len(), self.dims.num_cells(), "Dirichlet mask mismatch");
        if let Some(diag) = diag {
            assert_eq!(
                diag.len(),
                self.dims.num_cells(),
                "diagonal shift length mismatch"
            );
        }
        assert_eq!(xd, self.dims, "input field dimension mismatch");
        assert_eq!(yd, self.dims, "output field dimension mismatch");
    }
}

fn push_run(slabs: &mut [Slab], stats: &mut PlanStats, start: usize, end: usize) {
    // Clip the run at slab boundaries so each slab owns its cells exclusively.
    let mut s = start;
    while s < end {
        let slab_idx = s / SLAB_CELLS;
        let e = end.min((slab_idx + 1) * SLAB_CELLS);
        slabs[slab_idx].runs.push(Run {
            start: s,
            len: e - s,
        });
        stats.num_runs += 1;
        stats.run_cells += e - s;
        s = e;
    }
}

/// Shared read-only inputs of the apply kernels (Copy, so each scoped thread
/// captures its own copy).
#[derive(Clone, Copy)]
struct KernelCtx<'a, T: Scalar> {
    dims: Dims,
    coeffs: &'a [[T; 6]],
    mask: &'a [bool],
    /// Optional diagonal shift (the transient accumulation term); ignored on
    /// Dirichlet rows.
    diag: Option<&'a [T]>,
}

/// Apply one slab into `y_part`, the output sub-slice starting at global cell
/// index `offset`.
fn apply_slab<T: Scalar>(
    slab: &Slab,
    ctx: &KernelCtx<'_, T>,
    x: &[T],
    y_part: &mut [T],
    offset: usize,
) {
    for run in &slab.runs {
        apply_run(*run, ctx, x, y_part, offset);
    }
    for &k in &slab.general {
        y_part[k - offset] = general_cell(k, ctx, x);
    }
}

/// The branch-free inner loop: equal-length pre-sliced windows let the bounds
/// checks vanish and the six FMA-free multiply/sub/add chains autovectorize.
#[inline]
fn apply_run<T: Scalar>(
    run: Run,
    ctx: &KernelCtx<'_, T>,
    x: &[T],
    y_part: &mut [T],
    offset: usize,
) {
    let (coeffs, diag) = (ctx.coeffs, ctx.diag);
    let sy = ctx.dims.y_stride();
    let sz = ctx.dims.z_stride();
    let Run { start, len } = run;
    let out = &mut y_part[start - offset..start - offset + len];
    let cs = &coeffs[start..start + len];
    let xc = &x[start..start + len];
    let xe = &x[start + 1..start + 1 + len];
    let xw = &x[start - 1..start - 1 + len];
    let xs = &x[start + sy..start + sy + len];
    let xn = &x[start - sy..start - sy + len];
    let xu = &x[start + sz..start + sz + len];
    let xd = &x[start - sz..start - sz + len];
    match diag {
        None => {
            for (i, o) in out.iter_mut().enumerate() {
                let c = &cs[i];
                let xk = xc[i];
                // Same operations in the same Direction::ALL order as the
                // naive kernel: acc += coeff · (x_K − x_L), six times.
                let mut acc = T::ZERO;
                acc += c[0] * (xk - xe[i]);
                acc += c[1] * (xk - xw[i]);
                acc += c[2] * (xk - xs[i]);
                acc += c[3] * (xk - xn[i]);
                acc += c[4] * (xk - xu[i]);
                acc += c[5] * (xk - xd[i]);
                *o = acc;
            }
        }
        Some(dg) => {
            // The shifted kernel stays branch-free: the diagonal is a dense
            // pre-sliced stream, one extra multiply/add per cell appended in
            // the same order the naive shifted loop uses.
            let dgs = &dg[start..start + len];
            for (i, o) in out.iter_mut().enumerate() {
                let c = &cs[i];
                let xk = xc[i];
                let mut acc = T::ZERO;
                acc += c[0] * (xk - xe[i]);
                acc += c[1] * (xk - xw[i]);
                acc += c[2] * (xk - xs[i]);
                acc += c[3] * (xk - xn[i]);
                acc += c[4] * (xk - xu[i]);
                acc += c[5] * (xk - xd[i]);
                acc += dgs[i] * xk;
                *o = acc;
            }
        }
    }
}

/// The general path: identical per-neighbour logic to the naive kernel
/// (Dirichlet rows are the identity, Dirichlet couplings are dropped).
#[inline]
fn general_cell<T: Scalar>(k: usize, ctx: &KernelCtx<'_, T>, x: &[T]) -> T {
    if ctx.mask[k] {
        return x[k];
    }
    let c = ctx.dims.unlinear(k);
    let xk = x[k];
    let row = &ctx.coeffs[k];
    let mut acc = T::ZERO;
    for dir in Direction::ALL {
        if let Some(nb) = ctx.dims.neighbor(c, dir) {
            let l = ctx.dims.linear(nb);
            acc += ax_contribution_spd(row[dir.index()], xk, x[l], ctx.mask[l]);
        }
    }
    if let Some(dg) = ctx.diag {
        acc += dg[k] * xk;
    }
    acc
}

/// Left-to-right FMA chain over one slab — the unit of deterministic
/// reduction.
#[inline]
fn slab_dot<T: Scalar>(a: &[T], b: &[T]) -> T {
    let mut acc = T::ZERO;
    for (va, vb) in a.iter().zip(b.iter()) {
        acc = va.mul_add(*vb, acc);
    }
    acc
}

/// Fused per-slab CG update returning the slab's `rᵀr` partial.
#[inline]
fn update_slab<T: Scalar>(alpha: T, d: &[T], ad: &[T], x: &mut [T], r: &mut [T]) -> T {
    let neg_alpha = -alpha;
    let mut acc = T::ZERO;
    for i in 0..d.len() {
        x[i] = alpha.mul_add(d[i], x[i]);
        let rv = neg_alpha.mul_add(ad[i], r[i]);
        r[i] = rv;
        acc = rv.mul_add(rv, acc);
    }
    acc
}

/// Combine per-slab partials in slab order.  The first partial seeds the
/// accumulator (no spurious leading `0 +`), so a single-slab reduction is
/// exactly the plain FMA chain.
#[inline]
fn combine_partials<T: Scalar>(partials: &[T]) -> T {
    let mut iter = partials.iter();
    let Some(&first) = iter.next() else {
        return T::ZERO;
    };
    iter.fold(first, |acc, &p| acc + p)
}

/// Deterministic slab-ordered dot product: a left-to-right FMA chain within
/// each [`SLAB_CELLS`] chunk, partials combined in chunk order.
///
/// This is the canonical reduction of every host CG/PCG dot product; the
/// fused kernels of [`StencilPlan`] reproduce it bit-for-bit, which is what
/// makes fused and unfused solves (and any apply thread count) bitwise
/// identical.  For fields of at most [`SLAB_CELLS`] cells it equals
/// [`CellField::dot`] exactly.
pub fn det_dot<T: Scalar>(a: &CellField<T>, b: &CellField<T>) -> T {
    assert_eq!(a.dims(), b.dims(), "field dimension mismatch");
    let mut partial_acc: Option<T> = None;
    for (ca, cb) in a
        .as_slice()
        .chunks(SLAB_CELLS)
        .zip(b.as_slice().chunks(SLAB_CELLS))
    {
        let p = slab_dot(ca, cb);
        partial_acc = Some(match partial_acc {
            None => p,
            Some(acc) => acc + p,
        });
    }
    partial_acc.unwrap_or(T::ZERO)
}

/// Deterministic slab-ordered squared norm (see [`det_dot`]).
pub fn det_norm_squared<T: Scalar>(a: &CellField<T>) -> T {
    det_dot(a, a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mffv_mesh::{DirichletSet, Transmissibilities};

    fn pseudorandom_field(dims: Dims, seed: u64) -> CellField<f64> {
        let mut state = 0x0123_4567_89AB_CDEFu64 ^ seed;
        CellField::from_fn(dims, |_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    #[test]
    fn empty_dirichlet_plan_covers_all_interior_cells() {
        let dims = Dims::new(7, 5, 4);
        let plan = StencilPlan::new(dims, &vec![false; dims.num_cells()]);
        let stats = plan.stats();
        assert_eq!(stats.run_cells, dims.num_interior_cells());
        assert_eq!(stats.run_cells + stats.general_cells, dims.num_cells());
        assert_eq!(stats.dirichlet_cells, 0);
        assert!(stats.run_fraction() > 0.0);
    }

    #[test]
    fn thin_grids_have_no_runs_but_full_coverage() {
        for dims in [Dims::new(1, 6, 6), Dims::new(6, 1, 6), Dims::new(2, 2, 2)] {
            let plan = StencilPlan::new(dims, &vec![false; dims.num_cells()]);
            assert_eq!(plan.stats().run_cells, 0, "{dims}");
            assert_eq!(plan.stats().general_cells, dims.num_cells(), "{dims}");
        }
    }

    #[test]
    fn dirichlet_cells_break_runs() {
        let dims = Dims::new(9, 5, 5);
        let mut mask = vec![false; dims.num_cells()];
        // A Dirichlet cell in the middle of an interior line removes itself and
        // its six stencil neighbours from the fast path.
        let center = dims.linear(mffv_mesh::CellIndex::new(4, 2, 2));
        mask[center] = true;
        let plan = StencilPlan::new(dims, &mask);
        let empty = StencilPlan::new(dims, &vec![false; dims.num_cells()]);
        assert_eq!(plan.stats().dirichlet_cells, 1);
        assert_eq!(
            empty.stats().run_cells - plan.stats().run_cells,
            7,
            "the Dirichlet cell and its 6 neighbours must leave the fast path"
        );
    }

    #[test]
    fn slab_partition_is_independent_of_threads() {
        let dims = Dims::new(40, 30, 20);
        let plan = StencilPlan::new(dims, &vec![false; dims.num_cells()]);
        assert_eq!(
            plan.stats().num_slabs,
            dims.num_cells().div_ceil(SLAB_CELLS)
        );
        for threads in [1, 2, 3, 8, 1000] {
            let groups = plan.thread_groups(threads);
            // Balanced: every requested thread gets a non-empty group (capped
            // at one group per slab), groups tile the slab range contiguously.
            assert_eq!(groups.len(), threads.min(plan.slabs.len()));
            assert!(groups.iter().all(|g| !g.is_empty()));
            assert_eq!(groups.first().unwrap().start, 0);
            assert_eq!(groups.last().unwrap().end, plan.slabs.len());
            for pair in groups.windows(2) {
                assert_eq!(pair[0].end, pair[1].start);
            }
        }
    }

    #[test]
    fn det_dot_equals_field_dot_within_one_slab() {
        let dims = Dims::new(16, 16, 8); // 2048 cells: a single slab
        let a = pseudorandom_field(dims, 1);
        let b = pseudorandom_field(dims, 2);
        assert_eq!(det_dot(&a, &b).to_bits(), a.dot(&b).to_bits());
        assert_eq!(det_norm_squared(&a).to_bits(), a.norm_squared().to_bits());
    }

    #[test]
    fn det_dot_is_close_to_field_dot_across_slabs() {
        let dims = Dims::new(32, 32, 8); // 8192 cells: two slabs
        let a = pseudorandom_field(dims, 3);
        let b = pseudorandom_field(dims, 4);
        let d1 = det_dot(&a, &b);
        let d2 = a.dot(&b);
        assert!((d1 - d2).abs() <= 1e-10 * d2.abs().max(1.0));
    }

    #[test]
    fn fused_kernels_match_their_unfused_counterparts_bitwise() {
        let dims = Dims::new(33, 17, 9); // odd extents, > 1 slab
        let coeffs = Transmissibilities::<f64>::uniform(dims, 1.5);
        let dirichlet = DirichletSet::x_faces(dims, 1.0, 0.0);
        let mask: Vec<bool> = (0..dims.num_cells())
            .map(|k| dirichlet.contains_linear(k))
            .collect();
        let plan = StencilPlan::new(dims, &mask);
        let d = pseudorandom_field(dims, 7);

        for threads in [1, 2, 8] {
            // apply + det_dot == apply_dot
            let mut ad_ref = CellField::zeros(dims);
            plan.apply(coeffs.cell_rows(), &mask, None, &d, &mut ad_ref, 1);
            let unfused = det_dot(&d, &ad_ref);
            let mut ad = CellField::zeros(dims);
            let fused = plan.apply_dot(coeffs.cell_rows(), &mask, None, &d, &mut ad, threads);
            assert_eq!(fused.to_bits(), unfused.to_bits(), "threads = {threads}");
            assert_eq!(ad, ad_ref);

            // axpy/axpy/det_norm == cg_update
            let alpha = 0.37f64;
            let mut x_ref = pseudorandom_field(dims, 8);
            let mut r_ref = pseudorandom_field(dims, 9);
            let mut x = x_ref.clone();
            let mut r = r_ref.clone();
            x_ref.axpy(alpha, &d);
            r_ref.axpy(-alpha, &ad_ref);
            let rr_ref = det_norm_squared(&r_ref);
            let rr = plan.cg_update(alpha, &d, &ad_ref, &mut x, &mut r, threads);
            assert_eq!(rr.to_bits(), rr_ref.to_bits(), "threads = {threads}");
            assert_eq!(x, x_ref);
            assert_eq!(r, r_ref);
        }
    }

    #[test]
    fn diagonal_shift_adds_dx_on_non_dirichlet_rows_only() {
        let dims = Dims::new(9, 7, 5);
        let coeffs = Transmissibilities::<f64>::uniform(dims, 1.25);
        let dirichlet = DirichletSet::x_faces(dims, 1.0, 0.0);
        let mask: Vec<bool> = (0..dims.num_cells())
            .map(|k| dirichlet.contains_linear(k))
            .collect();
        let plan = StencilPlan::new(dims, &mask);
        let x = pseudorandom_field(dims, 11);
        let diag: Vec<f64> = (0..dims.num_cells())
            .map(|k| 0.5 + (k % 7) as f64)
            .collect();

        let mut plain = CellField::zeros(dims);
        plan.apply(coeffs.cell_rows(), &mask, None, &x, &mut plain, 1);
        for threads in [1, 2, 8] {
            let mut shifted = CellField::zeros(dims);
            plan.apply(
                coeffs.cell_rows(),
                &mask,
                Some(&diag),
                &x,
                &mut shifted,
                threads,
            );
            for k in 0..dims.num_cells() {
                let expect = if mask[k] {
                    plain.get(k)
                } else {
                    plain.get(k) + diag[k] * x.get(k)
                };
                assert_eq!(shifted.get(k).to_bits(), expect.to_bits(), "cell {k}");
            }

            // The fused shifted apply_dot matches apply + det_dot bitwise.
            let mut ad = CellField::zeros(dims);
            let fused =
                plan.apply_dot(coeffs.cell_rows(), &mask, Some(&diag), &x, &mut ad, threads);
            let mut ad_ref = CellField::zeros(dims);
            plan.apply(coeffs.cell_rows(), &mask, Some(&diag), &x, &mut ad_ref, 1);
            assert_eq!(fused.to_bits(), det_dot(&x, &ad_ref).to_bits());
            assert_eq!(ad, ad_ref);
        }
    }
}
