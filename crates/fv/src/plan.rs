//! Planned stencil execution: branch-free, fused, multithreaded matrix-free apply.
//!
//! The paper's premise (§II-A) is that fusing local assembly with the
//! matrix-vector product makes the solve *bandwidth*-bound — which only holds if
//! the inner loop actually streams memory instead of chasing per-neighbour
//! `Option` lookups and Dirichlet branches.  A [`StencilPlan`] is a precomputed
//! partition of the grid into
//!
//! * **runs** — maximal stretches of the linear cell range (clipped to a
//!   slab) whose cells share one *neighbour set* and whose closed stencil
//!   contains no Dirichlet cell.  A run's neighbour set is chosen by array
//!   position: the directions whose offset (`±1`, `±nx`, `±nx·ny`) stays
//!   inside the array.  Only 16 such sets exist, so one generic kernel,
//!   specialised at compile time on the set, applies a run as a tight,
//!   branch-free, autovectorizable loop over raw slices.  A run spans whole
//!   x-lines and planes: it ends only at a slab edge, at a Dirichlet
//!   neighbourhood, or where the set changes (near the first and last row
//!   and plane of the array); and
//! * a **general remainder** — exactly the Dirichlet cells and their domain
//!   neighbours, handled by the same per-neighbour logic as the naive kernel.
//!
//! The kernels read the coefficient table as its three face arrays
//! ([`Transmissibilities::faces`]): a cell's +x, +y and +z coefficients are its
//! own entries, and its −x, −y and −z coefficients are the +x entry of `k − 1`,
//! the +y entry of `k − nx` and the +z entry of `k − nx·ny`.  An apply thus
//! streams five arrays per cell ([`APPLY_STREAMS_PER_CELL`]).
//!
//! For finite `x`, every cell's output value is bitwise identical to the
//! naive `apply_spd` loop's.  The run kernel adds one `coeff · (x_K − x_L)`
//! term per array neighbour in [`Direction::ALL`] order, then the
//! diagonal-shift term.  Where the array neighbour is no domain neighbour
//! (`k ± 1` across an x-line's end, `k ± nx` across a plane's edge row), the
//! coefficient is a plus-boundary face, which the table stores as `+0`, so
//! the term is `±0`; the accumulator starts at `+0` and never becomes `−0`,
//! so adding it changes no bit.
//!
//! A non-finite `x_L` is the one difference: it also reaches its array
//! neighbour across a domain face, as `+0 · ∞ = NaN` (or `+0 · NaN`), where
//! the naive kernel skips the term.  Results can differ only once a field
//! is already non-finite, and the Krylov loop's stop tests treat NaN and ∞
//! alike: breakdown fires on `!dᵀAd.is_finite()` and divergence on
//! `!rᵀr.is_finite()`, so no stop reason changes.
//!
//! # Deterministic slabs
//!
//! The plan also fixes a partition of the linear cell range into **slabs** of
//! [`SLAB_CELLS`] cells.  Slabs are the unit of both
//!
//! * **reduction determinism** — every dot product in the planned/fused path is
//!   accumulated as a left-to-right FMA chain from `+0` *within* each slab,
//!   and the per-slab partials are combined in slab order.  [`det_dot`] /
//!   [`det_norm_squared`] implement the identical order for unfused callers, so
//!   fused and unfused CG produce bitwise-identical residual histories; and
//! * **thread scheduling** — one slab loop runs every kernel and [`det_dot`].
//!   With one thread (or one slab) it runs the slabs in order on the calling
//!   thread and allocates nothing; otherwise it splits them into balanced,
//!   contiguous groups, one per scoped thread ([`std::thread::scope`],
//!   std-only, spawned on each call).  Thread count only changes *which*
//!   thread computes a slab, never the arithmetic or the order the partials
//!   are folded in, so results are bitwise identical for any thread count —
//!   the same determinism contract `mffv-engine` guarantees across worker
//!   counts.
//!
//! Each FMA of a slab's chain waits for the one before it.  So the slab loop
//! hands its kernels **blocks** of up to eight consecutive slabs (each thread
//! group cuts its own slabs into blocks), and one helper advances a block's
//! chains in lockstep: one FMA of each chain per step, so in a block of eight
//! each chain's latency hides behind the other seven.  Blocking changes no bit:
//! each chain still starts from `+0` and takes only its own slab's cells, in
//! increasing order, and the partials are still folded one per slab, in
//! slab order.  Only the interleaving of independent chains changes.
//!
//! Grids of at most [`SLAB_CELLS`] cells have a single slab, in which case the
//! deterministic reductions degenerate to the plain left-to-right FMA chain of
//! [`CellField::dot`].

use crate::flux::ax_contribution_spd;
use mffv_mesh::{CellField, Dims, Direction, Scalar, Transmissibilities};
use std::ops::Range;

/// Cells per deterministic reduction/scheduling slab.
///
/// Fixed (never derived from the thread count) so that reductions associate
/// identically for any number of apply threads.  4096 cells keep a slab's
/// working set (solution, residual, direction, `A d`, coefficients) inside
/// a typical L2 cache, which is what makes slab-level fusion profitable.
pub const SLAB_CELLS: usize = 4096;

/// Slabs per block, whose reduction chains advance in lockstep: two FMA
/// ports times a four-cycle FMA latency.  Eight slabs of two `f64` arrays
/// (512 KiB) stay in L2.
const LANES: usize = 8;

/// Cells of each slab that [`StencilPlan::cg_update`] updates across a
/// block before it advances the block's `rᵀr` chains over them, while `r`
/// is still in L1.
const UPDATE_STRETCH: usize = 256;

/// Memory streams the planned apply touches per cell: the three face arrays
/// (+x, +y, +z) plus the input read and the output write.  Multiplied by
/// `size_of::<T>()` this is the charged bytes/cell of the `spmv_bench`
/// report bin's measured GB/s (stencil reuse of `x` and of the face arrays,
/// and the Dirichlet mask are deliberately not charged); the `fig6` bin
/// prints the modelled device rooflines it is read against.
pub const APPLY_STREAMS_PER_CELL: usize = 5;

/// Neighbour-set bits, one per direction at its [`Direction::index`]: a cell
/// has a neighbour in direction `d` when bit `d.index()` is set.
const XP: u8 = 1 << 0;
const XM: u8 = 1 << 1;
const YP: u8 = 1 << 2;
const YM: u8 = 1 << 3;
const ZP: u8 = 1 << 4;
const ZM: u8 = 1 << 5;

/// One maximal branch-free stretch of the linear cell range (clipped to a
/// slab) whose cells share one array-neighbour set.
#[derive(Clone, Copy, Debug)]
struct Run {
    /// Linear index of the first cell.
    start: usize,
    /// Number of cells.
    len: usize,
    /// The directions every cell of the run has an array neighbour in (see
    /// [`XP`] and [`array_neighbours`]).
    neighbours: u8,
}

/// One deterministic slab: a contiguous linear cell range with its branch-free
/// runs and its general-path remainder cells.
#[derive(Clone, Debug)]
struct Slab {
    /// The linear cell range `[start, end)` this slab owns.
    range: Range<usize>,
    /// Branch-free runs, in increasing cell order.
    runs: Vec<Run>,
    /// Remainder cells (Dirichlet cells and their neighbours), in increasing
    /// cell order.
    general: Vec<usize>,
}

/// Summary counters of a [`StencilPlan`], for reports and benchmarks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Total cells in the grid.
    pub num_cells: usize,
    /// Cells covered by branch-free runs.
    pub run_cells: usize,
    /// Cells on the general path (Dirichlet cells and their neighbours).
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
        let mut slabs: Vec<Slab> = chunks(0..n, SLAB_CELLS)
            .map(|range| Slab {
                range,
                runs: Vec::new(),
                general: Vec::new(),
            })
            .collect();
        let mut stats = PlanStats {
            num_cells: n,
            num_slabs: slabs.len(),
            dirichlet_cells: dirichlet_mask.iter().filter(|&&d| d).count(),
            ..PlanStats::default()
        };

        let (nx, sy, sz) = (dims.nx, dims.y_stride(), dims.z_stride());
        let mut open: Option<(usize, u8)> = None;
        for (y, z, line) in dims.iter_x_lines() {
            // The y and z domain neighbours are the same for the whole line.
            let line_domain = bit(y + 1 < dims.ny, YP)
                | bit(y > 0, YM)
                | bit(z + 1 < dims.nz, ZP)
                | bit(z > 0, ZM);
            for x in 0..nx {
                let k = line.start + x;
                let domain = line_domain | bit(x + 1 < nx, XP) | bit(x > 0, XM);
                // A run cell's closed stencil holds no Dirichlet cell.
                let touches_dirichlet = dirichlet_mask[k]
                    || (domain & XP != 0 && dirichlet_mask[k + 1])
                    || (domain & XM != 0 && dirichlet_mask[k - 1])
                    || (domain & YP != 0 && dirichlet_mask[k + sy])
                    || (domain & YM != 0 && dirichlet_mask[k - sy])
                    || (domain & ZP != 0 && dirichlet_mask[k + sz])
                    || (domain & ZM != 0 && dirichlet_mask[k - sz]);
                let neighbours = array_neighbours(k, n, sy, sz);
                let continues = matches!(open, Some((_, set)) if set == neighbours);
                if touches_dirichlet || !continues {
                    if let Some((start, set)) = open.take() {
                        push_run(&mut slabs, &mut stats, start, k, set);
                    }
                }
                if touches_dirichlet {
                    slabs[k / SLAB_CELLS].general.push(k);
                    stats.general_cells += 1;
                } else if open.is_none() {
                    open = Some((k, neighbours));
                }
            }
        }
        if let Some((start, set)) = open {
            push_run(&mut slabs, &mut stats, start, n, set);
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
    /// cell `K` gains `diag[K] · x_K` *after* its stencil terms — the
    /// exact operation order of the naive shifted loop, so planned and naive
    /// shifted applies stay bitwise identical.  Dirichlet rows remain the
    /// identity regardless of their `diag` entry.  `None` is the steady
    /// operator.
    pub fn apply<T: Scalar>(
        &self,
        coeffs: &Transmissibilities<T>,
        mask: &[bool],
        diag: Option<&[T]>,
        x: &CellField<T>,
        y: &mut CellField<T>,
        threads: usize,
    ) {
        self.check_fields(coeffs, mask, diag, x.dims(), y.dims());
        let ctx = KernelCtx::new(self.dims, coeffs, mask, diag);
        let xs = x.as_slice();
        let n = self.dims.num_cells();
        for_each_slab(n, threads, [y.as_mut_slice()], |block, [ys]| {
            self.apply_block(&ctx, xs, block, ys);
            [T::ZERO; LANES]
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
        coeffs: &Transmissibilities<T>,
        mask: &[bool],
        diag: Option<&[T]>,
        d: &CellField<T>,
        ad: &mut CellField<T>,
        threads: usize,
    ) -> T {
        self.check_fields(coeffs, mask, diag, d.dims(), ad.dims());
        let ctx = KernelCtx::new(self.dims, coeffs, mask, diag);
        let ds = d.as_slice();
        let n = self.dims.num_cells();
        for_each_slab(n, threads, [ad.as_mut_slice()], |block, [ads]| {
            self.apply_block(&ctx, ds, block.clone(), ads);
            let mut chains = [T::ZERO; LANES];
            advance_chains(&mut chains, &ds[block], ads, 0..SLAB_CELLS);
            chains
        })
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
        let outs = [x.as_mut_slice(), r.as_mut_slice()];
        for_each_slab(self.dims.num_cells(), threads, outs, |block, [xs, rs]| {
            let (ds, ads) = (&ds[block.clone()], &ads[block]);
            let mut chains = [T::ZERO; LANES];
            for stretch in chunks(0..SLAB_CELLS, UPDATE_STRETCH) {
                for slab in chunks(0..ds.len(), SLAB_CELLS) {
                    let cells = slab.start + stretch.start.min(slab.len())
                        ..slab.start + stretch.end.min(slab.len());
                    let (d, ad) = (&ds[cells.clone()], &ads[cells.clone()]);
                    update_cells(alpha, d, ad, &mut xs[cells.clone()], &mut rs[cells]);
                }
                advance_chains(&mut chains, rs, rs, stretch);
            }
            chains
        })
    }

    /// Apply the slabs of `block`, a cell range of whole slabs, into
    /// `y_block`, the block's cells of the output.
    fn apply_block<T: Scalar>(
        &self,
        ctx: &KernelCtx<'_, T>,
        x: &[T],
        block: Range<usize>,
        y_block: &mut [T],
    ) {
        for slab in &self.slabs[block.start / SLAB_CELLS..block.end.div_ceil(SLAB_CELLS)] {
            let cells = slab.range.start - block.start..slab.range.end - block.start;
            apply_slab(slab, ctx, x, &mut y_block[cells]);
        }
    }

    fn check_fields<T: Scalar>(
        &self,
        coeffs: &Transmissibilities<T>,
        mask: &[bool],
        diag: Option<&[T]>,
        xd: Dims,
        yd: Dims,
    ) {
        assert_eq!(coeffs.dims(), self.dims, "coefficient table mismatch");
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

/// `set` when `present`, else no bits.
#[inline]
fn bit(present: bool, set: u8) -> u8 {
    if present {
        set
    } else {
        0
    }
}

/// The directions in which cell `k` of an `n`-cell grid (strides `sy`, `sz`)
/// has an *array* neighbour: `k ± 1`, `k ± sy` and `k ± sz` inside `0..n`.
///
/// `1 ≤ sy ≤ sz`, so each side's set is one of four nested sets: ∅ ⊂ XM ⊂
/// XM|YM ⊂ XM|YM|ZM below and ∅ ⊂ XP ⊂ XP|YP ⊂ XP|YP|ZP above.  16 sets can
/// occur, and the set changes at most six times along the array.
#[inline]
fn array_neighbours(k: usize, n: usize, sy: usize, sz: usize) -> u8 {
    bit(k + 1 < n, XP)
        | bit(k >= 1, XM)
        | bit(k + sy < n, YP)
        | bit(k >= sy, YM)
        | bit(k + sz < n, ZP)
        | bit(k >= sz, ZM)
}

fn push_run(slabs: &mut [Slab], stats: &mut PlanStats, start: usize, end: usize, neighbours: u8) {
    // Clip the run at slab boundaries so each slab owns its cells exclusively.
    let mut s = start;
    while s < end {
        let slab_idx = s / SLAB_CELLS;
        let e = end.min((slab_idx + 1) * SLAB_CELLS);
        slabs[slab_idx].runs.push(Run {
            start: s,
            len: e - s,
            neighbours,
        });
        stats.num_runs += 1;
        stats.run_cells += e - s;
        s = e;
    }
}

/// Shared read-only inputs of the apply kernels: every slab borrows the one
/// context, on whichever thread runs it.
struct KernelCtx<'a, T: Scalar> {
    dims: Dims,
    coeffs: &'a Transmissibilities<T>,
    /// `coeffs`' +x, +y and +z face arrays.
    faces: [&'a [T]; 3],
    mask: &'a [bool],
    /// Optional diagonal shift (the transient accumulation term); ignored on
    /// Dirichlet rows.
    diag: Option<&'a [T]>,
}

impl<'a, T: Scalar> KernelCtx<'a, T> {
    fn new(
        dims: Dims,
        coeffs: &'a Transmissibilities<T>,
        mask: &'a [bool],
        diag: Option<&'a [T]>,
    ) -> Self {
        Self {
            dims,
            coeffs,
            faces: coeffs.faces(),
            mask,
            diag,
        }
    }
}

/// Apply one slab into `y_slab`, the slab's cells of the output.
fn apply_slab<T: Scalar>(slab: &Slab, ctx: &KernelCtx<'_, T>, x: &[T], y_slab: &mut [T]) {
    let shift = ctx.diag.is_some();
    let offset = slab.range.start;
    for run in &slab.runs {
        run_kernel::<T>(run.neighbours, shift)(*run, ctx, x, y_slab, offset);
    }
    for &k in &slab.general {
        y_slab[k - offset] = general_cell(k, ctx, x);
    }
}

/// A run kernel: `(run, ctx, x, y_slab, offset)`, writing the run's cells of
/// `y_slab` (the output cells of the run's slab, which starts at global cell
/// `offset`).
type RunKernel<T> = fn(Run, &KernelCtx<'_, T>, &[T], &mut [T], usize);

macro_rules! run_kernel_table {
    ($($set:literal)*) => {
        /// The kernel specialised on one neighbour set, with or without the
        /// diagonal shift.
        fn run_kernel<T: Scalar>(neighbours: u8, shift: bool) -> RunKernel<T> {
            match (neighbours, shift) {
                $(
                    ($set, false) => apply_run::<T, $set, false>,
                    ($set, true) => apply_run::<T, $set, true>,
                )*
                // audit: allow(panic) — invariant: `StencilPlan::new` takes every
                // set from `array_neighbours`, whose sides are nested
                _ => unreachable!("neighbour set {neighbours:#b} is not a nested set"),
            }
        }
    };
}

// The 16 sets `array_neighbours` can return: each of ∅, XM, XM|YM and
// XM|YM|ZM (0, 2, 10, 42) joined with each of ∅, XP, XP|YP and XP|YP|ZP
// (0, 1, 5, 21).
run_kernel_table!(
    0 2 10 42
    1 3 11 43
    5 7 15 47
    21 23 31 63
);

/// The branch-free inner loop for cells with array-neighbour set `N`: one
/// `acc += coeff · (x_K − x_L)` per present neighbour in [`Direction::ALL`]
/// order, then `diag · x_K` when `SHIFT`.  `N` and `SHIFT` are compile-time
/// constants, so the absent terms vanish and equal-length pre-sliced windows
/// let the bounds checks fold away and the loop autovectorize.
fn apply_run<T: Scalar, const N: u8, const SHIFT: bool>(
    run: Run,
    ctx: &KernelCtx<'_, T>,
    x: &[T],
    y_slab: &mut [T],
    offset: usize,
) {
    let [fx, fy, fz] = ctx.faces;
    let (sy, sz) = (ctx.dims.y_stride(), ctx.dims.z_stride());
    let Run { start, len, .. } = run;
    let out = &mut y_slab[start - offset..start - offset + len];
    let xc = &x[start..start + len];
    let (c_xp, x_xp) = window(N & XP != 0, fx, start, x, start + 1, xc);
    let below = start.wrapping_sub(1);
    let (c_xm, x_xm) = window(N & XM != 0, fx, below, x, below, xc);
    let (c_yp, x_yp) = window(N & YP != 0, fy, start, x, start + sy, xc);
    let below = start.wrapping_sub(sy);
    let (c_ym, x_ym) = window(N & YM != 0, fy, below, x, below, xc);
    let (c_zp, x_zp) = window(N & ZP != 0, fz, start, x, start + sz, xc);
    let below = start.wrapping_sub(sz);
    let (c_zm, x_zm) = window(N & ZM != 0, fz, below, x, below, xc);
    let dg = match ctx.diag {
        Some(dg) if SHIFT => &dg[start..start + len],
        _ => xc,
    };
    for (i, o) in out.iter_mut().enumerate() {
        let xk = xc[i];
        // Same operations in the same Direction::ALL order as the naive
        // kernel, plus a ±0 term for each array neighbour across a domain
        // face: its coefficient is a plus-boundary face, stored as +0.  For
        // a non-finite x_L that term is +0 · ∞ = NaN, where the naive
        // kernel skips it (see the module docs).
        let mut acc = T::ZERO;
        if N & XP != 0 {
            acc += c_xp[i] * (xk - x_xp[i]);
        }
        if N & XM != 0 {
            acc += c_xm[i] * (xk - x_xm[i]);
        }
        if N & YP != 0 {
            acc += c_yp[i] * (xk - x_yp[i]);
        }
        if N & YM != 0 {
            acc += c_ym[i] * (xk - x_ym[i]);
        }
        if N & ZP != 0 {
            acc += c_zp[i] * (xk - x_zp[i]);
        }
        if N & ZM != 0 {
            acc += c_zm[i] * (xk - x_zm[i]);
        }
        if SHIFT {
            acc += dg[i] * xk;
        }
        *o = acc;
    }
}

/// The coefficient and neighbour windows of one direction of a run: as many
/// entries as `centre` (the run's own `x` window) of `face` from `face_at`
/// and of `x` from `x_at`; or `(centre, centre)` for a direction the run
/// lacks, which its kernel never reads but which keeps every window one
/// length.
#[inline(always)]
fn window<'a, T>(
    has: bool,
    face: &'a [T],
    face_at: usize,
    x: &'a [T],
    x_at: usize,
    centre: &'a [T],
) -> (&'a [T], &'a [T]) {
    let len = centre.len();
    if has {
        (&face[face_at..face_at + len], &x[x_at..x_at + len])
    } else {
        (centre, centre)
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
    let mut acc = T::ZERO;
    for dir in Direction::ALL {
        if let Some(nb) = ctx.dims.neighbor(c, dir) {
            let l = ctx.dims.linear(nb);
            acc += ax_contribution_spd(ctx.coeffs.get(k, dir), xk, x[l], ctx.mask[l]);
        }
    }
    if let Some(dg) = ctx.diag {
        acc += dg[k] * xk;
    }
    acc
}

/// The CG update's two axpys over a stretch of cells: `x += α d` and
/// `r −= α (A d)`.
#[inline]
fn update_cells<T: Scalar>(alpha: T, d: &[T], ad: &[T], x: &mut [T], r: &mut [T]) {
    let neg_alpha = -alpha;
    for (((x, r), &d), &ad) in x.iter_mut().zip(r.iter_mut()).zip(d).zip(ad) {
        *x = alpha.mul_add(d, *x);
        *r = neg_alpha.mul_add(ad, *r);
    }
}

/// Advance the reduction chains of one block's slabs over the cells
/// `stretch` of each slab, in lockstep: for each offset `i` of `stretch`
/// in increasing order, chain `s` takes `chains[s] = a[k].mul_add(b[k],
/// chains[s])` at `k = s · SLAB_CELLS + i`, for every slab `s` of the block
/// that holds cell `k`.
///
/// `a` and `b` hold the block's cells: whole slabs, the last one possibly
/// short.  Past the last slab's end only the full slabs' chains go on.
/// Each chain takes its own slab's cells in increasing order, so a chain
/// run from `+0` over its slab is the slab's serial left-to-right FMA chain
/// bit for bit, whichever chains advance beside it.
fn advance_chains<T: Scalar>(chains: &mut [T; LANES], a: &[T], b: &[T], stretch: Range<usize>) {
    let slabs = a.len().div_ceil(SLAB_CELLS);
    let last = a.len() - (slabs - 1) * SLAB_CELLS;
    let cut = stretch.end.min(last).max(stretch.start);
    lockstep(&mut chains[..slabs], a, b, stretch.start..cut);
    lockstep(&mut chains[..slabs - 1], a, b, cut..stretch.end);
}

/// Advance `chains`, those of the block's first `chains.len()` slabs, over
/// `cells`, which each of those slabs holds (see [`advance_chains`]).
fn lockstep<T: Scalar>(chains: &mut [T], a: &[T], b: &[T], cells: Range<usize>) {
    if cells.is_empty() {
        return;
    }
    match chains.len() {
        0 => {}
        1 => lanes::<T, 1>(chains, a, b, cells),
        2 => lanes::<T, 2>(chains, a, b, cells),
        3 => lanes::<T, 3>(chains, a, b, cells),
        4 => lanes::<T, 4>(chains, a, b, cells),
        5 => lanes::<T, 5>(chains, a, b, cells),
        6 => lanes::<T, 6>(chains, a, b, cells),
        7 => lanes::<T, 7>(chains, a, b, cells),
        // A block holds at most `LANES` slabs.
        _ => lanes::<T, LANES>(chains, a, b, cells),
    }
}

/// [`lockstep`] on `L` chains, their accumulators held in registers.  Each
/// slab's window is read four cells at a time, so the loads are vectors;
/// only the FMAs run one cell at a time, one per chain.
#[inline(always)]
fn lanes<T: Scalar, const L: usize>(chains: &mut [T], a: &[T], b: &[T], cells: Range<usize>) {
    const TILE: usize = 4;
    let len = cells.len();
    // Equal-length windows, one per slab, so the bounds checks fold away.
    let a: [&[T]; L] = std::array::from_fn(|s| &a[s * SLAB_CELLS + cells.start..][..len]);
    let b: [&[T]; L] = std::array::from_fn(|s| &b[s * SLAB_CELLS + cells.start..][..len]);
    let mut acc: [T; L] = std::array::from_fn(|s| chains[s]);
    let tiles = len / TILE;
    for t in 0..tiles {
        let tile = |f: &[&[T]; L]| -> [[T; TILE]; L] {
            std::array::from_fn(|s| std::array::from_fn(|j| f[s][t * TILE + j]))
        };
        let (at, bt) = (tile(&a), tile(&b));
        for j in 0..TILE {
            for (s, acc) in acc.iter_mut().enumerate() {
                *acc = at[s][j].mul_add(bt[s][j], *acc);
            }
        }
    }
    for i in tiles * TILE..len {
        for (s, acc) in acc.iter_mut().enumerate() {
            *acc = a[s][i].mul_add(b[s][i], *acc);
        }
    }
    chains.copy_from_slice(&acc);
}

/// Consecutive `len`-cell chunks of the cell range `cells` from its start,
/// the last one possibly shorter: the slabs ([`SLAB_CELLS`]) and the blocks
/// of slabs ([`LANES`] slabs).
fn chunks(cells: Range<usize>, len: usize) -> impl Iterator<Item = Range<usize>> {
    let end = cells.end;
    cells
        .step_by(len)
        .map(move |start| start..(start + len).min(end))
}

/// The slab counts of the groups `threads` threads split `slabs` slabs into:
/// one group per thread, capped at one per slab, the first `slabs % groups`
/// taking one extra slab, so the groups are balanced and every thread gets
/// work.  Grouping never affects results — partials are folded in slab
/// order, not group order.
fn group_sizes(slabs: usize, threads: usize) -> impl ExactSizeIterator<Item = usize> {
    let groups = threads.clamp(1, slabs.max(1));
    let (base, extra) = (slabs / groups, slabs % groups);
    (0..groups).map(move |g| base + usize::from(g < extra))
}

/// The one slab loop behind every planned kernel and [`det_dot`].
///
/// Calls `kernel(block, cells)` once per block of up to [`LANES`]
/// consecutive slabs of the `n`-cell range, where `block` is the block's
/// cell range and `cells` holds each of `outs`' cells of it.  The kernel
/// returns one partial per slab of the block, in slab order (entries past
/// the block's slab count are ignored), and the partials of all slabs are
/// folded in slab order ([`fold_partials`]).  Up to eight FMA chains of a
/// block advance in lockstep ([`advance_chains`]); each is still its own
/// slab's serial chain, so neither the blocks nor the thread groups move a
/// bit.  With one group (one thread, or at most one slab) the blocks run in
/// order on the calling thread and nothing is allocated — the steady-state
/// serving path depends on that.  Otherwise the slabs split into the
/// contiguous groups of [`group_sizes`]; each group cuts its own slabs into
/// blocks and runs them in order on a scoped thread of its own.
fn for_each_slab<T: Scalar, const M: usize>(
    n: usize,
    threads: usize,
    mut outs: [&mut [T]; M],
    kernel: impl Fn(Range<usize>, [&mut [T]; M]) -> [T; LANES] + Sync,
) -> T {
    let slabs = n.div_ceil(SLAB_CELLS);
    let groups = group_sizes(slabs, threads);
    if groups.len() == 1 {
        return fold_partials(run_blocks(0..n, outs, &kernel));
    }
    let mut partials = vec![T::ZERO; slabs];
    std::thread::scope(|scope| {
        let (mut start, mut rest) = (0, [partials.as_mut_slice()]);
        for len in groups {
            let [group] = split_off(&mut rest, len);
            let end = (start + len * SLAB_CELLS).min(n);
            let run = run_blocks(start..end, split_off(&mut outs, end - start), &kernel);
            scope.spawn(move || group.iter_mut().zip(run).for_each(|(p, v)| *p = v));
            start = end;
        }
    });
    fold_partials(partials)
}

/// `kernel`'s partial of each slab of `cells`, in slab order, where `cells`
/// starts on a slab and each of `outs` holds exactly its cells: `kernel`
/// runs once per block of [`LANES`] slabs from the start of `cells`.
fn run_blocks<'a, T: Scalar, const M: usize, K>(
    cells: Range<usize>,
    mut outs: [&'a mut [T]; M],
    kernel: &'a K,
) -> impl Iterator<Item = T> + 'a
where
    K: Fn(Range<usize>, [&mut [T]; M]) -> [T; LANES],
{
    chunks(cells, LANES * SLAB_CELLS).flat_map(move |block| {
        let slabs = block.len().div_ceil(SLAB_CELLS);
        let partials = kernel(block.clone(), split_off(&mut outs, block.len()));
        partials.into_iter().take(slabs)
    })
}

/// Split the first `len` entries off each of `rest`.
fn split_off<'a, T, const M: usize>(rest: &mut [&'a mut [T]; M], len: usize) -> [&'a mut [T]; M] {
    rest.each_mut().map(|rest| {
        let (head, tail) = std::mem::take(rest).split_at_mut(len);
        *rest = tail;
        head
    })
}

/// Fold per-slab partials in slab order.  The first partial seeds the
/// accumulator (no spurious leading `0 +`), so a single-slab reduction is
/// exactly the plain FMA chain.
fn fold_partials<T: Scalar>(partials: impl IntoIterator<Item = T>) -> T {
    let mut partials = partials.into_iter();
    partials
        .next()
        .map_or(T::ZERO, |first| partials.fold(first, |acc, p| acc + p))
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
    let (a, b) = (a.as_slice(), b.as_slice());
    for_each_slab(a.len(), 1, [], |block, []| {
        let mut chains = [T::ZERO; LANES];
        advance_chains(&mut chains, &a[block.clone()], &b[block], 0..SLAB_CELLS);
        chains
    })
}

/// Deterministic slab-ordered squared norm (see [`det_dot`]).
pub fn det_norm_squared<T: Scalar>(a: &CellField<T>) -> T {
    det_dot(a, a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mffv_mesh::DirichletSet;

    fn pseudorandom_field(dims: Dims, seed: u64) -> CellField<f64> {
        let mut state = 0x0123_4567_89AB_CDEFu64 ^ seed;
        CellField::from_fn(dims, |_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    /// Cells whose closed stencil holds a Dirichlet cell: the Dirichlet cells
    /// and their neighbours, counted by brute force.
    fn dirichlet_neighbourhood(dims: Dims, mask: &[bool]) -> Vec<usize> {
        dims.iter_cells()
            .filter(|&c| {
                mask[dims.linear(c)]
                    || Direction::ALL
                        .iter()
                        .any(|&d| dims.neighbor(c, d).is_some_and(|n| mask[dims.linear(n)]))
            })
            .map(|c| dims.linear(c))
            .collect()
    }

    fn general_cells(plan: &StencilPlan) -> Vec<usize> {
        plan.slabs
            .iter()
            .flat_map(|s| s.general.iter().copied())
            .collect()
    }

    /// The directions whose linear offset keeps cell `k` inside the array.
    fn array_set(dims: Dims, k: usize) -> u8 {
        let (sy, sz) = (dims.y_stride() as isize, dims.z_stride() as isize);
        Direction::ALL
            .iter()
            .filter(|&&d| {
                let (dx, dy, dz) = d.offset();
                let l = k as isize + dx + dy * sy + dz * sz;
                (0..dims.num_cells() as isize).contains(&l)
            })
            .fold(0u8, |set, &d| set | 1 << d.index())
    }

    /// Every cell is covered exactly once, by the slab that owns it, and
    /// each run's cells share the array-neighbour set the run records.
    fn assert_partition(plan: &StencilPlan) {
        let dims = plan.dims();
        let mut seen = vec![0u8; dims.num_cells()];
        for slab in &plan.slabs {
            for run in &slab.runs {
                assert!(slab.range.contains(&run.start));
                assert!(run.start + run.len <= slab.range.end);
                let cells = seen.iter_mut().enumerate().skip(run.start);
                for (k, count) in cells.take(run.len) {
                    *count += 1;
                    let expect = array_set(dims, k);
                    assert_eq!(run.neighbours, expect, "cell {k} in {dims}");
                }
            }
            for &k in &slab.general {
                assert!(slab.range.contains(&k));
                seen[k] += 1;
            }
        }
        assert!(seen.iter().all(|&n| n == 1), "{dims}: cells covered once");
        let stats = plan.stats();
        assert_eq!(stats.run_cells + stats.general_cells, stats.num_cells);
    }

    #[test]
    fn empty_dirichlet_plan_runs_every_cell() {
        let dims = Dims::new(7, 5, 4);
        let plan = StencilPlan::new(dims, &vec![false; dims.num_cells()]);
        assert_partition(&plan);
        let stats = plan.stats();
        assert_eq!(stats.run_cells, dims.num_cells());
        assert_eq!(stats.general_cells, 0);
        assert_eq!(stats.dirichlet_cells, 0);
        // One slab, and seven array-neighbour sets along it: k = 0, the rest
        // of the first row, the rest of the first plane, the inner planes, the
        // last plane but its last row, that row but its last cell, k = n − 1.
        assert_eq!(stats.num_runs, 7);
    }

    #[test]
    fn thin_grids_run_every_cell() {
        for dims in [
            Dims::new(1, 6, 6),
            Dims::new(6, 1, 6),
            Dims::new(6, 6, 1),
            Dims::new(1, 1, 9),
            Dims::new(2, 2, 2),
        ] {
            let plan = StencilPlan::new(dims, &vec![false; dims.num_cells()]);
            assert_partition(&plan);
            assert_eq!(plan.stats().run_cells, dims.num_cells(), "{dims}");
            assert_eq!(plan.stats().general_cells, 0, "{dims}");
        }
    }

    /// Positive pseudorandom interior faces, `+0` on the plus boundary.
    fn pseudorandom_faces(dims: Dims, seed: u64) -> Transmissibilities<f64> {
        let r = pseudorandom_field(dims, seed);
        let faces = std::array::from_fn(|axis| {
            (0..dims.num_cells())
                .map(|k| {
                    let c = dims.unlinear(k);
                    let on_plus_boundary =
                        [c.x + 1 == dims.nx, c.y + 1 == dims.ny, c.z + 1 == dims.nz][axis];
                    if on_plus_boundary {
                        0.0
                    } else {
                        1.0 + r.get(k).abs() * (axis + 1) as f64
                    }
                })
                .collect()
        });
        Transmissibilities::from_faces(dims, faces)
    }

    #[test]
    fn every_run_uses_a_nested_set_and_every_set_matches_the_general_path() {
        // Grids small and thin enough to reach all 16 sets between them.
        let grids = [
            Dims::new(1, 1, 1),
            Dims::new(2, 1, 1),
            Dims::new(3, 1, 1),
            Dims::new(2, 2, 1),
            Dims::new(3, 2, 2),
            Dims::new(1, 6, 6),
            Dims::new(6, 1, 6),
            Dims::new(7, 5, 1),
            Dims::new(7, 5, 4),
            Dims::new(33, 17, 9),
        ];
        // The 16 sets `array_neighbours` can return: a nested minus side
        // joined with a nested plus side.
        let sets: Vec<u8> = [0, XM, XM | YM, XM | YM | ZM]
            .iter()
            .flat_map(|&m| [0, XP, XP | YP, XP | YP | ZP].map(|p| m | p))
            .collect();
        let mut used: Vec<u8> = Vec::new();
        for dims in grids {
            let n = dims.num_cells();
            let mask = vec![false; n];
            let plan = StencilPlan::new(dims, &mask);
            for run in plan.slabs.iter().flat_map(|s| &s.runs) {
                assert!(sets.contains(&run.neighbours), "{dims}: {run:?}");
                if !used.contains(&run.neighbours) {
                    used.push(run.neighbours);
                }
            }
            // Each run kernel, with and without the shift, gives the general
            // path's bits on every cell.
            let coeffs = pseudorandom_faces(dims, 20);
            let x = pseudorandom_field(dims, 21);
            let shift: Vec<f64> = (0..n).map(|k| 0.5 + (k % 5) as f64).collect();
            for diag in [None, Some(shift.as_slice())] {
                let mut y = CellField::zeros(dims);
                plan.apply(&coeffs, &mask, diag, &x, &mut y, 1);
                let ctx = KernelCtx::new(dims, &coeffs, &mask, diag);
                for k in 0..n {
                    let expect = general_cell(k, &ctx, x.as_slice());
                    assert_eq!(y.get(k).to_bits(), expect.to_bits(), "{dims}: cell {k}");
                }
            }
        }
        used.sort_unstable();
        let mut all = sets.clone();
        all.sort_unstable();
        assert_eq!(used, all, "the grids reach every set");
        // The kernel table resolves every set, shifted or not (an unlisted
        // set would hit its `unreachable!`).
        for &set in &sets {
            for shift in [false, true] {
                let _ = run_kernel::<f64>(set, shift);
                let _ = run_kernel::<f32>(set, shift);
            }
        }
    }

    #[test]
    fn general_cells_are_exactly_the_dirichlet_cells_and_their_neighbours() {
        use mffv_mesh::workload::WorkloadSpec;
        for spec in [
            WorkloadSpec::quickstart(),
            WorkloadSpec::paper_grid(48, 48, 16),
            WorkloadSpec::paper_grid(64, 64, 64),
            WorkloadSpec::fig5(Dims::new(33, 17, 9)),
        ] {
            let w = spec.build();
            let dims = w.dims();
            let mask: Vec<bool> = (0..dims.num_cells())
                .map(|k| w.dirichlet().contains_linear(k))
                .collect();
            let plan = StencilPlan::new(dims, &mask);
            assert_partition(&plan);
            let expect = dirichlet_neighbourhood(dims, &mask);
            assert_eq!(plan.stats().general_cells, expect.len(), "{dims}");
            let mut general = general_cells(&plan);
            general.sort_unstable();
            assert_eq!(general, expect, "{dims}");
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
            let groups: Vec<usize> = group_sizes(plan.slabs.len(), threads).collect();
            // Balanced: every requested thread gets a non-empty group (capped
            // at one group per slab), groups tile the slab range contiguously.
            assert_eq!(groups.len(), threads.min(plan.slabs.len()));
            assert!(groups.iter().all(|&g| g > 0));
            assert_eq!(groups.iter().sum::<usize>(), plan.slabs.len());
            // The first groups take the extra slabs.
            assert!(groups.windows(2).all(|p| p[0] == p[1] || p[0] == p[1] + 1));
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
        // Odd extents, > 1 slab.  41×29×17 has five slabs, the last one
        // short, which 2, 3 and 4 threads split into uneven groups.
        for (dims, thread_counts) in [
            (Dims::new(33, 17, 9), &[1, 2, 8][..]),
            (Dims::new(41, 29, 17), &[1, 2, 3, 4, 8][..]),
        ] {
            let coeffs = Transmissibilities::<f64>::uniform(dims, 1.5);
            let dirichlet = DirichletSet::x_faces(dims, 1.0, 0.0);
            let mask: Vec<bool> = (0..dims.num_cells())
                .map(|k| dirichlet.contains_linear(k))
                .collect();
            let plan = StencilPlan::new(dims, &mask);
            let d = pseudorandom_field(dims, 7);

            for &threads in thread_counts {
                // apply + det_dot == apply_dot
                let mut ad_ref = CellField::zeros(dims);
                plan.apply(&coeffs, &mask, None, &d, &mut ad_ref, 1);
                let unfused = det_dot(&d, &ad_ref);
                let mut ad = CellField::zeros(dims);
                let fused = plan.apply_dot(&coeffs, &mask, None, &d, &mut ad, threads);
                assert_eq!(
                    fused.to_bits(),
                    unfused.to_bits(),
                    "{dims}, {threads} threads"
                );
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
                assert_eq!(rr.to_bits(), rr_ref.to_bits(), "{dims}, {threads} threads");
                assert_eq!(x, x_ref);
                assert_eq!(r, r_ref);
            }
        }
    }

    /// The slab-ordered dot product written out with nothing shared with the
    /// kernels: a `mul_add` chain from +0 over each `SLAB_CELLS` chunk, the
    /// chunks' partials folded in chunk order with the first as the seed.
    fn reference_dot(a: &CellField<f64>, b: &CellField<f64>) -> f64 {
        let (a, b) = (a.as_slice(), b.as_slice());
        let mut partials = Vec::new();
        for (a, b) in a.chunks(SLAB_CELLS).zip(b.chunks(SLAB_CELLS)) {
            let mut acc = 0.0;
            for (x, y) in a.iter().zip(b) {
                acc = x.mul_add(*y, acc);
            }
            partials.push(acc);
        }
        let mut total = partials[0];
        for p in &partials[1..] {
            total += p;
        }
        total
    }

    #[test]
    fn reductions_match_a_plain_slab_ordered_reference_bitwise() {
        // 45×40×24 has ten full slabs and a short eleventh: a block of eight
        // slabs and one of three, the last short; 3 threads split them 4/4/3.
        // 41×29×17 has five slabs, the last one short.
        for dims in [Dims::new(45, 40, 24), Dims::new(41, 29, 17)] {
            let n = dims.num_cells();
            let coeffs = pseudorandom_faces(dims, 30);
            let dirichlet = DirichletSet::x_faces(dims, 1.0, 0.0);
            let mask: Vec<bool> = (0..n).map(|k| dirichlet.contains_linear(k)).collect();
            let plan = StencilPlan::new(dims, &mask);
            let shift: Vec<f64> = (0..n).map(|k| 0.5 + (k % 5) as f64).collect();
            let fields = [31, 32, 33, 34].map(|seed| pseudorandom_field(dims, seed));
            // The whole fields, then the fields cut to one slab each.  A
            // reduction of the latter is that slab's chain alone (every other
            // partial is +0, which the fold adds exactly), so a change in any
            // one chain shows in the bits.
            let slabs = (0..n.div_ceil(SLAB_CELLS)).map(|s| s * SLAB_CELLS..(s + 1) * SLAB_CELLS);
            for cells in std::iter::once(0..n).chain(slabs) {
                let [d, e, x0, r0] = fields.clone().map(|f| {
                    let cut = |(k, v): (usize, &f64)| if cells.contains(&k) { *v } else { 0.0 };
                    CellField::from_vec(dims, f.as_slice().iter().enumerate().map(cut).collect())
                });
                let what = format!("{dims}, cells {cells:?}");
                let expect = reference_dot(&d, &e).to_bits();
                assert_eq!(det_dot(&d, &e).to_bits(), expect, "det_dot, {what}");
                for threads in [1, 2, 3, 8] {
                    let what = format!("{what}, {threads} threads");
                    let mut ad = CellField::zeros(dims);
                    let dad = plan.apply_dot(&coeffs, &mask, Some(&shift), &d, &mut ad, threads);
                    let expect = reference_dot(&d, &ad).to_bits();
                    assert_eq!(dad.to_bits(), expect, "apply_dot, {what}");

                    let (mut x, mut r) = (x0.clone(), r0.clone());
                    let rr = plan.cg_update(0.37, &d, &e, &mut x, &mut r, threads);
                    let expect = reference_dot(&r, &r).to_bits();
                    assert_eq!(rr.to_bits(), expect, "cg_update, {what}");
                }
            }
        }
    }

    #[test]
    fn diagonal_shift_adds_dx_on_non_dirichlet_rows_only() {
        // 41×29×17: five slabs in uneven thread groups (see above).
        for (dims, thread_counts) in [
            (Dims::new(9, 7, 5), &[1, 2, 8][..]),
            (Dims::new(41, 29, 17), &[1, 2, 3, 4, 8][..]),
        ] {
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
            plan.apply(&coeffs, &mask, None, &x, &mut plain, 1);
            for &threads in thread_counts {
                let mut shifted = CellField::zeros(dims);
                plan.apply(&coeffs, &mask, Some(&diag), &x, &mut shifted, threads);
                for k in 0..dims.num_cells() {
                    let expect = if mask[k] {
                        plain.get(k)
                    } else {
                        plain.get(k) + diag[k] * x.get(k)
                    };
                    let what = format!("{dims}, {threads} threads, cell {k}");
                    assert_eq!(shifted.get(k).to_bits(), expect.to_bits(), "{what}");
                }

                // The fused shifted apply_dot matches apply + det_dot bitwise.
                let mut ad = CellField::zeros(dims);
                let fused = plan.apply_dot(&coeffs, &mask, Some(&diag), &x, &mut ad, threads);
                let mut ad_ref = CellField::zeros(dims);
                plan.apply(&coeffs, &mask, Some(&diag), &x, &mut ad_ref, 1);
                assert_eq!(fused.to_bits(), det_dot(&x, &ad_ref).to_bits());
                assert_eq!(ad, ad_ref);
            }
        }
    }
}
