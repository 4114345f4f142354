//! Matrix-free geometric multigrid: a V-cycle preconditioner over [`StencilPlan`](crate::plan::StencilPlan).
//!
//! PR 4 brought each CG iteration close to the memory wall, so the next order
//! of magnitude on fig5-class workloads has to come from iteration *count*.
//! This module supplies it: a cell-centered 2:1 geometric hierarchy where every
//! level is just another 7-point [`MatrixFreeOperator`] — same coefficient
//! table shape, same branch-free planned kernels, same determinism contract —
//! so the multigrid smoothers run on exactly the fused slab kernels the fine
//! grid uses.
//!
//! ## Hierarchy construction
//!
//! Each level halves every extent (rounding up), and the coarse operator is
//! **re-discretized** rather than assembled: the coarse face coefficient is
//! half the sum of the fine-face coefficients crossing the coarse interface,
//!
//! ```text
//! Υc(C→D) = ½ · Σ { Υf(a→b) : a ∈ C, b ∈ D adjacent }
//! ```
//!
//! which is exact re-discretization for uniform coefficients (the transverse
//! sum doubles the face area, the ½ accounts for the doubled center distance)
//! and, because the fine table already carries the harmonic averages of Eq.
//! (4), inherits their treatment of heterogeneity.  The coarse table stays
//! symmetric and nonnegative, so every level is again an SPD Dirichlet-
//! eliminated 7-point operator and [`StencilPlan`](crate::plan::StencilPlan) applies unchanged.  A
//! coarse cell is Dirichlet when any of its (up to eight) children is; a
//! transient diagonal shift coarsens by summing the children's entries —
//! exactly the aggregation of the accumulation term `V·c_t/Δt`.
//!
//! ## Constructors
//!
//! When the solve already holds its [`MatrixFreeOperator`], hand it to
//! [`MultigridVcycle::from_operator`]: it becomes level 0, and the Krylov loop
//! reads it back through [`MultigridVcycle::fine_operator`], so the fine
//! table, mask, plan and shift exist once (the solve context does this).
//! [`MultigridVcycle::new`] (a coefficient table and Dirichlet set) and
//! [`MultigridVcycle::from_workload`] build level 0 themselves, for callers
//! with no host operator to share: the device backends and standalone probes.
//!
//! ## Cycle
//!
//! * **Smoother**: weighted Jacobi `z ← z + ω D⁻¹ (r − A z)` with ω = 2/3 —
//!   symmetric, colouring-free, and built on the planned `apply` kernel so
//!   smoothing inherits the bitwise thread-count independence of the fine
//!   operator.
//! * **Transfer**: trilinear prolongation (per-axis weights ¾/¼, clamped at
//!   boundaries) and its exact transpose as full-weighting restriction.  Both
//!   run as branch-free precomputed-weight sweeps in fixed cell order, so
//!   they are bitwise deterministic and never appear in a float-reduction
//!   context (see AUDIT.md on blessed reduction homes).
//! * **Coarsest level** (≤ [`SLAB_CELLS`] cells): unpreconditioned CG on the
//!   level operator's fused kernels, driven to a tight relative tolerance so
//!   the V-cycle stays (numerically) a fixed linear operation.
//!
//! The V-cycle uses the same pre- and post-smoother, `R = Pᵀ` and symmetric
//! level operators, so `M⁻¹` is symmetric — the property PCG needs and the
//! property the proptests pin.

use crate::matrix_free::MatrixFreeOperator;
use crate::operator::{LinearOperator, Preconditioner};
use crate::plan::{det_norm_squared, SLAB_CELLS};
use mffv_mesh::{CellField, Dims, Direction, DirichletSet, Scalar};
use mffv_telemetry::Span;
use std::cell::RefCell;

/// Damping factor of the weighted-Jacobi smoother.
const OMEGA: f64 = 2.0 / 3.0;
/// Pre-smoothing sweeps per level.
const PRE_SWEEPS: usize = 2;
/// Post-smoothing sweeps per level.
const POST_SWEEPS: usize = 2;
/// Relative `rᵀr` reduction demanded of the coarsest-level CG solve.
const COARSE_RR_REDUCTION: f64 = 1e-24;
/// Iteration cap of the coarsest-level CG solve.
const COARSE_MAX_ITERATIONS: usize = 4 * SLAB_CELLS;

/// Where the hierarchy stops coarsening.  The cycle itself is fixed: V(2,2)
/// with ω = 2/3 weighted Jacobi and a coarsest level solved to near machine
/// precision.  Two sweeps per side keep the PCG iteration count flat (within
/// 1.5x) from 32³ to 128³ on the paper grid where V(1,1) grows past it, at
/// essentially the same wall time per solve.
#[derive(Clone, Copy, Debug)]
pub struct MgConfig {
    /// Stop coarsening once a level has at most this many cells (default
    /// [`SLAB_CELLS`], the planned-kernel slab size).
    pub coarse_cells: usize,
}

impl Default for MgConfig {
    fn default() -> Self {
        Self {
            coarse_cells: SLAB_CELLS,
        }
    }
}

/// Per-axis transfer weights of one fine index: the two coarse indices it
/// interpolates from (clamped at the boundary, where they may coincide) and
/// their trilinear weights.  Weights are dyadic (¾/¼ in the interior), so
/// they are exact in both `f32` and `f64`.
#[derive(Clone, Copy, Debug)]
struct AxisWeights<T> {
    lo: usize,
    hi: usize,
    w_lo: T,
    w_hi: T,
}

fn axis_weights<T: Scalar>(n_fine: usize, n_coarse: usize) -> Vec<AxisWeights<T>> {
    (0..n_fine)
        .map(|f| {
            // Cell centers: fine cell f sits at (f + ½)·h, coarse cell c at
            // (2c + 1)·h; in coarse index space the fine center is at
            // t = (f + ½)/2 − ½.
            let t = (f as f64 + 0.5) * 0.5 - 0.5;
            let i0 = t.floor() as isize;
            let w_hi = t - i0 as f64;
            let hi_max = n_coarse as isize - 1;
            AxisWeights {
                lo: i0.clamp(0, hi_max) as usize,
                hi: (i0 + 1).clamp(0, hi_max) as usize,
                w_lo: T::from_f64(1.0 - w_hi),
                w_hi: T::from_f64(w_hi),
            }
        })
        .collect()
}

/// Trilinear transfer between one level and the next coarser one.
#[derive(Clone, Debug)]
struct Transfer<T> {
    coarse_dims: Dims,
    x: Vec<AxisWeights<T>>,
    y: Vec<AxisWeights<T>>,
    z: Vec<AxisWeights<T>>,
}

impl<T: Scalar> Transfer<T> {
    fn new(fine: Dims, coarse: Dims) -> Self {
        Self {
            coarse_dims: coarse,
            x: axis_weights(fine.nx, coarse.nx),
            y: axis_weights(fine.ny, coarse.ny),
            z: axis_weights(fine.nz, coarse.nz),
        }
    }

    /// Full-weighting restriction `rc = Pᵀ rf`: a fixed-order scatter of each
    /// fine cell into its (up to) eight coarse neighbours.  Sequential and
    /// branch-free in the inner loop, so bitwise deterministic for every
    /// thread count by construction.
    fn restrict(&self, fine: &CellField<T>, coarse: &mut CellField<T>) {
        coarse.fill(T::ZERO);
        let cd = self.coarse_dims;
        let (cxs, cys) = (1usize, cd.nx);
        let czs = cd.nx * cd.ny;
        let rf = fine.as_slice();
        let rc = coarse.as_mut_slice();
        let mut f = 0usize;
        for wz in &self.z {
            for wy in &self.y {
                let base00 = wy.lo * cys + wz.lo * czs;
                let base01 = wy.lo * cys + wz.hi * czs;
                let base10 = wy.hi * cys + wz.lo * czs;
                let base11 = wy.hi * cys + wz.hi * czs;
                let w00 = wy.w_lo * wz.w_lo;
                let w01 = wy.w_lo * wz.w_hi;
                let w10 = wy.w_hi * wz.w_lo;
                let w11 = wy.w_hi * wz.w_hi;
                for wx in &self.x {
                    let v = rf[f];
                    f += 1;
                    let vl = wx.w_lo * v;
                    let vh = wx.w_hi * v;
                    rc[base00 + wx.lo * cxs] += w00 * vl;
                    rc[base00 + wx.hi * cxs] += w00 * vh;
                    rc[base10 + wx.lo * cxs] += w10 * vl;
                    rc[base10 + wx.hi * cxs] += w10 * vh;
                    rc[base01 + wx.lo * cxs] += w01 * vl;
                    rc[base01 + wx.hi * cxs] += w01 * vh;
                    rc[base11 + wx.lo * cxs] += w11 * vl;
                    rc[base11 + wx.hi * cxs] += w11 * vh;
                }
            }
        }
    }

    /// Trilinear prolongation-and-correct `zf += P ec`: a fixed-order gather
    /// of the eight surrounding coarse values into each fine cell.
    fn prolong_add(&self, coarse: &CellField<T>, fine: &mut CellField<T>) {
        let cd = self.coarse_dims;
        let cys = cd.nx;
        let czs = cd.nx * cd.ny;
        let ec = coarse.as_slice();
        let zf = fine.as_mut_slice();
        let mut f = 0usize;
        for wz in &self.z {
            for wy in &self.y {
                let base00 = wy.lo * cys + wz.lo * czs;
                let base01 = wy.lo * cys + wz.hi * czs;
                let base10 = wy.hi * cys + wz.lo * czs;
                let base11 = wy.hi * cys + wz.hi * czs;
                let w00 = wy.w_lo * wz.w_lo;
                let w01 = wy.w_lo * wz.w_hi;
                let w10 = wy.w_hi * wz.w_lo;
                let w11 = wy.w_hi * wz.w_hi;
                for wx in &self.x {
                    let lo = w00 * ec[base00 + wx.lo]
                        + w10 * ec[base10 + wx.lo]
                        + w01 * ec[base01 + wx.lo]
                        + w11 * ec[base11 + wx.lo];
                    let hi = w00 * ec[base00 + wx.hi]
                        + w10 * ec[base10 + wx.hi]
                        + w01 * ec[base01 + wx.hi]
                        + w11 * ec[base11 + wx.hi];
                    zf[f] += wx.w_lo * lo + wx.w_hi * hi;
                    f += 1;
                }
            }
        }
    }
}

/// One level of the hierarchy: a planned 7-point operator plus the smoother
/// diagonal and (except on the coarsest level) the transfer downward.
#[derive(Clone, Debug)]
struct MgLevel<T: Scalar> {
    operator: MatrixFreeOperator<T>,
    /// `1/diag(A)` with 1 on Dirichlet rows (and on degenerate rows).
    inv_diag: Vec<T>,
    transfer: Option<Transfer<T>>,
}

impl<T: Scalar> MgLevel<T> {
    fn new(operator: MatrixFreeOperator<T>) -> Self {
        Self {
            inv_diag: operator.inverse_diagonal(),
            operator,
            transfer: None,
        }
    }
}

/// Per-level scratch vectors, reused across applies so a V-cycle allocates
/// nothing.  Every buffer is fully overwritten before use.
#[derive(Clone, Debug)]
struct LevelWorkspace<T: Scalar> {
    /// The level's right-hand side (the restricted residual).
    r: CellField<T>,
    /// The level's solution / correction.
    z: CellField<T>,
    /// `A z` scratch, reused to hold the pre-smoothed residual.
    ax: CellField<T>,
}

/// The geometric-multigrid V-cycle preconditioner (the tentpole of the MG
/// work): `apply` runs one V(ν₁,ν₂) cycle of the hierarchy described in the
/// [module docs](self) and is a symmetric positive operation suitable as the
/// `M⁻¹` of PCG.
#[derive(Debug)]
pub struct MultigridVcycle<T: Scalar> {
    levels: Vec<MgLevel<T>>,
    omega: T,
    workspace: RefCell<Vec<LevelWorkspace<T>>>,
    /// The coarsest-level CG's search direction, the one extra buffer that
    /// level's solve needs beyond its workspace.
    coarse_direction: RefCell<CellField<T>>,
}

impl<T: Scalar> MultigridVcycle<T> {
    /// Build the hierarchy on top of a solve's own operator, which becomes
    /// level 0 ([`fine_operator`](Self::fine_operator) lends it back).  Use
    /// this when the same operator also drives the Krylov loop, so the fine
    /// table, mask, plan and shift are held once.  Every coarse level runs on
    /// `fine.threads()` threads; results are bitwise identical for every
    /// thread count.  `fine` carries no diagonal shift yet:
    /// [`set_diagonal_shift`](Self::set_diagonal_shift) installs one on
    /// every level.
    pub fn from_operator(fine: MatrixFreeOperator<T>, config: MgConfig) -> Self {
        debug_assert!(fine.diagonal_shift().is_none());
        let threads = fine.threads();
        let mut levels = Vec::new();
        // The coarsest level so far; every pass halves an extent, so this ends.
        let mut coarsest = MgLevel::new(fine);
        loop {
            let fine_dims = coarsest.operator.dims();
            let coarse_dims = Dims::new(
                fine_dims.nx.div_ceil(2),
                fine_dims.ny.div_ceil(2),
                fine_dims.nz.div_ceil(2),
            );
            if fine_dims.num_cells() <= config.coarse_cells.max(1) || coarse_dims == fine_dims {
                break;
            }
            let coarse = MatrixFreeOperator::from_mask(
                coarsen_coefficients(coarsest.operator.coefficients(), coarse_dims),
                coarsen_dirichlet(&coarsest.operator, coarse_dims),
            )
            .with_threads(threads);
            coarsest.transfer = Some(Transfer::new(fine_dims, coarse_dims));
            levels.push(std::mem::replace(&mut coarsest, MgLevel::new(coarse)));
        }
        let coarse_direction = RefCell::new(CellField::zeros(coarsest.operator.dims()));
        levels.push(coarsest);
        let workspace = RefCell::new(
            levels
                .iter()
                .map(|l| {
                    let dims = l.operator.dims();
                    LevelWorkspace {
                        r: CellField::zeros(dims),
                        z: CellField::zeros(dims),
                        ax: CellField::zeros(dims),
                    }
                })
                .collect(),
        );
        Self {
            levels,
            omega: T::from_f64(OMEGA),
            workspace,
            coarse_direction,
        }
    }

    /// Build a standalone hierarchy for a fine-level coefficient table and
    /// Dirichlet set, for callers that keep no operator of their own:
    /// [`from_operator`](Self::from_operator) on a fresh
    /// [`MatrixFreeOperator::new`] with `threads` threads.
    pub fn new(
        coeffs: mffv_mesh::Transmissibilities<T>,
        dirichlet: &DirichletSet,
        threads: usize,
        config: MgConfig,
    ) -> Self {
        Self::from_operator(
            MatrixFreeOperator::new(coeffs, dirichlet).with_threads(threads),
            config,
        )
    }

    /// Build a standalone hierarchy from a workload, converting the
    /// coefficient table to precision `T`: [`from_operator`](Self::from_operator)
    /// on a fresh [`MatrixFreeOperator::from_workload`] with `threads` threads.
    pub fn from_workload(workload: &mffv_mesh::Workload, threads: usize, config: MgConfig) -> Self {
        Self::from_operator(
            MatrixFreeOperator::from_workload(workload).with_threads(threads),
            config,
        )
    }

    /// The fine-level operator (level 0): with
    /// [`from_operator`](Self::from_operator), the solve's own operator.
    pub fn fine_operator(&self) -> &MatrixFreeOperator<T> {
        &self.levels[0].operator
    }

    /// Number of levels in the hierarchy (≥ 1; the fine grid is level 0).
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Grid extents of a level.
    pub fn level_dims(&self, level: usize) -> Dims {
        self.levels[level].operator.dims()
    }

    /// Install a transient diagonal shift on the fine level and propagate it
    /// down the hierarchy: the coarse shift of a cell is the **sum** of its
    /// children's entries — the aggregation of the accumulation term
    /// `V·c_t/Δt` (plus well indices).  Coefficient tables, plans and
    /// transfers are untouched, so swapping the `Δt`-dependent diagonal
    /// between transient steps costs only the diagonal rebuild.
    pub fn set_diagonal_shift(&mut self, diag: &CellField<f64>) {
        let mut shift = diag.clone();
        for level in &mut self.levels {
            level.operator.set_diagonal_shift(&shift);
            level.inv_diag = level.operator.inverse_diagonal();
            if let Some(transfer) = &level.transfer {
                shift = coarsen_shift(&shift, level.operator.dims(), transfer.coarse_dims);
            }
        }
    }

    /// One V-cycle `z = M⁻¹ r`, with `mg.vcycle` / per-level `mg.level`
    /// telemetry spans when `span` is recording.  Tracing never changes the
    /// arithmetic.
    pub fn apply_cycle(&self, r: &CellField<T>, z: &mut CellField<T>, span: &Span) {
        let fine_dims = self.levels[0].operator.dims();
        assert_eq!(r.dims(), fine_dims, "residual dimension mismatch");
        assert_eq!(z.dims(), fine_dims, "output dimension mismatch");
        let vspan = span.child("mg.vcycle");
        let mut ws = self.workspace.borrow_mut();
        // Seed the fine level's rhs; Dirichlet entries are zeroed so every
        // level solves a homogeneous-Dirichlet error equation.
        ws[0].r.as_mut_slice().copy_from_slice(r.as_slice());
        self.zero_dirichlet(0, &mut ws[0].r);
        self.cycle(0, &mut ws, &vspan);
        z.as_mut_slice().copy_from_slice(ws[0].z.as_slice());
        vspan.finish();
    }

    fn cycle(&self, l: usize, ws: &mut [LevelWorkspace<T>], span: &Span) {
        let lspan = span.child_on_lane("mg.level", l as u32);
        let level = &self.levels[l];
        let coarsest = l + 1 == self.levels.len();
        if coarsest {
            // audit: allow(panic) — invariant: one workspace per level, ws is never empty here
            let (head, _) = ws.split_first_mut().expect("workspace per level");
            self.coarse_solve(level, head);
            lspan.finish();
            return;
        }
        // audit: allow(panic) — invariant: one workspace per level, ws is never empty here
        let (head, rest) = ws.split_first_mut().expect("workspace per level");

        // Pre-smooth from the zero initial guess: the first sweep collapses
        // to z = ω D⁻¹ r (A·0 = 0), later sweeps do the full correction.
        head.z.fill(T::ZERO);
        self.smooth_first(level, &head.r, &mut head.z);
        for _ in 1..PRE_SWEEPS {
            self.smooth(level, &head.r, &mut head.z, &mut head.ax);
        }

        // Fine residual rf = r − A z, written into the ax scratch.
        level.operator.apply(&head.z, &mut head.ax);
        {
            let rf = head.ax.as_mut_slice();
            let r = head.r.as_slice();
            for k in 0..rf.len() {
                rf[k] = r[k] - rf[k];
            }
        }

        // Restrict, recurse, correct.
        // audit: allow(panic) — invariant: every non-coarsest level was built with a transfer
        let transfer = level.transfer.as_ref().expect("non-coarsest level");
        transfer.restrict(&head.ax, &mut rest[0].r);
        self.zero_dirichlet(l + 1, &mut rest[0].r);
        self.cycle(l + 1, rest, span);
        transfer.prolong_add(&rest[0].z, &mut head.z);
        self.zero_dirichlet(l, &mut head.z);

        // Post-smooth (same smoother: the cycle stays symmetric).
        for _ in 0..POST_SWEEPS {
            self.smooth(level, &head.r, &mut head.z, &mut head.ax);
        }
        lspan.finish();
    }

    /// One weighted-Jacobi sweep `z ← z + ω D⁻¹ (r − A z)`; Dirichlet rows
    /// keep their exact value 0.
    fn smooth(
        &self,
        level: &MgLevel<T>,
        r: &CellField<T>,
        z: &mut CellField<T>,
        ax: &mut CellField<T>,
    ) {
        level.operator.apply(z, ax);
        let zs = z.as_mut_slice();
        let rs = r.as_slice();
        let axs = ax.as_slice();
        for k in 0..zs.len() {
            if !level.operator.is_dirichlet(k) {
                zs[k] += self.omega * level.inv_diag[k] * (rs[k] - axs[k]);
            }
        }
    }

    /// The first sweep from z = 0: `z = ω D⁻¹ r` without the operator apply.
    fn smooth_first(&self, level: &MgLevel<T>, r: &CellField<T>, z: &mut CellField<T>) {
        let zs = z.as_mut_slice();
        let rs = r.as_slice();
        for k in 0..zs.len() {
            if !level.operator.is_dirichlet(k) {
                zs[k] = self.omega * level.inv_diag[k] * rs[k];
            }
        }
    }

    /// Coarsest-level solve: plain CG on the level's fused kernels to a tight
    /// relative tolerance (floored at the precision's attainable accuracy),
    /// with the standard breakdown guards so degenerate levels — singular
    /// operators under an empty Dirichlet set, 1-thin grids — stay finite.
    fn coarse_solve(&self, level: &MgLevel<T>, ws: &mut LevelWorkspace<T>) {
        // CG in preallocated buffers: the residual in place in `ws.r` (the
        // level's right-hand side is not read again this cycle), `A d` in
        // `ws.ax` and the direction in `coarse_direction`.
        ws.z.fill(T::ZERO);
        let rr0 = det_norm_squared(&ws.r).to_f64();
        if rr0 <= 0.0 || !rr0.is_finite() {
            return;
        }
        let eps = T::EPSILON.to_f64() * 8.0;
        let threshold = rr0 * COARSE_RR_REDUCTION.max(eps * eps);
        let mut direction = self.coarse_direction.borrow_mut();
        direction.copy_from(&ws.r);
        let mut rr = rr0;
        for _ in 0..COARSE_MAX_ITERATIONS {
            let d_ad = level.operator.apply_dot(&direction, &mut ws.ax).to_f64();
            if d_ad <= 0.0 || !d_ad.is_finite() {
                break;
            }
            let alpha = T::from_f64(rr / d_ad);
            let rr_new = level
                .operator
                .cg_update(alpha, &direction, &ws.ax, &mut ws.z, &mut ws.r)
                .to_f64();
            if !rr_new.is_finite() {
                break;
            }
            if rr_new <= threshold {
                break;
            }
            let beta = T::from_f64(rr_new / rr);
            direction.xpby(&ws.r, beta);
            rr = rr_new;
        }
    }

    fn zero_dirichlet(&self, l: usize, field: &mut CellField<T>) {
        let op = &self.levels[l].operator;
        let fs = field.as_mut_slice();
        for (k, v) in fs.iter_mut().enumerate() {
            if op.is_dirichlet(k) {
                *v = T::ZERO;
            }
        }
    }
}

impl<T: Scalar> Preconditioner<T> for MultigridVcycle<T> {
    fn dims(&self) -> Dims {
        self.levels[0].operator.dims()
    }

    fn apply(&self, r: &CellField<T>, z: &mut CellField<T>) {
        self.apply_cycle(r, z, &Span::null());
    }

    fn apply_traced(&self, r: &CellField<T>, z: &mut CellField<T>, span: &Span) {
        self.apply_cycle(r, z, span);
    }

    fn label(&self) -> &'static str {
        "mg"
    }
}

/// Aggregate the fine coefficient table onto the coarse grid: for every fine
/// plus face whose endpoints have different parents, add half its coefficient
/// to the lower parent's plus face on that axis.  Fixed fine-cell order,
/// explicit accumulation (no iterator reductions — see AUDIT.md).  Each coarse
/// face receives the same addends in the same order as a two-sided table's
/// rows would from either side, so the face table keeps their bits.
fn coarsen_coefficients<T: Scalar>(
    fine: &mffv_mesh::Transmissibilities<T>,
    coarse_dims: Dims,
) -> mffv_mesh::Transmissibilities<T> {
    let fine_dims = fine.dims();
    let half = T::from_f64(0.5);
    let fine_faces = fine.faces();
    let mut faces: [Vec<T>; 3] = std::array::from_fn(|_| vec![T::ZERO; coarse_dims.num_cells()]);
    for c in fine_dims.iter_cells() {
        let k = fine_dims.linear(c);
        let parent = parent_of(c, coarse_dims);
        for (axis, dir) in [Direction::XP, Direction::YP, Direction::ZP]
            .into_iter()
            .enumerate()
        {
            if let Some(n) = fine_dims.neighbor(c, dir) {
                if parent_of(n, coarse_dims) != parent {
                    faces[axis][coarse_dims.linear(parent)] += half * fine_faces[axis][k];
                }
            }
        }
    }
    mffv_mesh::Transmissibilities::from_faces(coarse_dims, faces)
}

/// The coarse Dirichlet mask: a coarse cell is Dirichlet when any of its
/// children is.  Values are irrelevant — the hierarchy only ever solves
/// homogeneous error equations — so only the mask coarsens.
fn coarsen_dirichlet<T: Scalar>(fine: &MatrixFreeOperator<T>, coarse_dims: Dims) -> Vec<bool> {
    let fine_dims = fine.dims();
    let mut coarse = vec![false; coarse_dims.num_cells()];
    for c in fine_dims.iter_cells() {
        if fine.is_dirichlet(fine_dims.linear(c)) {
            coarse[coarse_dims.linear(parent_of(c, coarse_dims))] = true;
        }
    }
    coarse
}

/// Sum a fine diagonal shift into its parents (fixed fine-cell order).
fn coarsen_shift(fine: &CellField<f64>, fine_dims: Dims, coarse_dims: Dims) -> CellField<f64> {
    let mut coarse = CellField::zeros(coarse_dims);
    for c in fine_dims.iter_cells() {
        let k = fine_dims.linear(c);
        let parent = coarse_dims.linear(parent_of(c, coarse_dims));
        let cs = coarse.as_mut_slice();
        cs[parent] += fine.get(k);
    }
    coarse
}

#[inline]
fn parent_of(c: mffv_mesh::CellIndex, coarse_dims: Dims) -> mffv_mesh::CellIndex {
    mffv_mesh::CellIndex::new(
        (c.x / 2).min(coarse_dims.nx - 1),
        (c.y / 2).min(coarse_dims.ny - 1),
        (c.z / 2).min(coarse_dims.nz - 1),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::det_dot;
    use mffv_mesh::permeability::PermeabilityModel;
    use mffv_mesh::workload::{BoundarySpec, WorkloadSpec};
    use mffv_mesh::Transmissibilities;

    fn test_workload(dims: Dims) -> mffv_mesh::Workload {
        WorkloadSpec {
            name: "mg-test".to_string(),
            dims,
            spacing: [1.0, 1.0, 1.0],
            permeability: PermeabilityModel::LogNormal {
                mean_log: 0.0,
                std_log: 1.5,
                seed: 7,
            },
            viscosity: 1.0,
            boundary: BoundarySpec::SourceProducer {
                source_pressure: 1.0,
                producer_pressure: 0.0,
            },
            tolerance: 1e-12,
            max_iterations: 5000,
        }
        .build()
    }

    #[test]
    fn hierarchy_halves_extents_and_stops_at_the_slab() {
        let dims = Dims::new(32, 32, 32);
        let coeffs = Transmissibilities::<f64>::uniform(dims, 1.0);
        let mg = MultigridVcycle::new(coeffs, &DirichletSet::empty(), 1, MgConfig::default());
        assert_eq!(mg.num_levels(), 2);
        assert_eq!(mg.level_dims(0), dims);
        assert_eq!(mg.level_dims(1), Dims::new(16, 16, 16));
        assert!(mg.level_dims(1).num_cells() <= SLAB_CELLS);
    }

    #[test]
    fn axis_weights_partition_unity_and_clamp() {
        for (nf, nc) in [(8usize, 4usize), (7, 4), (1, 1), (2, 1), (5, 3)] {
            let w = axis_weights::<f64>(nf, nc);
            assert_eq!(w.len(), nf);
            for a in &w {
                assert!(a.lo <= a.hi && a.hi < nc);
                assert_eq!(a.w_lo + a.w_hi, 1.0);
                assert!(a.w_lo >= 0.0 && a.w_hi >= 0.0);
            }
        }
    }

    #[test]
    fn restriction_is_the_transpose_of_prolongation() {
        // ⟨P ec, rf⟩ == ⟨ec, Pᵀ rf⟩ for arbitrary vectors: R = Pᵀ exactly.
        let fine = Dims::new(6, 5, 4);
        let coarse = Dims::new(3, 3, 2);
        let t = Transfer::<f64>::new(fine, coarse);
        let rf = CellField::from_fn(fine, |c| {
            ((c.x * 31 + c.y * 17 + c.z * 7) % 13) as f64 - 6.0
        });
        let ec = CellField::from_fn(coarse, |c| ((c.x * 5 + c.y * 3 + c.z) % 7) as f64 - 3.0);
        let mut p_ec = CellField::zeros(fine);
        t.prolong_add(&ec, &mut p_ec);
        let mut rt_rf = CellField::zeros(coarse);
        t.restrict(&rf, &mut rt_rf);
        let lhs = det_dot(&p_ec, &rf);
        let rhs = det_dot(&ec, &rt_rf);
        assert!(
            (lhs - rhs).abs() < 1e-10 * lhs.abs().max(1.0),
            "{lhs} vs {rhs}"
        );
    }

    #[test]
    fn coarse_coefficients_rediscretize_the_uniform_laplacian() {
        // Fine T = 1 everywhere: a coarse interface aggregates 4 fine faces
        // at weight ½ → coarse T = 2, exactly the re-discretized operator.
        let dims = Dims::new(8, 8, 8);
        let fine = Transmissibilities::<f64>::uniform(dims, 1.0);
        let coarse_dims = Dims::new(4, 4, 4);
        let coarse = coarsen_coefficients(&fine, coarse_dims);
        let center = coarse_dims.linear(mffv_mesh::CellIndex::new(1, 1, 1));
        for dir in Direction::ALL {
            assert_eq!(coarse.get(center, dir), 2.0);
        }
        let fine_rows: Vec<[f64; 6]> = dims
            .iter_cells()
            .map(|c| Direction::ALL.map(|d| f64::from(u8::from(dims.neighbor(c, d).is_some()))))
            .collect();
        assert_matches_rows(&coarse, &coarsen_rows(&fine_rows, dims, coarse_dims));
    }

    /// The six-per-cell table the face table replaced: each cell computes
    /// the harmonic mean of every face from its own side.
    fn two_sided_rows<T: Scalar>(w: &mffv_mesh::Workload) -> Vec<[T; 6]> {
        let dims = w.dims();
        let mobility = 1.0 / w.spec().viscosity;
        let mut rows = vec![[T::ZERO; 6]; dims.num_cells()];
        for c in dims.iter_cells() {
            for dir in Direction::ALL {
                if let Some(n) = dims.neighbor(c, dir) {
                    let half = w.mesh().half_geometric_factor(dir);
                    let t_c = w.permeability().at(c) * half;
                    let t_n = w.permeability().at(n) * half;
                    let upsilon = if t_c > 0.0 && t_n > 0.0 {
                        1.0 / (1.0 / t_c + 1.0 / t_n)
                    } else {
                        0.0
                    };
                    rows[dims.linear(c)][dir.index()] = T::from_f64(upsilon * mobility);
                }
            }
        }
        rows
    }

    /// The two-sided coarsening the face coarsening replaced: every fine face
    /// whose endpoints have different parents adds half its coefficient to
    /// its parent's face in the same direction, on both sides of the face.
    fn coarsen_rows<T: Scalar>(fine: &[[T; 6]], fine_dims: Dims, coarse_dims: Dims) -> Vec<[T; 6]> {
        let half = T::from_f64(0.5);
        let mut rows = vec![[T::ZERO; 6]; coarse_dims.num_cells()];
        for c in fine_dims.iter_cells() {
            let parent = coarse_dims.linear(parent_of(c, coarse_dims));
            for dir in Direction::ALL {
                if let Some(n) = fine_dims.neighbor(c, dir) {
                    if coarse_dims.linear(parent_of(n, coarse_dims)) != parent {
                        rows[parent][dir.index()] += half * fine[fine_dims.linear(c)][dir.index()];
                    }
                }
            }
        }
        rows
    }

    fn assert_matches_rows<T: Scalar>(table: &Transmissibilities<T>, rows: &[[T; 6]]) {
        assert_eq!(rows.len(), table.dims().num_cells());
        for (k, row) in rows.iter().enumerate() {
            for dir in Direction::ALL {
                assert_eq!(
                    table.get(k, dir).to_f64().to_bits(),
                    row[dir.index()].to_f64().to_bits(),
                    "cell {k}, {dir:?} on {}",
                    table.dims()
                );
            }
        }
    }

    #[test]
    fn coarsened_faces_match_the_two_sided_hierarchy_bit_for_bit() {
        fn check<T: Scalar>(w: &mffv_mesh::Workload) {
            let mut table: Transmissibilities<T> = w.transmissibility().convert();
            let mut rows = two_sided_rows::<T>(w);
            for level in 0..=4 {
                assert_matches_rows(&table, &rows);
                if level == 4 {
                    break;
                }
                let fine = table.dims();
                let coarse = Dims::new(
                    fine.nx.div_ceil(2),
                    fine.ny.div_ceil(2),
                    fine.nz.div_ceil(2),
                );
                rows = coarsen_rows(&rows, fine, coarse);
                table = coarsen_coefficients(&table, coarse);
            }
        }
        let mut anisotropic = WorkloadSpec::paper_grid(24, 18, 10);
        anisotropic.spacing = [2.0, 3.0, 0.5];
        anisotropic.permeability = PermeabilityModel::LogNormal {
            mean_log: 0.0,
            std_log: 1.5,
            seed: 3,
        };
        for spec in [
            WorkloadSpec::quickstart(),
            WorkloadSpec::paper_grid(33, 17, 9),
            WorkloadSpec::fig5(Dims::new(36, 24, 8)),
            anisotropic,
        ] {
            let w = spec.build();
            check::<f64>(&w);
            check::<f32>(&w);
        }
    }

    #[test]
    fn vcycle_reduces_the_residual() {
        let w = test_workload(Dims::new(16, 16, 8));
        // Force a genuinely multi-level hierarchy on this small test grid.
        let config = MgConfig { coarse_cells: 256 };
        let mg = MultigridVcycle::<f64>::from_workload(&w, 1, config);
        assert!(mg.num_levels() >= 2);
        let op = MatrixFreeOperator::<f64>::from_workload(&w);
        // A right-hand side supported away from the Dirichlet cells.
        let mut r = CellField::from_fn(w.dims(), |c| ((c.x + c.y + c.z) % 3) as f64 - 1.0);
        for k in 0..w.dims().num_cells() {
            if w.dirichlet().contains_linear(k) {
                r.set(k, 0.0);
            }
        }
        let mut z = CellField::zeros(w.dims());
        mg.apply_cycle(&r, &mut z, &Span::null());
        assert!(z.all_finite());
        // One V-cycle must beat one damped-Jacobi sweep by a wide margin:
        // residual of the error equation after the cycle.
        let az = op.apply_new(&z);
        let mut after = r.clone();
        after.axpy(-1.0, &az);
        let before = det_norm_squared(&r);
        let after_rr = det_norm_squared(&after);
        assert!(
            after_rr < 0.5 * before,
            "V-cycle only reduced rr from {before} to {after_rr}"
        );
    }

    #[test]
    fn vcycle_inner_product_is_symmetric_and_positive() {
        let w = test_workload(Dims::new(12, 10, 6));
        let config = MgConfig { coarse_cells: 64 };
        let mg = MultigridVcycle::<f64>::from_workload(&w, 1, config);
        assert!(mg.num_levels() >= 2);
        let dims = w.dims();
        let mask = |mut f: CellField<f64>| {
            for k in 0..dims.num_cells() {
                if w.dirichlet().contains_linear(k) {
                    f.set(k, 0.0);
                }
            }
            f
        };
        let r1 = mask(CellField::from_fn(dims, |c| {
            ((c.x * 3 + c.z) % 5) as f64 - 2.0
        }));
        let r2 = mask(CellField::from_fn(dims, |c| {
            ((c.y * 7 + c.x) % 11) as f64 - 5.0
        }));
        let mut z1 = CellField::zeros(dims);
        let mut z2 = CellField::zeros(dims);
        mg.apply_cycle(&r1, &mut z1, &Span::null());
        mg.apply_cycle(&r2, &mut z2, &Span::null());
        let a = det_dot(&r2, &z1);
        let b = det_dot(&r1, &z2);
        let scale = a.abs().max(b.abs()).max(1e-30);
        assert!((a - b).abs() / scale < 1e-8, "asymmetry: {a} vs {b}");
        assert!(det_dot(&r1, &z1) > 0.0);
        assert!(det_dot(&r2, &z2) > 0.0);
    }

    #[test]
    fn diagonal_shift_propagates_by_child_summation() {
        let dims = Dims::new(8, 8, 8);
        let coeffs = Transmissibilities::<f64>::uniform(dims, 1.0);
        let config = MgConfig { coarse_cells: 64 };
        let mut mg = MultigridVcycle::new(coeffs, &DirichletSet::empty(), 1, config);
        assert_eq!(mg.num_levels(), 2);
        let shift = CellField::constant(dims, 0.5);
        mg.set_diagonal_shift(&shift);
        // 8 children of 0.5 each → coarse shift 4.0 on every coarse cell.
        let coarse_shift = mg.levels[1].operator.diagonal_shift().unwrap();
        for &v in coarse_shift {
            assert_eq!(v, 4.0);
        }
    }

    #[test]
    fn degenerate_one_thin_grids_stay_finite() {
        for dims in [
            Dims::new(1, 1, 64),
            Dims::new(64, 1, 1),
            Dims::new(1, 32, 2),
        ] {
            let coeffs = Transmissibilities::<f64>::uniform(dims, 1.0);
            let mg = MultigridVcycle::new(
                coeffs,
                &DirichletSet::all_faces(dims, 0.0),
                1,
                MgConfig { coarse_cells: 8 },
            );
            let r = CellField::from_fn(dims, |c| (c.x + c.y + c.z) as f64 * 0.25);
            let mut z = CellField::zeros(dims);
            mg.apply_cycle(&r, &mut z, &Span::null());
            assert!(z.all_finite(), "{dims:?}");
        }
    }
}
