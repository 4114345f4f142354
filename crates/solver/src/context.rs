//! Pooled solve contexts: the one operator/preconditioner cache.
//!
//! Every host solve runs on a [`SolveContext`]: the planned operator, its
//! preconditioner and every Newton/Krylov buffer, kept warm across solves
//! and keyed by [`ContextKey`] — identical dims + apply threads +
//! preconditioner kind + Dirichlet topology + transmissibility values ⇒
//! reuse, anything else ⇒ rebuild.  A one-shot steady solve runs on a
//! throwaway context, an engine worker on its long-lived
//! [`SolveContextCache`], and a transient run on one context for all of its
//! steps: a step only swaps its `Δt`/well diagonal shift in place (operator,
//! Jacobi diagonal, multigrid levels), keyed by the bits of the step's
//! accumulation coefficient `V·c_t/Δt` and its active-well productivity
//! indices so that no step hashes a field.  Every reused buffer is fully
//! overwritten before it is read, so a warm context is **bitwise
//! identical** to a cold one — turning reuse on or off never changes a
//! residual history.

use crate::backend::{PreconditionerKind, SolveConfig};
use crate::cg::ConjugateGradient;
use crate::convergence::ConvergenceHistory;
use crate::monitor::{SolveMonitor, StopReason};
use crate::newton::{solve_pressure, NewtonScratch};
use crate::pcg::JacobiPreconditioner;
use crate::transient::ShiftKey;
use mffv_fv::{MatrixFreeOperator, MgConfig, MultigridVcycle, Preconditioner};
use mffv_mesh::{CellField, Dims, Scalar, Workload, WorkloadSpec};
use mffv_telemetry::Span;

/// The reuse key of a cached operator + preconditioner pair.
///
/// Two solves may share a context exactly when every field matches: the grid
/// shape, the apply thread count (threads change work *partitioning*, and the
/// planned operator bakes its slab schedule in), the preconditioner kind, the
/// Dirichlet set (indices *and* values), the transmissibility table, and
/// whether the operator carries a transient diagonal shift.  Value equality
/// is tracked by FNV-1a fingerprints over the exact bit patterns
/// ([`mffv_mesh::Fnv1a`]) — a collision could only alias two different
/// workloads onto one operator, and 64-bit FNV over deterministic inputs
/// makes that vanishingly unlikely while keeping the key `Copy` and
/// comparison O(1).  Computing a key hashes the whole transmissibility
/// table, so multi-solve drivers (transient runs) compute it once.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ContextKey {
    /// Grid shape.
    pub dims: Dims,
    /// Apply thread count baked into the planned operator.
    pub threads: usize,
    /// Which preconditioner the cached pair was built for.
    pub kind: PreconditionerKind,
    /// Fingerprint of the Dirichlet cells (sorted indices + values).
    pub dirichlet_fp: u64,
    /// Fingerprint of the transmissibility table (all face coefficients).
    pub transmissibility_fp: u64,
    /// Whether the operator carries a transient diagonal shift.  *Which*
    /// shift is tracked per step (its `V·c_t/Δt` and active-well
    /// signature): swapping it is in place, not a rebuild.
    pub shifted: bool,
}

impl ContextKey {
    /// Compute the key for `workload` under the given solve knobs.
    pub fn of(
        workload: &Workload,
        threads: usize,
        kind: PreconditionerKind,
        shifted: bool,
    ) -> Self {
        Self {
            dims: workload.dims(),
            threads,
            kind,
            dirichlet_fp: workload.dirichlet().fingerprint(),
            transmissibility_fp: workload.transmissibility().fingerprint(),
            shifted,
        }
    }
}

/// The one operator of a cached context: alone, with its Jacobi
/// preconditioner, or as level 0 of a multigrid hierarchy.
enum Prepared<T: Scalar> {
    Plain(MatrixFreeOperator<T>),
    Jacobi(MatrixFreeOperator<T>, JacobiPreconditioner<T>),
    Mg(MultigridVcycle<T>),
}

/// A cached operator (+ preconditioner), the key it was built for and the
/// diagonal shift currently installed in it.
struct ContextState<T: Scalar> {
    key: ContextKey,
    prepared: Prepared<T>,
    shift: Option<ShiftKey>,
}

/// Cache-behaviour counters of a [`SolveContext`] (and, summed, of a
/// [`SolveContextCache`]).  All monotone; the engine surfaces them in
/// `MetricsRegistry` as `engine.context.*`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ContextStats {
    /// Solves that reused the cached operator + preconditioner (a swapped
    /// diagonal shift counts as reuse).
    pub hits: u64,
    /// Solves that had to (re)build them.
    pub misses: u64,
    /// Times the solve buffers had to reallocate for a new shape.
    pub scratch_reallocs: u64,
}

impl ContextStats {
    /// Component-wise sum.
    pub fn merged(self, other: ContextStats) -> ContextStats {
        ContextStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            scratch_reallocs: self.scratch_reallocs + other.scratch_reallocs,
        }
    }
}

/// A warm, reusable solve context at one precision.
///
/// Owns the keyed operator/preconditioner cache and the [`NewtonScratch`]
/// buffers.  After the first solve of a given shape ("warmup"),
/// [`solve`](Self::solve) performs **zero heap allocations** for every
/// preconditioner kind, the MG V-cycle included (each level, its coarsest CG
/// too, runs in preallocated workspace) — pinned by
/// `tests/alloc_regression.rs`.
#[derive(Default)]
pub struct SolveContext<T: Scalar> {
    state: Option<ContextState<T>>,
    buffers: Option<NewtonScratch<T>>,
    stats: ContextStats,
}

impl<T: Scalar> SolveContext<T> {
    /// A cold context: first solve builds everything.
    pub fn new() -> Self {
        Self {
            state: None,
            buffers: None,
            stats: ContextStats::default(),
        }
    }

    /// Cache-behaviour counters accumulated by this context.
    pub fn stats(&self) -> ContextStats {
        self.stats
    }

    /// Ensure the cached operator + preconditioner match `key` (computed
    /// for `workload`), rebuilding on a mismatch.  Returns `true` on a cache
    /// hit.  A rebuild frees the old pair first, so a context never holds
    /// two operators at once, and starts without a diagonal shift.  An MG
    /// context's one operator is its hierarchy's level 0.
    ///
    /// Build-phase spans (`build-operator`, `mg.build`) are recorded under
    /// `span` on hits and misses alike — on a hit they close immediately, so
    /// span-tree *shape* stays independent of cache warmth (job-to-worker
    /// assignment varies with worker count, and shape is pinned across
    /// worker counts by `tests/telemetry.rs`).  The cache counters, not span
    /// presence, are the reuse observable.
    pub fn prepare(&mut self, workload: &Workload, key: ContextKey, span: &Span) -> bool {
        if self.state.as_ref().is_some_and(|state| state.key == key) {
            self.stats.hits += 1;
            // Emit the build-phase skeleton even when nothing rebuilds: a
            // null span makes these free, and a recording span keeps the
            // tree shape identical whether this worker's cache was warm or
            // cold.
            span.child("build-operator").finish();
            if matches!(key.kind, PreconditionerKind::Mg) {
                span.child("mg.build").finish();
            }
            return true;
        }
        self.stats.misses += 1;
        self.state = None;
        let build = span.child("build-operator");
        let operator = MatrixFreeOperator::<T>::from_workload(workload).with_threads(key.threads);
        build.finish();
        let prepared = match key.kind {
            PreconditionerKind::None => Prepared::Plain(operator),
            PreconditionerKind::Jacobi => {
                let jacobi = JacobiPreconditioner::from_operator(&operator);
                Prepared::Jacobi(operator, jacobi)
            }
            PreconditionerKind::Mg => {
                let mg_build = span.child("mg.build");
                let mg = MultigridVcycle::from_operator(operator, MgConfig::default());
                mg_build.finish();
                Prepared::Mg(mg)
            }
        };
        self.state = Some(ContextState {
            key,
            prepared,
            shift: None,
        });
        false
    }

    /// Install the diagonal shift identified by `key` into the prepared
    /// operator and its preconditioner, unless it is already installed.
    /// `diag` builds the shift field and runs only on a change, and each
    /// install runs once: the operator (for MG, the hierarchy's level 0 and
    /// then every coarse level) swaps its diagonal in place, and the Jacobi
    /// inverse is rebuilt from the shifted operator.
    pub(crate) fn set_shift(&mut self, key: ShiftKey, diag: impl FnOnce() -> CellField<f64>) {
        // audit: allow(panic) — invariant: callers `prepare` before stepping
        let state = self.state.as_mut().expect("prepare runs before set_shift");
        if state.shift.as_ref() == Some(&key) {
            return;
        }
        let diag = diag();
        match &mut state.prepared {
            Prepared::Plain(op) => op.set_diagonal_shift(&diag),
            Prepared::Jacobi(op, pc) => {
                op.set_diagonal_shift(&diag);
                *pc = JacobiPreconditioner::from_operator(op);
            }
            Prepared::Mg(mg) => mg.set_diagonal_shift(&diag),
        }
        state.shift = Some(key);
    }

    /// The prepared operator and preconditioner, with solve buffers sized
    /// for `dims` (reallocated only on a shape change).
    pub(crate) fn parts(
        &mut self,
        dims: Dims,
    ) -> (
        &MatrixFreeOperator<T>,
        Option<&dyn Preconditioner<T>>,
        &mut NewtonScratch<T>,
    ) {
        if self.buffers.as_ref().is_some_and(|b| b.dims() != dims) {
            self.stats.scratch_reallocs += 1;
            self.buffers = None;
        }
        let buffers = self.buffers.get_or_insert_with(|| NewtonScratch::new(dims));
        // audit: allow(panic) — invariant: callers `prepare` before solving
        let state = self.state.as_ref().expect("prepare runs before parts");
        match &state.prepared {
            Prepared::Plain(op) => (op, None, buffers),
            Prepared::Jacobi(op, pc) => (op, Some(pc), buffers),
            Prepared::Mg(mg) => (mg.fine_operator(), Some(mg), buffers),
        }
    }

    /// Run one steady pressure solve (one Newton step, see
    /// [`solve_pressure`]) on the warm context.  `monitor` sees every
    /// iteration boundary and may stop the solve; `span` scopes the build
    /// and preconditioner spans (callers that want the `cg-loop` span wrap
    /// `monitor` in a [`TraceMonitor`](crate::trace::TraceMonitor)).
    /// Results stay in the context's own buffers — read them through
    /// [`pressure`](Self::pressure), [`history`](Self::history) and
    /// [`final_residual_max`](Self::final_residual_max).
    pub fn solve(
        &mut self,
        workload: &Workload,
        config: &SolveConfig,
        monitor: &mut dyn SolveMonitor,
        span: &Span,
    ) -> Option<StopReason> {
        let key = ContextKey::of(
            workload,
            config.effective_threads(),
            config.preconditioner,
            false,
        );
        self.prepare(workload, key, span);
        let solver = ConjugateGradient::with_tolerance(
            config.effective_tolerance(workload),
            config.effective_max_iterations(workload),
        );
        let (operator, precond, buffers) = self.parts(workload.dims());
        solve_pressure(
            workload,
            operator.coefficients(),
            operator,
            precond,
            &solver,
            monitor,
            span,
            buffers,
        )
    }

    /// The solve buffers of the last solve.
    fn last(&self) -> &NewtonScratch<T> {
        self.buffers
            .as_ref()
            // audit: allow(panic) — invariant: documented accessor contract, callers read results only after `solve`
            .expect("no solve has run on this context")
    }

    /// The pressure field of the last [`solve`](Self::solve).
    ///
    /// # Panics
    ///
    /// If no solve has run on this context yet.
    pub fn pressure(&self) -> &CellField<T> {
        self.last().pressure()
    }

    /// The convergence history of the last solve.
    ///
    /// # Panics
    ///
    /// If no solve has run on this context yet.
    pub fn history(&self) -> &ConvergenceHistory {
        self.last().history()
    }

    /// Max-norm of the Eq. (3) residual at the last solve's pressure,
    /// evaluated at this context's precision (the host backend re-evaluates
    /// in `f64` for `f32` contexts).
    ///
    /// # Panics
    ///
    /// If no solve has run on this context yet.
    pub fn final_residual_max(&self) -> f64 {
        self.last().final_residual_max()
    }
}

/// Everything one engine worker keeps warm between jobs: a [`SolveContext`]
/// per host precision plus a spec-keyed [`Workload`] cache
/// ([`Workload::try_from_spec`] is deterministic, so replaying a cached
/// workload is bitwise identical to rebuilding it).
#[derive(Default)]
pub struct SolveContextCache {
    /// Warm context for `f64` host solves.
    pub f64_context: SolveContext<f64>,
    /// Warm context for `f32` host solves.
    pub f32_context: SolveContext<f32>,
    workload: Option<(WorkloadSpec, Workload)>,
    workload_hits: u64,
    workload_misses: u64,
}

impl SolveContextCache {
    /// A cold cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take the materialised workload for `spec` out of the cache (moving it,
    /// no clone) when the cached spec matches, or materialise a fresh one via
    /// [`Workload::try_from_spec`].  The caller owns the workload for the
    /// duration of the solve — which is what lets it borrow the cache's
    /// contexts mutably at the same time — and hands it back with
    /// [`checkin_workload`](Self::checkin_workload) afterwards.
    /// `try_from_spec` is deterministic, so a cached workload is bitwise
    /// identical to a rebuilt one.
    pub fn checkout_workload(
        &mut self,
        spec: &WorkloadSpec,
    ) -> Result<Workload, mffv_mesh::workload::WorkloadError> {
        match self.workload.take() {
            Some((cached, workload)) if &cached == spec => {
                self.workload_hits += 1;
                Ok(workload)
            }
            stale => {
                // Free the stale workload before materialising its
                // replacement, so a miss never holds two at once.
                drop(stale);
                self.workload_misses += 1;
                Workload::try_from_spec(spec)
            }
        }
    }

    /// Return a checked-out (or freshly built) workload to the cache for the
    /// next job with the same spec.
    pub fn checkin_workload(&mut self, spec: WorkloadSpec, workload: Workload) {
        self.workload = Some((spec, workload));
    }

    /// Cache counters summed over both precision contexts; workload-cache
    /// hits/misses fold into `hits`/`misses`.
    pub fn stats(&self) -> ContextStats {
        let mut stats = self.f64_context.stats().merged(self.f32_context.stats());
        stats.hits += self.workload_hits;
        stats.misses += self.workload_misses;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{HostBackend, SolveBackend, SolveRequest};
    use crate::monitor::NullMonitor;
    use mffv_mesh::WorkloadSpec;

    fn workload() -> Workload {
        WorkloadSpec::quickstart().build()
    }

    fn key(w: &Workload, threads: usize, kind: PreconditionerKind, shifted: bool) -> ContextKey {
        ContextKey::of(w, threads, kind, shifted)
    }

    fn shift_key(dt: f64) -> ShiftKey {
        ShiftKey {
            accumulation_bits: (1.0 / dt).to_bits(),
            wells: Vec::new(),
        }
    }

    #[test]
    fn shift_presence_is_keyed_but_shift_swaps_are_hits() {
        let w = workload();
        let mut ctx = SolveContext::<f64>::new();
        let span = Span::null();
        let steady = key(&w, 1, PreconditionerKind::Jacobi, false);
        let shifted = key(&w, 1, PreconditionerKind::Jacobi, true);
        assert!(!ctx.prepare(&w, steady, &span));
        assert!(ctx.prepare(&w, steady, &span));
        // A shifted operator is a different operator: same topology, new key.
        assert!(!ctx.prepare(&w, shifted, &span));
        let mut built = 0;
        for dt in [0.5, 0.5, 0.25, 0.25, 0.5] {
            assert!(ctx.prepare(&w, shifted, &span));
            ctx.set_shift(shift_key(dt), || {
                built += 1;
                CellField::constant(w.dims(), 1.0 / dt)
            });
        }
        // The field is built only when the shift changes, never rebuilt.
        assert_eq!(built, 3);
        assert_eq!(ctx.stats().hits, 6);
        assert_eq!(ctx.stats().misses, 2);
        // Back to the steady key: the cache holds one entry, so this rebuilds.
        assert!(!ctx.prepare(&w, steady, &span));
    }

    #[test]
    fn an_mg_context_solves_on_its_hierarchys_level_0_with_the_last_shift() {
        // Large enough for a two-level hierarchy.
        let w = WorkloadSpec::fig5(Dims::new(36, 24, 8)).build();
        let dims = w.dims();
        let mut ctx = SolveContext::<f64>::new();
        assert!(!ctx.prepare(&w, key(&w, 1, PreconditionerKind::Mg, true), &Span::null()));
        let first = CellField::from_fn(dims, |c| 0.5 + c.x as f64);
        let last = CellField::from_fn(dims, |c| 2.0 + (c.y + 3 * c.z) as f64 * 0.25);
        ctx.set_shift(shift_key(0.5), || first);
        ctx.set_shift(shift_key(0.25), || last.clone());

        let r = CellField::from_fn(dims, |c| ((c.x * 5 + c.y + c.z) % 9) as f64 - 4.0);
        let mut z = CellField::zeros(dims);
        let (operator, precond, _) = ctx.parts(dims);
        let precond = precond.expect("an Mg key prepares a preconditioner");
        precond.apply(&r, &mut z);
        let operator: *const MatrixFreeOperator<f64> = operator;
        let Some(ContextState {
            prepared: Prepared::Mg(mg),
            ..
        }) = &ctx.state
        else {
            panic!("an Mg key prepares a hierarchy");
        };
        assert!(mg.num_levels() >= 2);
        assert!(
            std::ptr::eq(operator, mg.fine_operator()),
            "the solve operator must be the hierarchy's level 0"
        );
        let fine = mg.fine_operator();
        let shift = fine.diagonal_shift().expect("the last shift is installed");
        for (k, &d) in shift.iter().enumerate() {
            let want = if fine.is_dirichlet(k) {
                0.0
            } else {
                last.get(k)
            };
            assert_eq!(d.to_bits(), want.to_bits(), "cell {k}");
        }
        // Every level carries the last shift: the cycle matches a fresh
        // hierarchy given only that shift, bit for bit.
        let mut fresh = MultigridVcycle::<f64>::from_workload(&w, 1, MgConfig::default());
        fresh.set_diagonal_shift(&last);
        let mut want = CellField::zeros(dims);
        fresh.apply(&r, &mut want);
        assert_eq!(z.as_slice(), want.as_slice());
    }

    #[test]
    fn thread_count_and_preconditioner_are_part_of_the_key() {
        let w = workload();
        let mut ctx = SolveContext::<f64>::new();
        let span = Span::null();
        assert!(!ctx.prepare(&w, key(&w, 1, PreconditionerKind::None, false), &span));
        assert!(!ctx.prepare(&w, key(&w, 2, PreconditionerKind::None, false), &span));
        assert!(!ctx.prepare(&w, key(&w, 2, PreconditionerKind::Jacobi, false), &span));
        assert!(ctx.prepare(&w, key(&w, 2, PreconditionerKind::Jacobi, false), &span));
    }

    #[test]
    fn transmissibility_and_dirichlet_changes_miss() {
        let spec = WorkloadSpec::quickstart();
        let w1 = spec.build();
        let mut thick = spec.clone();
        thick.viscosity *= 2.0;
        let w2 = thick.build();
        let mut ctx = SolveContext::<f64>::new();
        let span = Span::null();
        assert!(!ctx.prepare(&w1, key(&w1, 1, PreconditionerKind::None, false), &span));
        assert!(!ctx.prepare(&w2, key(&w2, 1, PreconditionerKind::None, false), &span));
        assert!(ctx.prepare(&w2, key(&w2, 1, PreconditionerKind::None, false), &span));
    }

    #[test]
    fn pooled_solve_matches_unpooled_bitwise_and_reuses_context() {
        let w = workload();
        let config = SolveConfig::default();
        let reference = HostBackend::oracle()
            .solve(&w, &config, &mut SolveRequest::new())
            .unwrap();

        let mut ctx = SolveContext::<f64>::new();
        for round in 0..3 {
            let stopped = ctx.solve(&w, &config, &mut NullMonitor, &Span::null());
            assert_eq!(stopped, None);
            assert_eq!(
                ctx.history().residual_norms_squared,
                reference.history.residual_norms_squared,
                "round {round}: pooled history must be bitwise identical"
            );
            assert_eq!(ctx.pressure().as_slice(), reference.pressure.as_slice());
            assert_eq!(ctx.final_residual_max(), reference.final_residual_max);
        }
        assert_eq!(ctx.stats().hits, 2);
        assert_eq!(ctx.stats().misses, 1);
        assert_eq!(ctx.stats().scratch_reallocs, 0);
    }

    #[test]
    fn pooled_jacobi_and_mg_match_unpooled_bitwise() {
        for kind in [PreconditionerKind::Jacobi, PreconditionerKind::Mg] {
            let w = workload();
            let config = SolveConfig {
                preconditioner: kind,
                ..SolveConfig::default()
            };
            let reference = HostBackend::oracle()
                .solve(&w, &config, &mut SolveRequest::new())
                .unwrap();
            let mut ctx = SolveContext::<f64>::new();
            for _ in 0..2 {
                ctx.solve(&w, &config, &mut NullMonitor, &Span::null());
                assert_eq!(
                    ctx.history().residual_norms_squared,
                    reference.history.residual_norms_squared,
                    "{kind:?}: pooled history must be bitwise identical"
                );
                assert_eq!(ctx.pressure().as_slice(), reference.pressure.as_slice());
            }
        }
    }

    #[test]
    fn a_shape_change_reallocates_the_buffers_once() {
        let small = WorkloadSpec::quickstart().build();
        let large = WorkloadSpec::quickstart().scaled(2).build();
        let config = SolveConfig::default();
        let mut ctx = SolveContext::<f64>::new();
        for w in [&small, &small, &large, &large] {
            ctx.solve(w, &config, &mut NullMonitor, &Span::null());
        }
        assert_eq!(ctx.stats().scratch_reallocs, 1);
        assert_eq!(ctx.pressure().dims(), large.dims());
    }

    #[test]
    fn workload_cache_replays_bitwise_identical_workloads() {
        let mut cache = SolveContextCache::new();
        let spec = WorkloadSpec::quickstart();
        let fresh = Workload::try_from_spec(&spec).unwrap();
        let first = cache.checkout_workload(&spec).unwrap();
        assert_eq!(
            first.transmissibility().fingerprint(),
            fresh.transmissibility().fingerprint()
        );
        cache.checkin_workload(spec.clone(), first);
        let again = cache.checkout_workload(&spec).unwrap();
        assert_eq!(
            again.dirichlet().fingerprint(),
            fresh.dirichlet().fingerprint()
        );
        cache.checkin_workload(spec.clone(), again);
        // A different spec misses and drops the stale entry.
        let mut other = spec.clone();
        other.viscosity *= 3.0;
        let w2 = cache.checkout_workload(&other).unwrap();
        cache.checkin_workload(other, w2);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
    }
}
