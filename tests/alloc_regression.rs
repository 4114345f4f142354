//! Allocation regression for the pooled steady-state serving path.
//!
//! The contract under test: once a [`SolveContext`] is warm (operator and
//! preconditioner built, scratch vectors sized, history capacity
//! established), a steady pressure solve performs **zero heap
//! allocations** — the whole Newton + Krylov loop runs in context-owned
//! buffers.  A counting global allocator makes the claim falsifiable: any
//! future `clone()`/`zeros()` snuck back into the hot loop fails this test
//! with a nonzero per-job delta.
//!
//! Scope of the claim: `threads = 1`, a null monitor, a null span, and each
//! of the `None`, `Jacobi` and `Mg` preconditioners (the V-cycle, its
//! coarsest-level CG included, runs in its per-level workspace).
//!
//! The count is kept per thread, so libtest may run these tests in
//! parallel: each measurement window sees only its own thread's heap
//! traffic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mffv_mesh::{Workload, WorkloadSpec};
use mffv_solver::backend::{PreconditionerKind, SolveConfig};
use mffv_solver::context::SolveContext;
use mffv_solver::monitor::NullMonitor;
use mffv_telemetry::Span;

thread_local! {
    /// Heap acquisitions made by this thread.  `realloc` and `alloc_zeroed`
    /// keep their default implementations, which route through `alloc`, so
    /// every acquisition path is counted.  Const-initialised with no
    /// destructor: touching it from inside the allocator never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Heap acquisitions made by the calling thread so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

struct CountingAllocator;

// SAFETY: a transparent pass-through to `System` — every method forwards verbatim.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: the caller's layout contract is forwarded to `System` as-is.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: allocations during thread teardown, after the slot is
        // gone, are simply not counted.
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
        System.alloc(layout)
    }

    // SAFETY: `ptr` came from `alloc` above with the same layout, valid for `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Run one pooled solve and return the calling thread's allocation-count
/// delta across it.
fn solve_counting_allocations(
    ctx: &mut SolveContext<f64>,
    workload: &Workload,
    config: &SolveConfig,
) -> u64 {
    let span = Span::null();
    let mut monitor = NullMonitor;
    let before = allocations();
    let stopped = ctx.solve(workload, config, &mut monitor, &span);
    let after = allocations();
    assert!(stopped.is_none(), "steady solve must run to convergence");
    after - before
}

#[test]
fn warmed_solve_context_performs_zero_heap_allocations_per_job() {
    let spec = WorkloadSpec::quickstart();
    let workload = Workload::try_from_spec(&spec).expect("quickstart spec is valid");

    for kind in [
        PreconditionerKind::None,
        PreconditionerKind::Jacobi,
        PreconditionerKind::Mg,
    ] {
        let config = SolveConfig {
            threads: Some(1),
            preconditioner: kind,
            ..SolveConfig::default()
        };
        let mut ctx = SolveContext::new();

        // Warm-up: the first solve builds the operator/preconditioner and
        // sizes every buffer; the second proves sizing has settled (the
        // convergence history retains its Vec capacity across resets).
        let cold = solve_counting_allocations(&mut ctx, &workload, &config);
        assert!(cold > 0, "{kind:?}: the cold solve must build state");
        solve_counting_allocations(&mut ctx, &workload, &config);

        let warm = solve_counting_allocations(&mut ctx, &workload, &config);
        assert_eq!(
            warm, 0,
            "{kind:?}: a warmed steady solve must not touch the heap"
        );
        let stats = ctx.stats();
        assert_eq!(stats.misses, 1, "{kind:?}: only the cold solve misses");
        assert_eq!(stats.hits, 2, "{kind:?}: both warm solves hit");
        assert_eq!(stats.scratch_reallocs, 0, "{kind:?}: dims never changed");
    }
}

#[test]
fn rekeying_the_context_allocates_once_then_returns_to_zero() {
    // A spec change mid-stream (different transmissibilities) forces a
    // rebuild; the path must recover its zero-allocation steady state on
    // the very next job with the new key.
    let spec_a = WorkloadSpec::quickstart();
    let mut spec_b = WorkloadSpec::quickstart();
    spec_b.viscosity *= 2.0;
    let workload_a = Workload::try_from_spec(&spec_a).expect("valid spec");
    let workload_b = Workload::try_from_spec(&spec_b).expect("valid spec");
    let config = SolveConfig {
        threads: Some(1),
        preconditioner: PreconditionerKind::Jacobi,
        ..SolveConfig::default()
    };

    let mut ctx = SolveContext::new();
    solve_counting_allocations(&mut ctx, &workload_a, &config);
    solve_counting_allocations(&mut ctx, &workload_a, &config);
    assert_eq!(
        solve_counting_allocations(&mut ctx, &workload_a, &config),
        0
    );

    let rekey = solve_counting_allocations(&mut ctx, &workload_b, &config);
    assert!(rekey > 0, "a key change must rebuild the operator");
    solve_counting_allocations(&mut ctx, &workload_b, &config);
    assert_eq!(
        solve_counting_allocations(&mut ctx, &workload_b, &config),
        0,
        "the context must be zero-allocation again after re-warming"
    );
}
