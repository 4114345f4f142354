//! Heap footprint of an engine transient job.
//!
//! The contract under test: a transient job returns its run's summary
//! report, folded step by step, so its peak heap does not grow with its
//! step count.  The job keeps one pressure field for the run, where the full
//! `TransientReport` keeps one per step.
//!
//! A global allocator tracks each thread's live and peak heap bytes.  The
//! job runs on one apply thread, so every byte it holds is counted on the
//! calling thread, and libtest may run other tests in parallel.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mffv::prelude::*;
use mffv_mesh::workload::BoundarySpec;
use mffv_mesh::CellIndex;

thread_local! {
    /// Heap bytes this thread has allocated and not yet freed (bytes freed
    /// here but allocated on another thread count negative).  `realloc` and
    /// `alloc_zeroed` keep their default implementations, which route
    /// through `alloc` and `dealloc`.  Const-initialised with no destructor:
    /// touching it from inside the allocator never allocates.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The highest `LIVE` since the last [`peak_heap_growth`] reset.
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// Add `delta` bytes to the calling thread's live heap and raise its peak.
fn track(delta: isize) {
    // `try_with`: traffic during thread teardown, after the slots are gone,
    // is simply not counted.
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

struct PeakAllocator;

// Every method forwards verbatim and only adds thread-local bookkeeping.
// SAFETY: a transparent pass-through to `System`.
unsafe impl GlobalAlloc for PeakAllocator {
    // SAFETY: the caller's layout contract is forwarded to `System` as-is.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            track(layout.size() as isize);
        }
        ptr
    }

    // SAFETY: `ptr` came from `alloc` above with the same layout, valid for `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: PeakAllocator = PeakAllocator;

/// How far the calling thread's live heap rose above its starting level
/// while `f` ran, in bytes.
fn peak_heap_growth(f: impl FnOnce()) -> isize {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    f();
    PEAK.with(Cell::get) - base
}

const DIMS: (usize, usize, usize) = (24, 24, 8);
/// Bytes of one `f64` pressure field on [`DIMS`] (36 KiB).
const FIELD_BYTES: isize = (DIMS.0 * DIMS.1 * DIMS.2 * std::mem::size_of::<f64>()) as isize;

/// A sealed reservoir with an injector and a BHP producer, stepped `steps`
/// times at a fixed `dt` under the multigrid preconditioner.
fn mg_transient_job(steps: usize) -> JobSpec {
    let spec = WorkloadSpec {
        name: "footprint".to_string(),
        dims: Dims::new(DIMS.0, DIMS.1, DIMS.2),
        boundary: BoundarySpec::None,
        permeability: PermeabilityModel::LogNormal {
            mean_log: 0.0,
            std_log: 0.5,
            seed: 7,
        },
        tolerance: 1e-16,
        ..WorkloadSpec::quickstart()
    };
    let dt = 0.25;
    let transient = TransientSpec::new(steps as f64 * dt, dt, 1e-3)
        .with_wells(
            WellSet::empty()
                .with(Well::rate("inj", CellIndex::new(3, 3, 2), 1.0))
                .with(Well::bhp("prod", CellIndex::new(20, 20, 5), 5.0, 0.5)),
        )
        .with_initial_pressure(10.0);
    JobSpec::transient(spec, Backend::host(), transient)
        .with_preconditioner(PreconditionerKind::Mg)
        .with_threads(1)
}

/// Peak heap growth of one fresh-cache execution of a `steps`-step job.
fn job_peak(steps: usize) -> isize {
    let job = mg_transient_job(steps);
    peak_heap_growth(|| {
        let report = job
            .execute(&mut SolveRequest::new())
            .expect("the transient job runs");
        assert!(report.converged(), "{steps} steps");
    })
}

#[test]
fn a_transient_jobs_peak_heap_does_not_grow_with_its_step_count() {
    // Warm-up: one-time lazy allocations stay out of the measured runs.
    job_peak(8);
    let short = job_peak(8);
    let long = job_peak(32);
    assert!(
        long - short < FIELD_BYTES,
        "24 more steps raised the peak heap by {} B (one field is {FIELD_BYTES} B): \
         8 steps peaked at {short} B, 32 at {long} B",
        long - short
    );
}
