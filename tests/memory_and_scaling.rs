//! Integration tests of the memory-budget story (§III-E1) and the scaling shapes
//! the paper reports in Tables II–IV.

use mffv::prelude::*;
use mffv_core::mapping::PeColumnBuffers;
use mffv_core::{MemoryPlan, ReuseStrategy};
use mffv_fabric::memory::PeMemory;
use mffv_fabric::{PeId, ProcessingElement};

#[test]
fn paper_column_depth_requires_buffer_reuse() {
    // The headline memory claim: Nz = 922 fits a 48 KiB PE only with the §III-E1
    // buffer reuse.
    let naive = MemoryPlan::new(922, ReuseStrategy::None);
    let reuse = MemoryPlan::new(922, ReuseStrategy::Aggressive);
    assert!(!naive.fits());
    assert!(reuse.fits());
    assert!(MemoryPlan::max_nz(ReuseStrategy::Aggressive) >= 922);
}

#[test]
fn executed_allocation_is_rejected_when_the_column_does_not_fit() {
    // The executed (straightforward) buffer set allocates 17 full columns; on a
    // deliberately tiny PE memory the allocation must fail with an
    // out-of-memory error instead of silently overflowing.
    let workload = WorkloadSpec::paper_grid(4, 4, 64).build();
    let small_memory = PeMemory::with_capacity(PeId::new(1, 1), 2 * 1024, 256);
    let mut pe = ProcessingElement::with_memory(PeId::new(1, 1), small_memory);
    let result = PeColumnBuffers::allocate(&mut pe, &workload, 1, 1);
    assert!(
        result.is_err(),
        "allocation must fail on a 2 KiB PE for a 64-deep column"
    );
}

#[test]
fn executed_allocation_succeeds_within_the_real_budget() {
    // A 300-deep column fits the straightforward executed allocation in 48 KiB.
    let workload = WorkloadSpec::paper_grid(3, 3, 300).build();
    let mut pe = ProcessingElement::new(PeId::new(1, 1));
    let bufs = PeColumnBuffers::allocate(&mut pe, &workload, 1, 1).unwrap();
    assert!(pe.memory().used() <= pe.memory().capacity());
    assert_eq!(pe.memory().len(bufs.solution).unwrap(), 300);
    assert!(!pe.memory().live_allocations().is_empty());
}

#[test]
fn modelled_speedup_shape_matches_the_paper() {
    // Table II shape: the CS-2 beats the A100 by two orders of magnitude and the
    // H100 sits between them.
    let model = AnalyticTiming::paper();
    let dims = Dims::new(750, 994, 922);
    let a100 = model.speedup_over_gpu(GpuSpec::a100(), dims, 225);
    let h100 = model.speedup_over_gpu(GpuSpec::h100(), dims, 225);
    assert!(
        a100 > 100.0,
        "A100 speedup {a100} must be two orders of magnitude"
    );
    assert!(
        h100 > 50.0 && h100 < a100,
        "H100 speedup {h100} must sit below the A100's {a100}"
    );
}

#[test]
fn weak_scaling_shapes_match_table3() {
    let model = AnalyticTiming::paper();
    let grids: Vec<Dims> = WorkloadSpec::table3_grids()
        .into_iter()
        .map(|(x, y, z)| Dims::new(x, y, z))
        .collect();
    let rows: Vec<_> = grids.iter().map(|&d| model.scaling_row(d, 225)).collect();
    // Algorithm-2 time is flat; Algorithm-1 time is non-decreasing along the sweep;
    // A100 time grows with the cell count.
    for pair in rows.windows(2) {
        assert!(
            (pair[1].cs2_alg2_time - pair[0].cs2_alg2_time).abs() / pair[0].cs2_alg2_time < 0.02
        );
        assert!(pair[1].cs2_alg1_time >= pair[0].cs2_alg1_time * 0.999);
        assert!(pair[1].a100_alg1_time > pair[0].a100_alg1_time);
        assert!(pair[1].cs2_alg1_throughput > pair[0].cs2_alg1_throughput * 0.999);
    }
    // Largest grid Gcell/s throughput is in the thousands, as in Table III.
    let last = rows.last().unwrap();
    assert!(last.cs2_alg2_throughput / 1e9 > 1_000.0);
}

#[test]
fn data_movement_fraction_is_small_at_paper_scale() {
    // Table IV shape: the data-movement share of device time is a small fraction.
    let model = AnalyticTiming::paper();
    let (dm, comp, total) = model.cs2_time_split(Dims::new(750, 994, 922), 225);
    assert!(
        dm / total < 0.35,
        "data movement share {} too large",
        dm / total
    );
    assert!(comp / total > 0.65);
}

#[test]
fn executed_critical_path_grows_with_fabric_perimeter() {
    // The executed counterpart of the Table-III Alg-1 trend: with a fixed iteration
    // count, the accumulated critical-path hops grow as the fabric grows.
    let mut previous = 0.0f64;
    for side in [4usize, 8, 12] {
        let workload = WorkloadSpec::paper_grid(side, side, 6).build();
        let report = Simulation::new(workload)
            .tolerance(1e-30)
            .max_iterations(5)
            .backend(Backend::dataflow())
            .run()
            .unwrap();
        let hops = report
            .device
            .as_ref()
            .unwrap()
            .counter("critical_path_hops")
            .unwrap();
        assert!(
            hops > previous,
            "critical path must grow with the fabric ({side}x{side})"
        );
        previous = hops;
    }
}
