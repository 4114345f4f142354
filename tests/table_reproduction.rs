//! Integration tests that pin the quantitative claims each regenerated table/figure
//! rests on — the same checks `EXPERIMENTS.md` documents, run in CI form.
//!
//! The *executed* (as opposed to modelled) runs are additionally pinned as
//! golden fixtures under `tests/golden/` through the shared harness in
//! `tests/common/mod.rs`: iteration counts and bitwise pressure checksums
//! must reproduce exactly; regenerate intentionally-changed fixtures with
//! `MFFV_BLESS=1 cargo test`.

use mffv::prelude::*;
use mffv_gpu_ref::device_model::GpuTimeModel;

mod common;

#[test]
fn table5_static_model_matches_paper_totals() {
    let counts = CellOpCounts::paper_table5();
    assert_eq!(counts.flops_per_cell(), 96);
    assert_eq!(counts.alg2_flops_per_cell(), 84);
    assert_eq!(counts.mem_accesses_per_cell(), 268);
    assert_eq!(counts.fabric_loads_per_cell(), 8);
    assert!((counts.memory_arithmetic_intensity() - 0.0895).abs() < 5e-4);
    assert!((counts.fabric_arithmetic_intensity() - 3.0).abs() < 1e-12);
}

#[test]
fn fig6_regimes_match_paper() {
    let counts = CellOpCounts::paper_table5();
    let cs2 = Roofline::new(MachineSpec::cs2());
    assert!(cs2.is_compute_bound(counts.memory_arithmetic_intensity(), Some("Memory")));
    assert!(cs2.is_compute_bound(counts.fabric_arithmetic_intensity(), Some("Fabric")));
    let a100 = Roofline::new(MachineSpec::a100());
    assert!(!a100.is_compute_bound(counts.memory_arithmetic_intensity(), Some("HBM")));
}

#[test]
fn table2_modelled_times_have_the_papers_ordering_and_magnitude() {
    let model = AnalyticTiming::paper();
    let dims = Dims::new(750, 994, 922);
    let cs2 = model.cs2_alg1_time(dims, 225);
    let a100 = model.gpu_alg1_time(GpuSpec::a100(), dims, 225);
    let h100 = model.gpu_alg1_time(GpuSpec::h100(), dims, 225);
    // Ordering: CS-2 << H100 < A100 (Table II).
    assert!(cs2 < h100 && h100 < a100);
    // Magnitudes within a factor of ~3 of the paper's measurements.
    assert!(
        cs2 > 0.0542 / 3.0 && cs2 < 0.0542 * 3.0,
        "CS-2 modelled time {cs2}"
    );
    assert!(
        a100 > 23.19 / 3.0 && a100 < 23.19 * 3.0,
        "A100 modelled time {a100}"
    );
    assert!(
        h100 > 11.39 / 3.0 && h100 < 11.39 * 3.0,
        "H100 modelled time {h100}"
    );
}

#[test]
fn table3_throughput_column_is_reproduced_in_order_of_magnitude() {
    // Paper: 12,688.55 Gcell/s for Algorithm 2 at the largest grid.
    let model = AnalyticTiming::paper();
    let row = model.scaling_row(Dims::new(750, 994, 922), 225);
    let gcells = row.cs2_alg2_throughput / 1e9;
    assert!(
        gcells > 4_000.0 && gcells < 40_000.0,
        "Alg2 throughput {gcells} Gcell/s"
    );
}

#[test]
fn table4_split_is_dominated_by_computation() {
    let model = AnalyticTiming::paper();
    let (dm, comp, total) = model.cs2_time_split(Dims::new(750, 994, 922), 225);
    assert!(
        comp > dm,
        "computation must dominate (paper: 93.73% vs 6.27%)"
    );
    assert!(dm > 0.0);
    assert!((dm + comp - total).abs() / total < 0.2);
}

#[test]
fn fig5_executed_pressure_field_decays_from_source_to_producer() {
    let dims = Dims::new(20, 14, 6);
    let workload = WorkloadSpec::fig5(dims).build();
    let report = Simulation::new(workload)
        .tolerance(1e-14)
        .backend(Backend::dataflow())
        .run()
        .unwrap();
    assert!(report.converged());
    let z = dims.nz / 2;
    let near_source = report.pressure.at(mffv_mesh::CellIndex::new(1, 1, z));
    let mid = report
        .pressure
        .at(mffv_mesh::CellIndex::new(dims.nx / 2, dims.ny / 2, z));
    let near_producer = report
        .pressure
        .at(mffv_mesh::CellIndex::new(dims.nx - 2, dims.ny - 2, z));
    assert!(
        near_source > mid && mid > near_producer,
        "pressure must decay along the diagonal"
    );
    common::Golden::new("fig5_dataflow_20x14x6")
        .str("backend", &report.backend)
        .int("iterations", report.iterations())
        .str(
            "pressure_checksum",
            common::field_checksum(&report.pressure),
        )
        .num("final_residual_max", report.final_residual_max)
        .check();
}

#[test]
fn gpu_memory_bound_model_matches_measured_ratio_shape() {
    // Table II: H100 ≈ 2x faster than the A100 for this memory-bound kernel.
    let dims = Dims::new(750, 994, 922);
    let a100 = GpuTimeModel::new(GpuSpec::a100()).cg_time(dims, 225);
    let h100 = GpuTimeModel::new(GpuSpec::h100()).cg_time(dims, 225);
    let ratio = a100 / h100;
    assert!(
        ratio > 1.5 && ratio < 3.0,
        "A100/H100 ratio {ratio} (paper: 2.04)"
    );
}

#[test]
fn communication_only_run_reproduces_table4_methodology() {
    // The executed Table-IV methodology: a communication-only run moves exactly the
    // same fabric traffic as the full run over the same number of iterations.
    let workload = WorkloadSpec::paper_grid(10, 8, 12).build();
    let simulation = Simulation::new(workload).tolerance(1e-8);
    let full = simulation.run_backend(&Backend::dataflow()).unwrap();
    let full_device = full.device.as_ref().unwrap();
    let full_iterations = full.iterations();
    let comm = Simulation::new(simulation.workload().clone())
        .backend(Backend::dataflow_communication_only(full_iterations))
        .run()
        .unwrap();
    let comm_device = comm.device.as_ref().unwrap();
    assert_eq!(comm.iterations(), full_iterations);
    assert_eq!(
        comm_device.counter("fabric_link_bytes"),
        full_device.counter("fabric_link_bytes")
    );
    assert!(
        comm_device.counter("total_flops").unwrap()
            < full_device.counter("total_flops").unwrap() / 10.0
    );
    common::Golden::new("table4_comm_only_10x8x12")
        .int("iterations", full_iterations)
        .num(
            "fabric_link_bytes",
            full_device.counter("fabric_link_bytes").unwrap(),
        )
        .str("pressure_checksum", common::field_checksum(&full.pressure))
        .check();
    common::device_golden("table4_comm_only_10x8x12_device", comm_device).check();
}
