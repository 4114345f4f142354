//! Regenerates **Figure 6** — roofline models for the CS-2 and the A100.
//!
//! Prints the roofline ceilings (log-log series suitable for plotting) and the
//! kernel dots: the CS-2 kernel at its memory- and fabric-arithmetic intensities
//! and the A100 kernel at its DRAM intensity, with the achieved fraction of the
//! attainable ceiling for each.
//!
//! Run with `cargo run --release -p mffv-bench --bin fig6`.

use mffv_gpu_ref::device_model::{GpuSpec, GpuTimeModel};
use mffv_mesh::Dims;
use mffv_perf::report::{fmt_flops, fmt_percent, format_table};
use mffv_perf::{AnalyticTiming, CellOpCounts, MachineSpec, Roofline};

fn main() {
    let counts = CellOpCounts::paper_table5();
    let paper_dims = Dims::new(750, 994, 922);
    let iterations = 225;

    // ------------------------------------------------------------------- CS-2
    let cs2_spec = MachineSpec::cs2();
    let ceilings_line = ceilings(&cs2_spec, "PB/s", 1e15);
    let cs2 = Roofline::new(cs2_spec);
    let timing = AnalyticTiming::paper();
    // The roofline dot uses the matrix-free kernel rate (Algorithm 2), which is the
    // quantity the paper's 1.217 PFLOP/s headline corresponds to; the full
    // Algorithm-1 rate (including reduction latency) is printed separately below.
    let cs2_achieved = timing.cs2_alg2_achieved_flops(paper_dims, iterations);
    println!("Figure 6 (top) — CS-2 roofline\n");
    println!("{ceilings_line}");
    let rows = vec![
        vec![
            "memory".to_string(),
            format!("{:.4}", counts.memory_arithmetic_intensity()),
            fmt_flops(cs2_achieved),
            fmt_percent(cs2.fraction_of_attainable(
                counts.memory_arithmetic_intensity(),
                cs2_achieved,
                Some("Memory"),
            )),
            format!(
                "compute-bound: {}",
                cs2.is_compute_bound(counts.memory_arithmetic_intensity(), Some("Memory"))
            ),
        ],
        vec![
            "fabric".to_string(),
            format!("{:.4}", counts.fabric_arithmetic_intensity()),
            fmt_flops(cs2_achieved),
            fmt_percent(cs2.fraction_of_attainable(
                counts.fabric_arithmetic_intensity(),
                cs2_achieved,
                Some("Fabric"),
            )),
            format!(
                "compute-bound: {}",
                cs2.is_compute_bound(counts.fabric_arithmetic_intensity(), Some("Fabric"))
            ),
        ],
    ];
    println!(
        "{}",
        format_table(
            &[
                "Traffic class",
                "AI [FLOP/B]",
                "Achieved (modelled)",
                "% of attainable",
                "Regime"
            ],
            &rows
        )
    );
    println!("Paper: 1.217 PFLOP/s achieved, 68% of peak, compute-bound for both intensities.");
    println!(
        "Full Algorithm-1 rate including reduction latency: {}\n",
        fmt_flops(timing.cs2_achieved_flops(paper_dims, iterations))
    );

    println!("CS-2 roofline series (AI [FLOP/B], attainable [GFLOP/s]) — Memory ceiling:");
    for (ai, perf) in cs2.chart_series(Some("Memory"), 1e-2, 1e2, 17) {
        println!("  {ai:10.4}, {:14.1}", perf / 1e9);
    }

    // ------------------------------------------------------------------- A100
    let a100_spec = MachineSpec::a100();
    let ceilings_line = ceilings(&a100_spec, "GB/s", 1e9);
    let a100 = Roofline::new(a100_spec);
    let gpu_achieved = GpuTimeModel::new(GpuSpec::a100()).achieved_flops(paper_dims);
    println!("\nFigure 6 (bottom) — A100 roofline\n");
    println!("{ceilings_line}");
    let ai_dram = 96.0 / mffv_gpu_ref::device_model::DRAM_BYTES_PER_CELL_PER_ITERATION;
    let rows = vec![vec![
        "HBM".to_string(),
        format!("{ai_dram:.4}"),
        fmt_flops(gpu_achieved),
        fmt_percent(a100.fraction_of_attainable(ai_dram, gpu_achieved, Some("HBM"))),
        format!(
            "memory-bound: {}",
            !a100.is_compute_bound(ai_dram, Some("HBM"))
        ),
    ]];
    println!(
        "{}",
        format_table(
            &[
                "Traffic class",
                "AI [FLOP/B]",
                "Achieved (modelled)",
                "% of attainable",
                "Regime"
            ],
            &rows
        )
    );
    println!("Paper: memory-bound, ~78% of the bandwidth-limited ceiling.\n");

    println!("A100 roofline series (AI [FLOP/B], attainable [GFLOP/s]) — HBM ceiling:");
    for (ai, perf) in a100.chart_series(Some("HBM"), 1e-2, 1e2, 17) {
        println!("  {ai:10.4}, {:14.1}", perf / 1e9);
    }
}

/// A roofline's `Ceilings:` line: the compute peak, then every bandwidth
/// level in `unit`, which is `scale` bytes/s.
fn ceilings(spec: &MachineSpec, unit: &str, scale: f64) -> String {
    let mut line = format!("Ceilings: peak {}", fmt_flops(spec.peak_flops));
    for level in &spec.bandwidths {
        let value = level.bytes_per_second / scale;
        line.push_str(&format!("  |  {} {value:.1} {unit}", level.name));
    }
    line
}
