//! Regenerates **Table IV** — time distribution (data movement vs computation) on
//! the CS-2.
//!
//! Methodology mirrors the paper's: run the full solve, then run a modified version
//! with all floating-point work removed ("communication only") for the same number
//! of iterations, and attribute the communication-only time to data movement.  The
//! executed section does exactly that on the simulated fabric at a scaled grid; the
//! analytic section evaluates the same split at the paper's full mesh.
//!
//! Run with `cargo run --release -p mffv-bench --bin table4`.

use mffv::prelude::*;
use mffv_bench::executed_workload;
use mffv_perf::report::{fmt_percent, fmt_seconds, format_table};

fn main() {
    let paper_dims = Dims::new(750, 994, 922);
    let iterations = 225;
    let model = AnalyticTiming::paper();
    let (data_movement, computation, total) = model.cs2_time_split(paper_dims, iterations);

    println!("Table IV — time distribution on CS-2, full paper mesh {paper_dims} (modelled)\n");
    let rows = vec![
        vec![
            "Data Movement".to_string(),
            fmt_seconds(data_movement),
            fmt_percent(data_movement / total),
            "0.0034 s / 6.27%".to_string(),
        ],
        vec![
            "Computation".to_string(),
            format!("{} ~ {}", fmt_seconds(computation), fmt_seconds(total)),
            fmt_percent(computation / total),
            "0.0508–0.0542 s / 93.73–100%".to_string(),
        ],
        vec![
            "Total".to_string(),
            fmt_seconds(total),
            "100.00%".to_string(),
            "0.0542 s / 100%".to_string(),
        ],
    ];
    println!(
        "{}",
        format_table(
            &["Component", "Modelled time [s]", "Modelled share", "Paper"],
            &rows
        )
    );

    // Executed split at a scaled grid: full run vs communication-only run.
    let dims = Dims::new(20, 24, 18);
    let workload = executed_workload(dims);
    let full = Simulation::new(workload.clone())
        .tolerance(1e-8)
        .backend(Backend::dataflow())
        .run()
        .expect("full solve failed");
    let full_device = full.device.as_ref().expect("dataflow models a device");
    let full_iterations = full.iterations();
    let comm_only = Simulation::new(workload)
        .backend(Backend::dataflow_communication_only(full_iterations))
        .run()
        .expect("communication-only run failed");
    let comm_device = comm_only.device.as_ref().expect("dataflow models a device");

    let comm_time = comm_device.counter("fabric_time_seconds").unwrap()
        + comm_device.counter("latency_time_seconds").unwrap();
    let total_time = full_device.modelled_time_seconds;
    let compute_time = (total_time - comm_time).max(0.0);
    println!(
        "Executed split at scaled grid {dims} ({full_iterations} iterations, both runs move identical traffic):\n",
    );
    let rows = vec![
        vec![
            "Data Movement (comm-only run)".to_string(),
            format!("{comm_time:.3e}"),
            fmt_percent(comm_time / total_time),
        ],
        vec![
            "Computation".to_string(),
            format!("{compute_time:.3e} ~ {total_time:.3e}"),
            fmt_percent(compute_time / total_time),
        ],
        vec![
            "Total".to_string(),
            format!("{total_time:.3e}"),
            "100.00%".to_string(),
        ],
    ];
    println!(
        "{}",
        format_table(&["Component", "Modelled time [s]", "Share"], &rows)
    );
    println!(
        "Cross-check: comm-only run moved {} fabric bytes vs {} in the full run (must match).",
        comm_device.counter("fabric_link_bytes").unwrap_or(0.0),
        full_device.counter("fabric_link_bytes").unwrap_or(0.0)
    );
}
