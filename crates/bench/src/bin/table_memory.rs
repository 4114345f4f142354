//! Memory-plan report — the §III-E1 buffer-reuse ablation.
//!
//! Prints the per-PE allocation breakdown for the paper's 922-deep column under the
//! straightforward and the reused memory plans, and the maximum column depth each
//! plan supports within the 48 KiB PE budget.  This is the quantitative version of
//! the paper's statement that buffer reuse is what lets "larger simulations be
//! tackled".
//!
//! Run with `cargo run --release -p mffv-bench --bin table_memory`.

use mffv_core::{MemoryPlan, ReuseStrategy, KERNEL_CODE_BYTES};
use mffv_fabric::memory::PE_MEMORY_BYTES;
use mffv_perf::report::format_table;

fn print_plan(plan: &MemoryPlan) {
    println!(
        "Memory plan: nz = {}, strategy = {:?}, data bytes = {}, total with {} B code = {}",
        plan.nz,
        plan.strategy,
        plan.data_bytes(),
        KERNEL_CODE_BYTES,
        plan.total_bytes()
    );
    let rows: Vec<Vec<String>> = plan
        .allocations
        .iter()
        .map(|(name, bytes)| vec![name.clone(), bytes.to_string()])
        .collect();
    println!("{}", format_table(&["Buffer", "Bytes"], &rows));
}

fn main() {
    println!(
        "PE local memory budget: {} bytes ({} KiB), kernel code reservation: {} bytes\n",
        PE_MEMORY_BYTES,
        PE_MEMORY_BYTES / 1024,
        KERNEL_CODE_BYTES
    );

    let naive = MemoryPlan::new(922, ReuseStrategy::None);
    let reuse = MemoryPlan::new(922, ReuseStrategy::Aggressive);
    print_plan(&naive);
    println!("Fits the paper's Nz = 922 column: {}\n", naive.fits());
    print_plan(&reuse);
    println!("Fits the paper's Nz = 922 column: {}\n", reuse.fits());

    let rows = vec![
        vec![
            "Straightforward (no reuse)".to_string(),
            MemoryPlan::max_nz(ReuseStrategy::None).to_string(),
        ],
        vec![
            "Buffer reuse (§III-E1)".to_string(),
            MemoryPlan::max_nz(ReuseStrategy::Aggressive).to_string(),
        ],
    ];
    println!(
        "{}",
        format_table(&["Allocation strategy", "Maximum Nz per 48 KiB PE"], &rows)
    );
    println!("The paper's largest mesh uses Nz = 922, which only fits with buffer reuse.");
}
