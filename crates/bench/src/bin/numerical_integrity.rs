//! Numerical-integrity report (§V-B).
//!
//! "We compare and validate the numerical results produced by the CS-2 to those
//! yielded by the reference implementation running on GPUs."  This binary runs
//! the `Simulation` facade's `compare()` — the public API form of that
//! experiment — on three workloads, printing the per-backend summaries and the
//! pairwise maximum pressure disagreements, and cross-checks the assembled-CSR
//! baseline against the oracle on the same workloads.
//!
//! Run with `cargo run --release -p mffv-bench --bin numerical_integrity`.

use mffv::prelude::*;
use mffv_fv::csr::AssembledOperator;
use mffv_solver::newton::{solve_pressure, NewtonScratch};

fn main() {
    let workloads = vec![
        WorkloadSpec::quickstart().build(),
        WorkloadSpec::fig5(Dims::new(14, 10, 8)).build(),
        WorkloadSpec::paper_grid(20, 16, 12).build(),
    ];

    println!("Numerical integrity — Simulation::compare() across the standard backend set\n");
    for workload in &workloads {
        let agreement = Simulation::new(workload.clone())
            .tolerance(1e-12)
            .compare()
            .expect("facade solve failed");
        println!("{agreement}");
        assert!(
            agreement.agrees_within(1e-3),
            "{}: backends disagree beyond single precision",
            workload.name()
        );

        // The assembled-CSR baseline is an operator, not a backend: solve it
        // through the low-level driver with the same CG configuration and
        // compare against the oracle pressure the facade already produced.
        let oracle = &agreement
            .report("host-f64")
            .expect("host oracle ran")
            .pressure;
        let solver = ConjugateGradient::with_tolerance(1e-12, workload.max_iterations());
        let mut assembled = NewtonScratch::new(workload.dims());
        solve_pressure(
            workload,
            workload.transmissibility(),
            &AssembledOperator::<f64>::from_workload(workload),
            None,
            &solver,
            &mut NullMonitor,
            &Span::null(),
            &mut assembled,
        );
        let scale = oracle.max_abs().max(f64::MIN_POSITIVE);
        println!(
            "assembled-CSR baseline vs oracle: {:.2e} (relative max diff)\n",
            oracle.max_abs_diff(assembled.pressure()) / scale
        );
    }
    println!("The assembled baseline matches the oracle to solver precision; the f32 GPU");
    println!("reference and the f32 dataflow implementation agree with the f64 oracle to");
    println!("single precision.");
}
