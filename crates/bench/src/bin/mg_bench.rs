//! Multigrid preconditioner benchmark: CG vs Jacobi-PCG vs MG-PCG.
//!
//! Solves the paper-grid pressure problem at a ladder of cube sizes with
//! plain CG, Jacobi-preconditioned CG and the matrix-free geometric-multigrid
//! V-cycle (`mffv_fv::mg`, the default V(2,2) cycle), in both precisions on
//! one thread, and emits a machine-readable `BENCH_mg.json` (iterations,
//! wall seconds, speedups).  The headline claim it documents: MG-PCG
//! iteration counts stay flat as the grid is refined, where CG and
//! Jacobi-PCG grow roughly with the grid edge.
//!
//! ```text
//! cargo run --release -p mffv-bench --bin mg_bench -- \
//!     --sizes 32,64,128 --reps 3 --out BENCH_mg.json
//! ```
//!
//! `--check` is the CI smoke mode: after writing the report it validates that
//! every MG-PCG row converged and never needed more iterations than plain CG,
//! exiting non-zero otherwise.

use mffv::prelude::*;
use mffv_bench::{machine_json, Flags};
use mffv_solver::newton::{solve_pressure, NewtonScratch};

/// One measured solve configuration.
struct Row {
    method: &'static str,
    precision: &'static str,
    n: usize,
    cells: usize,
    iterations: usize,
    converged: bool,
    seconds: f64,
    speedup_vs_cg: f64,
}

impl Row {
    fn json(&self) -> String {
        format!(
            "    {{\"method\": \"{}\", \"precision\": \"{}\", \"n\": {}, \"cells\": {}, \
             \"iterations\": {}, \"converged\": {}, \"seconds\": {:.6e}, \
             \"speedup_vs_cg\": {:.3}}}",
            self.method,
            self.precision,
            self.n,
            self.cells,
            self.iterations,
            self.converged,
            self.seconds,
            self.speedup_vs_cg
        )
    }
}

fn bench_precision<T: Scalar>(
    workload: &Workload,
    n: usize,
    precision: &'static str,
    reps: usize,
    rows: &mut Vec<Row>,
) {
    let cells = workload.dims().num_cells();
    let tolerance = workload.tolerance();
    let max_iterations = workload.max_iterations();
    let solver = ConjugateGradient::with_tolerance(tolerance, max_iterations);
    // One operator, as a solve context holds it: the hierarchy's level 0
    // is what every method solves on.
    let mg = MultigridVcycle::from_operator(
        MatrixFreeOperator::<T>::from_workload(workload),
        MgConfig::default(),
    );
    let operator = mg.fine_operator();
    let jacobi = JacobiPreconditioner::from_operator(operator);
    let methods: [(&'static str, Option<&dyn Preconditioner<T>>); 3] = [
        ("cg", None),
        ("jacobi-pcg", Some(&jacobi)),
        ("mg-pcg", Some(&mg)),
    ];
    let mut newton = NewtonScratch::new(workload.dims());
    let mut cg_seconds = 0.0;
    for (method, preconditioner) in methods {
        let seconds = time_best_of(reps, || {
            solve_pressure(
                workload,
                operator.coefficients(),
                operator,
                preconditioner,
                &solver,
                &mut NullMonitor,
                &Span::null(),
                &mut newton,
            );
        });
        if preconditioner.is_none() {
            cg_seconds = seconds;
        }
        rows.push(Row {
            method,
            precision,
            n,
            cells,
            iterations: newton.history().iterations,
            converged: newton.history().converged,
            seconds,
            speedup_vs_cg: cg_seconds / seconds,
        });
    }
}

fn main() {
    let mut flags = Flags::new(std::env::args().skip(1), &["--check"]);
    let sizes = flags.list("--sizes", vec![32, 64, 128]);
    let reps = flags.value("--reps", 3).max(1);
    let out = flags.value("--out", "BENCH_mg.json".to_string());
    let check = flags.switch("--check");
    flags.finish();
    let mut rows: Vec<Row> = Vec::new();
    for &n in &sizes {
        let workload = WorkloadSpec::paper_grid(n, n, n).build();
        let levels =
            MultigridVcycle::<f64>::from_workload(&workload, 1, MgConfig::default()).num_levels();
        println!(
            "mg bench on {n}^3 ({} cells, {} MG levels)",
            workload.dims().num_cells(),
            levels
        );
        bench_precision::<f32>(&workload, n, "f32", reps, &mut rows);
        bench_precision::<f64>(&workload, n, "f64", reps, &mut rows);
    }

    for row in &rows {
        println!(
            "  {:>10} {} {:>4}^3  {:>6} iters  {:>10.3} ms  {:>6.2}x vs cg",
            row.method,
            row.precision,
            row.n,
            row.iterations,
            row.seconds * 1e3,
            row.speedup_vs_cg
        );
    }

    let result_lines: Vec<String> = rows.iter().map(Row::json).collect();
    let json = format!(
        "{{\n  \"bench\": \"mg\",\n  \"machine\": {},\n  \"sizes\": {sizes:?},\n  \"reps\": {reps},\n  \"threads\": 1,\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        machine_json(),
        result_lines.join(",\n"),
    );
    std::fs::write(&out, &json).expect("write JSON report");
    println!("wrote {out}");

    if check {
        let mut failures = Vec::new();
        for row in &rows {
            if row.method != "mg-pcg" {
                continue;
            }
            if !row.converged {
                failures.push(format!(
                    "mg-pcg {} {}^3 did not converge",
                    row.precision, row.n
                ));
            }
            let cg_iters = rows
                .iter()
                .find(|r| r.method == "cg" && r.precision == row.precision && r.n == row.n)
                .map(|r| r.iterations)
                .unwrap_or(0);
            if row.iterations > cg_iters {
                failures.push(format!(
                    "mg-pcg {} {}^3 took {} iterations vs cg's {}",
                    row.precision, row.n, row.iterations, cg_iters
                ));
            }
        }
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("check failed: {f}");
            }
            std::process::exit(1);
        }
        println!("check passed: all MG-PCG rows converged at or below plain-CG iterations");
    }
}
