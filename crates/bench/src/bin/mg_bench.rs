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
//! Every row's `seconds` is the best of `--reps` rounds, and
//! `speedup_vs_cg` uses it; `seconds_median`, `seconds_q1` and `seconds_q3`
//! give the spread of the same rounds (nearest rank).
//!
//! Each size and precision also gets one `vcycle` row: the time of one
//! V-cycle on the Newton right-hand side, and `fine_applies`, that time over
//! the time of one fine-level operator apply (both per call, from rounds of
//! [`CALLS_PER_ROUND`] calls).  A V(2,2) cycle's work model is about five
//! fine applies.
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
use mffv_bench::{machine_json, time_spread, Flags, Timing};
use mffv_fv::{newton_rhs, residual};
use mffv_solver::newton::{solve_pressure, NewtonScratch};

/// Calls in each timed round of a `vcycle` row, so that a small grid's round
/// is more than a few timer ticks.
const CALLS_PER_ROUND: usize = 10;

/// One measured solve configuration.
struct Row {
    method: &'static str,
    precision: &'static str,
    n: usize,
    cells: usize,
    iterations: usize,
    converged: bool,
    time: Timing,
    speedup_vs_cg: f64,
}

impl Row {
    fn json(&self) -> String {
        format!(
            "    {{\"method\": \"{}\", \"precision\": \"{}\", \"n\": {}, \"cells\": {}, \
             \"iterations\": {}, \"converged\": {}, {}, \"speedup_vs_cg\": {:.3}}}",
            self.method,
            self.precision,
            self.n,
            self.cells,
            self.iterations,
            self.converged,
            self.time.json(),
            self.speedup_vs_cg
        )
    }
}

/// One V-cycle's cost, alone and in fine-level applies.
struct CycleRow {
    precision: &'static str,
    n: usize,
    cells: usize,
    levels: usize,
    time: Timing,
    fine_applies: f64,
}

impl CycleRow {
    fn json(&self) -> String {
        format!(
            "    {{\"method\": \"vcycle\", \"precision\": \"{}\", \"n\": {}, \"cells\": {}, \
             \"levels\": {}, {}, \"fine_applies\": {:.3}}}",
            self.precision,
            self.n,
            self.cells,
            self.levels,
            self.time.json(),
            self.fine_applies
        )
    }
}

/// [`time_spread`] of rounds of [`CALLS_PER_ROUND`] calls of `f`, per call.
fn per_call(reps: usize, mut f: impl FnMut()) -> Timing {
    let t = time_spread(reps, || {
        for _ in 0..CALLS_PER_ROUND {
            f();
        }
    });
    let calls = CALLS_PER_ROUND as f64;
    Timing {
        best: t.best / calls,
        q1: t.q1 / calls,
        median: t.median / calls,
        q3: t.q3 / calls,
    }
}

fn bench_precision<T: Scalar>(
    workload: &Workload,
    n: usize,
    precision: &'static str,
    reps: usize,
    rows: &mut Vec<Row>,
    cycles: &mut Vec<CycleRow>,
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
        let time = time_spread(reps, || {
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
            cg_seconds = time.best;
        }
        rows.push(Row {
            method,
            precision,
            n,
            cells,
            iterations: newton.history().iterations,
            converged: newton.history().converged,
            time,
            speedup_vs_cg: cg_seconds / time.best,
        });
    }

    // One V-cycle against one fine apply, on the Newton right-hand side.
    let mut r = residual(
        &workload.initial_pressure(),
        operator.coefficients(),
        workload.dirichlet(),
    );
    newton_rhs(&mut r, workload.dirichlet());
    let mut z = CellField::zeros(workload.dims());
    let time = per_call(reps, || mg.apply(&r, &mut z));
    let apply = per_call(reps, || operator.apply(&r, &mut z));
    cycles.push(CycleRow {
        precision,
        n,
        cells,
        levels: mg.num_levels(),
        time,
        fine_applies: time.best / apply.best,
    });
}

fn main() {
    let mut flags = Flags::new(std::env::args().skip(1), &["--check"]);
    let sizes = flags.list("--sizes", vec![32, 64, 128]);
    let reps = flags.value("--reps", 3).max(1);
    let out = flags.value("--out", "BENCH_mg.json".to_string());
    let check = flags.switch("--check");
    flags.finish();
    let mut rows: Vec<Row> = Vec::new();
    let mut cycles: Vec<CycleRow> = Vec::new();
    for &n in &sizes {
        let workload = WorkloadSpec::paper_grid(n, n, n).build();
        let levels =
            MultigridVcycle::<f64>::from_workload(&workload, 1, MgConfig::default()).num_levels();
        println!(
            "mg bench on {n}^3 ({} cells, {} MG levels)",
            workload.dims().num_cells(),
            levels
        );
        bench_precision::<f32>(&workload, n, "f32", reps, &mut rows, &mut cycles);
        bench_precision::<f64>(&workload, n, "f64", reps, &mut rows, &mut cycles);
    }

    for row in &rows {
        println!(
            "  {:>10} {} {:>4}^3  {:>6} iters  {:>10.3} ms (median {:.3})  {:>6.2}x vs cg",
            row.method,
            row.precision,
            row.n,
            row.iterations,
            row.time.best * 1e3,
            row.time.median * 1e3,
            row.speedup_vs_cg
        );
    }
    for row in &cycles {
        println!(
            "  {:>10} {} {:>4}^3  {:>6} levels {:>9.3} ms (median {:.3})  {:>6.2} fine applies",
            "vcycle",
            row.precision,
            row.n,
            row.levels,
            row.time.best * 1e3,
            row.time.median * 1e3,
            row.fine_applies
        );
    }

    let result_lines: Vec<String> = rows
        .iter()
        .map(Row::json)
        .chain(cycles.iter().map(CycleRow::json))
        .collect();
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
