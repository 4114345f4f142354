//! Matrix-free apply kernel benchmark: naive vs planned vs fused vs threaded.
//!
//! Measures the hot `y = A x` path of the workspace — the naive per-neighbour
//! loop against the planned branch-free kernel (`mffv_fv::plan`), the fused
//! apply+dot kernel, and the scoped-thread parallel apply — and emits a
//! machine-readable `BENCH_spmv.json` (seconds, cells/s, effective GB/s,
//! speedup vs naive) to seed the repository's performance trajectory.
//!
//! ```text
//! cargo run --release -p mffv-bench --bin spmv_bench -- \
//!     --nx 128 --ny 128 --nz 128 --reps 5 --threads 1,2 --out BENCH_spmv.json
//! ```
//!
//! The effective-bandwidth model charges each apply with the streams the
//! kernel actually touches per cell (`APPLY_STREAMS_PER_CELL`): the three
//! face arrays, the input read and the output write (`5 · sizeof(T)` bytes
//! per cell); stencil reuse of `x` and of the faces, and the Dirichlet mask
//! are not charged.
//!
//! Every timed kernel checks its own bits: each `planned` output, at every
//! `--threads` value, and the `fused-apply-dot` output must equal the naive
//! `apply_spd_naive` output bit for bit, or the bin exits non-zero without
//! writing the report.

use mffv::prelude::*;
use mffv_bench::{machine_json, Flags};

/// One measured kernel configuration.
struct Row {
    kernel: &'static str,
    precision: &'static str,
    threads: usize,
    seconds: f64,
    speedup_vs_naive: f64,
}

impl Row {
    fn json(&self, cells: usize, bytes_per_cell: usize) -> String {
        let cells_per_s = cells as f64 / self.seconds;
        let gb_per_s = cells_per_s * bytes_per_cell as f64 / 1e9;
        format!(
            "    {{\"kernel\": \"{}\", \"precision\": \"{}\", \"threads\": {}, \
             \"seconds\": {:.6e}, \"cells_per_s\": {:.4e}, \"gb_per_s\": {:.3}, \
             \"speedup_vs_naive\": {:.3}}}",
            self.kernel,
            self.precision,
            self.threads,
            self.seconds,
            cells_per_s,
            gb_per_s,
            self.speedup_vs_naive
        )
    }
}

/// Time every kernel of one precision into `rows`, and return a message for
/// each kernel whose output differs from the naive oracle's in any bit.
fn bench_precision<T: Scalar>(
    workload: &Workload,
    precision: &'static str,
    reps: usize,
    threads: &[usize],
    rows: &mut Vec<Row>,
) -> Vec<String> {
    let dims = workload.dims();
    let op = MatrixFreeOperator::<T>::from_workload(workload);
    let x = CellField::<T>::from_fn(dims, |c| {
        T::from_f64(((c.x * 13 + c.y * 7 + c.z * 3) % 32) as f64 * 0.0625 - 1.0)
    });
    let mut y = CellField::<T>::zeros(dims);
    let mut mismatches = Vec::new();
    let bits = |f: &CellField<T>| -> Vec<u64> {
        f.as_slice().iter().map(|v| v.to_f64().to_bits()).collect()
    };

    let naive = time_best_of(reps, || op.apply_spd_naive(&x, &mut y));
    let oracle = bits(&y);
    rows.push(Row {
        kernel: "naive",
        precision,
        threads: 1,
        seconds: naive,
        speedup_vs_naive: 1.0,
    });
    // Poison the output before each kernel, so a kernel that skips a cell
    // cannot pass on a previous kernel's value.
    let mut check = |y: &mut CellField<T>, kernel: &str, threads: usize| {
        if bits(y) != oracle {
            mismatches.push(format!(
                "{kernel} {precision} x{threads} differs from naive"
            ));
        }
        y.fill(T::from_f64(f64::NAN));
    };
    y.fill(T::from_f64(f64::NAN));
    for &t in threads {
        let threaded = op.clone().with_threads(t);
        let planned = time_best_of(reps, || threaded.apply_spd(&x, &mut y));
        check(&mut y, "planned", t);
        rows.push(Row {
            kernel: "planned",
            precision,
            threads: t,
            seconds: planned,
            speedup_vs_naive: naive / planned,
        });
    }
    let fused = time_best_of(reps, || {
        std::hint::black_box(op.apply_dot(&x, &mut y));
    });
    check(&mut y, "fused-apply-dot", 1);
    rows.push(Row {
        kernel: "fused-apply-dot",
        precision,
        threads: 1,
        seconds: fused,
        speedup_vs_naive: naive / fused,
    });
    mismatches
}

fn main() {
    let mut flags = Flags::new(std::env::args().skip(1), &[]);
    let nx = flags.value("--nx", 128);
    let ny = flags.value("--ny", 128);
    let nz = flags.value("--nz", 128);
    let reps = flags.value("--reps", 5).max(1);
    let threads = flags.list("--threads", vec![1, 2]);
    let out = flags.value("--out", "BENCH_spmv.json".to_string());
    flags.finish();
    let dims = Dims::new(nx, ny, nz);
    let workload = WorkloadSpec::paper_grid(nx, ny, nz).build();
    let cells = dims.num_cells();
    let stats = MatrixFreeOperator::<f32>::from_workload(&workload).plan_stats();
    println!(
        "spmv bench on {dims} ({cells} cells): plan covers {:.1}% of cells in {} runs / {} slabs",
        100.0 * stats.run_fraction(),
        stats.num_runs,
        stats.num_slabs
    );

    let mut rows32 = Vec::new();
    let mut mismatches = bench_precision::<f32>(&workload, "f32", reps, &threads, &mut rows32);
    let mut rows64 = Vec::new();
    mismatches.extend(bench_precision::<f64>(
        &workload,
        "f64",
        reps,
        &threads,
        &mut rows64,
    ));

    let bytes32 = APPLY_STREAMS_PER_CELL * std::mem::size_of::<f32>();
    let bytes64 = APPLY_STREAMS_PER_CELL * std::mem::size_of::<f64>();
    let mut result_lines = Vec::new();
    for (rows, bytes_per_cell) in [(&rows32, bytes32), (&rows64, bytes64)] {
        for row in rows.iter() {
            println!(
                "  {:>16} {} x{:<2} {:>10.3} ms  {:>7.2}x vs naive",
                row.kernel,
                row.precision,
                row.threads,
                row.seconds * 1e3,
                row.speedup_vs_naive
            );
            result_lines.push(row.json(cells, bytes_per_cell));
        }
    }

    if !mismatches.is_empty() {
        for m in &mismatches {
            eprintln!("bit mismatch: {m}");
        }
        eprintln!("not writing {out}");
        std::process::exit(1);
    }

    let json = format!(
        "{{\n  \"bench\": \"spmv\",\n  \"machine\": {},\n  \"dims\": {{\"nx\": {nx}, \"ny\": {ny}, \"nz\": {nz}}},\n  \
         \"cells\": {cells},\n  \"reps\": {reps},\n  \"slab_cells\": {},\n  \"plan\": {{\"run_cells\": {}, \
         \"general_cells\": {}, \"dirichlet_cells\": {}, \"num_runs\": {}, \"num_slabs\": {}, \
         \"run_fraction\": {:.4}}},\n  \"traffic_model_bytes_per_cell\": {{\"f32\": {}, \"f64\": {}}},\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        machine_json(),
        SLAB_CELLS,
        stats.run_cells,
        stats.general_cells,
        stats.dirichlet_cells,
        stats.num_runs,
        stats.num_slabs,
        stats.run_fraction(),
        bytes32,
        bytes64,
        result_lines.join(",\n"),
    );
    std::fs::write(&out, &json).expect("write JSON report");
    println!("wrote {out}");
}
