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
//! kernel actually touches per cell: the six-coefficient row, the input read
//! and the output write (`8 · sizeof(T)` bytes per cell); stencil reuse of
//! `x` and the Dirichlet mask are not charged.

use mffv::prelude::*;
use mffv_bench::machine_json;

struct Args {
    nx: usize,
    ny: usize,
    nz: usize,
    reps: usize,
    threads: Vec<usize>,
    out: String,
}

impl Args {
    fn parse() -> Args {
        let mut args = Args {
            nx: 128,
            ny: 128,
            nz: 128,
            reps: 5,
            threads: vec![1, 2],
            out: "BENCH_spmv.json".to_string(),
        };
        let mut iter = std::env::args().skip(1);
        while let Some(flag) = iter.next() {
            let mut value = || {
                iter.next()
                    .unwrap_or_else(|| panic!("missing value for {flag}"))
            };
            match flag.as_str() {
                "--nx" => args.nx = value().parse().expect("--nx"),
                "--ny" => args.ny = value().parse().expect("--ny"),
                "--nz" => args.nz = value().parse().expect("--nz"),
                "--reps" => args.reps = value().parse::<usize>().expect("--reps").max(1),
                "--threads" => {
                    args.threads = value()
                        .split(',')
                        .map(|t| t.trim().parse().expect("--threads"))
                        .collect()
                }
                "--out" => args.out = value(),
                other => panic!("unknown flag {other} (use --nx --ny --nz --reps --threads --out)"),
            }
        }
        args
    }
}

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

fn bench_precision<T: Scalar>(
    workload: &Workload,
    precision: &'static str,
    reps: usize,
    threads: &[usize],
    rows: &mut Vec<Row>,
) {
    let dims = workload.dims();
    let op = MatrixFreeOperator::<T>::from_workload(workload);
    let x = CellField::<T>::from_fn(dims, |c| {
        T::from_f64(((c.x * 13 + c.y * 7 + c.z * 3) % 32) as f64 * 0.0625 - 1.0)
    });
    let mut y = CellField::<T>::zeros(dims);

    let naive = time_best_of(reps, || op.apply_spd_naive(&x, &mut y));
    rows.push(Row {
        kernel: "naive",
        precision,
        threads: 1,
        seconds: naive,
        speedup_vs_naive: 1.0,
    });
    for &t in threads {
        let threaded = op.clone().with_threads(t);
        let planned = time_best_of(reps, || threaded.apply_spd(&x, &mut y));
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
    rows.push(Row {
        kernel: "fused-apply-dot",
        precision,
        threads: 1,
        seconds: fused,
        speedup_vs_naive: naive / fused,
    });
}

fn main() {
    let args = Args::parse();
    let dims = Dims::new(args.nx, args.ny, args.nz);
    let workload = WorkloadSpec::paper_grid(args.nx, args.ny, args.nz).build();
    let cells = dims.num_cells();
    let stats = MatrixFreeOperator::<f32>::from_workload(&workload).plan_stats();
    println!(
        "spmv bench on {dims} ({cells} cells): plan covers {:.1}% of cells in {} runs / {} slabs",
        100.0 * stats.run_fraction(),
        stats.num_runs,
        stats.num_slabs
    );

    let mut rows32 = Vec::new();
    bench_precision::<f32>(&workload, "f32", args.reps, &args.threads, &mut rows32);
    let mut rows64 = Vec::new();
    bench_precision::<f64>(&workload, "f64", args.reps, &args.threads, &mut rows64);

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

    let json = format!(
        "{{\n  \"bench\": \"spmv\",\n  \"machine\": {},\n  \"dims\": {{\"nx\": {}, \"ny\": {}, \"nz\": {}}},\n  \
         \"cells\": {},\n  \"reps\": {},\n  \"slab_cells\": {},\n  \"plan\": {{\"run_cells\": {}, \
         \"general_cells\": {}, \"dirichlet_cells\": {}, \"num_runs\": {}, \"num_slabs\": {}, \
         \"run_fraction\": {:.4}}},\n  \"traffic_model_bytes_per_cell\": {{\"f32\": {}, \"f64\": {}}},\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        machine_json(),
        args.nx,
        args.ny,
        args.nz,
        cells,
        args.reps,
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
    std::fs::write(&args.out, &json).expect("write JSON report");
    println!("wrote {}", args.out);
}
