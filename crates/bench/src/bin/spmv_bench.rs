//! Matrix-free apply kernel benchmark: naive vs planned vs fused vs threaded,
//! and the assembled CSR baseline.
//!
//! Measures the hot `y = A x` path of the workspace — the naive per-neighbour
//! loop against the planned branch-free kernel (`mffv_fv::plan`), the fused
//! apply+dot kernel, the scoped-thread parallel apply, and the assembled
//! sparse Jacobian the matrix-free design avoids (§II-A) — and emits a
//! machine-readable `BENCH_spmv.json` (seconds, cells/s, effective GB/s,
//! speedup vs naive) to seed the repository's performance trajectory.
//!
//! Every row's `seconds` is the best of `--reps` rounds, and the derived
//! cells/s, GB/s and speedup use it; `seconds_median`, `seconds_q1` and
//! `seconds_q3` give the spread of the same rounds (nearest rank), so a
//! change between two reports can be read against the noise of each.
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
//! are not charged.  The `csr` row is charged with its own traffic instead:
//! the matrix (`CsrMatrix::bytes`: values, column indices and row offsets)
//! plus the input read and the output write.  It also records the matrix's
//! `matrix_bytes` and the `assembly_seconds` of one assembly.
//!
//! Every timed kernel checks its own bits: each `planned` and
//! `fused-apply-dot` output, at every `--threads` value, and the `csr` output
//! must equal the naive `apply_spd_naive` output bit for bit, and each
//! `fused-apply-dot` return must equal `xᵀ(A x)` chained here from the naive
//! output in slab order, or the bin exits non-zero without writing the
//! report.

use mffv::prelude::*;
use mffv_bench::{machine_json, time_spread, Flags, Timing};

/// One measured kernel configuration.
struct Row {
    kernel: &'static str,
    precision: &'static str,
    threads: usize,
    time: Timing,
    speedup_vs_naive: f64,
    /// Bytes one apply moves per cell under the kernel's traffic model.
    bytes_per_cell: f64,
    /// `matrix_bytes` and `assembly_seconds` of the assembled `csr` row.
    assembled: Option<(usize, f64)>,
}

impl Row {
    fn json(&self, cells: usize) -> String {
        let cells_per_s = cells as f64 / self.time.best;
        let gb_per_s = cells_per_s * self.bytes_per_cell / 1e9;
        let assembled = self.assembled.map_or(String::new(), |(bytes, seconds)| {
            format!(", \"matrix_bytes\": {bytes}, \"assembly_seconds\": {seconds:.6e}")
        });
        format!(
            "    {{\"kernel\": \"{}\", \"precision\": \"{}\", \"threads\": {}, {}, \
             \"cells_per_s\": {:.4e}, \"gb_per_s\": {:.3}, \
             \"speedup_vs_naive\": {:.3}{assembled}}}",
            self.kernel,
            self.precision,
            self.threads,
            self.time.json(),
            cells_per_s,
            gb_per_s,
            self.speedup_vs_naive
        )
    }
}

/// `aᵀb` in the planned kernels' order, written out here: a `mul_add` chain
/// from +0 over each `SLAB_CELLS` chunk, the chunks' partials added in chunk
/// order with the first as the seed.
fn slab_ordered_dot<T: Scalar>(a: &[T], b: &[T]) -> T {
    let mut total = None;
    for (a, b) in a.chunks(SLAB_CELLS).zip(b.chunks(SLAB_CELLS)) {
        let mut acc = T::ZERO;
        for (x, y) in a.iter().zip(b) {
            acc = x.mul_add(*y, acc);
        }
        total = Some(total.map_or(acc, |t: T| t + acc));
    }
    total.unwrap_or(T::ZERO)
}

/// Time every kernel of one precision into `rows`, and return a message for
/// each kernel whose output differs from the naive oracle's in any bit, or
/// whose returned `xᵀ(A x)` differs from [`slab_ordered_dot`]'s.
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

    let naive = time_spread(reps, || op.apply_spd_naive(&x, &mut y));
    let oracle = bits(&y);
    let dot_oracle = slab_ordered_dot(x.as_slice(), y.as_slice())
        .to_f64()
        .to_bits();
    let row = |kernel, threads, time: Timing| Row {
        kernel,
        precision,
        threads,
        time,
        speedup_vs_naive: naive.best / time.best,
        bytes_per_cell: (APPLY_STREAMS_PER_CELL * std::mem::size_of::<T>()) as f64,
        assembled: None,
    };
    rows.push(row("naive", 1, naive));
    // Poison the output before each kernel, so a kernel that skips a cell
    // cannot pass on a previous kernel's value.  A fused kernel's returned
    // dot product is checked too.
    let mut check = |y: &mut CellField<T>, kernel: &str, threads: usize, dot: Option<T>| {
        if bits(y) != oracle {
            mismatches.push(format!(
                "{kernel} {precision} x{threads} differs from naive"
            ));
        }
        if let Some(dot) = dot.filter(|d| d.to_f64().to_bits() != dot_oracle) {
            mismatches.push(format!(
                "{kernel} {precision} x{threads} returns {dot:?}, the slab-ordered chain {:?}",
                f64::from_bits(dot_oracle)
            ));
        }
        y.fill(T::from_f64(f64::NAN));
    };
    y.fill(T::from_f64(f64::NAN));
    for &t in threads {
        let threaded = op.clone().with_threads(t);
        let planned = time_spread(reps, || threaded.apply_spd(&x, &mut y));
        check(&mut y, "planned", threaded.threads(), None);
        rows.push(row("planned", threaded.threads(), planned));
    }
    for &t in threads {
        let threaded = op.clone().with_threads(t);
        let mut dot = T::ZERO;
        let fused = time_spread(reps, || dot = threaded.apply_dot(&x, &mut y));
        check(&mut y, "fused-apply-dot", threaded.threads(), Some(dot));
        rows.push(row("fused-apply-dot", threaded.threads(), fused));
    }

    // The paper grid's transmissibilities are 0 or 1 and `x` is in
    // sixteenths, so every product and partial sum is exact in either
    // precision: the CSR's own term order cannot move a bit, and its output
    // takes the same bit check as the matrix-free kernels.
    let watch = Stopwatch::start();
    let csr = AssembledOperator::<T>::from_workload(workload);
    let assembly_seconds = watch.elapsed_seconds();
    let matrix_bytes = csr.matrix().bytes();
    let time = time_spread(reps, || csr.apply(&x, &mut y));
    check(&mut y, "csr", 1, None);
    let cells = dims.num_cells();
    let vectors = 2 * cells * std::mem::size_of::<T>();
    rows.push(Row {
        bytes_per_cell: (matrix_bytes + vectors) as f64 / cells as f64,
        assembled: Some((matrix_bytes, assembly_seconds)),
        ..row("csr", 1, time)
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

    let mut rows = Vec::new();
    let mut mismatches = bench_precision::<f32>(&workload, "f32", reps, &threads, &mut rows);
    mismatches.extend(bench_precision::<f64>(
        &workload, "f64", reps, &threads, &mut rows,
    ));

    let mut result_lines = Vec::new();
    for row in &rows {
        println!(
            "  {:>16} {} x{:<2} {:>10.3} ms best, {:.3} ms median ({:.3}-{:.3})  {:>7.2}x vs naive",
            row.kernel,
            row.precision,
            row.threads,
            row.time.best * 1e3,
            row.time.median * 1e3,
            row.time.q1 * 1e3,
            row.time.q3 * 1e3,
            row.speedup_vs_naive
        );
        result_lines.push(row.json(cells));
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
        APPLY_STREAMS_PER_CELL * std::mem::size_of::<f32>(),
        APPLY_STREAMS_PER_CELL * std::mem::size_of::<f64>(),
        result_lines.join(",\n"),
    );
    std::fs::write(&out, &json).expect("write JSON report");
    println!("wrote {out}");
}
