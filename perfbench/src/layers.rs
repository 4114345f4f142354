//! Per-layer probes that time public calls into `mesh`, `fv` and `fv::mg`
//! on a workload's own grid, plus the computed traffic model that turns
//! kernel times into bandwidth.

use crate::machine::Triad;
use crate::metrics::{median, ratio, MetricSet};
use mffv::fv::flux::FLOPS_PER_NEIGHBOR;
use mffv::fv::APPLY_STREAMS_PER_CELL;
use mffv::fv::{det_dot, LinearOperator, MatrixFreeOperator, MgConfig, MultigridVcycle};
use mffv::mesh::{CellField, Workload, WorkloadSpec};
use mffv::solver::JacobiPreconditioner;
use mffv::telemetry::Span;
use mffv::telemetry::Stopwatch;
use std::hint::black_box;

/// Wall time each repeated kernel probe keeps calling for.
const PROBE_SECONDS: f64 = 0.15;
const F64_BYTES: usize = std::mem::size_of::<f64>();
/// Streams of the fused CG update: reads `d`, `A d`, `x`, `r`; writes `x`, `r`.
pub const CG_UPDATE_STREAMS_PER_CELL: usize = 6;

/// Bytes one Krylov iteration keeps live per cell: six coefficients plus
/// five vectors (`x`, `r`, `d`, `A d`, `z`), and one more for a diagonal
/// shift.  The working set the benchmark reports is this times the cells.
pub fn working_set_bytes(cells: usize, shifted: bool) -> u64 {
    ((6 + 5 + usize::from(shifted)) * F64_BYTES * cells) as u64
}

/// Median seconds per call of `f`, called at least `min_reps` times and
/// for at least [`PROBE_SECONDS`] after one warm-up call.
pub fn time_calls(min_reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut samples = Vec::new();
    let started = Stopwatch::start();
    while samples.len() < min_reps || started.elapsed_seconds() < PROBE_SECONDS {
        let call = Stopwatch::start();
        f();
        samples.push(call.elapsed_seconds());
        if samples.len() >= 2000 {
            break;
        }
    }
    median(&samples)
}

fn pseudo_random_field(workload: &Workload, salt: u64) -> CellField<f64> {
    let mut state = salt;
    CellField::from_fn(workload.dims(), |_| {
        state = crate::splitmix64(state);
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    })
}

/// Time the `mesh`, `fv` and `fv::mg` layers on `spec`'s grid and record
/// every `mesh.*`, `fv.*` and `mg.*` metric.  The `fv` kernels run on
/// `threads` threads and on one; the operator build and the multigrid run
/// on `solve_threads`, the thread count the workload's solves use.  `shift`
/// is the transient diagonal shift, when the workload has one.  Returns the
/// seconds of one `apply_dot` plus one `cg_update` at `solve_threads`: the
/// part of a Krylov iteration the two fused kernels explain.
pub fn probe(
    spec: &WorkloadSpec,
    threads: usize,
    solve_threads: usize,
    shift: Option<&CellField<f64>>,
    triad: &Triad,
    out: &mut MetricSet,
) -> f64 {
    let materialise = time_calls(2, || {
        black_box(Workload::try_from_spec(spec).expect("benchmark specs are valid"));
    });
    let workload = Workload::try_from_spec(spec).expect("benchmark specs are valid");
    let cells = workload.dims().num_cells();
    let build_operator = || {
        let mut op =
            MatrixFreeOperator::<f64>::from_workload(&workload).with_threads(solve_threads);
        if let Some(diag) = shift {
            op.set_diagonal_shift(diag);
        }
        op
    };
    let build = time_calls(2, || {
        black_box(build_operator());
    });
    let op = build_operator().with_threads(threads);
    let op_1t = op.clone().with_threads(1);

    let d = pseudo_random_field(&workload, 1);
    let mut x = pseudo_random_field(&workload, 2);
    let mut r = pseudo_random_field(&workload, 3);
    let mut ad = CellField::zeros(workload.dims());
    let mut z = CellField::zeros(workload.dims());
    op.apply(&d, &mut ad);

    let apply = time_calls(5, || op.apply(&d, &mut ad));
    let apply_dot = time_calls(5, || {
        black_box(op.apply_dot(&d, &mut ad));
    });
    let apply_dot_1t = time_calls(5, || {
        black_box(op_1t.apply_dot(&d, &mut ad));
    });
    // Alternate the step sign so repeated updates keep x and r bounded.
    let mut alpha = 1e-3;
    let mut cg_update_with = |op: &MatrixFreeOperator<f64>| {
        time_calls(5, || {
            alpha = -alpha;
            black_box(op.cg_update(alpha, &d, &ad, &mut x, &mut r));
        })
    };
    let cg_update = cg_update_with(&op);
    let cg_update_1t = cg_update_with(&op_1t);
    let det = time_calls(5, || {
        black_box(det_dot(&d, &ad));
    });
    let jacobi = JacobiPreconditioner::from_coefficients(op.coefficients(), workload.dirichlet());
    let jacobi_apply = time_calls(5, || jacobi.apply(&r, &mut z));

    let build_mg = || {
        let mut mg =
            MultigridVcycle::<f64>::from_workload(&workload, solve_threads, MgConfig::default());
        if let Some(diag) = shift {
            mg.set_diagonal_shift(diag);
        }
        mg
    };
    let mg_build = time_calls(2, || {
        black_box(build_mg());
    });
    let mg = build_mg();
    let vcycle = time_calls(3, || mg.apply_cycle(&r, &mut z, &Span::null()));

    // Computed traffic: the apply charges APPLY_STREAMS_PER_CELL streams
    // (plus the diagonal when shifted); the fused dot is free while hot.
    let apply_bytes = (APPLY_STREAMS_PER_CELL + usize::from(shift.is_some())) * F64_BYTES * cells;
    let update_bytes = CG_UPDATE_STREAMS_PER_CELL * F64_BYTES * cells;
    let apply_dot_flops = (6 * FLOPS_PER_NEIGHBOR + 2) * cells;
    let apply_dot_gbps = ratio(apply_bytes as f64, apply_dot) / 1e9;
    let cg_update_gbps = ratio(update_bytes as f64, cg_update) / 1e9;

    out.push("mesh.materialise_ms", materialise * 1e3, "ms");
    out.push("fv.build_ms", build * 1e3, "ms");
    out.push("fv.apply_ms", apply * 1e3, "ms");
    out.push("fv.apply_dot_ms", apply_dot * 1e3, "ms");
    out.push("fv.cg_update_ms", cg_update * 1e3, "ms");
    out.push("fv.det_dot_ms", det * 1e3, "ms");
    out.push("fv.apply_dot_1t_ms", apply_dot_1t * 1e3, "ms");
    out.push("fv.cg_update_1t_ms", cg_update_1t * 1e3, "ms");
    out.push("fv.apply_dot_gbps", apply_dot_gbps, "GB/s");
    out.push("fv.cg_update_gbps", cg_update_gbps, "GB/s");
    out.push(
        "fv.apply_dot_stream_frac",
        ratio(apply_dot_gbps, triad.gbps),
        "ratio",
    );
    out.push(
        "fv.cg_update_stream_frac",
        ratio(cg_update_gbps, triad.gbps),
        "ratio",
    );
    out.push(
        "fv.apply_dot_gflops",
        ratio(apply_dot_flops as f64, apply_dot) / 1e9,
        "GFLOP/s",
    );
    out.push("fv.jacobi_apply_ms", jacobi_apply * 1e3, "ms");
    out.push("mg.build_ms", mg_build * 1e3, "ms");
    out.push("mg.vcycle_ms", vcycle * 1e3, "ms");
    out.push("mg.levels", mg.num_levels() as f64, "count");
    if solve_threads == 1 {
        apply_dot_1t + cg_update_1t
    } else {
        apply_dot + cg_update
    }
}
