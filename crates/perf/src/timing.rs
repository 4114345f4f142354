//! Analytic device-time estimates at the paper's full problem sizes.
//!
//! The executed simulator runs scaled-down grids; the paper's Tables II–IV are
//! regenerated at full logical size with this analytic model, built from the same
//! ingredients the paper's own analysis uses: the Table-V per-cell work counts, the
//! CS-2 ceilings (per-PE FLOP rate and bandwidths), a per-hop fabric latency for the
//! all-reduce chains, and a bandwidth-bound model for the GPUs.
//!
//! The absolute numbers are *modelled*, not measured — `EXPERIMENTS.md` records them
//! against the paper's measurements; the claims that must hold are the shapes: the
//! CS-2 is orders of magnitude faster than the GPUs, Algorithm-2 weak scaling is
//! flat across the fabric, Algorithm-1 time grows slowly with fabric extent because
//! of the reduction path, and data movement is a small fraction of device time.

use crate::opcount::CellOpCounts;
use mffv_fabric::timing::WseSpec;
use mffv_gpu_ref::device_model::{GpuSpec, GpuTimeModel};
use mffv_mesh::Dims;

/// Wall time in seconds of every round of `runs`, after one untimed warmup
/// each — the measurement loop of the kernel report binaries.  Each of the
/// `reps` rounds times every run once, in order, so host noise lands on
/// every run alike and round `i` of one run pairs with round `i` of another.
pub fn time_rounds<const N: usize>(reps: usize, mut runs: [&mut dyn FnMut(); N]) -> [Vec<f64>; N] {
    for run in runs.iter_mut() {
        run();
    }
    let mut rounds: [Vec<f64>; N] = std::array::from_fn(|_| Vec::with_capacity(reps));
    for _ in 0..reps {
        for (run, seconds) in runs.iter_mut().zip(rounds.iter_mut()) {
            // mffv-perf is the blessed wall-clock crate (AUDIT.md rule 5); the
            // clippy mirror still needs a site-level allow.
            #[allow(clippy::disallowed_methods)]
            let start = std::time::Instant::now();
            run();
            seconds.push(start.elapsed().as_secs_f64());
        }
    }
    rounds
}

/// Nearest-rank percentile of an **ascending-sorted** sample set; `q` in
/// `[0, 1]`.  Empty samples yield `0.0`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// Summary statistics over a set of measured latencies (seconds) — the
/// aggregate the batch engine's `BatchReport` prints alongside throughput.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencyStats {
    /// Number of samples summarised.
    pub samples: usize,
    /// Smallest sample, s.
    pub min: f64,
    /// Largest sample, s.
    pub max: f64,
    /// Arithmetic mean, s.
    pub mean: f64,
    /// Median (nearest-rank 50th percentile), s.
    pub p50: f64,
    /// Nearest-rank 95th percentile, s.
    pub p95: f64,
    /// Nearest-rank 99th percentile, s.
    pub p99: f64,
    /// Nearest-rank 99.9th percentile, s.
    pub p999: f64,
}

impl LatencyStats {
    /// Summarise `samples` (any order; an empty set yields all-zero stats).
    pub fn from_samples(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return Self {
                samples: 0,
                min: 0.0,
                max: 0.0,
                mean: 0.0,
                p50: 0.0,
                p95: 0.0,
                p99: 0.0,
                p999: 0.0,
            };
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Self {
            samples: sorted.len(),
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            p50: percentile(&sorted, 0.50),
            p95: percentile(&sorted, 0.95),
            p99: percentile(&sorted, 0.99),
            p999: percentile(&sorted, 0.999),
        }
    }
}

/// One row of the weak-scaling table (Table III).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScalingRow {
    /// Grid extents.
    pub dims: Dims,
    /// Number of CG steps to convergence (taken from the paper's reported counts or
    /// from an executed run).
    pub iterations: usize,
    /// Modelled CS-2 time for Algorithm 2 only (the matrix-free operator sweep), s.
    pub cs2_alg2_time: f64,
    /// Modelled CS-2 throughput for Algorithm 2, cells/s.
    pub cs2_alg2_throughput: f64,
    /// Modelled CS-2 time for the full Algorithm 1, s.
    pub cs2_alg1_time: f64,
    /// Modelled CS-2 throughput for Algorithm 1, cells/s.
    pub cs2_alg1_throughput: f64,
    /// Modelled A100 time for Algorithm 2, s.
    pub a100_alg2_time: f64,
    /// Modelled A100 time for Algorithm 1, s.
    pub a100_alg1_time: f64,
}

/// The analytic timing model.
#[derive(Clone, Debug)]
pub struct AnalyticTiming {
    counts: CellOpCounts,
    /// Efficiency factor applied to the CS-2 compute ceiling (the paper achieves
    /// 68 % of peak).
    pub cs2_efficiency: f64,
    /// Cost of one hop of the chained all-reduce *including* the per-PE
    /// receive-add-forward processing (s).  The bare wire latency is the
    /// [`WseSpec::hop_latency`]; the chained reduction additionally activates a task
    /// and performs an addition at every PE it passes through, which is what makes
    /// Algorithm 1 scale with the fabric extent in Table III.
    pub reduction_hop_cost: f64,
}

impl AnalyticTiming {
    /// Model with the paper's Table-V counts and achieved efficiency.
    pub fn paper() -> Self {
        Self {
            counts: CellOpCounts::paper_table5(),
            cs2_efficiency: 0.68,
            reduction_hop_cost: 30.0e-9,
        }
    }

    /// The per-cell work model in use.
    pub fn counts(&self) -> &CellOpCounts {
        &self.counts
    }

    /// Modelled CS-2 time for `iterations` sweeps of Algorithm 2 over a grid whose
    /// X-Y extents occupy an equally sized fabric region.
    ///
    /// Every PE processes its own `nz`-deep column concurrently, so the time depends
    /// only on the column depth — which is exactly the flat scaling Table III shows
    /// for Algorithm 2.
    pub fn cs2_alg2_time(&self, dims: Dims, iterations: usize) -> f64 {
        let spec = WseSpec::cs2_region(dims.nx, dims.ny);
        let per_pe_flops = self.counts.alg2_flops_per_cell() as f64 * dims.nz as f64;
        let per_pe_mem = self.counts.mem_bytes_per_cell() as f64 * dims.nz as f64 * 84.0 / 96.0;
        let per_iteration = (per_pe_flops / (spec.per_pe_flops() * self.cs2_efficiency))
            .max(per_pe_mem / spec.per_pe_memory_bandwidth());
        iterations as f64 * per_iteration + spec.launch_overhead
    }

    /// Modelled CS-2 time for `iterations` of the full Algorithm 1: Algorithm 2 plus
    /// the CG vector work plus two whole-fabric all-reduces per iteration whose
    /// latency grows with the fabric extents.
    pub fn cs2_alg1_time(&self, dims: Dims, iterations: usize) -> f64 {
        let spec = WseSpec::cs2_region(dims.nx, dims.ny);
        let per_pe_flops = self.counts.flops_per_cell() as f64 * dims.nz as f64;
        let per_pe_mem = self.counts.mem_bytes_per_cell() as f64 * dims.nz as f64;
        let compute = (per_pe_flops / (spec.per_pe_flops() * self.cs2_efficiency))
            .max(per_pe_mem / spec.per_pe_memory_bandwidth());
        // Two all-reduces per iteration, each a reduction plus a broadcast spanning
        // the fabric: 2 × 2 × ((w−1) + (h−1)) dependent hops, each paying the
        // receive-add-forward cost.
        let hops = 2 * 2 * ((dims.nx - 1) + (dims.ny - 1));
        let reduce_latency = hops as f64 * self.reduction_hop_cost;
        iterations as f64 * (compute + reduce_latency) + spec.launch_overhead
    }

    /// Modelled GPU time for `iterations` of Algorithm 2 (one matrix-free sweep per
    /// iteration, memory-bound).
    pub fn gpu_alg2_time(&self, spec: GpuSpec, dims: Dims, iterations: usize) -> f64 {
        // The operator sweep accounts for the Alg-2 share of the DRAM traffic.
        GpuTimeModel::new(spec).cg_time(dims, iterations) * 84.0 / 96.0
    }

    /// Modelled GPU time for `iterations` of the full Algorithm 1.
    pub fn gpu_alg1_time(&self, spec: GpuSpec, dims: Dims, iterations: usize) -> f64 {
        GpuTimeModel::new(spec).cg_time(dims, iterations)
    }

    /// Modelled CS-2 data-movement time over a whole Algorithm-1 run (the Table-IV
    /// experiment): halo exchange traffic at the fabric bandwidth plus the
    /// all-reduce latency, with all floating-point work removed.
    pub fn cs2_data_movement_time(&self, dims: Dims, iterations: usize) -> f64 {
        let spec = WseSpec::cs2_region(dims.nx, dims.ny);
        // Each iteration a PE sends its nz-deep column to four neighbours and
        // receives four columns: 8 · nz wavelets of 4 B across its links.
        let fabric_bytes = 8.0 * dims.nz as f64 * 4.0;
        let exchange = fabric_bytes / spec.per_pe_fabric_bandwidth();
        let hops = 2 * 2 * ((dims.nx - 1) + (dims.ny - 1));
        let reduce_latency = hops as f64 * spec.hop_latency;
        iterations as f64 * (exchange + reduce_latency) + spec.launch_overhead
    }

    /// The Table-IV style split at a grid size: (data movement, computation, total),
    /// assuming perfect overlap (total = max of the two plus the non-overlapped
    /// remainder, which is how the paper presents the 6.27 % / 93.73 % split).
    pub fn cs2_time_split(&self, dims: Dims, iterations: usize) -> (f64, f64, f64) {
        let data_movement = self.cs2_data_movement_time(dims, iterations);
        let total = self.cs2_alg1_time(dims, iterations);
        let computation = total - data_movement.min(total);
        (data_movement, computation, total)
    }

    /// Build a full Table-III row.
    pub fn scaling_row(&self, dims: Dims, iterations: usize) -> ScalingRow {
        let cs2_alg2_time = self.cs2_alg2_time(dims, iterations);
        let cs2_alg1_time = self.cs2_alg1_time(dims, iterations);
        let a100_alg2_time = self.gpu_alg2_time(GpuSpec::a100(), dims, iterations);
        let a100_alg1_time = self.gpu_alg1_time(GpuSpec::a100(), dims, iterations);
        let work = dims.num_cells() as f64 * iterations as f64;
        ScalingRow {
            dims,
            iterations,
            cs2_alg2_time,
            cs2_alg2_throughput: work / cs2_alg2_time,
            cs2_alg1_time,
            cs2_alg1_throughput: work / cs2_alg1_time,
            a100_alg2_time,
            a100_alg1_time,
        }
    }

    /// Modelled speedup of the CS-2 over a GPU for the full Algorithm 1.
    pub fn speedup_over_gpu(&self, spec: GpuSpec, dims: Dims, iterations: usize) -> f64 {
        self.gpu_alg1_time(spec, dims, iterations) / self.cs2_alg1_time(dims, iterations)
    }

    /// Modelled achieved FLOP/s of the CS-2 Algorithm-1 run (the Figure-6 dot).
    pub fn cs2_achieved_flops(&self, dims: Dims, iterations: usize) -> f64 {
        let flops =
            self.counts.flops_per_cell() as f64 * dims.num_cells() as f64 * iterations as f64;
        flops / self.cs2_alg1_time(dims, iterations)
    }

    /// Modelled achieved FLOP/s of the Algorithm-2 sweep alone — the matrix-free
    /// kernel rate that corresponds to the paper's headline 1.217 PFLOP/s figure
    /// (the reduction latency of the full Algorithm 1 is excluded, as it performs
    /// almost no floating-point work).
    pub fn cs2_alg2_achieved_flops(&self, dims: Dims, iterations: usize) -> f64 {
        let flops =
            self.counts.alg2_flops_per_cell() as f64 * dims.num_cells() as f64 * iterations as f64;
        flops / self.cs2_alg2_time(dims, iterations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_grid() -> Dims {
        Dims::new(750, 994, 922)
    }

    #[test]
    fn time_rounds_warms_each_run_up_once_then_takes_turns() {
        let log = std::cell::RefCell::new(String::new());
        let mut run_a = || log.borrow_mut().push('a');
        let mut run_b = || log.borrow_mut().push('b');
        let [a, b] = time_rounds(3, [&mut run_a, &mut run_b]);
        assert_eq!(log.into_inner(), "abababab");
        assert_eq!((a.len(), b.len()), (3, 3));
        assert!(a.iter().chain(&b).all(|&s| s >= 0.0));
    }

    #[test]
    fn latency_stats_summarise_unsorted_samples() {
        let stats = LatencyStats::from_samples(&[0.3, 0.1, 0.2, 0.4, 1.0]);
        assert_eq!(stats.samples, 5);
        assert_eq!(stats.min, 0.1);
        assert_eq!(stats.max, 1.0);
        assert!((stats.mean - 0.4).abs() < 1e-12);
        assert_eq!(stats.p50, 0.3);
        assert_eq!(stats.p95, 1.0);
        assert_eq!(stats.p99, 1.0);
        assert_eq!(stats.p999, 1.0);
    }

    #[test]
    fn latency_stats_handle_empty_and_single_samples() {
        let empty = LatencyStats::from_samples(&[]);
        assert_eq!(empty.samples, 0);
        assert_eq!(empty.p95, 0.0);
        let one = LatencyStats::from_samples(&[2.5]);
        assert_eq!((one.min, one.max, one.p50, one.p95), (2.5, 2.5, 2.5, 2.5));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&sorted, 0.25), 1.0);
        assert_eq!(percentile(&sorted, 0.5), 2.0);
        assert_eq!(percentile(&sorted, 0.75), 3.0);
        assert_eq!(percentile(&sorted, 1.0), 4.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn cs2_is_two_orders_of_magnitude_faster_than_the_a100() {
        let model = AnalyticTiming::paper();
        let speedup = model.speedup_over_gpu(GpuSpec::a100(), paper_grid(), 225);
        assert!(
            speedup > 100.0 && speedup < 2000.0,
            "modelled A100 speedup {speedup} not in the paper's order of magnitude (427x)"
        );
        let h100 = model.speedup_over_gpu(GpuSpec::h100(), paper_grid(), 225);
        assert!(
            h100 > 50.0 && h100 < speedup,
            "H100 speedup {h100} must be below A100's"
        );
    }

    #[test]
    fn alg2_weak_scaling_is_flat_across_the_fabric() {
        // Table III: Algorithm-2 time is constant (0.0122 s at every grid size).
        let model = AnalyticTiming::paper();
        let t_small = model.cs2_alg2_time(Dims::new(200, 200, 922), 225);
        let t_large = model.cs2_alg2_time(Dims::new(750, 994, 922), 225);
        assert!((t_small - t_large).abs() / t_large < 0.01);
    }

    #[test]
    fn alg1_time_grows_with_fabric_extent() {
        // Table III: Algorithm-1 time grows from 0.0251 s to 0.0542 s as the fabric
        // grows, because the reduction path lengthens.
        let model = AnalyticTiming::paper();
        let t_small = model.cs2_alg1_time(Dims::new(200, 200, 922), 226);
        let t_large = model.cs2_alg1_time(Dims::new(750, 994, 922), 225);
        assert!(t_large > t_small, "Alg-1 time must grow with the fabric");
        let ratio = t_large / t_small;
        assert!(
            ratio > 1.3 && ratio < 6.0,
            "growth ratio {ratio} outside the paper's shape (~2.2)"
        );
    }

    #[test]
    fn gpu_times_grow_linearly_with_cells() {
        let model = AnalyticTiming::paper();
        let t1 = model.gpu_alg1_time(GpuSpec::a100(), Dims::new(200, 200, 922), 225);
        let t2 = model.gpu_alg1_time(GpuSpec::a100(), Dims::new(400, 400, 922), 225);
        assert!((t2 / t1 - 4.0).abs() < 0.05);
    }

    #[test]
    fn data_movement_is_a_small_fraction_of_device_time() {
        // Table IV: 6.27 % data movement at the largest grid.
        let model = AnalyticTiming::paper();
        let (dm, comp, total) = model.cs2_time_split(paper_grid(), 225);
        let fraction = dm / total;
        assert!(
            fraction > 0.005 && fraction < 0.35,
            "data-movement fraction {fraction}"
        );
        assert!(comp > dm);
    }

    #[test]
    fn cs2_kernel_time_is_in_the_papers_order_of_magnitude() {
        // Paper Table II/III: 0.0542 s for the full Algorithm 1 at the largest grid.
        let model = AnalyticTiming::paper();
        let t = model.cs2_alg1_time(paper_grid(), 225);
        assert!(
            t > 0.005 && t < 0.5,
            "modelled CS-2 time {t} s out of range"
        );
        let achieved = model.cs2_achieved_flops(paper_grid(), 225);
        assert!(
            achieved > 0.1e15 && achieved <= 1.785e15,
            "achieved {achieved} FLOP/s"
        );
        // The Algorithm-2 kernel rate reproduces the paper's 1.217 PFLOP/s headline
        // figure to within ~10%.
        let alg2 = model.cs2_alg2_achieved_flops(paper_grid(), 225);
        assert!(
            (alg2 - 1.217e15).abs() / 1.217e15 < 0.1,
            "Alg-2 rate {alg2} FLOP/s"
        );
    }

    #[test]
    fn scaling_rows_are_consistent() {
        let model = AnalyticTiming::paper();
        let row = model.scaling_row(Dims::new(400, 400, 922), 225);
        assert_eq!(row.iterations, 225);
        assert!(row.cs2_alg2_time < row.cs2_alg1_time);
        assert!(row.cs2_alg2_throughput > row.cs2_alg1_throughput);
        assert!(row.a100_alg2_time < row.a100_alg1_time);
        assert!(row.a100_alg1_time > row.cs2_alg1_time);
    }
}
