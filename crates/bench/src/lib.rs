#![forbid(unsafe_code)]
//! Shared helpers for the benchmark harness and the table/figure report binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper (see
//! `DESIGN.md` §5 for the per-experiment index); the Criterion benches in
//! `benches/` measure the executed kernels and the ablations of the §III-E design
//! choices.  Executed runs use scaled grids (the paper's full 687-million-cell mesh
//! does not fit host memory); the analytic models in `mffv-perf` are additionally
//! evaluated at the paper's full sizes.

use mffv_mesh::workload::WorkloadSpec;
use mffv_mesh::{Dims, Workload};

/// The default scale factor applied to the paper's grids for *executed* runs:
/// each extent is divided by this factor.
pub const DEFAULT_EXECUTED_SCALE: usize = 25;

/// The paper's Table III grid family at full logical size.
pub fn paper_table3_grids() -> Vec<Dims> {
    WorkloadSpec::table3_grids()
        .into_iter()
        .map(|(x, y, z)| Dims::new(x, y, z))
        .collect()
}

/// The paper's Table III grid family scaled down for executed runs.
pub fn executed_table3_grids(scale: usize) -> Vec<Dims> {
    WorkloadSpec::table3_grids()
        .into_iter()
        .map(|(x, y, z)| Dims::new((x / scale).max(2), (y / scale).max(2), (z / scale).max(2)))
        .collect()
}

/// The number of CG steps the paper reports for each Table III grid (226 for the
/// smallest, 225 for the rest).
pub fn paper_table3_iterations() -> Vec<usize> {
    vec![226, 225, 225, 225, 225, 225, 225]
}

/// A homogeneous paper-style workload at the requested (already scaled) extents.
pub fn executed_workload(dims: Dims) -> Workload {
    WorkloadSpec::paper_grid(dims.nx, dims.ny, dims.nz).build()
}

/// A small workload suitable for Criterion iteration counts.
pub fn bench_workload() -> Workload {
    WorkloadSpec::paper_grid(16, 12, 24).build()
}

/// A mid-size workload for end-to-end solve benches.
pub fn bench_workload_large() -> Workload {
    WorkloadSpec::paper_grid(24, 20, 36).build()
}

/// The `"machine"` object every `BENCH_*.json` report carries: core count,
/// CPU model (`"unknown"` where `/proc/cpuinfo` does not exist) and whether
/// the `fma`, `avx` and `avx2` target features were compiled in, since the
/// kernels' speed depends on them (see `.cargo/config.toml`).
pub fn machine_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split_once(':'))
                .map(|(_, model)| model.trim().replace(['"', '\\'], ""))
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"nproc\": {nproc}, \"cpu_model\": \"{cpu_model}\", \"target_features\": \
         {{\"fma\": {}, \"avx\": {}, \"avx2\": {}}}}}",
        cfg!(target_feature = "fma"),
        cfg!(target_feature = "avx"),
        cfg!(target_feature = "avx2"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_json_records_the_compiled_features() {
        let json = machine_json();
        assert!(json.starts_with("{\"nproc\": "), "{json}");
        assert!(json.contains("\"cpu_model\": \""), "{json}");
        let fma = format!("\"fma\": {}", cfg!(target_feature = "fma"));
        assert!(json.contains(&fma), "{json}");
        assert!(json.ends_with("}}"), "{json}");
    }

    #[test]
    fn grid_families_are_consistent() {
        let full = paper_table3_grids();
        let iters = paper_table3_iterations();
        assert_eq!(full.len(), 7);
        assert_eq!(full.len(), iters.len());
        assert_eq!(full[6], Dims::new(750, 994, 922));
        let executed = executed_table3_grids(DEFAULT_EXECUTED_SCALE);
        assert_eq!(executed.len(), 7);
        for (e, f) in executed.iter().zip(full.iter()) {
            assert!(e.nx <= f.nx && e.ny <= f.ny && e.nz <= f.nz);
            assert!(e.nx >= 2 && e.ny >= 2 && e.nz >= 2);
        }
    }

    #[test]
    fn bench_workloads_build() {
        assert_eq!(bench_workload().dims(), Dims::new(16, 12, 24));
        assert_eq!(bench_workload_large().dims(), Dims::new(24, 20, 36));
        assert_eq!(
            executed_workload(Dims::new(4, 5, 6)).dims(),
            Dims::new(4, 5, 6)
        );
    }
}
