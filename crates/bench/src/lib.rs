#![forbid(unsafe_code)]
//! Shared helpers for the benchmark harness and the table/figure report binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper (see
//! `DESIGN.md` §5 for the per-experiment index); the Criterion benches in
//! `benches/` measure the executed kernels and the ablations of the §III-E design
//! choices.  Executed runs use scaled grids (the paper's full 687-million-cell mesh
//! does not fit host memory); the analytic models in `mffv-perf` are additionally
//! evaluated at the paper's full sizes.

use std::collections::BTreeMap;
use std::str::FromStr;

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

/// A report binary's command line: `--flag value` pairs and bare switches.
/// Each lookup consumes its flag, or returns its default when the flag is
/// absent.  A flag that is unknown, lacks its value or does not parse makes
/// [`Flags::finish`] print the binary's flags and exit with status 2.
#[derive(Default)]
pub struct Flags {
    given: BTreeMap<String, String>,
    known: Vec<String>,
    error: Option<String>,
}

impl Flags {
    /// Read `args` (the program name already skipped).  A flag listed in
    /// `switches` stands alone; every other flag takes the next argument as
    /// its value.  The last of repeated flags wins.
    pub fn new(args: impl IntoIterator<Item = String>, switches: &[&str]) -> Flags {
        let mut flags = Flags::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if switches.contains(&arg.as_str()) {
                flags.given.insert(arg, String::new());
            } else if !arg.starts_with("--") {
                flags.fail(format!("unexpected argument {arg}"));
            } else if let Some(value) = args.next() {
                flags.given.insert(arg, value);
            } else {
                flags.fail(format!("missing value for {arg}"));
            }
        }
        flags
    }

    /// The value of flag `name`, or `default` when it is absent.
    pub fn value<T: FromStr>(&mut self, name: &str, default: T) -> T {
        self.take(name, default, |value| value.parse().ok())
    }

    /// The comma-separated values of flag `name`, or `default` when it is
    /// absent.
    pub fn list<T: FromStr>(&mut self, name: &str, default: Vec<T>) -> Vec<T> {
        self.take(name, default, |value| {
            value.split(',').map(|v| v.trim().parse().ok()).collect()
        })
    }

    /// Whether the bare switch `name` was given.
    pub fn switch(&mut self, name: &str) -> bool {
        self.known.push(name.to_string());
        self.given.remove(name).is_some()
    }

    /// Exit with status 2 if a flag was bad or no lookup consumed it.
    pub fn finish(self) {
        if let Err(usage) = self.verdict() {
            eprintln!("{usage}");
            std::process::exit(2);
        }
    }

    fn verdict(self) -> Result<(), String> {
        let error = match (self.error, self.given.keys().next()) {
            (Some(error), _) => error,
            (None, Some(flag)) => format!("unknown flag {flag}"),
            (None, None) => return Ok(()),
        };
        Err(format!("{error} (use {})", self.known.join(" ")))
    }

    fn take<T>(&mut self, name: &str, default: T, parse: impl FnOnce(&str) -> Option<T>) -> T {
        self.known.push(name.to_string());
        match self.given.remove(name) {
            None => default,
            Some(value) => parse(&value).unwrap_or_else(|| {
                self.fail(format!("invalid value {value} for {name}"));
                default
            }),
        }
    }

    fn fail(&mut self, error: String) {
        self.error.get_or_insert(error);
    }
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

    fn flags(args: &[&str]) -> Flags {
        Flags::new(args.iter().map(|arg| arg.to_string()), &["--check"])
    }

    #[test]
    fn flags_read_values_lists_switches_and_defaults() {
        let mut given = flags(&["--nx", "24", "--threads", "1, 2,4", "--check", "--nx", "32"]);
        assert_eq!(given.value("--nx", 128usize), 32, "the last repeat wins");
        assert_eq!(given.value("--ny", 128usize), 128);
        assert_eq!(given.list("--threads", vec![1usize]), [1, 2, 4]);
        assert_eq!(given.list("--sizes", vec![32usize, 64]), [32, 64]);
        assert!(given.switch("--check"));
        let out: String = given.value("--out", "BENCH.json".into());
        assert_eq!(out, "BENCH.json");
        assert_eq!(given.verdict(), Ok(()));
        assert!(!flags(&[]).switch("--check"));
    }

    #[test]
    fn finish_names_the_bad_flag_and_every_flag_looked_up() {
        let mut leftover = flags(&["--reps", "3", "--sweeps", "2"]);
        assert_eq!(leftover.value("--reps", 1usize), 3);
        assert!(!leftover.switch("--check"));
        assert_eq!(
            leftover.verdict(),
            Err("unknown flag --sweeps (use --reps --check)".to_string())
        );

        let mut unparseable = flags(&["--sizes", "16,x"]);
        assert_eq!(unparseable.list("--sizes", vec![8usize]), [8]);
        assert_eq!(
            unparseable.verdict(),
            Err("invalid value 16,x for --sizes (use --sizes)".to_string())
        );

        let mut missing = flags(&["--check", "--reps"]);
        missing.value("--reps", 1usize);
        missing.switch("--check");
        assert_eq!(
            missing.verdict(),
            Err("missing value for --reps (use --reps --check)".to_string())
        );

        let mut stray = flags(&["16", "--nx", "8"]);
        assert_eq!(stray.value("--nx", 1usize), 8);
        assert_eq!(
            stray.verdict(),
            Err("unexpected argument 16 (use --nx)".to_string())
        );
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
