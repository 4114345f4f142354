//! `perfbench` — the end-to-end benchmark of mffv with a per-layer
//! breakdown.  See `perfbench/README.md` for the workloads and the metric →
//! layer → end-to-end map.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload steady-cg --seed 1 --seconds 25 --trace 0
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with tracing
//! off for `--seconds`.  With `--trace 1` the same untraced phase is
//! followed by a traced phase of half that length and by probes that time
//! each layer's public calls, and the run reports the per-layer metrics.  The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.

mod catalog;
mod layers;
mod machine;
mod metrics;
mod serve_stream;
mod spans;
mod steady;
mod transient_batch;

use machine::{Machine, Triad};
use metrics::{median, result_line, MetricSet};
use mffv::telemetry::{chrome_trace_json, Stopwatch, Tracer};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;

/// Where traced runs write their Chrome trace (relative to the checkout).
const TRACE_DIR: &str = ".bench_out";

/// Command-line arguments.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        while let Some(flag) = args.next() {
            let value = args
                .next()
                .ok_or_else(|| format!("missing value for {flag}"))?;
            let bad = |what: &str| format!("{flag} expects {what}, got `{value}`");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(bad("a number in (0, 600]"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload `{workload}` (expected one of {})",
                WORKLOADS.join(", ")
            ));
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

const WORKLOADS: [&str; 3] = ["steady-cg", "transient-batch", "serve-stream"];

/// Failure notes a run keeps; further failures are only counted.
const MAX_NOTES: usize = 8;

/// Correctness bookkeeping shared by every workload.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// A checksum disagreed: the run fails outright.
    pub mismatch: bool,
    pub notes: Vec<String>,
}

impl Checks {
    /// Count one operation; a failed one is noted (first few only).
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < MAX_NOTES {
                self.notes.push(what());
            }
        }
    }

    /// Add another tally to this one.
    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatch |= other.mismatch;
        self.notes.extend(other.notes);
    }

    /// Record a checksum comparison; a mismatch fails the run.
    pub fn checksum(&mut self, expected: u64, got: u64, what: &str) {
        if expected != got {
            self.mismatch = true;
            if self.notes.len() < MAX_NOTES {
                self.notes
                    .push(format!("{what}: checksum {got:016x} != {expected:016x}"));
            }
        }
    }
}

/// What a workload hands back.
pub struct Outcome {
    pub checks: Checks,
    pub metrics: MetricSet,
}

/// What every workload gets.
pub struct Context<'a> {
    pub args: &'a Args,
    pub machine: &'a Machine,
    /// The bandwidth ceiling, measured before traced runs only.
    pub triad: Option<&'a Triad>,
}

impl Context<'_> {
    /// Threads the benchmark may use for kernels, workers and clients.
    pub fn threads(&self) -> usize {
        self.machine.nproc.clamp(1, 2)
    }

    /// Seconds of the traced phase that follows the untraced one (which
    /// lasts `--seconds`) in a traced run.
    pub fn traced_seconds(&self) -> f64 {
        self.args.seconds / 2.0
    }
}

/// One step of SplitMix64: the benchmark's only random source, so a seed
/// fully determines every generated input.
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seed for stream `stream` of the run seeded with `seed`.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    splitmix64(splitmix64(seed) ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
}

/// FNV-1a over the bit patterns of `values`.
pub fn checksum(values: &[f64]) -> u64 {
    let mut hash = mffv::mesh::Fnv1a::new();
    for &v in values {
        hash.write_f64(v);
    }
    hash.finish()
}

/// Run `op` repeatedly for about `seconds`: a new call starts only while
/// the previous call would still finish in time, and at least `min_calls`
/// run.  `op` returns its own duration in seconds.
pub fn run_for(seconds: f64, min_calls: usize, mut op: impl FnMut() -> f64) {
    let started = Stopwatch::start();
    let mut calls = 0;
    let mut last = 0.0;
    while calls < min_calls || started.elapsed_seconds() + last <= seconds {
        last = op();
        calls += 1;
    }
}

/// Time one set-up with `build`, [`SETUP_REPS`] times, keeping the last
/// result and every duration.
pub fn repeated_setup<T>(mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut durations = Vec::with_capacity(SETUP_REPS);
    let mut last: Option<T> = None;
    for _ in 0..SETUP_REPS {
        // Tear the previous set-up down before building the next one.
        drop(last.take());
        let started = Stopwatch::start();
        let built = build();
        durations.push(started.elapsed_seconds());
        last = Some(built);
    }
    (last.expect("SETUP_REPS is non-zero"), durations)
}

/// The end-to-end metrics, identical in meaning on every workload.
pub fn push_end_to_end(
    out: &mut MetricSet,
    setup_seconds: &[f64],
    latency_ms: &[f64],
    jobs: u64,
    busy_seconds: f64,
) {
    out.push("setup_s", median(setup_seconds), "s");
    out.push("latency_p50_ms", median(latency_ms), "ms");
    out.push(
        "jobs_per_s",
        metrics::ratio(jobs as f64, busy_seconds),
        "1/s",
    );
    out.push("peak_rss_mib", machine::peak_rss_mib(), "MiB");
}

/// Tracing overhead on the workload's primary metric, in percent (positive
/// means tracing made it worse).
pub fn overhead_pct(untraced: f64, traced: f64, lower_is_better: bool) -> f64 {
    let worse = if lower_is_better {
        traced - untraced
    } else {
        untraced - traced
    };
    100.0 * metrics::ratio(worse, untraced)
}

/// Host and load metrics every traced run reports.
pub fn push_host(
    cx: &Context<'_>,
    out: &mut MetricSet,
    working_set_bytes: u64,
    threads: usize,
    connections: usize,
) {
    assert!(
        threads <= cx.machine.nproc && connections <= cx.machine.nproc,
        "load generator must stay within nproc ({threads} threads, {connections} connections, nproc {})",
        cx.machine.nproc
    );
    let triad = cx.triad.expect("traced runs measure the triad first");
    out.push("host.stream_triad_gbps", triad.gbps, "GB/s");
    out.push("host.stream_triad_1t_gbps", triad.gbps_1t, "GB/s");
    out.push("host.triad_array_bytes", triad.array_bytes as f64, "bytes");
    out.push("host.nproc", cx.machine.nproc as f64, "count");
    out.push("host.l2_bytes", cx.machine.l2_bytes as f64, "bytes");
    out.push("host.llc_bytes", cx.machine.llc_bytes as f64, "bytes");
    out.push("host.working_set_bytes", working_set_bytes as f64, "bytes");
    out.push("load.threads", threads as f64, "count");
    out.push("load.connections", connections as f64, "count");
}

/// Write the tracer's spans as a Chrome trace; returns the path.
pub fn write_chrome_trace(cx: &Context<'_>, tracer: &Tracer) -> String {
    let path = format!(
        "{TRACE_DIR}/trace-{}-seed{}.json",
        cx.args.workload, cx.args.seed
    );
    let written = std::fs::create_dir_all(TRACE_DIR)
        .and_then(|()| std::fs::write(&path, chrome_trace_json(&tracer.records())));
    match written {
        Ok(()) => path,
        Err(e) => format!("(not written: {e})"),
    }
}

/// Order `metrics` as the catalogue lists them, filling metrics of layers
/// the workload does not exercise with 0.  Panics on a metric missing from
/// the catalogue or carrying another unit (a bug in this program).
fn in_catalogue_order(metrics: &MetricSet, catalogue: &[(&str, &str)]) -> MetricSet {
    for name in metrics.names() {
        assert!(
            catalogue.iter().any(|(n, _)| *n == name),
            "metric `{name}` is not in the catalogue"
        );
    }
    let mut ordered = MetricSet::new();
    for &(name, unit) in catalogue {
        if let Some(got) = metrics.unit(name) {
            assert_eq!(got, unit, "unit of `{name}`");
        }
        ordered.push(name, metrics.get(name).unwrap_or(0.0), unit);
    }
    ordered
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let machine = Machine::detect();
    println!("machine: {}", machine.to_json());
    let triad = args.trace.then(|| machine::stream_triad(&machine));
    if let Some(triad) = &triad {
        println!(
            "stream triad: {:.2} GB/s ({} threads), {:.2} GB/s (1 thread), {} MiB arrays, LLC {} MiB: {}",
            triad.gbps,
            machine.nproc,
            triad.gbps_1t,
            triad.array_bytes >> 20,
            machine.llc_bytes >> 20,
            triad.note
        );
    }
    let cx = Context {
        args: &args,
        machine: &machine,
        triad: triad.as_ref(),
    };
    let outcome = match args.workload.as_str() {
        "steady-cg" => steady::run(&cx),
        "transient-batch" => transient_batch::run(&cx),
        _ => serve_stream::run(&cx),
    };
    let catalogue = if args.trace {
        catalog::PER_LAYER
    } else {
        catalog::END_TO_END
    };
    let metrics = in_catalogue_order(&outcome.metrics, catalogue);
    let checks = &outcome.checks;
    for note in &checks.notes {
        println!("check failed: {note}");
    }
    println!(
        "checks: {} attempted, {} failed, failed_ratio {} (base {}), checksums {}",
        checks.attempted,
        checks.failed,
        metrics::ratio(checks.failed as f64, checks.attempted as f64),
        checks.attempted,
        if checks.mismatch {
            "MISMATCH"
        } else {
            "identical"
        }
    );
    let correct = checks.failed == 0 && !checks.mismatch && checks.attempted > 0;
    println!(
        "{}",
        result_line(correct, checks.attempted.max(1), checks.failed, &metrics)
    );
    if checks.mismatch {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests;
