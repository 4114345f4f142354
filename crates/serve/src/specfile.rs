//! The `.mffv` job spec file format `mffv-cli` submits.
//!
//! A deliberately small line format — `key = value`, `#` comments, one
//! optional `[transient]` section — so specs are diffable and writable by
//! hand.  Unset keys inherit the `quickstart` workload's defaults.
//!
//! ```text
//! # steady pressure solve on the roofline GPU model
//! name            = demo
//! dims            = 16 16 8
//! spacing         = 10 10 5
//! backend         = gpu-ref
//! permeability    = lognormal -29.9 0.5 42
//! boundary        = source-producer 2e7 1e7
//! tolerance       = 1e-10
//! max_iterations  = 4000
//! preconditioner  = jacobi
//! iteration_budget = 2000
//!
//! [transient]
//! total_time            = 30
//! dt                    = ramp 0.5 1.5 4
//! total_compressibility = 1e-9
//! well = inj  rate 2 3 1 0.25
//! well = prod bhp 12 12 2 1e6 1e-9
//! ```
//!
//! Top-level keys: `name`, `dims`, `spacing`, `backend`, `viscosity`,
//! `tolerance`, `max_iterations`, `permeability`, `boundary`, `seed`,
//! `threads`, `preconditioner`, and the stop policy's `iteration_budget`,
//! `deadline_seconds`, `stagnation` and `divergence`.  `[transient]` keys:
//! `total_time`, `dt`, `total_compressibility`, `initial_pressure`,
//! `snapshot_times`, `warm_start` and any number of `well` lines.
//!
//! There is no `precision` key: the backend fixes the arithmetic (`host` is
//! `f64`, `host-f32` is `f32`, and `gpu-ref` and `dataflow` compute in
//! `f32`).  A spec that sets `precision` fails with a [`SpecError`] that
//! names `backend = host-f32`.

use crate::wire::{deadline, divergence_factor, stagnation, BackendSel, WireJobSpec, WirePolicy};
use mffv_mesh::workload::BoundarySpec;
use mffv_mesh::{
    CellIndex, Dims, DtPolicy, PermeabilityModel, TransientSpec, Well, WellControl, WellSet,
    WorkloadSpec,
};
use mffv_solver::backend::PreconditionerKind;

/// A parse failure, with the offending line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "spec line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SpecError {}

fn err(line: usize, message: impl Into<String>) -> SpecError {
    SpecError {
        line,
        message: message.into(),
    }
}

/// A finite number: `nan`, `inf` and values that overflow to infinity are
/// errors too.
fn parse_f64(line: usize, token: &str, what: &str) -> Result<f64, SpecError> {
    match token.parse::<f64>() {
        Ok(value) if value.is_finite() => Ok(value),
        Ok(_) => Err(err(
            line,
            format!("{what}: `{token}` is not a finite number"),
        )),
        Err(_) => Err(err(line, format!("{what}: `{token}` is not a number"))),
    }
}

fn parse_usize(line: usize, token: &str, what: &str) -> Result<usize, SpecError> {
    token.parse::<usize>().map_err(|_| {
        err(
            line,
            format!("{what}: `{token}` is not a non-negative integer"),
        )
    })
}

fn parse_u64(line: usize, token: &str, what: &str) -> Result<u64, SpecError> {
    token.parse::<u64>().map_err(|_| {
        err(
            line,
            format!("{what}: `{token}` is not a non-negative integer"),
        )
    })
}

fn three<'a>(line: usize, value: &'a str, what: &str) -> Result<[&'a str; 3], SpecError> {
    let parts: Vec<&str> = value.split_whitespace().collect();
    match parts.as_slice() {
        [a, b, c] => Ok([a, b, c]),
        _ => Err(err(line, format!("{what} needs exactly three values"))),
    }
}

/// Parse a complete spec file into the wire job it describes.
pub fn parse_spec(text: &str) -> Result<WireJobSpec, SpecError> {
    let mut workload = WorkloadSpec::quickstart();
    let mut backend = BackendSel::HostF64;
    let mut job = WireJobSpec::new(workload.clone(), backend);
    let mut policy = WirePolicy::default();
    let mut in_transient = false;
    // Transient accumulator: only materialised when the section appears.
    let mut total_time: Option<f64> = None;
    let mut dt: Option<DtPolicy> = None;
    let mut compressibility: Option<f64> = None;
    let mut initial_pressure: Option<f64> = None;
    let mut snapshot_times: Vec<f64> = Vec::new();
    let mut warm_start = true;
    let mut wells: Vec<Well> = Vec::new();

    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let content = raw.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        if content == "[transient]" {
            in_transient = true;
            continue;
        }
        if content.starts_with('[') {
            return Err(err(line, format!("unknown section `{content}`")));
        }
        let (key, value) = content
            .split_once('=')
            .ok_or_else(|| err(line, "expected `key = value`"))?;
        let (key, value) = (key.trim(), value.trim());
        if in_transient {
            match key {
                "total_time" => total_time = Some(parse_f64(line, value, "total_time")?),
                "dt" => {
                    let parts: Vec<&str> = value.split_whitespace().collect();
                    dt = Some(match parts.as_slice() {
                        ["fixed", step] => DtPolicy::Fixed {
                            dt: parse_f64(line, step, "dt")?,
                        },
                        [step] => DtPolicy::Fixed {
                            dt: parse_f64(line, step, "dt")?,
                        },
                        ["ramp", initial, growth, max] => DtPolicy::Ramp {
                            initial: parse_f64(line, initial, "dt initial")?,
                            growth: parse_f64(line, growth, "dt growth")?,
                            max: parse_f64(line, max, "dt max")?,
                        },
                        _ => {
                            return Err(err(
                                line,
                                "dt is `fixed <s>` or `ramp <initial> <growth> <max>`",
                            ))
                        }
                    });
                }
                "total_compressibility" => {
                    compressibility = Some(parse_f64(line, value, "total_compressibility")?)
                }
                "initial_pressure" => {
                    initial_pressure = Some(parse_f64(line, value, "initial_pressure")?)
                }
                "snapshot_times" => {
                    snapshot_times = value
                        .split_whitespace()
                        .map(|t| parse_f64(line, t, "snapshot_times"))
                        .collect::<Result<_, _>>()?;
                }
                "warm_start" => {
                    warm_start = match value {
                        "true" => true,
                        "false" => false,
                        _ => return Err(err(line, "warm_start is `true` or `false`")),
                    }
                }
                "well" => {
                    let parts: Vec<&str> = value.split_whitespace().collect();
                    let well = match parts.as_slice() {
                        [name, "rate", x, y, z, rate] => Well::rate(
                            *name,
                            CellIndex::new(
                                parse_usize(line, x, "well x")?,
                                parse_usize(line, y, "well y")?,
                                parse_usize(line, z, "well z")?,
                            ),
                            parse_f64(line, rate, "well rate")?,
                        ),
                        [name, "bhp", x, y, z, pressure, pi] => Well {
                            name: (*name).to_string(),
                            cell: CellIndex::new(
                                parse_usize(line, x, "well x")?,
                                parse_usize(line, y, "well y")?,
                                parse_usize(line, z, "well z")?,
                            ),
                            control: WellControl::Bhp {
                                pressure: parse_f64(line, pressure, "well pressure")?,
                                productivity_index: parse_f64(line, pi, "well PI")?,
                            },
                            start_time: 0.0,
                            end_time: f64::INFINITY,
                        },
                        _ => {
                            return Err(err(
                                line,
                                "well is `<name> rate <x> <y> <z> <rate>` or `<name> bhp <x> <y> <z> <pressure> <PI>`",
                            ))
                        }
                    };
                    wells.push(well);
                }
                other => return Err(err(line, format!("unknown [transient] key `{other}`"))),
            }
            continue;
        }
        match key {
            "name" => workload.name = value.to_string(),
            "dims" => {
                let [a, b, c] = three(line, value, "dims")?;
                workload.dims = Dims::new(
                    parse_usize(line, a, "dims")?,
                    parse_usize(line, b, "dims")?,
                    parse_usize(line, c, "dims")?,
                );
            }
            "spacing" => {
                let [a, b, c] = three(line, value, "spacing")?;
                workload.spacing = [
                    parse_f64(line, a, "spacing")?,
                    parse_f64(line, b, "spacing")?,
                    parse_f64(line, c, "spacing")?,
                ];
            }
            "backend" => {
                backend = BackendSel::parse(value).map_err(|e| err(line, e.to_string()))?
            }
            "viscosity" => workload.viscosity = parse_f64(line, value, "viscosity")?,
            "tolerance" => workload.tolerance = parse_f64(line, value, "tolerance")?,
            "max_iterations" => {
                workload.max_iterations = parse_usize(line, value, "max_iterations")?
            }
            "permeability" => {
                let parts: Vec<&str> = value.split_whitespace().collect();
                workload.permeability = match parts.as_slice() {
                    ["homogeneous", v] => PermeabilityModel::Homogeneous {
                        value: parse_f64(line, v, "permeability")?,
                    },
                    ["layered", rest @ ..] if !rest.is_empty() => PermeabilityModel::Layered {
                        layer_values: rest
                            .iter()
                            .map(|v| parse_f64(line, v, "layer value"))
                            .collect::<Result<_, _>>()?,
                    },
                    ["lognormal", mean, std, seed] => PermeabilityModel::LogNormal {
                        mean_log: parse_f64(line, mean, "mean_log")?,
                        std_log: parse_f64(line, std, "std_log")?,
                        seed: parse_u64(line, seed, "seed")?,
                    },
                    ["channelized", bg, ch, n, hw, amp, seed] => PermeabilityModel::Channelized {
                        background: parse_f64(line, bg, "background")?,
                        channel: parse_f64(line, ch, "channel")?,
                        num_channels: parse_usize(line, n, "num_channels")?,
                        half_width: parse_f64(line, hw, "half_width")?,
                        amplitude: parse_f64(line, amp, "amplitude")?,
                        seed: parse_u64(line, seed, "seed")?,
                    },
                    _ => {
                        return Err(err(
                            line,
                            "permeability is `homogeneous <v>`, `layered <v>…`, \
                             `lognormal <mean> <std> <seed>` or \
                             `channelized <bg> <ch> <n> <hw> <amp> <seed>`",
                        ))
                    }
                };
            }
            "boundary" => {
                let parts: Vec<&str> = value.split_whitespace().collect();
                workload.boundary = match parts.as_slice() {
                    ["source-producer", s, p] => BoundarySpec::SourceProducer {
                        source_pressure: parse_f64(line, s, "source_pressure")?,
                        producer_pressure: parse_f64(line, p, "producer_pressure")?,
                    },
                    ["xfaces", l, r] => BoundarySpec::XFaces {
                        left_pressure: parse_f64(line, l, "left_pressure")?,
                        right_pressure: parse_f64(line, r, "right_pressure")?,
                    },
                    ["none"] => BoundarySpec::None,
                    _ => return Err(err(
                        line,
                        "boundary is `source-producer <src> <prod>`, `xfaces <l> <r>` or `none`",
                    )),
                };
            }
            "seed" => job.seed = Some(parse_u64(line, value, "seed")?),
            "precision" => {
                return Err(err(
                    line,
                    "`precision` is not a key: the backend sets it \
                     (`backend = host-f32` for a single-precision host solve)",
                ))
            }
            "threads" => job.config.threads = Some(parse_usize(line, value, "threads")?),
            "preconditioner" => {
                job.config.preconditioner = PreconditionerKind::parse(value)
                    .ok_or_else(|| err(line, "preconditioner is `jacobi`, `mg` or `none`"))?
            }
            "iteration_budget" => {
                policy.iteration_budget = Some(parse_usize(line, value, "iteration_budget")?)
            }
            "deadline_seconds" => {
                let seconds = parse_f64(line, value, "deadline_seconds")?;
                deadline("deadline_seconds", seconds).map_err(|e| err(line, e.to_string()))?;
                policy.deadline_seconds = Some(seconds);
            }
            "stagnation" => {
                let parts: Vec<&str> = value.split_whitespace().collect();
                let (window, min_rel) = match parts.as_slice() {
                    [window, min_rel] => (
                        parse_usize(line, window, "stagnation window")?,
                        parse_f64(line, min_rel, "stagnation min improvement")?,
                    ),
                    _ => return Err(err(line, "stagnation is `<window> <min_rel_improvement>`")),
                };
                let rule = stagnation(window, min_rel).map_err(|e| err(line, e.to_string()))?;
                policy.stagnation = Some(rule);
            }
            "divergence" => {
                let factor = parse_f64(line, value, "divergence")?;
                let factor = divergence_factor("divergence", factor)
                    .map_err(|e| err(line, e.to_string()))?;
                policy.divergence_factor = Some(factor);
            }
            other => return Err(err(line, format!("unknown key `{other}`"))),
        }
    }

    if in_transient {
        let total_time =
            total_time.ok_or_else(|| err(0, "[transient] section needs `total_time`"))?;
        let compressibility = compressibility
            .ok_or_else(|| err(0, "[transient] section needs `total_compressibility`"))?;
        let mut spec = TransientSpec::new(total_time, 1.0, compressibility);
        if let Some(dt) = dt {
            spec.dt = dt;
        }
        spec = spec.with_wells(WellSet::new(wells));
        if let Some(pressure) = initial_pressure {
            spec = spec.with_initial_pressure(pressure);
        }
        spec.snapshot_times = snapshot_times;
        spec.warm_start = warm_start;
        job.transient = Some(spec);
    }

    job.workload = workload;
    job.backend = backend;
    job.policy = policy;
    Ok(job)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_full_spec_parses_into_the_expected_job() {
        let text = r#"
# demo spec
name           = demo
dims           = 8 8 4
spacing        = 10 10 5
backend        = gpu-ref-h100
permeability   = lognormal -29.9 0.5 42
boundary       = xfaces 2e7 1e7
tolerance      = 1e-9
max_iterations = 900
seed           = 7
preconditioner = mg
iteration_budget = 500
stagnation     = 25 1e-3

[transient]
total_time            = 30
dt                    = ramp 0.5 1.5 4
total_compressibility = 1e-9
initial_pressure      = 1.5e7
snapshot_times        = 10 20
warm_start            = false
well = inj  rate 2 3 1 0.25
well = prod bhp 6 6 2 1e6 1e-9
"#;
        let job = parse_spec(text).expect("parses");
        assert_eq!(job.workload.name, "demo");
        assert_eq!(job.workload.dims, Dims::new(8, 8, 4));
        assert_eq!(job.backend, BackendSel::GpuRefH100);
        assert_eq!(job.seed, Some(7));
        assert_eq!(job.config.preconditioner, PreconditionerKind::Mg);
        assert_eq!(job.policy.iteration_budget, Some(500));
        assert_eq!(job.policy.stagnation, Some((25, 1e-3)));
        let transient = job.transient.expect("transient section");
        assert_eq!(transient.wells.wells().len(), 2);
        assert!(!transient.warm_start);
        assert_eq!(transient.snapshot_times, vec![10.0, 20.0]);
        assert!(matches!(transient.dt, DtPolicy::Ramp { .. }));
    }

    #[test]
    fn errors_carry_the_line_number() {
        let bad = "dims = 8 8\n";
        let e = parse_spec(bad).unwrap_err();
        assert_eq!(e.line, 1);
        let bad = "name = x\nbackend = quantum\n";
        let e = parse_spec(bad).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("quantum"));
        let bad = "name = x\npreconditioner = ilu\n";
        let e = parse_spec(bad).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("`jacobi`, `mg` or `none`"));
    }

    #[test]
    fn every_shipped_example_spec_parses() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/specs");
        let mut parsed = 0;
        for entry in std::fs::read_dir(dir).expect("examples/specs exists") {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|ext| ext == "mffv") {
                let text = std::fs::read_to_string(&path).unwrap();
                parse_spec(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
                parsed += 1;
            }
        }
        assert!(parsed >= 3, "only {parsed} example specs found in {dir}");
    }

    #[test]
    fn a_precision_key_is_an_error_naming_the_f32_host_backend() {
        let e = parse_spec("name = x\nbackend = host\nprecision = f32\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("backend = host-f32"), "{e}");
    }

    #[test]
    fn non_finite_numbers_are_errors() {
        for (text, what) in [
            ("boundary = source-producer nan 0\n", "source_pressure"),
            ("permeability = homogeneous inf\n", "permeability"),
            ("viscosity = -inf\n", "viscosity"),
            ("spacing = 1 1e400 1\n", "spacing"),
        ] {
            let e = parse_spec(text).unwrap_err();
            assert_eq!(e.line, 1, "{text}");
            assert!(e.message.contains(what), "{text}: {e}");
            assert!(e.message.contains("not a finite number"), "{text}: {e}");
        }
    }

    #[test]
    fn a_deadline_that_is_not_one_is_a_line_numbered_error() {
        for (text, field) in [
            (
                "backend = host\ndeadline_seconds = 1e300\n",
                "deadline_seconds",
            ),
            (
                "backend = host\ndeadline_seconds = -1\n",
                "deadline_seconds",
            ),
            ("backend = host\ndivergence = -5\n", "divergence"),
            ("backend = host\ndivergence = 0.5\n", "divergence"),
            ("backend = host\nstagnation = 0 1e-3\n", "stagnation window"),
            (
                "backend = host\nstagnation = 2 -0.5\n",
                "stagnation min_rel_improvement",
            ),
            (
                "backend = host\nstagnation = 2 1.5\n",
                "stagnation min_rel_improvement",
            ),
        ] {
            let e = parse_spec(text).unwrap_err();
            assert_eq!(e.line, 2, "{text}");
            assert!(e.message.contains(field), "{text}: {e}");
            assert!(e.message.contains("out of range"), "{text}: {e}");
        }
        let job = parse_spec("deadline_seconds = 0.5\n").expect("parses");
        assert_eq!(job.policy.deadline_seconds, Some(0.5));
    }

    #[test]
    fn steady_specs_need_no_transient_section() {
        let job = parse_spec("backend = host-f32\n").expect("parses");
        assert!(job.transient.is_none());
        assert_eq!(job.backend, BackendSel::HostF32);
    }
}
