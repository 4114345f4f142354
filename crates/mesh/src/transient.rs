//! Transient scenario descriptions: time horizon, dt policy, compressibility
//! and wells.
//!
//! A [`TransientSpec`] extends a steady [`Workload`](crate::Workload) into a
//! slightly-compressible time-dependent problem: backward-Euler steps of the
//! mass balance
//!
//! ```text
//! V_K · c_t · (p_K^{n+1} − p_K^n) / Δt  =  Σ_L Υλ (p_L^{n+1} − p_K^{n+1})  +  q_K(p^{n+1})
//! ```
//!
//! where `c_t` is the total (rock + fluid) compressibility in 1/Pa and `q_K`
//! the well source terms of the spec's [`WellSet`].  The spec is a pure
//! *value* — like `WorkloadSpec` it can be cloned into engine jobs and swept
//! over dt × compressibility × well schedules.
//!
//! # Stability
//!
//! Backward Euler is unconditionally stable: any `Δt > 0` yields a
//! well-posed SPD step system (the accumulation term adds `V·c_t/Δt` to the
//! diagonal).  Larger steps are *less accurate* and *harder* (smaller
//! diagonal shift ⇒ worse conditioning ⇒ more CG iterations); halving dt
//! never increases per-step CG iteration counts.

use crate::wells::WellSet;
use crate::workload::WorkloadError;

/// How the time-step size evolves over a transient run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DtPolicy {
    /// The same `dt` for every step (the last step is clipped to land exactly
    /// on the total time).
    Fixed {
        /// Step size, seconds.
        dt: f64,
    },
    /// A deterministic geometric ramp: start at `initial`, multiply by
    /// `growth` after every step, never exceed `max`.  The standard
    /// adaptive-dt opening for well start-up transients — small steps while
    /// pressure changes fast, long steps towards (pseudo-)steady state.
    Ramp {
        /// First step size, seconds.
        initial: f64,
        /// Per-step growth factor (≥ 1).
        growth: f64,
        /// Upper bound on the step size, seconds.
        max: f64,
    },
}

impl DtPolicy {
    /// Fixed steps of `dt` seconds.
    pub fn fixed(dt: f64) -> Self {
        DtPolicy::Fixed { dt }
    }

    /// A geometric ramp from `initial` by `growth` up to `max`.
    pub fn ramp(initial: f64, growth: f64, max: f64) -> Self {
        DtPolicy::Ramp {
            initial,
            growth,
            max,
        }
    }

    /// The first step's nominal size.
    pub fn first_dt(&self) -> f64 {
        match *self {
            DtPolicy::Fixed { dt } => dt,
            DtPolicy::Ramp { initial, max, .. } => initial.min(max),
        }
    }

    /// The nominal size of the step following one of nominal size
    /// `current` — the incremental form schedules are built with.
    pub fn next_dt(&self, current: f64) -> f64 {
        match *self {
            DtPolicy::Fixed { dt } => dt,
            DtPolicy::Ramp { growth, max, .. } => (current * growth).min(max),
        }
    }

    /// The size of step number `index` (0-based), before clipping to the
    /// total time.
    pub fn nominal_dt(&self, index: usize) -> f64 {
        let mut dt = self.first_dt();
        for _ in 0..index {
            let next = self.next_dt(dt);
            if next == dt {
                break;
            }
            dt = next;
        }
        dt
    }

    fn validate(&self) -> Result<(), WorkloadError> {
        let check = |label: &str, v: f64| -> Result<(), WorkloadError> {
            if !v.is_finite() || v <= 0.0 {
                return Err(WorkloadError::new(format!(
                    "dt policy: {label} must be finite and positive, got {v}"
                )));
            }
            Ok(())
        };
        match *self {
            DtPolicy::Fixed { dt } => check("dt", dt),
            DtPolicy::Ramp {
                initial,
                growth,
                max,
            } => {
                check("initial dt", initial)?;
                check("max dt", max)?;
                if !growth.is_finite() || growth < 1.0 {
                    return Err(WorkloadError::new(format!(
                        "dt policy: growth factor must be ≥ 1, got {growth}"
                    )));
                }
                if max < initial {
                    return Err(WorkloadError::new(format!(
                        "dt policy: max dt {max} below initial dt {initial}"
                    )));
                }
                Ok(())
            }
        }
    }
}

/// A declarative transient scenario on top of a steady workload.
#[derive(Clone, Debug, PartialEq)]
pub struct TransientSpec {
    /// Simulated time horizon, seconds.
    pub total_time: f64,
    /// Time-step policy.
    pub dt: DtPolicy,
    /// Total (rock + fluid) compressibility `c_t`, 1/Pa; must be positive —
    /// it is what makes the accumulation term (and the step system's
    /// diagonal shift) non-degenerate.
    pub total_compressibility: f64,
    /// Well source terms (see [`WellSet`] for units and sign conventions).
    pub wells: WellSet,
    /// Initial reservoir pressure, Pa; `None` uses the workload's own
    /// initial guess (the mean of its Dirichlet values).  Dirichlet values
    /// are imposed on top either way.
    pub initial_pressure: Option<f64>,
    /// Times (seconds) at which to keep full pressure snapshots in the
    /// report; each requested time captures the end of the first step that
    /// reaches it.  The final pressure is always available.
    pub snapshot_times: Vec<f64>,
    /// Warm-start each step's CG from the previous step's pressure update
    /// (`true`, the default) instead of from zero.  Deterministic either
    /// way; warm starts only change how *fast* steps converge.
    pub warm_start: bool,
}

impl TransientSpec {
    /// A transient scenario over `total_time` seconds with fixed steps of
    /// `dt`, compressibility `c_t`, and no wells yet.
    pub fn new(total_time: f64, dt: f64, total_compressibility: f64) -> Self {
        Self {
            total_time,
            dt: DtPolicy::fixed(dt),
            total_compressibility,
            wells: WellSet::empty(),
            initial_pressure: None,
            snapshot_times: Vec::new(),
            warm_start: true,
        }
    }

    /// Replace the dt policy.
    pub fn with_dt_policy(mut self, dt: DtPolicy) -> Self {
        self.dt = dt;
        self
    }

    /// Replace the well set.
    pub fn with_wells(mut self, wells: WellSet) -> Self {
        self.wells = wells;
        self
    }

    /// Set a uniform initial reservoir pressure (Pa).
    pub fn with_initial_pressure(mut self, pressure: f64) -> Self {
        self.initial_pressure = Some(pressure);
        self
    }

    /// Request pressure snapshots at the given times (seconds).
    pub fn with_snapshots(mut self, times: impl IntoIterator<Item = f64>) -> Self {
        self.snapshot_times = times.into_iter().collect();
        self
    }

    /// Disable warm starting (every step's CG starts from zero) — the
    /// cold-start baseline warm-start savings are measured against.
    pub fn cold_start(mut self) -> Self {
        self.warm_start = false;
        self
    }

    /// The `(start_time, dt)` schedule of the whole run: nominal policy steps
    /// clipped so the last step lands exactly on `total_time`.  Purely a
    /// function of the spec — every backend steps the identical schedule.
    pub fn schedule(&self) -> Vec<(f64, f64)> {
        let mut steps = Vec::new();
        let mut t = 0.0;
        let mut nominal = self.dt.first_dt();
        // Relative guard against a float-dust final step.
        let eps = self.total_time * 1e-12;
        while t < self.total_time - eps {
            let dt = nominal.min(self.total_time - t);
            steps.push((t, dt));
            t += dt;
            nominal = self.dt.next_dt(nominal);
        }
        steps
    }

    /// Number of steps the schedule will take.
    pub fn num_steps(&self) -> usize {
        self.schedule().len()
    }

    /// Check the spec against a grid: positive finite horizon and
    /// compressibility, a valid dt policy, valid wells, and finite snapshot
    /// times.
    pub fn validate(&self, dims: crate::dims::Dims) -> Result<(), WorkloadError> {
        if !self.total_time.is_finite() || self.total_time <= 0.0 {
            return Err(WorkloadError::new(format!(
                "total_time must be finite and positive, got {}",
                self.total_time
            )));
        }
        self.dt.validate()?;
        if !self.total_compressibility.is_finite() || self.total_compressibility <= 0.0 {
            return Err(WorkloadError::new(format!(
                "total compressibility must be finite and positive, got {}",
                self.total_compressibility
            )));
        }
        if let Some(p) = self.initial_pressure {
            if !p.is_finite() {
                return Err(WorkloadError::new(format!(
                    "initial pressure must be finite, got {p}"
                )));
            }
        }
        for &t in &self.snapshot_times {
            if !t.is_finite() || t < 0.0 || t > self.total_time {
                return Err(WorkloadError::new(format!(
                    "snapshot times must lie within [0, total_time = {}], got {t} \
                     (a later time would silently never be captured)",
                    self.total_time
                )));
            }
        }
        self.wells.validate(dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dims::{CellIndex, Dims};
    use crate::wells::Well;

    #[test]
    fn fixed_schedule_clips_the_last_step() {
        let spec = TransientSpec::new(10.0, 3.0, 1e-9);
        let steps = spec.schedule();
        assert_eq!(steps.len(), 4);
        assert_eq!(steps[0], (0.0, 3.0));
        assert_eq!(steps[3], (9.0, 1.0));
        let total: f64 = steps.iter().map(|&(_, dt)| dt).sum();
        assert!((total - 10.0).abs() < 1e-12);
        assert_eq!(spec.num_steps(), 4);
    }

    #[test]
    fn exact_division_produces_no_dust_step() {
        let spec = TransientSpec::new(1.0, 0.1, 1e-9);
        assert_eq!(spec.num_steps(), 10);
    }

    #[test]
    fn ramp_grows_geometrically_and_caps() {
        let policy = DtPolicy::ramp(1.0, 2.0, 5.0);
        assert_eq!(policy.nominal_dt(0), 1.0);
        assert_eq!(policy.nominal_dt(1), 2.0);
        assert_eq!(policy.nominal_dt(2), 4.0);
        assert_eq!(policy.nominal_dt(3), 5.0);
        assert_eq!(policy.nominal_dt(10), 5.0);
        let spec = TransientSpec::new(20.0, 1.0, 1e-9).with_dt_policy(policy);
        let steps = spec.schedule();
        assert_eq!(steps[0].1, 1.0);
        assert!(steps.iter().all(|&(_, dt)| dt <= 5.0));
        let total: f64 = steps.iter().map(|&(_, dt)| dt).sum();
        assert!((total - 20.0).abs() < 1e-12);
    }

    #[test]
    fn validation_covers_every_field() {
        let dims = Dims::new(4, 4, 2);
        let good = TransientSpec::new(10.0, 1.0, 1e-9)
            .with_wells(WellSet::empty().with(Well::rate("w", CellIndex::new(0, 0, 0), 1.0)))
            .with_snapshots([1.0, 5.0]);
        assert!(good.validate(dims).is_ok());

        assert!(TransientSpec::new(0.0, 1.0, 1e-9).validate(dims).is_err());
        assert!(TransientSpec::new(10.0, -1.0, 1e-9).validate(dims).is_err());
        assert!(TransientSpec::new(10.0, 1.0, 0.0).validate(dims).is_err());
        assert!(TransientSpec::new(10.0, 1.0, 1e-9)
            .with_dt_policy(DtPolicy::ramp(1.0, 0.5, 2.0))
            .validate(dims)
            .is_err());
        assert!(TransientSpec::new(10.0, 1.0, 1e-9)
            .with_initial_pressure(f64::NAN)
            .validate(dims)
            .is_err());
        assert!(TransientSpec::new(10.0, 1.0, 1e-9)
            .with_snapshots([-1.0])
            .validate(dims)
            .is_err());
        assert!(
            TransientSpec::new(10.0, 1.0, 1e-9)
                .with_snapshots([10.5])
                .validate(dims)
                .is_err(),
            "snapshot beyond the horizon would silently never capture"
        );
        assert!(TransientSpec::new(10.0, 1.0, 1e-9)
            .with_wells(WellSet::empty().with(Well::rate("w", CellIndex::new(9, 0, 0), 1.0)))
            .validate(dims)
            .is_err());
    }
}
