//! Scenario sweeps: fan one base [`WorkloadSpec`] across axes of variation.
//!
//! A [`SweepBuilder`] is the comparison-study generator the batch engine
//! feeds on: from a single base spec it produces the cartesian product of
//! grid sizes × tolerances × permeability seeds × the transient axes (time
//! step, compressibility, well schedule) × preconditioners × backends as a
//! flat, deterministically ordered `Vec<JobSpec>`.  Axes you do not set stay
//! at the base spec's own value, so `SweepBuilder::new(spec).jobs()` is
//! exactly one host job.
//!
//! Job names encode the varied axes (`-tol1e-8`, `-seed3`, `-pcmg`, and the
//! grid extents), so every row of the resulting
//! [`BatchReport`](crate::BatchReport) is self-describing.

use crate::backend::Backend;
use crate::job::JobSpec;
use mffv_mesh::{Dims, DtPolicy, TransientSpec, WellSet, WorkloadSpec};
use mffv_solver::backend::PreconditionerKind;

/// Builder for a cartesian scenario sweep over one base workload.
#[derive(Clone, Debug)]
pub struct SweepBuilder {
    base: WorkloadSpec,
    grids: Vec<Dims>,
    tolerances: Vec<f64>,
    seeds: Vec<Option<u64>>,
    backends: Vec<Backend>,
    preconditioners: Vec<PreconditionerKind>,
    max_iterations: Option<usize>,
    /// Base transient scenario; `None` keeps the sweep steady-state.
    transient: Option<TransientSpec>,
    /// Transient axes (`None` = the base transient value).
    dts: Vec<Option<f64>>,
    compressibilities: Vec<Option<f64>>,
    well_schedules: Vec<Option<WellSet>>,
}

impl SweepBuilder {
    /// A sweep around `base`, with every axis at the base value: one grid
    /// (the base dims), the base tolerance, the base spec's own permeability
    /// seed, plain CG and the host backend.
    pub fn new(base: WorkloadSpec) -> Self {
        let dims = base.dims;
        let tolerance = base.tolerance;
        Self {
            base,
            grids: vec![dims],
            tolerances: vec![tolerance],
            seeds: vec![None],
            backends: vec![Backend::host()],
            preconditioners: vec![PreconditionerKind::None],
            max_iterations: None,
            transient: None,
            dts: vec![None],
            compressibilities: vec![None],
            well_schedules: vec![None],
        }
    }

    /// Make every generated job a transient run of `spec` (the base
    /// scenario the [`dts`](Self::dts) / [`compressibilities`](Self::compressibilities)
    /// / [`well_schedules`](Self::well_schedules) axes vary around).
    pub fn transient(mut self, spec: TransientSpec) -> Self {
        self.transient = Some(spec);
        self
    }

    /// Sweep transient runs over fixed time-step sizes (seconds).  Requires
    /// [`transient`](Self::transient).
    pub fn dts(mut self, dts: impl IntoIterator<Item = f64>) -> Self {
        self.dts = dts.into_iter().map(Some).collect();
        assert!(!self.dts.is_empty(), "at least one dt required");
        self
    }

    /// Sweep transient runs over total compressibilities (1/Pa).  Requires
    /// [`transient`](Self::transient).
    pub fn compressibilities(mut self, cts: impl IntoIterator<Item = f64>) -> Self {
        self.compressibilities = cts.into_iter().map(Some).collect();
        assert!(
            !self.compressibilities.is_empty(),
            "at least one compressibility required"
        );
        self
    }

    /// Sweep transient runs over well schedules (each [`WellSet`] replaces
    /// the base scenario's wells).  Requires [`transient`](Self::transient).
    pub fn well_schedules(mut self, sets: impl IntoIterator<Item = WellSet>) -> Self {
        self.well_schedules = sets.into_iter().map(Some).collect();
        assert!(
            !self.well_schedules.is_empty(),
            "at least one well schedule required"
        );
        self
    }

    /// Sweep over explicit grid extents.
    pub fn grids(mut self, grids: impl IntoIterator<Item = Dims>) -> Self {
        self.grids = grids.into_iter().collect();
        assert!(!self.grids.is_empty(), "at least one grid required");
        self
    }

    /// Sweep over CG tolerances (set on the workload spec).
    pub fn tolerances(mut self, tolerances: impl IntoIterator<Item = f64>) -> Self {
        self.tolerances = tolerances.into_iter().collect();
        assert!(
            !self.tolerances.is_empty(),
            "at least one tolerance required"
        );
        self
    }

    /// Sweep over permeability seeds (reproducible realisations of stochastic
    /// permeability models; a no-op axis for deterministic models).
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = seeds.into_iter().map(Some).collect();
        assert!(!self.seeds.is_empty(), "at least one seed required");
        self
    }

    /// Sweep over solve backends.
    pub fn backends(mut self, backends: impl IntoIterator<Item = Backend>) -> Self {
        self.backends = backends.into_iter().collect();
        assert!(!self.backends.is_empty(), "at least one backend required");
        self
    }

    /// Sweep over Krylov preconditioners (plain CG, Jacobi, the multigrid
    /// V-cycle).  Jobs are suffixed `-pc<label>` when the axis is varied.
    pub fn preconditioners(
        mut self,
        preconditioners: impl IntoIterator<Item = PreconditionerKind>,
    ) -> Self {
        self.preconditioners = preconditioners.into_iter().collect();
        assert!(
            !self.preconditioners.is_empty(),
            "at least one preconditioner required"
        );
        self
    }

    /// Cap the iteration count of every generated workload.
    pub fn max_iterations(mut self, max_iterations: usize) -> Self {
        self.max_iterations = Some(max_iterations);
        self
    }

    /// Number of jobs the sweep will generate.
    pub fn job_count(&self) -> usize {
        self.grids.len()
            * self.tolerances.len()
            * self.seeds.len()
            * self.dts.len()
            * self.compressibilities.len()
            * self.well_schedules.len()
            * self.preconditioners.len()
            * self.backends.len()
    }

    /// Generate the jobs: the cartesian product in deterministic order
    /// (grids, then tolerances, then seeds, then the transient axes dt /
    /// compressibility / well schedule, then preconditioners, with backends
    /// innermost so cross-backend comparisons of one scenario sit adjacent).
    ///
    /// Panics when a transient axis was set without a base
    /// [`transient`](Self::transient) scenario.
    pub fn jobs(&self) -> Vec<JobSpec> {
        let transient_axes_set = self.dts != [None]
            || self.compressibilities != [None]
            || self.well_schedules.iter().any(Option::is_some);
        assert!(
            self.transient.is_some() || !transient_axes_set,
            "dt/compressibility/well-schedule axes require a base `.transient(spec)`"
        );
        let mut jobs = Vec::with_capacity(self.job_count());
        for &dims in &self.grids {
            for &tolerance in &self.tolerances {
                for &seed in &self.seeds {
                    let spec = self.scenario_spec(dims, tolerance, seed);
                    for &dt in &self.dts {
                        for &ct in &self.compressibilities {
                            for (wi, wells) in self.well_schedules.iter().enumerate() {
                                let transient = self.transient_variant(dt, ct, wells.as_ref());
                                let mut spec = spec.clone();
                                spec.name = self.transient_name(spec.name, dt, ct, wi);
                                for &preconditioner in &self.preconditioners {
                                    let mut spec = spec.clone();
                                    if self.preconditioners.len() > 1 {
                                        spec.name =
                                            format!("{}-pc{}", spec.name, preconditioner.label());
                                    }
                                    for &backend in &self.backends {
                                        let mut job = JobSpec::new(spec.clone(), backend)
                                            .with_preconditioner(preconditioner);
                                        if let Some(seed) = seed {
                                            job = job.with_seed(seed);
                                        }
                                        if let Some(transient) = transient.clone() {
                                            job = job.with_transient(transient);
                                        }
                                        jobs.push(job);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        jobs
    }

    /// The base transient scenario with one sweep point's dt /
    /// compressibility / wells applied (`None` when the sweep is steady).
    fn transient_variant(
        &self,
        dt: Option<f64>,
        ct: Option<f64>,
        wells: Option<&WellSet>,
    ) -> Option<TransientSpec> {
        let mut spec = self.transient.clone()?;
        if let Some(dt) = dt {
            spec.dt = DtPolicy::fixed(dt);
        }
        if let Some(ct) = ct {
            spec.total_compressibility = ct;
        }
        if let Some(wells) = wells {
            spec.wells = wells.clone();
        }
        Some(spec)
    }

    /// Append the varied transient axes to a scenario name.
    fn transient_name(
        &self,
        mut name: String,
        dt: Option<f64>,
        ct: Option<f64>,
        wi: usize,
    ) -> String {
        if let (Some(dt), true) = (dt, self.dts.len() > 1) {
            name = format!("{name}-dt{dt}");
        }
        if let (Some(ct), true) = (ct, self.compressibilities.len() > 1) {
            name = format!("{name}-ct{ct:e}");
        }
        if self.well_schedules.len() > 1 {
            name = format!("{name}-wells{wi}");
        }
        name
    }

    /// The workload spec of one scenario, named after its varied axes.
    fn scenario_spec(&self, dims: Dims, tolerance: f64, seed: Option<u64>) -> WorkloadSpec {
        let mut name = self.base.name.clone();
        if self.grids.len() > 1 || dims != self.base.dims {
            name = format!("{name}-{dims}");
        }
        if self.tolerances.len() > 1 {
            name = format!("{name}-tol{tolerance:e}");
        }
        if let (Some(seed), true) = (seed, self.seeds.len() > 1) {
            name = format!("{name}-seed{seed}");
        }
        WorkloadSpec {
            name,
            dims,
            tolerance,
            max_iterations: self.max_iterations.unwrap_or(self.base.max_iterations),
            ..self.base.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mffv_mesh::PermeabilityModel;

    #[test]
    fn default_sweep_is_one_host_job_of_the_base_spec() {
        let jobs = SweepBuilder::new(WorkloadSpec::quickstart()).jobs();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].workload_spec, WorkloadSpec::quickstart());
        assert_eq!(jobs[0].backend.name(), "host-f64");
    }

    #[test]
    fn cartesian_product_covers_every_axis_combination() {
        let sweep = SweepBuilder::new(WorkloadSpec::quickstart())
            .grids([
                Dims::new(8, 8, 4),
                Dims::new(12, 12, 6),
                Dims::new(16, 16, 8),
            ])
            .seeds([1, 2])
            .backends([Backend::host(), Backend::dataflow()]);
        assert_eq!(sweep.job_count(), 12);
        let jobs = sweep.jobs();
        assert_eq!(jobs.len(), 12);
        // Backends innermost: jobs 0 and 1 share a scenario.
        assert_eq!(jobs[0].workload_spec.name, jobs[1].workload_spec.name);
        assert_eq!(jobs[0].backend.name(), "host-f64");
        assert_eq!(jobs[1].backend.name(), "dataflow");
        // All scenario names are distinct.
        let mut names: Vec<String> = jobs
            .iter()
            .map(|j| format!("{} @ {}", j.workload_spec.name, j.backend.name()))
            .collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 12);
    }

    #[test]
    fn transient_axes_fan_out_dt_compressibility_and_schedules() {
        use mffv_mesh::{CellIndex, Well};
        let base = TransientSpec::new(1.0, 0.25, 1e-3);
        let schedules = [
            WellSet::empty().with(Well::rate("inj", CellIndex::new(1, 1, 1), 1.0)),
            WellSet::empty().with(Well::rate("inj", CellIndex::new(1, 1, 1), 2.0)),
        ];
        let sweep = SweepBuilder::new(WorkloadSpec::quickstart())
            .transient(base.clone())
            .dts([0.25, 0.5])
            .compressibilities([1e-3, 1e-4, 1e-5])
            .well_schedules(schedules.clone());
        assert_eq!(sweep.job_count(), 12);
        let jobs = sweep.jobs();
        assert_eq!(jobs.len(), 12);
        for job in &jobs {
            let t = job.transient.as_ref().expect("every job is transient");
            assert!(matches!(t.dt, DtPolicy::Fixed { dt } if dt == 0.25 || dt == 0.5));
            assert_eq!(t.total_time, base.total_time);
        }
        // Axis order: dt outermost, then ct, then schedule.
        assert_eq!(jobs[0].transient.as_ref().unwrap().wells, schedules[0]);
        assert_eq!(jobs[1].transient.as_ref().unwrap().wells, schedules[1]);
        assert_eq!(
            jobs[1].transient.as_ref().unwrap().total_compressibility,
            1e-3
        );
        assert_eq!(
            jobs[2].transient.as_ref().unwrap().total_compressibility,
            1e-4
        );
        // Names encode the varied axes and stay unique.
        let mut names: Vec<&str> = jobs.iter().map(|j| j.workload_spec.name.as_str()).collect();
        assert!(names[0].contains("-dt0.25") && names[0].contains("-wells0"));
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 12);
    }

    #[test]
    #[should_panic(expected = "transient")]
    fn transient_axes_without_a_base_scenario_panic() {
        let _ = SweepBuilder::new(WorkloadSpec::quickstart())
            .dts([0.1])
            .jobs();
    }

    #[test]
    fn tolerances_and_max_iterations_reach_the_spec() {
        let jobs = SweepBuilder::new(WorkloadSpec::quickstart())
            .tolerances([1e-6, 1e-12])
            .max_iterations(123)
            .jobs();
        assert_eq!(jobs[0].workload_spec.tolerance, 1e-6);
        assert_eq!(jobs[1].workload_spec.tolerance, 1e-12);
        assert!(jobs.iter().all(|j| j.workload_spec.max_iterations == 123));
        assert!(jobs[0].workload_spec.name.contains("tol1e-6"));
    }

    #[test]
    fn preconditioners_axis_names_jobs_and_reaches_the_config() {
        let jobs = SweepBuilder::new(WorkloadSpec::quickstart())
            .preconditioners([
                PreconditionerKind::None,
                PreconditionerKind::Jacobi,
                PreconditionerKind::Mg,
            ])
            .backends([Backend::host(), Backend::dataflow()])
            .jobs();
        assert_eq!(jobs.len(), 6);
        assert_eq!(
            jobs[0].solve_config.preconditioner,
            PreconditionerKind::None
        );
        assert_eq!(
            jobs[2].solve_config.preconditioner,
            PreconditionerKind::Jacobi
        );
        assert_eq!(jobs[4].solve_config.preconditioner, PreconditionerKind::Mg);
        assert!(jobs[0].workload_spec.name.contains("-pcnone"));
        assert!(jobs[3].workload_spec.name.contains("-pcjacobi"));
        assert!(jobs[5].workload_spec.name.contains("-pcmg"));
        // Backends stay innermost: both backends of one preconditioner are
        // adjacent and share the scenario name.
        assert_eq!(jobs[4].workload_spec.name, jobs[5].workload_spec.name);
    }

    #[test]
    fn default_sweep_preserves_the_base_specs_own_seed() {
        let base = WorkloadSpec {
            permeability: PermeabilityModel::LogNormal {
                mean_log: 0.0,
                std_log: 0.5,
                seed: 42,
            },
            ..WorkloadSpec::quickstart()
        };
        let jobs = SweepBuilder::new(base.clone()).jobs();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].seed, None);
        assert_eq!(jobs[0].effective_spec(), base);
    }

    #[test]
    fn seeds_reach_stochastic_permeability_via_effective_spec() {
        let base = WorkloadSpec {
            permeability: PermeabilityModel::LogNormal {
                mean_log: 0.0,
                std_log: 0.5,
                seed: 0,
            },
            ..WorkloadSpec::quickstart()
        };
        let jobs = SweepBuilder::new(base).seeds([3, 4]).jobs();
        assert_eq!(jobs.len(), 2);
        assert_ne!(
            jobs[0].effective_spec().permeability,
            jobs[1].effective_spec().permeability
        );
        assert!(jobs[0].workload_spec.name.contains("seed3"));
    }

    #[test]
    fn every_generated_job_passes_intake_validation() {
        let sweep = SweepBuilder::new(WorkloadSpec::fig5(Dims::new(12, 10, 6)))
            .grids([Dims::new(12, 10, 6), Dims::new(6, 5, 3)])
            .backends(Backend::standard_set());
        for job in sweep.jobs() {
            job.validate().expect("sweep jobs must be valid");
        }
    }
}
