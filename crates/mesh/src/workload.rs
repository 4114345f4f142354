//! Named problem setups ("workloads") reproducing the paper's experimental grids.
//!
//! The evaluation section of the paper uses a family of grids with `Nz = 922` and
//! X/Y extents growing up to the full CS-2 fabric of `750 × 994` PEs (Table III), a
//! Figure-5 injection scenario with a source column in one corner and a producer in
//! the opposite corner, and a fixed CG tolerance of `2 × 10⁻¹⁰`.
//!
//! Because the full 687-million-cell grid does not fit in host memory here, every
//! paper grid can be **scaled**: [`WorkloadSpec::scaled`] divides each extent by a
//! factor while keeping the aspect ratio, so executed experiments sweep the same
//! shape and the analytic performance models are evaluated at the paper's full
//! logical sizes (see `DESIGN.md` §2).

use crate::boundary::DirichletSet;
use crate::dims::Dims;
use crate::field::CellField;
use crate::mesh::CartesianMesh;
use crate::permeability::PermeabilityModel;
use crate::transmissibility::Transmissibilities;

/// A [`WorkloadSpec`] that cannot be materialised into a solvable problem.
///
/// Produced by [`WorkloadSpec::validate`]; callers above the mesh layer (the
/// `Simulation` facade, the `mffv-engine` batch executor) convert it into
/// their own error types so invalid specs surface as descriptive errors
/// instead of downstream panics or silent overflow.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkloadError {
    message: String,
}

impl WorkloadError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for WorkloadError {}

/// The CG convergence tolerance used throughout the paper's evaluation (§V-C).
pub const PAPER_TOLERANCE: f64 = 2e-10;

/// The fabric extent available on the CS-2 ("the grid size is 750 × 994", §V-A).
pub const PAPER_FABRIC: (usize, usize) = (750, 994);

/// The Z depth used in every paper experiment.
pub const PAPER_NZ: usize = 922;

/// How the Dirichlet boundary is configured for a workload.
#[derive(Clone, Debug, PartialEq)]
pub enum BoundarySpec {
    /// Source column at (0, 0) and producer column at (nx-1, ny-1), as in Figure 5.
    SourceProducer {
        source_pressure: f64,
        producer_pressure: f64,
    },
    /// Fixed pressures on the two X faces of the domain.
    XFaces {
        left_pressure: f64,
        right_pressure: f64,
    },
    /// No Dirichlet cells (only usable with a pinned/regularised solver).
    None,
}

/// A declarative description of a problem setup.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadSpec {
    /// Human-readable name used in reports and benchmark IDs.
    pub name: String,
    /// Grid extents.
    pub dims: Dims,
    /// Cell spacing in metres.
    pub spacing: [f64; 3],
    /// Permeability model.
    pub permeability: PermeabilityModel,
    /// Fluid viscosity in Pa·s.
    pub viscosity: f64,
    /// Boundary configuration.
    pub boundary: BoundarySpec,
    /// CG convergence tolerance on `rᵀr`.
    pub tolerance: f64,
    /// Maximum number of CG iterations.
    pub max_iterations: usize,
}

impl WorkloadSpec {
    /// A small, fully homogeneous setup for quickstarts and unit tests.
    pub fn quickstart() -> Self {
        Self {
            name: "quickstart-16x16x8".to_string(),
            dims: Dims::new(16, 16, 8),
            spacing: [1.0, 1.0, 1.0],
            permeability: PermeabilityModel::Homogeneous { value: 1.0 },
            viscosity: 1.0,
            boundary: BoundarySpec::SourceProducer {
                source_pressure: 1.0,
                producer_pressure: 0.0,
            },
            tolerance: 1e-10,
            max_iterations: 2000,
        }
    }

    /// The Figure-5 CO₂-injection scenario at a configurable grid size: unit
    /// permeability contrast through a layered model, a pressurised source column in
    /// the top-left corner and a producer column in the bottom-right corner.
    pub fn fig5(dims: Dims) -> Self {
        Self {
            name: format!("fig5-{dims}"),
            dims,
            spacing: [10.0, 10.0, 2.0],
            permeability: PermeabilityModel::Layered {
                layer_values: vec![2.0e-13, 5.0e-14, 1.0e-13, 2.5e-14],
            },
            viscosity: 5.0e-4,
            boundary: BoundarySpec::SourceProducer {
                source_pressure: 4.0e7,
                producer_pressure: 1.0e7,
            },
            tolerance: PAPER_TOLERANCE,
            max_iterations: 10_000,
        }
    }

    /// A paper-style grid (homogeneous permeability, source/producer wells, the
    /// paper's tolerance) at the given logical extents.
    pub fn paper_grid(nx: usize, ny: usize, nz: usize) -> Self {
        let dims = Dims::new(nx, ny, nz);
        Self {
            name: format!("paper-{dims}"),
            dims,
            spacing: [1.0, 1.0, 1.0],
            permeability: PermeabilityModel::Homogeneous { value: 1.0 },
            viscosity: 1.0,
            boundary: BoundarySpec::SourceProducer {
                source_pressure: 1.0,
                producer_pressure: 0.0,
            },
            tolerance: PAPER_TOLERANCE,
            max_iterations: 10_000,
        }
    }

    /// The seven grid sizes of Table III, at their full logical extents.
    pub fn table3_grids() -> Vec<(usize, usize, usize)> {
        vec![
            (200, 200, PAPER_NZ),
            (400, 400, PAPER_NZ),
            (600, 600, PAPER_NZ),
            (750, 600, PAPER_NZ),
            (750, 800, PAPER_NZ),
            (750, 950, PAPER_NZ),
            (750, 994, PAPER_NZ),
        ]
    }

    /// The largest grid of the paper (Table II / Table IV: `750 × 994 × 922`).
    pub fn table2_grid() -> (usize, usize, usize) {
        (PAPER_FABRIC.0, PAPER_FABRIC.1, PAPER_NZ)
    }

    /// Scale every extent down by `factor` (each extent is divided by `factor` and
    /// clamped to at least 2 cells), keeping the rest of the spec unchanged.  Used to
    /// execute the paper's grid family on host-sized memory.
    pub fn scaled(&self, factor: usize) -> Self {
        assert!(factor >= 1, "scale factor must be at least 1");
        let scale = |n: usize| (n / factor).max(2);
        let dims = Dims::new(
            scale(self.dims.nx),
            scale(self.dims.ny),
            scale(self.dims.nz),
        );
        Self {
            name: format!("{}-scaled{}", self.name, factor),
            dims,
            ..self.clone()
        }
    }

    /// Replace the seed of a stochastic permeability model ([`LogNormal`] /
    /// [`Channelized`]), leaving deterministic models untouched — the hook the
    /// engine's `JobSpec::seed` and scenario sweeps use to fan one spec across
    /// reproducible permeability realisations.
    ///
    /// [`LogNormal`]: PermeabilityModel::LogNormal
    /// [`Channelized`]: PermeabilityModel::Channelized
    pub fn with_permeability_seed(&self, seed: u64) -> Self {
        Self {
            permeability: self.permeability.reseeded(seed),
            ..self.clone()
        }
    }

    /// Check that the spec describes a solvable problem: non-zero grid extents
    /// whose cell count does not overflow `usize`, finite positive spacing and
    /// viscosity, a finite positive tolerance, and a non-zero iteration cap.
    ///
    /// [`Workload::from_spec`] and the engine's job intake call this, so a bad
    /// spec fails with a descriptive [`WorkloadError`] instead of panicking
    /// (or wrapping around) somewhere deep in field allocation or the solver.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        let Dims { nx, ny, nz } = self.dims;
        if nx == 0 || ny == 0 || nz == 0 {
            return Err(WorkloadError::new(format!(
                "grid extents must all be non-zero, got {}x{}x{}",
                nx, ny, nz
            )));
        }
        if nx
            .checked_mul(ny)
            .and_then(|xy| xy.checked_mul(nz))
            .is_none()
        {
            return Err(WorkloadError::new(format!(
                "grid {}x{}x{} overflows the addressable cell count",
                nx, ny, nz
            )));
        }
        for (axis, &h) in ["dx", "dy", "dz"].iter().zip(self.spacing.iter()) {
            if !h.is_finite() || h <= 0.0 {
                return Err(WorkloadError::new(format!(
                    "cell spacing {axis} must be finite and positive, got {h}"
                )));
            }
        }
        if !self.viscosity.is_finite() || self.viscosity <= 0.0 {
            return Err(WorkloadError::new(format!(
                "viscosity must be finite and positive, got {}",
                self.viscosity
            )));
        }
        if !self.tolerance.is_finite() || self.tolerance <= 0.0 {
            return Err(WorkloadError::new(format!(
                "tolerance must be finite and positive, got {}",
                self.tolerance
            )));
        }
        if self.max_iterations == 0 {
            return Err(WorkloadError::new(
                "max_iterations must be non-zero (the solver could never step)",
            ));
        }
        Ok(())
    }

    /// Materialise the spec into a [`Workload`] (computes permeability and
    /// transmissibility fields).  Panics on an invalid spec; use
    /// [`Workload::try_from_spec`] for a fallible build.
    pub fn build(&self) -> Workload {
        Workload::from_spec(self)
    }
}

/// A fully materialised problem: mesh, permeability, transmissibilities, boundary
/// conditions and an initial pressure field with the Dirichlet values imposed.
#[derive(Clone, Debug)]
pub struct Workload {
    spec: WorkloadSpec,
    mesh: CartesianMesh,
    permeability: CellField<f64>,
    transmissibility: Transmissibilities<f64>,
    dirichlet: DirichletSet,
}

impl Workload {
    /// Materialise a [`WorkloadSpec`], panicking with the validation message
    /// when the spec is invalid (see [`Workload::try_from_spec`]).
    pub fn from_spec(spec: &WorkloadSpec) -> Self {
        Self::try_from_spec(spec)
            // audit: allow(panic) — invariant: documented panicking constructor;
            // fallible callers use try_from_spec, the engine validates at intake.
            .unwrap_or_else(|e| panic!("invalid workload `{}`: {e}", spec.name))
    }

    /// Materialise a [`WorkloadSpec`], rejecting invalid specs with a
    /// descriptive [`WorkloadError`] instead of a downstream panic.
    pub fn try_from_spec(spec: &WorkloadSpec) -> Result<Self, WorkloadError> {
        spec.validate()?;
        let mesh = CartesianMesh::with_spacing(
            spec.dims,
            spec.spacing[0],
            spec.spacing[1],
            spec.spacing[2],
        );
        let permeability = spec.permeability.generate(spec.dims);
        let transmissibility = Transmissibilities::from_mesh(&mesh, &permeability, spec.viscosity);
        let dirichlet = match spec.boundary {
            BoundarySpec::SourceProducer {
                source_pressure,
                producer_pressure,
            } => DirichletSet::source_producer(spec.dims, source_pressure, producer_pressure),
            BoundarySpec::XFaces {
                left_pressure,
                right_pressure,
            } => DirichletSet::x_faces(spec.dims, left_pressure, right_pressure),
            BoundarySpec::None => DirichletSet::empty(),
        };
        Ok(Self {
            spec: spec.clone(),
            mesh,
            permeability,
            transmissibility,
            dirichlet,
        })
    }

    /// The originating spec.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Workload name.
    pub fn name(&self) -> &str {
        &self.spec.name
    }

    /// Grid extents.
    pub fn dims(&self) -> Dims {
        self.spec.dims
    }

    /// The mesh geometry.
    pub fn mesh(&self) -> &CartesianMesh {
        &self.mesh
    }

    /// The permeability field (m²).
    pub fn permeability(&self) -> &CellField<f64> {
        &self.permeability
    }

    /// The TPFA transmissibility coefficients in `f64`.
    pub fn transmissibility(&self) -> &Transmissibilities<f64> {
        &self.transmissibility
    }

    /// The Dirichlet cell set.
    pub fn dirichlet(&self) -> &DirichletSet {
        &self.dirichlet
    }

    /// CG tolerance for this workload.
    pub fn tolerance(&self) -> f64 {
        self.spec.tolerance
    }

    /// Maximum CG iterations for this workload.
    pub fn max_iterations(&self) -> usize {
        self.spec.max_iterations
    }

    /// An initial pressure guess: the mean of the Dirichlet values everywhere (or
    /// zero when there are none), with the Dirichlet values imposed exactly.
    pub fn initial_pressure<T: crate::scalar::Scalar>(&self) -> CellField<T> {
        // Sequential fold: the initial guess seeds the CG iteration, so its
        // bits are part of the solve's determinism contract.
        let mean = crate::reduce::seq_mean(self.dirichlet.cells().iter().map(|c| c.value));
        let mut p = CellField::constant(self.dims(), T::from_f64(mean));
        self.dirichlet.impose(&mut p);
        p
    }

    /// [`initial_pressure`](Self::initial_pressure) into a caller-owned
    /// buffer — bitwise the same field, zero allocations.  Panics when the
    /// buffer's dims differ from the workload's.
    pub fn initial_pressure_into<T: crate::scalar::Scalar>(&self, out: &mut CellField<T>) {
        assert_eq!(out.dims(), self.dims(), "initial-pressure buffer mismatch");
        let mean = crate::reduce::seq_mean(self.dirichlet.cells().iter().map(|c| c.value));
        out.fill(T::from_f64(mean));
        self.dirichlet.impose(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quickstart_builds() {
        let w = WorkloadSpec::quickstart().build();
        assert_eq!(w.dims(), Dims::new(16, 16, 8));
        assert_eq!(w.dirichlet().len(), 2 * 8);
        assert!(w.tolerance() > 0.0);
        assert_eq!(w.name(), "quickstart-16x16x8");
    }

    #[test]
    fn table3_grid_family_matches_paper() {
        let grids = WorkloadSpec::table3_grids();
        assert_eq!(grids.len(), 7);
        assert_eq!(grids[0], (200, 200, 922));
        assert_eq!(grids[6], (750, 994, 922));
        let cells: usize = grids[6].0 * grids[6].1 * grids[6].2;
        assert_eq!(cells, 687_351_000);
        assert_eq!(WorkloadSpec::table2_grid(), (750, 994, 922));
    }

    #[test]
    fn scaling_preserves_aspect_and_floors_at_two() {
        let spec = WorkloadSpec::paper_grid(750, 994, 922);
        let scaled = spec.scaled(8);
        assert_eq!(scaled.dims, Dims::new(93, 124, 115));
        let tiny = spec.scaled(1000);
        assert_eq!(tiny.dims, Dims::new(2, 2, 2));
        assert!(scaled.name.contains("scaled8"));
    }

    #[test]
    fn fig5_has_corner_wells() {
        let w = WorkloadSpec::fig5(Dims::new(12, 10, 6)).build();
        let d = w.dims();
        assert!(w
            .dirichlet()
            .contains_linear(d.linear(crate::dims::CellIndex::new(0, 0, 0))));
        assert!(w
            .dirichlet()
            .contains_linear(d.linear(crate::dims::CellIndex::new(11, 9, 5))));
        // Layered model gives a heterogeneous field.
        assert!(crate::permeability::contrast_ratio(w.permeability()) > 1.0);
    }

    #[test]
    fn initial_pressure_respects_dirichlet() {
        let w = WorkloadSpec::quickstart().build();
        let p: CellField<f64> = w.initial_pressure();
        let d = w.dims();
        assert_eq!(p.at(crate::dims::CellIndex::new(0, 0, 0)), 1.0);
        assert_eq!(
            p.at(crate::dims::CellIndex::new(d.nx - 1, d.ny - 1, 0)),
            0.0
        );
        // interior initialised to the mean of the boundary values
        assert_eq!(p.at(crate::dims::CellIndex::new(4, 4, 4)), 0.5);
    }

    #[test]
    fn paper_tolerance_constant() {
        assert_eq!(PAPER_TOLERANCE, 2e-10);
        assert_eq!(PAPER_FABRIC, (750, 994));
        assert_eq!(PAPER_NZ, 922);
    }

    #[test]
    fn transmissibilities_match_the_two_sided_table_for_fig5() {
        let w = WorkloadSpec::fig5(Dims::new(6, 5, 8)).build();
        let rows = crate::transmissibility::two_sided_rows::<f64>(
            w.mesh(),
            w.permeability(),
            w.spec().viscosity,
        );
        crate::transmissibility::assert_matches_rows(w.transmissibility(), &rows);
    }

    #[test]
    fn validate_accepts_every_named_spec() {
        assert!(WorkloadSpec::quickstart().validate().is_ok());
        assert!(WorkloadSpec::fig5(Dims::new(12, 10, 6)).validate().is_ok());
        assert!(WorkloadSpec::paper_grid(750, 994, 922).validate().is_ok());
    }

    #[test]
    fn validate_rejects_degenerate_specs() {
        let base = WorkloadSpec::quickstart();

        let zero = WorkloadSpec {
            dims: Dims {
                nx: 0,
                ny: 4,
                nz: 4,
            },
            ..base.clone()
        };
        assert!(zero
            .validate()
            .unwrap_err()
            .to_string()
            .contains("non-zero"));

        let huge = WorkloadSpec {
            dims: Dims {
                nx: usize::MAX,
                ny: 2,
                nz: 2,
            },
            ..base.clone()
        };
        assert!(huge
            .validate()
            .unwrap_err()
            .to_string()
            .contains("overflow"));

        let bad_tol = WorkloadSpec {
            tolerance: f64::NAN,
            ..base.clone()
        };
        assert!(bad_tol
            .validate()
            .unwrap_err()
            .to_string()
            .contains("tolerance"));
        let neg_tol = WorkloadSpec {
            tolerance: -1e-10,
            ..base.clone()
        };
        assert!(neg_tol.validate().is_err());

        let no_iters = WorkloadSpec {
            max_iterations: 0,
            ..base.clone()
        };
        assert!(no_iters
            .validate()
            .unwrap_err()
            .to_string()
            .contains("max_iterations"));

        let bad_spacing = WorkloadSpec {
            spacing: [1.0, 0.0, 1.0],
            ..base.clone()
        };
        assert!(bad_spacing
            .validate()
            .unwrap_err()
            .to_string()
            .contains("spacing"));

        let bad_viscosity = WorkloadSpec {
            viscosity: f64::INFINITY,
            ..base
        };
        assert!(bad_viscosity
            .validate()
            .unwrap_err()
            .to_string()
            .contains("viscosity"));
    }

    #[test]
    fn try_from_spec_surfaces_the_validation_error() {
        let bad = WorkloadSpec {
            max_iterations: 0,
            ..WorkloadSpec::quickstart()
        };
        let err = Workload::try_from_spec(&bad).unwrap_err();
        assert!(err.to_string().contains("max_iterations"));
    }

    #[test]
    #[should_panic(expected = "invalid workload")]
    fn from_spec_panics_with_the_validation_message() {
        let bad = WorkloadSpec {
            tolerance: 0.0,
            ..WorkloadSpec::quickstart()
        };
        let _ = bad.build();
    }

    #[test]
    fn permeability_seed_reseeds_only_stochastic_models() {
        let deterministic = WorkloadSpec::quickstart().with_permeability_seed(7);
        assert_eq!(
            deterministic.permeability,
            WorkloadSpec::quickstart().permeability
        );

        let stochastic = WorkloadSpec {
            permeability: crate::permeability::PermeabilityModel::LogNormal {
                mean_log: 0.0,
                std_log: 0.5,
                seed: 1,
            },
            ..WorkloadSpec::quickstart()
        };
        let a = stochastic.with_permeability_seed(2);
        let b = stochastic.with_permeability_seed(2);
        assert_eq!(a.permeability, b.permeability);
        assert_ne!(a.permeability, stochastic.permeability);
        assert_ne!(
            a.build().permeability().as_slice(),
            stochastic.build().permeability().as_slice()
        );
    }
}
