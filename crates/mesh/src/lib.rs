#![forbid(unsafe_code)]
//! # mffv-mesh
//!
//! Structured 3-D Cartesian meshes and cell-centred fields for the matrix-free
//! finite-volume (FV) reproduction of *"Matrix-Free Finite Volume Kernels on a
//! Dataflow Architecture"* (SC 2024).
//!
//! The paper discretises an incompressible single-phase Darcy flow problem with a
//! two-point flux approximation (TPFA) on a 3-D Cartesian mesh in which every
//! interior cell has six neighbours (a 7-point stencil).  This crate provides the
//! geometric and data substrate every other crate builds on:
//!
//! * [`Dims`] / [`CellIndex`] — grid extents and (x, y, z) ⇄ linear index mapping with
//!   the paper's memory layout (X innermost, Z outermost);
//! * [`Direction`] — the six face directions of the 7-point stencil;
//! * [`CellField`] — a dense cell-centred field generic over [`Scalar`] (`f32`/`f64`)
//!   with the BLAS-1 style helpers (axpy, dot, norms) the CG solver needs;
//! * [`CartesianMesh`] — cell sizes, volumes and face areas;
//! * [`permeability`] — synthetic permeability generators (homogeneous, layered,
//!   log-normal, channelised) substituting for proprietary geomodels;
//! * [`DirichletSet`] — Dirichlet boundary cells (wells / fixed-pressure columns);
//! * [`Transmissibilities`] — the TPFA transmissibilities Υ_KL, stored once per face;
//! * [`workload`] — named problem setups reproducing the paper's grid family
//!   (Table III) and the Figure-5 injection scenario.

pub mod boundary;
pub mod dims;
pub mod field;
pub mod fingerprint;
pub mod mesh;
pub mod neighbors;
pub mod permeability;
pub mod reduce;
pub mod rng;
pub mod scalar;
pub mod transient;
pub mod transmissibility;
pub mod wells;
pub mod workload;

pub use boundary::{DirichletCell, DirichletSet};
pub use dims::{CellIndex, Dims};
pub use field::CellField;
pub use fingerprint::Fnv1a;
pub use mesh::CartesianMesh;
pub use neighbors::Direction;
pub use permeability::PermeabilityModel;
pub use reduce::{seq_mean, seq_sum};
pub use scalar::Scalar;
pub use transient::{DtPolicy, TransientSpec};
pub use transmissibility::Transmissibilities;
pub use wells::{Well, WellControl, WellSet};
pub use workload::{Workload, WorkloadError, WorkloadSpec};

/// Convenient glob import for downstream crates and examples.
pub mod prelude {
    pub use crate::boundary::{DirichletCell, DirichletSet};
    pub use crate::dims::{CellIndex, Dims};
    pub use crate::field::CellField;
    pub use crate::mesh::CartesianMesh;
    pub use crate::neighbors::Direction;
    pub use crate::permeability::PermeabilityModel;
    pub use crate::scalar::Scalar;
    pub use crate::transient::{DtPolicy, TransientSpec};
    pub use crate::transmissibility::Transmissibilities;
    pub use crate::wells::{Well, WellControl, WellSet};
    pub use crate::workload::{Workload, WorkloadError, WorkloadSpec};
}
