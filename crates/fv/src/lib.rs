#![forbid(unsafe_code)]
//! # mffv-fv
//!
//! Finite-volume physics for the single-phase incompressible Darcy problem of the
//! paper: the TPFA interfacial flux (Eq. 4), the discrete residual (Eq. 3), the
//! **matrix-free** application of the Jacobian (Eq. 6 / Algorithm 2), and — as the
//! baseline the matrix-free approach is motivated against — an explicitly assembled
//! CSR Jacobian with a standard sparse matrix-vector product.
//!
//! The crate is host-side: it defines the *mathematics* that both the dataflow
//! implementation (`mffv-core`) and the GPU-style reference (`mffv-gpu-ref`) must
//! reproduce, and is the oracle used by their tests.  The hot apply path runs
//! through a precomputed [`plan::StencilPlan`] — slab-long branch-free runs
//! specialised on one of 16 array-neighbour sets, fused CG kernels, and an optional
//! scoped-thread parallel apply whose results are bitwise identical for every
//! thread count.
//!
//! ## Sign convention
//!
//! Eq. (6) of the paper defines `(Jx)_K = Σ Υλ (x_L − x_K)` for interior cells.  CG
//! requires a symmetric positive definite operator, so the operator actually handed
//! to the solver is the standard Dirichlet-eliminated, positive form
//! `(A x)_K = Σ Υλ (x_K − x_L·[L ∉ T_D])` (see `DESIGN.md` §4).  Both forms are
//! provided; [`matrix_free::MatrixFreeOperator::apply_paper_jx`] is the literal
//! Eq. (6) and is related to the SPD form by a sign flip plus the treatment of
//! Dirichlet couplings.

pub mod csr;
pub mod flux;
pub mod matrix_free;
pub mod mg;
pub mod operator;
pub mod plan;
pub mod residual;
pub mod velocity;

pub use csr::{AssembledOperator, CsrMatrix};
pub use matrix_free::MatrixFreeOperator;
pub use mg::{MgConfig, MultigridVcycle};
pub use operator::{LinearOperator, Preconditioner};
pub use plan::{
    det_dot, det_norm_squared, PlanStats, StencilPlan, APPLY_STREAMS_PER_CELL, SLAB_CELLS,
};
pub use residual::{newton_rhs, newton_rhs_into, residual, residual_into};
pub use velocity::FluxField;
// The small-scale deterministic folds live in `mffv-mesh` (the bottom of the
// crate stack, so mesh itself can use them without a cycle); re-exported here
// beside `det_dot`/`det_norm_squared` so solver-side code finds the whole
// blessed-reduction family in one place.
pub use mffv_mesh::reduce::{seq_mean, seq_sum};

/// Convenient glob import.
pub mod prelude {
    pub use crate::csr::{AssembledOperator, CsrMatrix};
    pub use crate::flux::{interfacial_flux, FLOPS_PER_NEIGHBOR};
    pub use crate::matrix_free::MatrixFreeOperator;
    pub use crate::mg::{MgConfig, MultigridVcycle};
    pub use crate::operator::{LinearOperator, Preconditioner};
    pub use crate::plan::{
        det_dot, det_norm_squared, PlanStats, StencilPlan, APPLY_STREAMS_PER_CELL, SLAB_CELLS,
    };
    pub use crate::residual::{newton_rhs, newton_rhs_into, residual, residual_into};
    pub use crate::velocity::{cell_velocity, FluxField};
}
