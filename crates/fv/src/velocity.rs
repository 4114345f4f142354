//! Darcy velocities, interfacial flux fields and well rates.
//!
//! The governing system (Eq. 1) couples Darcy's law `u = −(κ/μ) ∇p` with mass
//! balance `∇·u = 0`.  Once the pressure solve of Algorithm 1 converges, the
//! quantities of engineering interest in the paper's CCS setting are derived from
//! the interfacial fluxes: the injection/production rates at the Dirichlet wells and
//! the divergence-free property of the flux field (discrete mass conservation).
//! This module reconstructs those quantities from a converged pressure field and is
//! used by the examples and by conservation tests.

use crate::flux::interfacial_flux;
use mffv_mesh::{CellField, Direction, DirichletSet, Scalar, Transmissibilities};

/// All six outward interfacial fluxes of every cell: `fluxes[cell][dir] = f_K,dir`
/// with the Eq. (4) sign convention (positive = flow *into* cell K).
#[derive(Clone, Debug, PartialEq)]
pub struct FluxField<T: Scalar> {
    dims: mffv_mesh::Dims,
    fluxes: Vec<[T; 6]>,
}

impl<T: Scalar> FluxField<T> {
    /// Compute the interfacial fluxes of a pressure field.
    pub fn compute(pressure: &CellField<T>, coeffs: &Transmissibilities<T>) -> Self {
        let dims = pressure.dims();
        assert_eq!(dims, coeffs.dims(), "coefficient table dimension mismatch");
        let mut fluxes = vec![[T::ZERO; 6]; dims.num_cells()];
        for c in dims.iter_cells() {
            let k = dims.linear(c);
            let pk = pressure.get(k);
            for dir in Direction::ALL {
                if let Some(n) = dims.neighbor(c, dir) {
                    let l = dims.linear(n);
                    fluxes[k][dir.index()] =
                        interfacial_flux(coeffs.get(k, dir), pk, pressure.get(l));
                }
            }
        }
        Self { dims, fluxes }
    }

    /// Grid extents.
    pub fn dims(&self) -> mffv_mesh::Dims {
        self.dims
    }

    /// The flux through the face of `cell_linear` towards `dir` (positive into the
    /// cell).
    pub fn get(&self, cell_linear: usize, dir: Direction) -> T {
        self.fluxes[cell_linear][dir.index()]
    }

    /// Net flux into a cell (the discrete divergence; zero for interior cells of a
    /// converged incompressible solution).
    pub fn net_into_cell(&self, cell_linear: usize) -> T {
        let mut acc = T::ZERO;
        for v in self.fluxes[cell_linear] {
            acc += v;
        }
        acc
    }

    /// Maximum |net flux| over all non-Dirichlet cells — the discrete mass-balance
    /// defect of the pressure field.
    pub fn max_mass_defect(&self, dirichlet: &DirichletSet) -> f64 {
        let mut worst = 0.0f64;
        for k in 0..self.dims.num_cells() {
            if !dirichlet.contains_linear(k) {
                worst = worst.max(self.net_into_cell(k).to_f64().abs());
            }
        }
        worst
    }

    /// Antisymmetry defect: `f_KL + f_LK` should vanish for every interior face.
    pub fn max_antisymmetry(&self) -> f64 {
        let mut worst = 0.0f64;
        for c in self.dims.iter_cells() {
            let k = self.dims.linear(c);
            for dir in Direction::ALL {
                if let Some(n) = self.dims.neighbor(c, dir) {
                    let l = self.dims.linear(n);
                    let a = self.get(k, dir).to_f64();
                    let b = self.get(l, dir.opposite()).to_f64();
                    worst = worst.max((a + b).abs());
                }
            }
        }
        worst
    }

    /// Net outflow from the set of Dirichlet cells (positive = the wells inject mass
    /// into the rest of the domain); for a converged solution the injectors'
    /// outflow balances the producers' inflow.
    pub fn well_rate(&self, dirichlet: &DirichletSet) -> f64 {
        let mut total = 0.0f64;
        for k in 0..self.dims.num_cells() {
            if dirichlet.contains_linear(k) {
                // Outflow from the well cell = −(net inflow), excluding faces towards
                // other Dirichlet cells (they are internal to the well).
                let c = self.dims.unlinear(k);
                for dir in Direction::ALL {
                    if let Some(n) = self.dims.neighbor(c, dir) {
                        let l = self.dims.linear(n);
                        if !dirichlet.contains_linear(l) {
                            total -= self.get(k, dir).to_f64();
                        }
                    }
                }
            }
        }
        total
    }

    /// Total injection rate (sum of positive per-cell outflows over Dirichlet cells)
    /// and production rate (sum of negative ones), returned as
    /// `(injection, production)` with `injection ≥ 0 ≥ production`.
    pub fn injection_production_split(&self, dirichlet: &DirichletSet) -> (f64, f64) {
        let mut injection = 0.0f64;
        let mut production = 0.0f64;
        for k in 0..self.dims.num_cells() {
            if !dirichlet.contains_linear(k) {
                continue;
            }
            let c = self.dims.unlinear(k);
            let mut outflow = 0.0f64;
            for dir in Direction::ALL {
                if let Some(n) = self.dims.neighbor(c, dir) {
                    let l = self.dims.linear(n);
                    if !dirichlet.contains_linear(l) {
                        outflow -= self.get(k, dir).to_f64();
                    }
                }
            }
            if outflow >= 0.0 {
                injection += outflow;
            } else {
                production += outflow;
            }
        }
        (injection, production)
    }
}

/// Cell-centred Darcy velocity components, averaged from the two face fluxes per
/// axis and divided by the face area (Eq. 1a in discrete form).
pub fn cell_velocity<T: Scalar>(
    fluxes: &FluxField<T>,
    mesh: &mffv_mesh::CartesianMesh,
    cell_linear: usize,
) -> [f64; 3] {
    let mut v = [0.0f64; 3];
    for (axis, (plus, minus)) in [
        (Direction::XP, Direction::XM),
        (Direction::YP, Direction::YM),
        (Direction::ZP, Direction::ZM),
    ]
    .iter()
    .enumerate()
    {
        let area = mesh.face_area(*plus);
        // Positive flux through the +face means flow into the cell from the + side,
        // i.e. velocity in the −axis direction; average the two faces.
        let f_plus = fluxes.get(cell_linear, *plus).to_f64();
        let f_minus = fluxes.get(cell_linear, *minus).to_f64();
        v[axis] = 0.5 * (f_minus - f_plus) / area;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::LinearOperator;
    use crate::MatrixFreeOperator;
    use mffv_mesh::workload::WorkloadSpec;
    use mffv_mesh::{CartesianMesh, CellIndex, Dims};

    /// Solve the quickstart problem on the host and return (workload, pressure).
    fn solved_quickstart() -> (mffv_mesh::Workload, CellField<f64>) {
        let w = WorkloadSpec::quickstart().build();
        let op = MatrixFreeOperator::<f64>::from_workload(&w);
        let p0: CellField<f64> = w.initial_pressure();
        let mut b = crate::residual::residual(&p0, w.transmissibility(), w.dirichlet());
        crate::residual::newton_rhs(&mut b, w.dirichlet());
        // Plain CG, reimplemented minimally here to avoid a dev-dependency cycle on
        // mffv-solver: the quickstart problem is small enough for a few hundred
        // iterations of the textbook recurrence.
        let dims = w.dims();
        let mut x = CellField::<f64>::zeros(dims);
        let mut resid = b.clone();
        let mut dir = resid.clone();
        let mut ad = CellField::<f64>::zeros(dims);
        let mut rr = resid.norm_squared();
        for _ in 0..5000 {
            if rr < 1e-24 {
                break;
            }
            op.apply(&dir, &mut ad);
            let alpha = rr / dir.dot(&ad);
            x.axpy(alpha, &dir);
            resid.axpy(-alpha, &ad);
            let rr_new = resid.norm_squared();
            dir.xpby(&resid, rr_new / rr);
            rr = rr_new;
        }
        let mut pressure = p0;
        pressure.axpy(1.0, &x);
        (w, pressure)
    }

    #[test]
    fn fluxes_are_antisymmetric_and_conservative_at_convergence() {
        let (w, pressure) = solved_quickstart();
        let coeffs = w.transmissibility().clone();
        let fluxes = FluxField::compute(&pressure, &coeffs);
        assert!(
            fluxes.max_antisymmetry() < 1e-12,
            "flux antisymmetry violated"
        );
        assert!(
            fluxes.max_mass_defect(w.dirichlet()) < 1e-8,
            "mass defect {} too large",
            fluxes.max_mass_defect(w.dirichlet())
        );
    }

    #[test]
    fn injection_balances_production() {
        let (w, pressure) = solved_quickstart();
        let fluxes = FluxField::compute(&pressure, w.transmissibility());
        let (injection, production) = fluxes.injection_production_split(w.dirichlet());
        assert!(injection > 0.0, "the source must inject");
        assert!(production < 0.0, "the producer must produce");
        assert!(
            (injection + production).abs() < 1e-8 * injection,
            "injection {injection} and production {production} must balance"
        );
        // The net well rate is the same balance, so it must be ~0.
        assert!(fluxes.well_rate(w.dirichlet()).abs() < 1e-8 * injection);
    }

    #[test]
    fn linear_pressure_drop_gives_uniform_x_velocity() {
        // p = 1 - x/(nx-1) on a unit mesh with unit coefficients: flux through every
        // X face is Υλ·Δp = 1/(nx-1), Y/Z fluxes vanish, and the cell velocity points
        // in +X with magnitude Δp/Δx / area.
        let dims = Dims::new(6, 3, 3);
        let mesh = CartesianMesh::unit(dims);
        let coeffs = Transmissibilities::<f64>::uniform(dims, 1.0);
        let p = CellField::from_fn(dims, |c| 1.0 - c.x as f64 / (dims.nx - 1) as f64);
        let fluxes = FluxField::compute(&p, &coeffs);
        let center = dims.linear(CellIndex::new(2, 1, 1));
        let dp = 1.0 / (dims.nx - 1) as f64;
        assert!((fluxes.get(center, Direction::XM) - dp).abs() < 1e-12);
        assert!((fluxes.get(center, Direction::XP) + dp).abs() < 1e-12);
        assert!(fluxes.get(center, Direction::YP).abs() < 1e-12);
        let v = cell_velocity(&fluxes, &mesh, center);
        assert!((v[0] - dp).abs() < 1e-12, "vx = {}", v[0]);
        assert!(v[1].abs() < 1e-12 && v[2].abs() < 1e-12);
        assert!(fluxes.net_into_cell(center).abs() < 1e-12);
    }

    #[test]
    fn constant_pressure_has_zero_fluxes() {
        let dims = Dims::new(4, 4, 4);
        let coeffs = Transmissibilities::<f64>::uniform(dims, 2.5);
        let p = CellField::constant(dims, 7.0);
        let fluxes = FluxField::compute(&p, &coeffs);
        for k in 0..dims.num_cells() {
            assert_eq!(fluxes.net_into_cell(k), 0.0);
            for dir in Direction::ALL {
                assert_eq!(fluxes.get(k, dir), 0.0);
            }
        }
        assert_eq!(fluxes.max_antisymmetry(), 0.0);
    }
}
