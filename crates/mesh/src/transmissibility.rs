//! TPFA transmissibilities.
//!
//! The interfacial flux of Eq. (4) is `f_KL = Υ_KL λ_KL (p_L − p_K)` where the
//! transmissibility `Υ_KL` "is a coefficient accounting for the geometry of the cells
//! and their permeability" and the interfacial mobility `λ_KL` is the arithmetic
//! average of the (constant) cell mobilities.  This module precomputes, for every
//! interior face, the combined coefficient `Υ_KL λ_KL` — the quantity each PE
//! stores six of per cell ("six transmissibilities for the computation of
//! Eq. (6)", §III-A).
//!
//! `Υ_KL` is the standard harmonic average of the two half-transmissibilities
//! `T_K = κ_K A / (d/2)`; faces on the domain boundary get a zero coefficient
//! (no-flow), which is how the boundary of the Cartesian box is closed.
//!
//! # Face layout
//!
//! Each face is stored once: three arrays hold every cell's +x, +y and +z face
//! (zero on the plus boundary), so a host apply streams three coefficients per
//! cell instead of six.  The −x face of cell `k` is the +x face of cell `k − 1`,
//! and likewise the −y and −z faces are the +y face of `k − nx` and the +z face
//! of `k − nx·ny`.  The cell one stride below a minus-boundary cell sits on the
//! previous line's or plane's plus boundary, whose face is zero, so a lookup
//! needs no coordinates: only `k < stride` has no such cell.  Symmetry
//! `Υ_KL λ_KL == Υ_LK λ_LK` therefore holds by construction, and the
//! six-per-cell views ([`get`](Transmissibilities::get),
//! [`all`](Transmissibilities::all), [`column_dir`](Transmissibilities::column_dir))
//! read the same bits both neighbours of a face would have computed on their
//! own: the harmonic mean `1/(1/t_c + 1/t_n)` adds its two terms commutatively.

use crate::dims::Dims;
use crate::field::CellField;
use crate::mesh::CartesianMesh;
use crate::neighbors::Direction;
use crate::scalar::Scalar;

/// The plus direction of each axis, indexed like [`Transmissibilities::faces`].
const PLUS: [Direction; 3] = [Direction::XP, Direction::YP, Direction::ZP];

/// Per-face transmissibility coefficients `Υ_KL λ_KL`, stored once per face.
#[derive(Clone, Debug, PartialEq)]
pub struct Transmissibilities<T: Scalar> {
    dims: Dims,
    /// `faces[axis][k]`: the +x / +y / +z face of cell `k` (`axis` 0 / 1 / 2),
    /// exactly `+0` on the plus boundary.
    faces: [Vec<T>; 3],
}

impl<T: Scalar> Transmissibilities<T> {
    /// Compute TPFA transmissibilities from mesh geometry, a permeability field (m²)
    /// and a constant fluid viscosity (Pa·s).
    ///
    /// The computation is carried out in `f64` and converted to `T` at the end, so
    /// `f32` device tables are rounded once rather than accumulating error.
    pub fn from_mesh(mesh: &CartesianMesh, permeability: &CellField<f64>, viscosity: f64) -> Self {
        assert!(viscosity > 0.0, "viscosity must be positive");
        assert_eq!(
            mesh.dims(),
            permeability.dims(),
            "permeability grid mismatch"
        );
        let dims = mesh.dims();
        let mobility = 1.0 / viscosity; // λ_K = λ_L = 1/μ, so λ_KL = 1/μ as well.
        let perm = permeability.as_slice();
        let mut faces: [Vec<T>; 3] = std::array::from_fn(|_| vec![T::ZERO; dims.num_cells()]);
        for (axis, face) in faces.iter_mut().enumerate() {
            let half = mesh.half_geometric_factor(PLUS[axis]);
            let stride = axis_stride(dims, axis);
            for_each_plus_face(dims, axis, true, |k| {
                let t_c = perm[k] * half;
                let t_n = perm[k + stride] * half;
                // Harmonic average of the two half-transmissibilities.
                let upsilon = if t_c > 0.0 && t_n > 0.0 {
                    1.0 / (1.0 / t_c + 1.0 / t_n)
                } else {
                    0.0
                };
                face[k] = T::from_f64(upsilon * mobility);
            });
        }
        Self { dims, faces }
    }

    /// A uniform coefficient on every interior face (zero on boundary faces).  This
    /// is the setting of the kernel-level experiments, where the operator reduces to
    /// a scaled 7-point Laplacian.
    pub fn uniform(dims: Dims, coefficient: T) -> Self {
        let mut faces: [Vec<T>; 3] = std::array::from_fn(|_| vec![T::ZERO; dims.num_cells()]);
        for (axis, face) in faces.iter_mut().enumerate() {
            for_each_plus_face(dims, axis, true, |k| face[k] = coefficient);
        }
        Self { dims, faces }
    }

    /// Build from explicit face arrays: `faces[axis][k]` is the +x / +y / +z
    /// face of cell `k` (`axis` 0 / 1 / 2) in linear-layout order.  This is the
    /// constructor coarsened multigrid levels use.
    ///
    /// # Panics
    ///
    /// When an array's length is not the cell count, or when a face on the
    /// plus boundary is not exactly `+0`: the minus-face lookups of
    /// [`get`](Self::get) read those entries as the boundary's zero.
    pub fn from_faces(dims: Dims, faces: [Vec<T>; 3]) -> Self {
        for (axis, face) in faces.iter().enumerate() {
            assert_eq!(face.len(), dims.num_cells(), "face array {axis} length");
            for_each_plus_face(dims, axis, false, |k| {
                assert!(
                    face[k].to_f64().to_bits() == 0,
                    "the {:?} face of cell {k} is on the domain boundary and must be +0, got {}",
                    PLUS[axis],
                    face[k]
                );
            });
        }
        Self { dims, faces }
    }

    /// Grid extents.
    pub fn dims(&self) -> Dims {
        self.dims
    }

    /// Coefficient for the face of cell `cell_linear` in direction `dir` (zero when
    /// the face lies on the domain boundary).
    #[inline]
    pub fn get(&self, cell_linear: usize, dir: Direction) -> T {
        debug_assert!(cell_linear < self.dims.num_cells());
        match dir {
            Direction::XP => self.faces[0][cell_linear],
            Direction::XM => self.minus_face(0, cell_linear),
            Direction::YP => self.faces[1][cell_linear],
            Direction::YM => self.minus_face(1, cell_linear),
            Direction::ZP => self.faces[2][cell_linear],
            Direction::ZM => self.minus_face(2, cell_linear),
        }
    }

    /// All six coefficients of a cell in [`Direction::ALL`] order.
    #[inline]
    pub fn all(&self, cell_linear: usize) -> [T; 6] {
        debug_assert!(cell_linear < self.dims.num_cells());
        let k = cell_linear;
        [
            self.faces[0][k],
            self.minus_face(0, k),
            self.faces[1][k],
            self.minus_face(1, k),
            self.faces[2][k],
            self.minus_face(2, k),
        ]
    }

    /// The minus face of cell `k` along `axis`: the plus face of the cell one
    /// stride below, or zero when `k` has no such cell.
    #[inline]
    fn minus_face(&self, axis: usize, k: usize) -> T {
        match k.checked_sub(axis_stride(self.dims, axis)) {
            Some(below) => self.faces[axis][below],
            None => T::ZERO,
        }
    }

    /// The three face arrays, `[+x, +y, +z]`, each one coefficient per cell in
    /// linear-layout order and `+0` on the plus boundary.  This is the
    /// zero-copy view the planned stencil kernels stream through; see the
    /// [module docs](self) for how the minus faces map onto it.
    #[inline]
    pub fn faces(&self) -> [&[T]; 3] {
        [&self.faces[0], &self.faces[1], &self.faces[2]]
    }

    /// The coefficients of the z-column at `(x, y)` for one direction, ordered
    /// z = 0 .. nz-1 — the layout a PE keeps in local memory.
    pub fn column_dir(&self, x: usize, y: usize, dir: Direction) -> Vec<T> {
        let base = self.dims.column_base(x, y);
        let stride = self.dims.column_stride();
        (0..self.dims.nz)
            .map(|z| self.get(base + z * stride, dir))
            .collect()
    }

    /// Sum of the six coefficients of a cell (the magnitude of the operator's
    /// diagonal entry for interior cells).
    #[inline]
    pub fn row_sum(&self, cell_linear: usize) -> T {
        let mut s = T::ZERO;
        for v in self.all(cell_linear) {
            s += v;
        }
        s
    }

    /// Convert to a different scalar precision.
    pub fn convert<U: Scalar>(&self) -> Transmissibilities<U> {
        Transmissibilities {
            dims: self.dims,
            faces: std::array::from_fn(|axis| {
                self.faces[axis]
                    .iter()
                    .map(|v| U::from_f64(v.to_f64()))
                    .collect()
            }),
        }
    }

    /// FNV-1a fingerprint over the grid extents and every coefficient's
    /// exact bit pattern, in fixed cell-then-direction order (all six of
    /// each cell, as [`all`](Self::all) returns them) — the
    /// transmissibility component of a solve-context cache key (see
    /// [`crate::fingerprint`]).  Equal tables fingerprint equal; any single
    /// bit of any coefficient changes the digest.
    pub fn fingerprint(&self) -> u64 {
        let mut hash = crate::fingerprint::Fnv1a::new();
        hash.write_usize(self.dims.nx);
        hash.write_usize(self.dims.ny);
        hash.write_usize(self.dims.nz);
        for k in 0..self.dims.num_cells() {
            for v in self.all(k) {
                hash.write_f64(v.to_f64());
            }
        }
        hash.finish()
    }
}

/// Linear-index distance between a cell and its plus neighbour along `axis`.
#[inline]
fn axis_stride(dims: Dims, axis: usize) -> usize {
    match axis {
        0 => 1,
        1 => dims.y_stride(),
        _ => dims.z_stride(),
    }
}

/// Call `f(k)`, in increasing `k`, for every cell whose plus face along
/// `axis` is interior (`inner`) or lies on the domain boundary (`!inner`).
fn for_each_plus_face(dims: Dims, axis: usize, inner: bool, mut f: impl FnMut(usize)) {
    for (y, z, line) in dims.iter_x_lines() {
        let cells = match axis {
            0 if inner => line.start..line.end - 1,
            0 => line.end - 1..line.end,
            1 if (y + 1 < dims.ny) == inner => line,
            2 if (z + 1 < dims.nz) == inner => line,
            _ => continue,
        };
        cells.for_each(&mut f);
    }
}

/// The six-per-cell coefficient table built the way the face table replaced:
/// each cell computes the harmonic mean of every face from its own side.
/// Tests across the crate compare [`Transmissibilities::get`] with it bit for
/// bit.
#[cfg(test)]
pub(crate) fn two_sided_rows<T: Scalar>(
    mesh: &CartesianMesh,
    permeability: &CellField<f64>,
    viscosity: f64,
) -> Vec<[T; 6]> {
    let dims = mesh.dims();
    let mobility = 1.0 / viscosity;
    let mut rows = vec![[T::ZERO; 6]; dims.num_cells()];
    for c in dims.iter_cells() {
        let k_c = permeability.at(c);
        for dir in Direction::ALL {
            if let Some(n) = dims.neighbor(c, dir) {
                let half = mesh.half_geometric_factor(dir);
                let (t_c, t_n) = (k_c * half, permeability.at(n) * half);
                let upsilon = if t_c > 0.0 && t_n > 0.0 {
                    1.0 / (1.0 / t_c + 1.0 / t_n)
                } else {
                    0.0
                };
                rows[dims.linear(c)][dir.index()] = T::from_f64(upsilon * mobility);
            }
        }
    }
    rows
}

/// Assert that `table.get(k, dir)` has the bits of `rows[k][dir]` for every
/// cell and direction.
#[cfg(test)]
pub(crate) fn assert_matches_rows<T: Scalar>(table: &Transmissibilities<T>, rows: &[[T; 6]]) {
    assert_eq!(rows.len(), table.dims().num_cells());
    for (k, row) in rows.iter().enumerate() {
        for dir in Direction::ALL {
            assert_eq!(
                table.get(k, dir).to_f64().to_bits(),
                row[dir.index()].to_f64().to_bits(),
                "cell {k}, {dir:?} on {}",
                table.dims()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dims::CellIndex;
    use crate::permeability::PermeabilityModel;
    use crate::workload::{Workload, WorkloadSpec};
    use proptest::prelude::*;

    #[test]
    fn uniform_coefficients_zero_on_boundary() {
        let dims = Dims::new(3, 3, 3);
        let t = Transmissibilities::<f64>::uniform(dims, 2.0);
        let corner = dims.linear(CellIndex::new(0, 0, 0));
        assert_eq!(t.get(corner, Direction::XM), 0.0);
        assert_eq!(t.get(corner, Direction::XP), 2.0);
        let center = dims.linear(CellIndex::new(1, 1, 1));
        for dir in Direction::ALL {
            assert_eq!(t.get(center, dir), 2.0);
        }
        assert_eq!(t.row_sum(center), 12.0);
        assert_eq!(t.row_sum(corner), 6.0);
    }

    #[test]
    fn homogeneous_unit_mesh_matches_hand_computation() {
        // κ = 1, unit spacing: half transmissibility T = 1 * 1 / 0.5 = 2, harmonic
        // average of (2, 2) = 1, mobility = 1/μ with μ = 1 → coefficient 1.
        let dims = Dims::new(4, 4, 4);
        let mesh = CartesianMesh::unit(dims);
        let perm = CellField::constant(dims, 1.0);
        let t = Transmissibilities::<f64>::from_mesh(&mesh, &perm, 1.0);
        let center = dims.linear(CellIndex::new(1, 1, 1));
        for dir in Direction::ALL {
            assert!((t.get(center, dir) - 1.0).abs() < 1e-14);
        }
    }

    #[test]
    fn viscosity_scales_inverse() {
        let dims = Dims::new(3, 3, 3);
        let mesh = CartesianMesh::unit(dims);
        let perm = CellField::constant(dims, 1.0);
        let t1 = Transmissibilities::<f64>::from_mesh(&mesh, &perm, 1.0);
        let t2 = Transmissibilities::<f64>::from_mesh(&mesh, &perm, 2.0);
        let c = dims.linear(CellIndex::new(1, 1, 1));
        assert!((t1.get(c, Direction::XP) / t2.get(c, Direction::XP) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn harmonic_average_respects_heterogeneity() {
        // Two-layer permeability along X: cells with κ = 1 adjacent to κ = 3 on a
        // unit mesh. Half transmissibilities: 2 and 6 → harmonic: 1/(1/2+1/6) = 1.5.
        let dims = Dims::new(2, 1, 1);
        let mesh = CartesianMesh::unit(dims);
        let perm = CellField::from_fn(dims, |c| if c.x == 0 { 1.0 } else { 3.0 });
        let t = Transmissibilities::<f64>::from_mesh(&mesh, &perm, 1.0);
        assert!((t.get(0, Direction::XP) - 1.5).abs() < 1e-14);
        assert!((t.get(1, Direction::XM) - 1.5).abs() < 1e-14);
    }

    /// The face table of `workload`, in both precisions, against the
    /// two-sided six-per-cell construction, bit for bit.
    fn assert_workload_matches_two_sided(workload: &Workload) {
        let (mesh, perm, mu) = (
            workload.mesh(),
            workload.permeability(),
            workload.spec().viscosity,
        );
        assert_matches_rows(
            workload.transmissibility(),
            &two_sided_rows::<f64>(mesh, perm, mu),
        );
        assert_matches_rows(
            &Transmissibilities::<f32>::from_mesh(mesh, perm, mu),
            &two_sided_rows::<f32>(mesh, perm, mu),
        );
    }

    #[test]
    fn faces_match_the_two_sided_table_bit_for_bit() {
        let mut anisotropic = WorkloadSpec::paper_grid(11, 7, 5);
        anisotropic.spacing = [2.0, 3.0, 0.5];
        anisotropic.permeability = PermeabilityModel::LogNormal {
            mean_log: 0.0,
            std_log: 1.5,
            seed: 3,
        };
        for spec in [
            WorkloadSpec::quickstart(),
            WorkloadSpec::paper_grid(33, 17, 9),
            WorkloadSpec::fig5(Dims::new(36, 24, 8)),
            anisotropic,
        ] {
            assert_workload_matches_two_sided(&spec.build());
        }
    }

    #[test]
    fn minus_faces_read_the_neighbours_plus_face() {
        let dims = Dims::new(4, 3, 2);
        let faces: [Vec<f64>; 3] = std::array::from_fn(|axis| {
            (0..dims.num_cells())
                .map(|k| {
                    let c = dims.unlinear(k);
                    let last = [c.x + 1 == dims.nx, c.y + 1 == dims.ny, c.z + 1 == dims.nz];
                    if last[axis] {
                        0.0
                    } else {
                        (100 * axis + k + 1) as f64
                    }
                })
                .collect()
        });
        let t = Transmissibilities::from_faces(dims, faces.clone());
        for c in dims.iter_cells() {
            let k = dims.linear(c);
            for dir in Direction::ALL {
                let expect = match dims.neighbor(c, dir) {
                    None => 0.0,
                    Some(_) if dir == PLUS[dir.axis()] => faces[dir.axis()][k],
                    Some(n) => faces[dir.axis()][dims.linear(n)],
                };
                assert_eq!(t.get(k, dir).to_bits(), expect.to_bits(), "{c:?} {dir:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "must be +0")]
    fn from_faces_rejects_a_nonzero_plus_boundary_face() {
        let dims = Dims::new(3, 2, 2);
        let mut faces = Transmissibilities::<f64>::uniform(dims, 1.0).faces.clone();
        // Cell (2, 0, 0) has no +x neighbour.
        faces[0][2] = 1.0;
        Transmissibilities::from_faces(dims, faces);
    }

    #[test]
    #[should_panic(expected = "must be +0")]
    fn from_faces_rejects_a_negative_zero_plus_boundary_face() {
        let dims = Dims::new(2, 2, 3);
        let mut faces = Transmissibilities::<f32>::uniform(dims, 1.0).faces.clone();
        // The last plane has no +z neighbours.
        faces[2][dims.num_cells() - 1] = -0.0;
        Transmissibilities::from_faces(dims, faces);
    }

    #[test]
    fn column_extraction() {
        let dims = Dims::new(3, 3, 4);
        let t = Transmissibilities::<f32>::uniform(dims, 1.0);
        let col = t.column_dir(1, 1, Direction::ZP);
        assert_eq!(col.len(), 4);
        assert_eq!(col[3], 0.0); // top face of the column is a boundary
        assert_eq!(col[0], 1.0);
        let col_down = t.column_dir(1, 1, Direction::ZM);
        assert_eq!(col_down[0], 0.0); // bottom face is a boundary
    }

    #[test]
    fn faces_hold_three_coefficients_per_cell() {
        let dims = Dims::new(3, 2, 2);
        let t = Transmissibilities::<f64>::uniform(dims, 4.0);
        for (axis, face) in t.faces().into_iter().enumerate() {
            assert_eq!(face.len(), dims.num_cells());
            for (k, &v) in face.iter().enumerate() {
                assert_eq!(v, t.get(k, PLUS[axis]));
            }
        }
    }

    #[test]
    fn conversion_keeps_every_face() {
        let dims = Dims::new(2, 2, 2);
        let t = Transmissibilities::<f64>::uniform(dims, 1.25);
        let tf: Transmissibilities<f32> = t.convert();
        assert_eq!(tf.dims(), dims);
        for k in 0..dims.num_cells() {
            assert_eq!(tf.all(k).map(f64::from), t.all(k));
        }
    }

    proptest! {
        #[test]
        fn faces_match_two_sided_rows_property(seed in 0u64..50, nx in 1usize..6, ny in 1usize..6, nz in 1usize..6) {
            let dims = Dims::new(nx, ny, nz);
            let mesh = CartesianMesh::unit(dims);
            let perm = PermeabilityModel::LogNormal { mean_log: 0.0, std_log: 1.0, seed }
                .generate(dims);
            let t = Transmissibilities::<f64>::from_mesh(&mesh, &perm, 1.0);
            assert_matches_rows(&t, &two_sided_rows(&mesh, &perm, 1.0));
        }

        #[test]
        fn coefficients_are_nonnegative(seed in 0u64..50) {
            let dims = Dims::new(4, 4, 4);
            let mesh = CartesianMesh::unit(dims);
            let perm = PermeabilityModel::LogNormal { mean_log: -1.0, std_log: 2.0, seed }
                .generate(dims);
            let t = Transmissibilities::<f64>::from_mesh(&mesh, &perm, 1.0);
            for c in 0..dims.num_cells() {
                for dir in Direction::ALL {
                    prop_assert!(t.get(c, dir) >= 0.0);
                }
            }
        }
    }
}
