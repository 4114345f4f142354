//! Cartesian mesh geometry.
//!
//! The paper's physical problem is "represented by a 3D Cartesian mesh, where each
//! cell has six neighbors" (§III-A).  [`CartesianMesh`] carries the grid extents and
//! the (uniform) cell spacing from which face areas, cell volumes and the geometric
//! part of the TPFA transmissibility are computed.

use crate::dims::Dims;
use crate::neighbors::Direction;

/// A uniform 3-D Cartesian mesh.
#[derive(Clone, Debug, PartialEq)]
pub struct CartesianMesh {
    dims: Dims,
    /// Cell spacing along each axis, in metres.
    spacing: [f64; 3],
}

impl CartesianMesh {
    /// A mesh with unit cell spacing — the canonical setting for kernel-level
    /// experiments where only the algebraic structure matters.
    pub fn unit(dims: Dims) -> Self {
        Self {
            dims,
            spacing: [1.0, 1.0, 1.0],
        }
    }

    /// A mesh with explicit cell spacing `(dx, dy, dz)` in metres.
    pub fn with_spacing(dims: Dims, dx: f64, dy: f64, dz: f64) -> Self {
        assert!(
            dx > 0.0 && dy > 0.0 && dz > 0.0,
            "cell spacing must be positive"
        );
        Self {
            dims,
            spacing: [dx, dy, dz],
        }
    }

    /// Grid extents.
    pub fn dims(&self) -> Dims {
        self.dims
    }

    /// Cell spacing along each axis.
    pub fn spacing(&self) -> [f64; 3] {
        self.spacing
    }

    /// Total number of cells.
    pub fn num_cells(&self) -> usize {
        self.dims.num_cells()
    }

    /// Volume of a single cell.
    pub fn cell_volume(&self) -> f64 {
        self.spacing[0] * self.spacing[1] * self.spacing[2]
    }

    /// Area of the face orthogonal to the given direction.
    pub fn face_area(&self, dir: Direction) -> f64 {
        let [dx, dy, dz] = self.spacing;
        match dir.axis() {
            0 => dy * dz,
            1 => dx * dz,
            _ => dx * dy,
        }
    }

    /// Distance between the centres of two face-adjacent cells along `dir`.
    pub fn center_distance(&self, dir: Direction) -> f64 {
        self.spacing[dir.axis()]
    }

    /// The geometric half-transmissibility of cell `c` towards direction `dir`:
    /// `A / (d/2)` where `A` is the face area and `d` the centre distance.  Combined
    /// with permeability and harmonically averaged across the face, this yields the
    /// TPFA transmissibility Υ_KL of Eq. (4).
    pub fn half_geometric_factor(&self, dir: Direction) -> f64 {
        self.face_area(dir) / (0.5 * self.center_distance(dir))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_mesh_geometry() {
        let m = CartesianMesh::unit(Dims::new(4, 5, 6));
        assert_eq!(m.cell_volume(), 1.0);
        for dir in Direction::ALL {
            assert_eq!(m.face_area(dir), 1.0);
            assert_eq!(m.center_distance(dir), 1.0);
            assert_eq!(m.half_geometric_factor(dir), 2.0);
        }
    }

    #[test]
    fn anisotropic_spacing() {
        let m = CartesianMesh::with_spacing(Dims::new(2, 2, 2), 10.0, 20.0, 2.0);
        assert_eq!(m.cell_volume(), 400.0);
        assert_eq!(m.face_area(Direction::XP), 40.0); // dy*dz
        assert_eq!(m.face_area(Direction::YP), 20.0); // dx*dz
        assert_eq!(m.face_area(Direction::ZP), 200.0); // dx*dy
        assert_eq!(m.center_distance(Direction::XP), 10.0);
        assert_eq!(m.half_geometric_factor(Direction::ZM), 200.0 / 1.0);
    }

    #[test]
    #[should_panic]
    fn non_positive_spacing_rejected() {
        let _ = CartesianMesh::with_spacing(Dims::new(2, 2, 2), 0.0, 1.0, 1.0);
    }
}
