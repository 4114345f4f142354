//! Grid extents and index arithmetic.
//!
//! The paper stores the mesh "with the X-dimension as the innermost dimension and
//! Z-dimension as the outermost dimension in the memory layout" (§IV).  [`Dims`]
//! encodes exactly that layout: the linear index of cell `(x, y, z)` is
//! `x + nx * (y + ny * z)`.

use crate::neighbors::Direction;

/// Extents of a 3-D Cartesian grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Dims {
    /// Number of cells along X (innermost in memory, mapped to the fabric X axis).
    pub nx: usize,
    /// Number of cells along Y (mapped to the fabric Y axis).
    pub ny: usize,
    /// Number of cells along Z (the per-PE column depth).
    pub nz: usize,
}

/// A cell location expressed in grid coordinates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CellIndex {
    pub x: usize,
    pub y: usize,
    pub z: usize,
}

impl CellIndex {
    /// Construct a cell index.
    pub const fn new(x: usize, y: usize, z: usize) -> Self {
        Self { x, y, z }
    }
}

impl Dims {
    /// Construct grid extents. Panics if any extent is zero.
    pub fn new(nx: usize, ny: usize, nz: usize) -> Self {
        assert!(
            nx > 0 && ny > 0 && nz > 0,
            "all grid extents must be non-zero"
        );
        Self { nx, ny, nz }
    }

    /// Total number of cells.
    pub fn num_cells(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Number of vertical columns, i.e. the number of processing elements the grid
    /// occupies under the paper's z-column-per-PE mapping.
    pub fn num_columns(&self) -> usize {
        self.nx * self.ny
    }

    /// Linear index of `(x, y, z)` with X innermost and Z outermost.
    #[inline]
    pub fn linear(&self, c: CellIndex) -> usize {
        debug_assert!(self.contains(c), "cell {c:?} outside dims {self:?}");
        c.x + self.nx * (c.y + self.ny * c.z)
    }

    /// Inverse of [`Dims::linear`].
    #[inline]
    pub fn unlinear(&self, idx: usize) -> CellIndex {
        debug_assert!(idx < self.num_cells());
        let x = idx % self.nx;
        let y = (idx / self.nx) % self.ny;
        let z = idx / (self.nx * self.ny);
        CellIndex { x, y, z }
    }

    /// Whether the cell lies inside the grid.
    #[inline]
    pub fn contains(&self, c: CellIndex) -> bool {
        c.x < self.nx && c.y < self.ny && c.z < self.nz
    }

    /// The neighbour of `c` in direction `dir`, or `None` when it would fall off the
    /// grid boundary (the TPFA scheme imposes no-flow across such faces).
    #[inline]
    pub fn neighbor(&self, c: CellIndex, dir: Direction) -> Option<CellIndex> {
        let (dx, dy, dz) = dir.offset();
        let x = c.x as isize + dx;
        let y = c.y as isize + dy;
        let z = c.z as isize + dz;
        if x < 0
            || y < 0
            || z < 0
            || x >= self.nx as isize
            || y >= self.ny as isize
            || z >= self.nz as isize
        {
            None
        } else {
            Some(CellIndex::new(x as usize, y as usize, z as usize))
        }
    }

    /// Iterate over every cell in memory-layout order (X fastest, then Y, then Z).
    pub fn iter_cells(&self) -> impl Iterator<Item = CellIndex> + '_ {
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        (0..nz).flat_map(move |z| {
            (0..ny).flat_map(move |y| (0..nx).map(move |x| CellIndex { x, y, z }))
        })
    }

    /// Linear index of the first (z = 0) cell of column `(x, y)`.
    #[inline]
    pub fn column_base(&self, x: usize, y: usize) -> usize {
        self.linear(CellIndex::new(x, y, 0))
    }

    /// Stride between consecutive z cells of the same column in the linear layout.
    #[inline]
    pub fn column_stride(&self) -> usize {
        self.nx * self.ny
    }

    /// Linear index of the first (x = 0) cell of the x-line at `(y, z)` — the
    /// contiguous stretch of `nx` cells the planned stencil kernels sweep.
    #[inline]
    pub fn line_base(&self, y: usize, z: usize) -> usize {
        debug_assert!(y < self.ny && z < self.nz);
        self.nx * (y + self.ny * z)
    }

    /// Linear-index range of the whole x-line at `(y, z)`: the cells
    /// `(0..nx, y, z)`, contiguous in the memory layout.
    #[inline]
    pub fn x_line(&self, y: usize, z: usize) -> std::ops::Range<usize> {
        let base = self.line_base(y, z);
        base..base + self.nx
    }

    /// Linear-index stride between a cell and its `y + 1` neighbour.
    #[inline]
    pub fn y_stride(&self) -> usize {
        self.nx
    }

    /// Linear-index stride between a cell and its `z + 1` neighbour (alias of
    /// [`Dims::column_stride`], named for stencil-offset arithmetic).
    #[inline]
    pub fn z_stride(&self) -> usize {
        self.nx * self.ny
    }

    /// Iterate over the `(y, z)` coordinates of every x-line in memory order
    /// (y fastest), pairing each with its linear-index range.
    pub fn iter_x_lines(
        &self,
    ) -> impl Iterator<Item = (usize, usize, std::ops::Range<usize>)> + '_ {
        let (ny, nz) = (self.ny, self.nz);
        (0..nz).flat_map(move |z| (0..ny).map(move |y| (y, z, self.x_line(y, z))))
    }

    /// Number of interior cells (cells whose six neighbours all exist).
    pub fn num_interior_cells(&self) -> usize {
        let ix = self.nx.saturating_sub(2);
        let iy = self.ny.saturating_sub(2);
        let iz = self.nz.saturating_sub(2);
        ix * iy * iz
    }
}

impl std::fmt::Display for Dims {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}x{}", self.nx, self.ny, self.nz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn linear_layout_is_x_innermost() {
        let d = Dims::new(4, 3, 2);
        assert_eq!(d.linear(CellIndex::new(0, 0, 0)), 0);
        assert_eq!(d.linear(CellIndex::new(1, 0, 0)), 1);
        assert_eq!(d.linear(CellIndex::new(0, 1, 0)), 4);
        assert_eq!(d.linear(CellIndex::new(0, 0, 1)), 12);
        assert_eq!(d.linear(CellIndex::new(3, 2, 1)), 23);
    }

    #[test]
    fn counts() {
        let d = Dims::new(4, 3, 2);
        assert_eq!(d.num_cells(), 24);
        assert_eq!(d.num_columns(), 12);
        assert_eq!(d.column_stride(), 12);
        assert_eq!(d.num_interior_cells(), 0);
        assert_eq!(Dims::new(5, 4, 3).num_interior_cells(), (3 * 2));
    }

    #[test]
    fn neighbors_respect_boundaries() {
        let d = Dims::new(3, 3, 3);
        let corner = CellIndex::new(0, 0, 0);
        assert_eq!(d.neighbor(corner, Direction::XM), None);
        assert_eq!(d.neighbor(corner, Direction::YM), None);
        assert_eq!(d.neighbor(corner, Direction::ZM), None);
        assert_eq!(
            d.neighbor(corner, Direction::XP),
            Some(CellIndex::new(1, 0, 0))
        );
        let center = CellIndex::new(1, 1, 1);
        for dir in Direction::ALL {
            assert!(d.neighbor(center, dir).is_some());
        }
    }

    #[test]
    fn iter_cells_matches_linear_order() {
        let d = Dims::new(3, 2, 2);
        let order: Vec<usize> = d.iter_cells().map(|c| d.linear(c)).collect();
        let expected: Vec<usize> = (0..d.num_cells()).collect();
        assert_eq!(order, expected);
    }

    #[test]
    fn x_lines_tile_the_grid_contiguously() {
        let d = Dims::new(5, 3, 2);
        assert_eq!(d.line_base(0, 0), 0);
        assert_eq!(d.line_base(2, 1), 25);
        assert_eq!(d.x_line(1, 1), 20..25);
        assert_eq!(d.y_stride(), 5);
        assert_eq!(d.z_stride(), 15);
        let mut next = 0;
        for (y, z, range) in d.iter_x_lines() {
            assert_eq!(range.start, next, "line ({y}, {z}) not contiguous");
            assert_eq!(range.len(), d.nx);
            next = range.end;
        }
        assert_eq!(next, d.num_cells());
    }

    #[test]
    #[should_panic]
    fn zero_extent_rejected() {
        let _ = Dims::new(0, 1, 1);
    }

    proptest! {
        #[test]
        fn unlinear_is_inverse_of_linear(
            nx in 1usize..20, ny in 1usize..20, nz in 1usize..20, seed in 0usize..10_000
        ) {
            let d = Dims::new(nx, ny, nz);
            let idx = seed % d.num_cells();
            let c = d.unlinear(idx);
            prop_assert!(d.contains(c));
            prop_assert_eq!(d.linear(c), idx);
        }

        #[test]
        fn neighbor_is_symmetric(
            nx in 2usize..10, ny in 2usize..10, nz in 2usize..10, seed in 0usize..10_000
        ) {
            let d = Dims::new(nx, ny, nz);
            let c = d.unlinear(seed % d.num_cells());
            for dir in Direction::ALL {
                if let Some(n) = d.neighbor(c, dir) {
                    prop_assert_eq!(d.neighbor(n, dir.opposite()), Some(c));
                }
            }
        }
    }
}
