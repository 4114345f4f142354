//! Dirichlet boundary conditions.
//!
//! Eq. (3) of the paper distinguishes cells in the set `T_D` where a Dirichlet
//! boundary condition is imposed: their residual is `p_K − p_K^D` and the Jacobian
//! row reduces to the identity (Eq. 6, second branch).  In the paper's CCS scenario
//! the Dirichlet cells model the injection source and the producer (Figure 5).

use crate::dims::{CellIndex, Dims};
use crate::field::CellField;
use crate::scalar::Scalar;

/// A single Dirichlet cell: a cell index and its prescribed pressure.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DirichletCell {
    pub cell: CellIndex,
    /// Prescribed pressure value `p_K^D`.
    pub value: f64,
}

/// The set `T_D` of Dirichlet cells, with fast membership queries by linear index.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DirichletSet {
    cells: Vec<DirichletCell>,
    /// Sorted linear indices for O(log n) membership checks.
    sorted_indices: Vec<(usize, f64)>,
}

impl DirichletSet {
    /// An empty set (pure Neumann / no-flow problem; the operator then has a null
    /// space and CG is only applicable after pinning at least one cell).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Build a set from explicit cells. Duplicate cells are rejected.
    pub fn new(dims: Dims, cells: Vec<DirichletCell>) -> Self {
        let mut sorted: Vec<(usize, f64)> = cells
            .iter()
            .map(|d| (dims.linear(d.cell), d.value))
            .collect();
        sorted.sort_by_key(|&(idx, _)| idx);
        for w in sorted.windows(2) {
            assert_ne!(
                w[0].0, w[1].0,
                "duplicate Dirichlet cell at linear index {}",
                w[0].0
            );
        }
        Self {
            cells,
            sorted_indices: sorted,
        }
    }

    /// Number of Dirichlet cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The raw cells.
    pub fn cells(&self) -> &[DirichletCell] {
        &self.cells
    }

    /// Whether the cell at `linear_index` is a Dirichlet cell.
    #[inline]
    pub fn contains_linear(&self, linear_index: usize) -> bool {
        self.sorted_indices
            .binary_search_by_key(&linear_index, |&(idx, _)| idx)
            .is_ok()
    }

    /// Prescribed value at `linear_index`, if the cell is Dirichlet.
    #[inline]
    pub fn value_at_linear(&self, linear_index: usize) -> Option<f64> {
        self.sorted_indices
            .binary_search_by_key(&linear_index, |&(idx, _)| idx)
            .ok()
            .map(|pos| self.sorted_indices[pos].1)
    }

    /// A boolean mask field: 1 for Dirichlet cells, 0 elsewhere. This is the form the
    /// per-PE kernel consumes (a flag per cell of the local z-column).
    pub fn mask<T: Scalar>(&self, dims: Dims) -> CellField<T> {
        let mut mask = CellField::zeros(dims);
        for &(idx, _) in &self.sorted_indices {
            mask.set(idx, T::ONE);
        }
        mask
    }

    /// A field holding the prescribed values at Dirichlet cells and zero elsewhere.
    pub fn values<T: Scalar>(&self, dims: Dims) -> CellField<T> {
        let mut vals = CellField::zeros(dims);
        for &(idx, v) in &self.sorted_indices {
            vals.set(idx, T::from_f64(v));
        }
        vals
    }

    /// Impose the prescribed values onto a pressure field (in place).
    pub fn impose<T: Scalar>(&self, pressure: &mut CellField<T>) {
        for &(idx, v) in &self.sorted_indices {
            pressure.set(idx, T::from_f64(v));
        }
    }

    /// A full vertical column of Dirichlet cells at fabric position `(x, y)` — the
    /// shape of the injector and producer "wells" in the Figure-5 scenario.
    pub fn well_column(dims: Dims, x: usize, y: usize, value: f64) -> Vec<DirichletCell> {
        assert!(x < dims.nx && y < dims.ny, "well column outside the grid");
        (0..dims.nz)
            .map(|z| DirichletCell {
                cell: CellIndex::new(x, y, z),
                value,
            })
            .collect()
    }

    /// The paper's Figure-5 scenario: a high-pressure source column in the top-left
    /// corner of the horizontal plane and a low-pressure producer column in the
    /// bottom-right corner.
    pub fn source_producer(dims: Dims, source_pressure: f64, producer_pressure: f64) -> Self {
        let mut cells = Self::well_column(dims, 0, 0, source_pressure);
        cells.extend(Self::well_column(
            dims,
            dims.nx - 1,
            dims.ny - 1,
            producer_pressure,
        ));
        Self::new(dims, cells)
    }

    /// Dirichlet conditions on the two X-extreme faces of the domain (a classic
    /// "left-to-right" pressure-drop configuration used in several unit tests).
    pub fn x_faces(dims: Dims, left_pressure: f64, right_pressure: f64) -> Self {
        let mut cells = Vec::with_capacity(2 * dims.ny * dims.nz);
        for z in 0..dims.nz {
            for y in 0..dims.ny {
                cells.push(DirichletCell {
                    cell: CellIndex::new(0, y, z),
                    value: left_pressure,
                });
                cells.push(DirichletCell {
                    cell: CellIndex::new(dims.nx - 1, y, z),
                    value: right_pressure,
                });
            }
        }
        Self::new(dims, cells)
    }

    /// Dirichlet conditions on every boundary face of the domain (each cell
    /// touching the box boundary pinned to `pressure`).  On 1-cell-thin grids
    /// this is the whole domain — a useful degenerate case for kernel tests.
    pub fn all_faces(dims: Dims, pressure: f64) -> Self {
        let cells: Vec<DirichletCell> = dims
            .iter_cells()
            .filter(|c| {
                c.x == 0
                    || c.x == dims.nx - 1
                    || c.y == 0
                    || c.y == dims.ny - 1
                    || c.z == 0
                    || c.z == dims.nz - 1
            })
            .map(|cell| DirichletCell {
                cell,
                value: pressure,
            })
            .collect();
        Self::new(dims, cells)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dims() -> Dims {
        Dims::new(4, 3, 5)
    }

    #[test]
    fn membership_and_values() {
        let d = dims();
        let set = DirichletSet::new(
            d,
            vec![
                DirichletCell {
                    cell: CellIndex::new(1, 1, 1),
                    value: 10.0,
                },
                DirichletCell {
                    cell: CellIndex::new(3, 2, 4),
                    value: -1.0,
                },
            ],
        );
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());
        let idx = d.linear(CellIndex::new(1, 1, 1));
        assert!(set.contains_linear(idx));
        assert_eq!(set.value_at_linear(idx), Some(10.0));
        assert!(!set.contains_linear(0));
        assert_eq!(set.value_at_linear(0), None);
    }

    #[test]
    fn mask_and_values_fields() {
        let d = dims();
        let set = DirichletSet::new(
            d,
            vec![DirichletCell {
                cell: CellIndex::new(0, 0, 0),
                value: 7.5,
            }],
        );
        let mask: CellField<f32> = set.mask(d);
        let vals: CellField<f64> = set.values(d);
        assert_eq!(mask.get(0), 1.0);
        assert_eq!(vals.get(0), 7.5);
        assert_eq!(mask.as_slice()[1..].iter().copied().sum::<f32>(), 0.0);
    }

    #[test]
    fn impose_overwrites_pressure() {
        let d = dims();
        let set = DirichletSet::source_producer(d, 100.0, 1.0);
        let mut p = CellField::<f64>::constant(d, 50.0);
        set.impose(&mut p);
        assert_eq!(p.at(CellIndex::new(0, 0, 0)), 100.0);
        assert_eq!(p.at(CellIndex::new(3, 2, 4)), 1.0);
        assert_eq!(p.at(CellIndex::new(1, 1, 1)), 50.0);
    }

    #[test]
    fn source_producer_spans_full_columns() {
        let d = dims();
        let set = DirichletSet::source_producer(d, 2.0, 1.0);
        assert_eq!(set.len(), 2 * d.nz);
        for z in 0..d.nz {
            assert!(set.contains_linear(d.linear(CellIndex::new(0, 0, z))));
            assert!(set.contains_linear(d.linear(CellIndex::new(d.nx - 1, d.ny - 1, z))));
        }
    }

    #[test]
    fn x_faces_cover_both_faces() {
        let d = dims();
        let set = DirichletSet::x_faces(d, 5.0, 1.0);
        assert_eq!(set.len(), 2 * d.ny * d.nz);
        assert_eq!(
            set.value_at_linear(d.linear(CellIndex::new(0, 2, 3))),
            Some(5.0)
        );
        assert_eq!(
            set.value_at_linear(d.linear(CellIndex::new(d.nx - 1, 0, 0))),
            Some(1.0)
        );
    }

    #[test]
    fn all_faces_pin_exactly_the_boundary_shell() {
        let d = Dims::new(4, 3, 5);
        let set = DirichletSet::all_faces(d, 2.0);
        // Interior cells: (4-2)*(3-2)*(5-2) = 6; everything else is boundary.
        assert_eq!(set.len(), d.num_cells() - d.num_interior_cells());
        assert!(set.contains_linear(d.linear(CellIndex::new(0, 1, 2))));
        assert!(!set.contains_linear(d.linear(CellIndex::new(1, 1, 1))));
        assert_eq!(
            set.value_at_linear(d.linear(CellIndex::new(3, 2, 4))),
            Some(2.0)
        );
        // A 1-cell-thin grid is all boundary.
        let thin = Dims::new(1, 3, 3);
        assert_eq!(DirichletSet::all_faces(thin, 1.0).len(), thin.num_cells());
    }

    #[test]
    #[should_panic]
    fn duplicate_cells_rejected() {
        let d = dims();
        let _ = DirichletSet::new(
            d,
            vec![
                DirichletCell {
                    cell: CellIndex::new(0, 0, 0),
                    value: 1.0,
                },
                DirichletCell {
                    cell: CellIndex::new(0, 0, 0),
                    value: 2.0,
                },
            ],
        );
    }

    #[test]
    fn empty_set() {
        let set = DirichletSet::empty();
        assert!(set.is_empty());
        assert!(!set.contains_linear(0));
    }
}
