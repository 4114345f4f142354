//! The six face directions of the 7-point stencil (Figure 1 of the paper).
//!
//! On the horizontal X-Y plane a cell has four cardinal neighbours that live on
//! *different* processing elements; the two vertical (Z) neighbours live in the same
//! PE's local memory (§III-A), so the distinction between "horizontal" and
//! "vertical" directions matters throughout the dataflow mapping.

/// One of the six neighbour directions of a cell in the 3-D Cartesian mesh.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Direction {
    /// +X ("East" on the fabric).
    XP,
    /// -X ("West" on the fabric).
    XM,
    /// +Y ("South" on the fabric: the paper's southbound neighbour is (x, y+1, z)).
    YP,
    /// -Y ("North" on the fabric: the paper's northbound neighbour is (x, y−1, z)).
    YM,
    /// +Z (up the column, same PE).
    ZP,
    /// -Z (down the column, same PE).
    ZM,
}

impl Direction {
    /// All six directions, in the canonical order used for per-cell transmissibility
    /// storage (E, W, N, S, Up, Down).
    pub const ALL: [Direction; 6] = [
        Direction::XP,
        Direction::XM,
        Direction::YP,
        Direction::YM,
        Direction::ZP,
        Direction::ZM,
    ];

    /// Index of the direction in [`Direction::ALL`]; used as the per-cell
    /// transmissibility slot.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Direction::XP => 0,
            Direction::XM => 1,
            Direction::YP => 2,
            Direction::YM => 3,
            Direction::ZP => 4,
            Direction::ZM => 5,
        }
    }

    /// Grid offset `(dx, dy, dz)` of the neighbour in this direction.
    #[inline]
    pub fn offset(self) -> (isize, isize, isize) {
        match self {
            Direction::XP => (1, 0, 0),
            Direction::XM => (-1, 0, 0),
            Direction::YP => (0, 1, 0),
            Direction::YM => (0, -1, 0),
            Direction::ZP => (0, 0, 1),
            Direction::ZM => (0, 0, -1),
        }
    }

    /// The opposite direction (the one the neighbour uses to refer back to us).
    #[inline]
    pub fn opposite(self) -> Direction {
        match self {
            Direction::XP => Direction::XM,
            Direction::XM => Direction::XP,
            Direction::YP => Direction::YM,
            Direction::YM => Direction::YP,
            Direction::ZP => Direction::ZM,
            Direction::ZM => Direction::ZP,
        }
    }

    /// Which grid axis the direction moves along (0 = X, 1 = Y, 2 = Z).
    #[inline]
    pub fn axis(self) -> usize {
        match self {
            Direction::XP | Direction::XM => 0,
            Direction::YP | Direction::YM => 1,
            Direction::ZP | Direction::ZM => 2,
        }
    }

    /// Human-readable compass name used in traces and reports.
    pub fn compass(self) -> &'static str {
        match self {
            Direction::XP => "East",
            Direction::XM => "West",
            Direction::YP => "South",
            Direction::YM => "North",
            Direction::ZP => "Up",
            Direction::ZM => "Down",
        }
    }
}

impl std::fmt::Display for Direction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.compass())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_unique_and_dense() {
        let mut seen = [false; 6];
        for dir in Direction::ALL {
            assert!(!seen[dir.index()]);
            seen[dir.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn opposite_is_involutive() {
        for dir in Direction::ALL {
            assert_eq!(dir.opposite().opposite(), dir);
            assert_ne!(dir.opposite(), dir);
        }
    }

    #[test]
    fn offsets_cancel_with_opposite() {
        for dir in Direction::ALL {
            let (dx, dy, dz) = dir.offset();
            let (ox, oy, oz) = dir.opposite().offset();
            assert_eq!((dx + ox, dy + oy, dz + oz), (0, 0, 0));
        }
    }

    #[test]
    fn compass_names() {
        assert_eq!(Direction::XP.to_string(), "East");
        assert_eq!(Direction::YM.to_string(), "North");
        assert_eq!(Direction::YP.to_string(), "South");
        assert_eq!(Direction::ZP.to_string(), "Up");
    }
}
