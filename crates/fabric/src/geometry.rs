//! Fabric topology: PE coordinates, ports and neighbour arithmetic.
//!
//! The WSE "employs a 2D Cartesian mesh fabric to connect PEs.  … A PE's router
//! manages five full-duplex links: a Ramp link that carries data between the PE and
//! its router, while North, East, South, and West links connect a router to
//! neighboring routers" (§III, Figure 2).

/// Extents of the fabric (number of PEs along each axis).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FabricDims {
    pub width: usize,
    pub height: usize,
}

/// Coordinates of a processing element on the fabric.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PeId {
    pub x: usize,
    pub y: usize,
}

/// One of the five router links.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Port {
    /// The link between a router and its own PE.
    Ramp,
    North,
    East,
    South,
    West,
}

impl FabricDims {
    /// Construct fabric extents; panics on zero sizes.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "fabric extents must be non-zero");
        Self { width, height }
    }

    /// The full CS-2 fabric usable by the SDK ("the grid size is 750 × 994", §V-A).
    pub fn cs2() -> Self {
        Self {
            width: 750,
            height: 994,
        }
    }

    /// Number of PEs.
    pub fn num_pes(&self) -> usize {
        self.width * self.height
    }

    /// Whether a coordinate is on the fabric.
    pub fn contains(&self, pe: PeId) -> bool {
        pe.x < self.width && pe.y < self.height
    }

    /// Linear index of a PE (row-major).
    #[inline]
    pub fn linear(&self, pe: PeId) -> usize {
        debug_assert!(self.contains(pe));
        pe.y * self.width + pe.x
    }

    /// Inverse of [`FabricDims::linear`].
    #[inline]
    pub fn unlinear(&self, idx: usize) -> PeId {
        debug_assert!(idx < self.num_pes());
        PeId {
            x: idx % self.width,
            y: idx / self.width,
        }
    }

    /// The neighbouring PE reached through an outgoing router port, if any.
    ///
    /// The fabric's Y axis grows southwards in router terms: the paper's Table I
    /// sends "to North" towards smaller `y` ("its northbound neighbor at cell
    /// (x, y−1, z)", §III-B).
    pub fn neighbor(&self, pe: PeId, port: Port) -> Option<PeId> {
        let (x, y) = (pe.x as isize, pe.y as isize);
        let (nx, ny) = match port {
            Port::Ramp => return Some(pe),
            Port::East => (x + 1, y),
            Port::West => (x - 1, y),
            Port::North => (x, y - 1),
            Port::South => (x, y + 1),
        };
        if nx < 0 || ny < 0 || nx >= self.width as isize || ny >= self.height as isize {
            None
        } else {
            Some(PeId {
                x: nx as usize,
                y: ny as usize,
            })
        }
    }

    /// Iterate over all PEs in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = PeId> + '_ {
        let (w, h) = (self.width, self.height);
        (0..h).flat_map(move |y| (0..w).map(move |x| PeId { x, y }))
    }
}

impl PeId {
    /// Construct a PE coordinate.
    pub const fn new(x: usize, y: usize) -> Self {
        Self { x, y }
    }
}

impl Port {
    /// All four fabric-facing ports (excludes the ramp).
    pub const CARDINAL: [Port; 4] = [Port::North, Port::East, Port::South, Port::West];

    /// The port on the *receiving* router that a wavelet leaving through `self`
    /// arrives on (East ↔ West, North ↔ South).
    pub fn entry_on_neighbor(self) -> Port {
        match self {
            Port::Ramp => Port::Ramp,
            Port::East => Port::West,
            Port::West => Port::East,
            Port::North => Port::South,
            Port::South => Port::North,
        }
    }
}

impl std::fmt::Display for PeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cs2_fabric_size_matches_paper() {
        let d = FabricDims::cs2();
        assert_eq!(d.num_pes(), 750 * 994);
    }

    #[test]
    fn linear_round_trip() {
        let d = FabricDims::new(5, 3);
        for idx in 0..d.num_pes() {
            assert_eq!(d.linear(d.unlinear(idx)), idx);
        }
        assert_eq!(d.linear(PeId::new(2, 1)), 7);
    }

    #[test]
    fn neighbors_respect_edges_and_orientation() {
        let d = FabricDims::new(3, 3);
        let c = PeId::new(1, 1);
        assert_eq!(d.neighbor(c, Port::East), Some(PeId::new(2, 1)));
        assert_eq!(d.neighbor(c, Port::West), Some(PeId::new(0, 1)));
        assert_eq!(d.neighbor(c, Port::North), Some(PeId::new(1, 0)));
        assert_eq!(d.neighbor(c, Port::South), Some(PeId::new(1, 2)));
        assert_eq!(d.neighbor(PeId::new(0, 0), Port::West), None);
        assert_eq!(d.neighbor(PeId::new(0, 0), Port::North), None);
        assert_eq!(d.neighbor(PeId::new(2, 2), Port::East), None);
        assert_eq!(d.neighbor(PeId::new(2, 2), Port::South), None);
        assert_eq!(d.neighbor(c, Port::Ramp), Some(c));
    }

    #[test]
    fn port_entry_mapping_is_involutive_on_cardinals() {
        for p in Port::CARDINAL {
            assert_eq!(p.entry_on_neighbor().entry_on_neighbor(), p);
        }
        assert_eq!(Port::Ramp.entry_on_neighbor(), Port::Ramp);
    }

    #[test]
    #[should_panic]
    fn zero_fabric_rejected() {
        let _ = FabricDims::new(0, 3);
    }
}
