//! Colours: the routing/typing tags carried by every wavelet.
//!
//! "Links transfer data in 32-bit packets, each annotated with a color for routing
//! and indicating the type of a message" (§III).  The hardware provides a small,
//! fixed number of routable colours; the paper dedicates colours C1–C4 to the
//! cardinal exchange actions and C5–C12 to their completion callbacks (Table I).

use crate::error::FabricError;

/// Number of routable colours available to a program (the WSE-2 SDK exposes 24
/// user-routable colours).
pub const NUM_ROUTABLE_COLORS: u8 = 24;

/// A wavelet colour.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Color(u8);

impl Color {
    /// Create a colour; panics if the id exceeds the routable range (use
    /// [`ColorAllocator`] to avoid manual bookkeeping).
    pub fn new(id: u8) -> Self {
        assert!(
            id < NUM_ROUTABLE_COLORS,
            "colour id {id} exceeds routable range"
        );
        Self(id)
    }

    /// Raw id.
    pub fn id(self) -> u8 {
        self.0
    }

    /// Index usable for dense per-colour tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for Color {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "C{}", self.0)
    }
}

/// Hands out colours sequentially, mirroring how a CSL program declares its colour
/// set up front.
#[derive(Clone, Debug, Default)]
pub struct ColorAllocator {
    next: u8,
}

impl ColorAllocator {
    /// A fresh allocator.
    pub fn new() -> Self {
        Self { next: 0 }
    }

    /// Allocate the next free colour.
    pub fn allocate(&mut self) -> Result<Color, FabricError> {
        if self.next >= NUM_ROUTABLE_COLORS {
            return Err(FabricError::InvalidBuffer {
                detail: format!("out of routable colours (limit {NUM_ROUTABLE_COLORS})"),
            });
        }
        let c = Color(self.next);
        self.next += 1;
        Ok(c)
    }

    /// Allocate `n` colours at once.
    pub fn allocate_many(&mut self, n: usize) -> Result<Vec<Color>, FabricError> {
        (0..n).map(|_| self.allocate()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn color_ids_and_display() {
        let c = Color::new(3);
        assert_eq!(c.id(), 3);
        assert_eq!(c.index(), 3);
        assert_eq!(c.to_string(), "C3");
    }

    #[test]
    #[should_panic]
    fn out_of_range_color_rejected() {
        let _ = Color::new(NUM_ROUTABLE_COLORS);
    }

    #[test]
    fn allocator_hands_out_unique_colors_until_exhausted() {
        let mut alloc = ColorAllocator::new();
        let colors = alloc.allocate_many(NUM_ROUTABLE_COLORS as usize).unwrap();
        assert_eq!(colors.len(), 24);
        let mut ids: Vec<u8> = colors.iter().map(|c| c.id()).collect();
        ids.dedup();
        assert_eq!(ids.len(), 24);
        assert!(alloc.allocate().is_err());
    }
}
