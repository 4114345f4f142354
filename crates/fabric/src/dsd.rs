//! Data Structure Descriptors (DSDs).
//!
//! "In the Cerebras architecture, this functionality is achieved through special
//! registers known as Data Structure Descriptors (DSDs), which serve as vectors upon
//! which specific instructions can operate.  The DSDs contain information regarding
//! the address, length, and stride of the arrays" (§III-E3).  A [`Dsd`] is a
//! (buffer, offset, length) view into a PE's local memory, consumed by the
//! vectorised instructions implemented on [`crate::pe::ProcessingElement`].  Every
//! kernel here walks dense columns, so the stride is always 1 and not stored.

use crate::error::FabricError;
use crate::memory::{BufferId, PeMemory};

/// A dense view into a PE-local buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Dsd {
    /// The buffer the view refers to.
    pub buffer: BufferId,
    /// Index of the first element.
    pub offset: usize,
    /// Number of elements the view covers.
    pub len: usize,
}

impl Dsd {
    /// A dense view of `len` elements starting at `offset`.
    pub fn new(buffer: BufferId, offset: usize, len: usize) -> Self {
        Self {
            buffer,
            offset,
            len,
        }
    }

    /// A dense view covering a whole buffer of known length.
    pub fn full(buffer: BufferId, len: usize) -> Self {
        Self::new(buffer, 0, len)
    }

    /// The element indices the view touches, in order.
    pub fn indices(&self) -> std::ops::Range<usize> {
        self.offset..self.offset + self.len
    }

    /// Index of the last element touched (if any).
    pub fn last_index(&self) -> Option<usize> {
        if self.len == 0 {
            None
        } else {
            Some(self.offset + self.len - 1)
        }
    }

    /// Validate the view against the memory it refers to.
    pub fn validate(&self, memory: &PeMemory) -> Result<(), FabricError> {
        let buf_len = memory.len(self.buffer)?;
        if let Some(last) = self.last_index() {
            if last >= buf_len {
                return Err(FabricError::DsdOutOfRange {
                    detail: format!(
                        "DSD covers index {last} but buffer '{}' has {buf_len} elements",
                        memory.name(self.buffer).unwrap_or("?")
                    ),
                });
            }
        }
        Ok(())
    }

    /// Gather the view's values into a vector (counts as `len` loads in the caller's
    /// accounting; the gather itself is a simulator convenience).
    pub fn gather(&self, memory: &PeMemory) -> Result<Vec<f32>, FabricError> {
        self.validate(memory)?;
        let data = memory.slice(self.buffer)?;
        Ok(self.indices().map(|i| data[i]).collect())
    }

    /// Scatter values into the view (the inverse of [`Dsd::gather`]).
    pub fn scatter(&self, memory: &mut PeMemory, values: &[f32]) -> Result<(), FabricError> {
        if values.len() != self.len {
            return Err(FabricError::DsdOutOfRange {
                detail: format!(
                    "scatter of {} values into a DSD of length {}",
                    values.len(),
                    self.len
                ),
            });
        }
        self.validate(memory)?;
        let data = memory.slice_mut(self.buffer)?;
        for (i, &v) in self.indices().zip(values.iter()) {
            data[i] = v;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::PeId;

    fn memory_with_buffer(len: usize) -> (PeMemory, BufferId) {
        let mut m = PeMemory::with_capacity(PeId::new(0, 0), 4096, 64);
        let b = m.alloc("buf", len).unwrap();
        (m, b)
    }

    #[test]
    fn dense_view_round_trip() {
        let (mut m, b) = memory_with_buffer(8);
        let view = Dsd::full(b, 8);
        view.scatter(&mut m, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
            .unwrap();
        assert_eq!(
            view.gather(&m).unwrap(),
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
        );
    }

    #[test]
    fn out_of_range_view_rejected() {
        let (m, b) = memory_with_buffer(4);
        let view = Dsd::new(b, 2, 3);
        assert!(view.validate(&m).is_err());
        assert!(view.gather(&m).is_err());
    }

    #[test]
    fn empty_view_is_valid() {
        let (m, b) = memory_with_buffer(4);
        let view = Dsd::new(b, 0, 0);
        assert!(view.validate(&m).is_ok());
        assert_eq!(view.last_index(), None);
        assert_eq!(view.gather(&m).unwrap(), Vec::<f32>::new());
    }

    #[test]
    fn scatter_length_mismatch_rejected() {
        let (mut m, b) = memory_with_buffer(4);
        let view = Dsd::new(b, 0, 2);
        assert!(view.scatter(&mut m, &[1.0]).is_err());
    }
}
