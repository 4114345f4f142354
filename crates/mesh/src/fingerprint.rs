//! A deterministic 64-bit FNV-1a hasher over exact bit patterns.
//!
//! [`Fnv1a`] feeds `u64` words, and `f64` values by their exact bit
//! patterns, through FNV-1a in the order they are written.  No wall clock,
//! no randomness, no pointer identity: the same inputs hash to the same
//! value in every process, which is what a checksum of a pressure field
//! needs (perfbench checks its solves with one).

/// A 64-bit FNV-1a hasher over explicit `u64` words.
///
/// FNV-1a is tiny, dependency-free and stable across platforms.  It is
/// *not* collision resistant: a checksum can show that two results differ,
/// but equal digests do not prove equal inputs.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fnv1a {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self { state: FNV_OFFSET }
    }

    /// Absorb one 64-bit word, byte by byte, little-endian.
    pub fn write_u64(&mut self, word: u64) {
        let mut h = self.state;
        for byte in word.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.state = h;
    }

    /// Absorb an `f64` by its exact bit pattern (`-0.0` ≠ `+0.0`, NaN
    /// payloads distinguish — a checksum is strictly bitwise).
    pub fn write_f64(&mut self, value: f64) {
        self.write_u64(value.to_bits());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_are_deterministic_and_order_sensitive() {
        let mut a = Fnv1a::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = Fnv1a::new();
        b.write_u64(1);
        b.write_u64(2);
        assert_eq!(a.finish(), b.finish());
        let mut c = Fnv1a::new();
        c.write_u64(2);
        c.write_u64(1);
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn f64_words_hash_by_bit_pattern() {
        let mut pos = Fnv1a::new();
        pos.write_f64(0.0);
        let mut neg = Fnv1a::new();
        neg.write_f64(-0.0);
        assert_ne!(pos.finish(), neg.finish());
        let mut x = Fnv1a::new();
        x.write_f64(1.5);
        let mut y = Fnv1a::new();
        y.write_f64(1.5);
        assert_eq!(x.finish(), y.finish());
    }

    #[test]
    fn empty_hasher_is_the_offset_basis() {
        assert_eq!(Fnv1a::new().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a::default().finish(), Fnv1a::new().finish());
    }
}
