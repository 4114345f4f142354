//! Floating-point scalar abstraction.
//!
//! The paper runs every device computation in 32-bit floating point ("all
//! floating-point numbers used in the experiments are 32-bit", §V-C), while host-side
//! verification benefits from a 64-bit path.  [`Scalar`] is the minimal trait the
//! rest of the workspace needs to be generic over both.

use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A real scalar type usable in every kernel of the workspace.
///
/// Implemented for `f32` (device precision in the paper) and `f64` (host
/// verification precision).
pub trait Scalar:
    Copy
    + PartialOrd
    + PartialEq
    + Debug
    + Display
    + Default
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Machine epsilon of the type.
    const EPSILON: Self;

    /// Lossy conversion from `f64`.
    fn from_f64(v: f64) -> Self;
    /// Lossless widening to `f64`.
    fn to_f64(self) -> f64;
    /// Conversion from a cell count / index.
    fn from_usize(v: usize) -> Self {
        Self::from_f64(v as f64)
    }
    /// Absolute value.
    fn abs(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Fused multiply-add `self * a + b`, rounded once (maps onto the FMA
    /// instruction counted in Table V of the paper).  On x86-64 the
    /// repository's `.cargo/config.toml` enables the `fma` target feature, so
    /// this compiles to one inline `vfmadd`; without it (`RUSTFLAGS=""`) it is
    /// a call into libm's `fma`.  IEEE 754 defines the fused result exactly,
    /// so both builds return the same value.
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// Elementwise maximum; NaN when either operand is NaN (where `f64::max`
    /// would return the other one), so a max-norm cannot skip a NaN cell.
    fn max_with(self, other: Self) -> Self;
    /// Elementwise minimum.
    fn min_with(self, other: Self) -> Self;
    /// Whether the value is finite (not NaN / ±inf).
    fn is_finite(self) -> bool;
}

macro_rules! impl_scalar {
    ($t:ty) => {
        impl Scalar for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const EPSILON: Self = <$t>::EPSILON;

            #[inline]
            fn from_f64(v: f64) -> Self {
                v as $t
            }
            #[inline]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline]
            fn abs(self) -> Self {
                <$t>::abs(self)
            }
            #[inline]
            fn sqrt(self) -> Self {
                <$t>::sqrt(self)
            }
            #[inline]
            fn mul_add(self, a: Self, b: Self) -> Self {
                <$t>::mul_add(self, a, b)
            }
            #[inline]
            fn max_with(self, other: Self) -> Self {
                if self.is_nan() || other.is_nan() {
                    <$t>::NAN
                } else {
                    <$t>::max(self, other)
                }
            }
            #[inline]
            fn min_with(self, other: Self) -> Self {
                <$t>::min(self, other)
            }
            #[inline]
            fn is_finite(self) -> bool {
                <$t>::is_finite(self)
            }
        }
    };
}

impl_scalar!(f32);
impl_scalar!(f64);

/// Relative comparison helper used throughout the test suites.
///
/// Returns `true` when `|a - b| <= atol + rtol * max(|a|, |b|)`.
pub fn approx_eq<T: Scalar>(a: T, b: T, rtol: f64, atol: f64) -> bool {
    let a = a.to_f64();
    let b = b.to_f64();
    (a - b).abs() <= atol + rtol * a.abs().max(b.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_match_literals() {
        assert_eq!(f32::ZERO, 0.0f32);
        assert_eq!(f64::ONE, 1.0f64);
        assert_eq!(<f32 as Scalar>::EPSILON, f32::EPSILON);
    }

    #[test]
    fn conversions_round_trip() {
        let x = 3.25f64;
        assert_eq!(f64::from_f64(x), x);
        assert_eq!(f32::from_f64(x).to_f64(), 3.25);
        assert_eq!(f32::from_usize(7), 7.0);
    }

    #[test]
    fn mul_add_matches_expression() {
        let a = 2.0f32;
        assert_eq!(a.mul_add(3.0, 4.0), 10.0);
        let b = 2.0f64;
        assert_eq!(b.mul_add(3.0, 4.0), 10.0);
    }

    /// Inputs whose exact product has a term below the type's precision: the
    /// fused result keeps it, an unfused `a * a + c` rounds it away and
    /// cancels to zero.  `black_box` keeps the compiler from folding the
    /// constants, so this checks the instruction that runs.
    #[test]
    fn mul_add_rounds_once() {
        use std::hint::black_box;
        // (1 + 2⁻³⁰)² = 1 + 2⁻²⁹ + 2⁻⁶⁰
        let a = black_box(1.0 + 2f64.powi(-30));
        let c = black_box(-(1.0 + 2f64.powi(-29)));
        assert_eq!(<f64 as Scalar>::mul_add(a, a, c), 2f64.powi(-60));
        assert_eq!(a * a + c, 0.0);
        // (1 + 2⁻¹³)² = 1 + 2⁻¹² + 2⁻²⁶
        let a = black_box(1.0 + 2f32.powi(-13));
        let c = black_box(-(1.0 + 2f32.powi(-12)));
        assert_eq!(<f32 as Scalar>::mul_add(a, a, c), 2f32.powi(-26));
        assert_eq!(a * a + c, 0.0);
    }

    #[test]
    fn min_max_and_abs() {
        assert_eq!((-2.0f32).abs(), 2.0);
        assert_eq!(1.0f64.max_with(2.0), 2.0);
        assert_eq!(1.0f64.min_with(2.0), 1.0);
        assert!(f64::NAN.max_with(2.0).is_nan() && 2.0f32.max_with(f32::NAN).is_nan());
    }

    #[test]
    fn finiteness() {
        assert!(1.0f32.is_finite());
        assert!(!(f32::INFINITY).is_finite());
        assert!(!(f64::NAN).is_finite());
    }

    #[test]
    fn approx_eq_behaviour() {
        assert!(approx_eq(1.0f64, 1.0 + 1e-12, 1e-9, 0.0));
        assert!(!approx_eq(1.0f64, 1.1, 1e-9, 0.0));
        assert!(approx_eq(0.0f32, 1e-9f32, 0.0, 1e-6));
    }
}
