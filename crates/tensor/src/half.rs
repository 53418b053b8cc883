//! Software implementation of the IEEE 754 binary16 ("half", FP16) format.
//!
//! The paper's kernels store matrix operands in FP16 and accumulate in FP32,
//! matching the tensor-core `mma` instruction with FP32 accumulators. We
//! implement the format in-repo (rather than pulling a crate) so that the
//! rounding behaviour used by every kernel is pinned down by our own tests.
//!
//! Conversions implement round-to-nearest-even, the IEEE default and what
//! GPU `cvt.rn.Half.f32` performs.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

/// An IEEE 754 binary16 floating-point number stored as its raw bit pattern.
///
/// Arithmetic operators convert to `f32`, operate, and round back to `Half`,
/// which is exactly what scalar FP16 ALUs do. Kernels that model tensor-core
/// behaviour should instead accumulate in `f32` and round once at the end.
///
/// # Examples
///
/// ```
/// use mg_tensor::Half;
///
/// let x = Half::from_f32(1.5);
/// assert_eq!(x.to_f32(), 1.5);
/// let y = x + Half::from_f32(0.25);
/// assert_eq!(y.to_f32(), 1.75);
/// ```
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
#[repr(transparent)]
pub struct Half(u16);

#[allow(non_camel_case_types)]
impl Half {
    /// Positive zero.
    pub const ZERO: Half = Half(0);
    /// One.
    pub const ONE: Half = Half(0x3C00);
    /// Negative infinity; used by attention masks to invalidate elements.
    pub const NEG_INFINITY: Half = Half(0xFC00);
    /// Positive infinity.
    pub const INFINITY: Half = Half(0x7C00);
    /// The largest finite value, `65504.0`.
    pub const MAX: Half = Half(0x7BFF);
    /// The smallest finite value, `-65504.0`.
    pub const MIN: Half = Half(0xFBFF);
    /// The smallest positive normal value, `2^-14`.
    pub const MIN_POSITIVE: Half = Half(0x0400);
    /// Machine epsilon: the difference between `1.0` and the next larger
    /// representable value (`2^-10`).
    pub const EPSILON: Half = Half(0x1400);
    /// A canonical quiet NaN.
    pub const NAN: Half = Half(0x7E00);

    /// Creates an `Half` from its raw bit pattern.
    #[inline]
    pub const fn from_bits(bits: u16) -> Half {
        Half(bits)
    }

    /// Returns the raw bit pattern.
    #[inline]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Converts an `f32` to `Half` with round-to-nearest-even.
    ///
    /// Values too large for the format become infinity; subnormal results
    /// are produced exactly as IEEE 754 prescribes.
    pub fn from_f32(value: f32) -> Half {
        let bits = value.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xFF) as i32;
        let mantissa = bits & 0x007F_FFFF;

        if exp == 0xFF {
            // Infinity or NaN. Preserve NaN payload top bits, force quiet.
            return if mantissa == 0 {
                Half(sign | 0x7C00)
            } else {
                Half(sign | 0x7E00 | ((mantissa >> 13) as u16 & 0x01FF))
            };
        }

        // Unbiased exponent.
        let unbiased = exp - 127;
        if unbiased > 15 {
            // Overflows to infinity.
            return Half(sign | 0x7C00);
        }
        if unbiased >= -14 {
            // Normal range for Half.
            let half_exp = ((unbiased + 15) as u16) << 10;
            let half_man = (mantissa >> 13) as u16;
            let mut out = sign | half_exp | half_man;
            // Round to nearest even on the 13 truncated bits.
            let round_bits = mantissa & 0x1FFF;
            if round_bits > 0x1000 || (round_bits == 0x1000 && (half_man & 1) == 1) {
                out = out.wrapping_add(1); // may carry into exponent: correct (rounds to inf)
            }
            return Half(out);
        }
        if unbiased >= -25 {
            // Subnormal Half range. Add the implicit leading one, then shift.
            let man = mantissa | 0x0080_0000;
            let shift = (-14 - unbiased) as u32 + 13;
            let half_man = (man >> shift) as u16;
            let mut out = sign | half_man;
            // Round to nearest even on the shifted-out bits.
            let rem = man & ((1u32 << shift) - 1);
            let halfway = 1u32 << (shift - 1);
            if rem > halfway || (rem == halfway && (half_man & 1) == 1) {
                out = out.wrapping_add(1);
            }
            return Half(out);
        }
        // Underflows to zero.
        Half(sign)
    }

    /// Converts this `Half` to `f32` exactly (every `Half` is representable).
    ///
    /// A single indexed load from `F16_LUT`, the compile-time table of
    /// all 65,536 decoded bit patterns — the software analogue of the
    /// hardware `cvt.f32.f16` unit. The packed-panel kernels go further
    /// and hoist even this load out of their inner loops via
    /// [`crate::pack::decode_slice`].
    #[inline]
    pub fn to_f32(self) -> f32 {
        F16_LUT[self.0 as usize]
    }

    /// Returns `true` if this value is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7C00) == 0x7C00 && (self.0 & 0x03FF) != 0
    }

    /// Returns `true` if this value is positive or negative infinity.
    #[inline]
    pub fn is_infinite(self) -> bool {
        (self.0 & 0x7FFF) == 0x7C00
    }

    /// Returns `true` if this value is neither infinite nor NaN.
    #[inline]
    pub fn is_finite(self) -> bool {
        (self.0 & 0x7C00) != 0x7C00
    }

    /// Returns `true` if the sign bit is set (including `-0.0` and NaNs with
    /// a negative sign).
    #[inline]
    pub fn is_sign_negative(self) -> bool {
        (self.0 & 0x8000) != 0
    }

    /// Returns the absolute value.
    #[inline]
    pub fn abs(self) -> Half {
        Half(self.0 & 0x7FFF)
    }

    /// Returns the maximum of two values, propagating the non-NaN operand
    /// like `f32::max`.
    pub fn max(self, other: Half) -> Half {
        Half::from_f32(self.to_f32().max(other.to_f32()))
    }

    /// Returns the minimum of two values, propagating the non-NaN operand
    /// like `f32::min`.
    pub fn min(self, other: Half) -> Half {
        Half::from_f32(self.to_f32().min(other.to_f32()))
    }
}

/// Bit-level decode of one binary16 pattern into the equivalent `f32`
/// bit pattern. Const so [`F16_LUT`] can be built at compile time; kept
/// as the computed ground truth the exhaustive LUT test checks against.
const fn decode_f16_bits(h: u16) -> u32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1F) as u32;
    let man = (h & 0x03FF) as u32;
    if exp == 0 {
        if man == 0 {
            sign // signed zero
        } else {
            // Subnormal: normalize.
            let lead = man.leading_zeros() - 22; // zeros within the 10-bit field
            let exp32 = 127 - 15 - lead;
            let man32 = (man << (lead + 1)) & 0x03FF;
            sign | (exp32 << 23) | (man32 << 13)
        }
    } else if exp == 0x1F {
        if man == 0 {
            sign | 0x7F80_0000
        } else {
            sign | 0x7FC0_0000 | (man << 13)
        }
    } else {
        sign | ((exp + 127 - 15) << 23) | (man << 13)
    }
}

/// Every binary16 bit pattern decoded to `f32`, built at compile time
/// (256 KiB). Decode is exact, so reading the table is bit-identical to
/// computing the conversion — the LUT only removes the branchy bit
/// manipulation from the hot path.
/// The decode table itself, for the SIMD layer: the vectorized decode in
/// [`crate::simd`] gathers from this exact table, so it is bit-identical
/// to per-element [`Half::to_f32`] by construction.
#[inline]
pub(crate) fn f16_lut() -> &'static [f32; 1 << 16] {
    &F16_LUT
}

static F16_LUT: [f32; 1 << 16] = {
    let mut lut = [0.0f32; 1 << 16];
    let mut i = 0usize;
    while i < lut.len() {
        lut[i] = f32::from_bits(decode_f16_bits(i as u16));
        i += 1;
    }
    lut
};

impl fmt::Debug for Half {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}Half", self.to_f32())
    }
}

impl fmt::Display for Half {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_f32(), f)
    }
}

impl From<Half> for f32 {
    fn from(x: Half) -> f32 {
        x.to_f32()
    }
}

impl PartialOrd for Half {
    fn partial_cmp(&self, other: &Half) -> Option<Ordering> {
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait for Half {
            type Output = Half;
            #[inline]
            fn $method(self, rhs: Half) -> Half {
                Half::from_f32(self.to_f32() $op rhs.to_f32())
            }
        }
    };
}

impl_binop!(Add, add, +);
impl_binop!(Sub, sub, -);
impl_binop!(Mul, mul, *);
impl_binop!(Div, div, /);

impl AddAssign for Half {
    #[inline]
    fn add_assign(&mut self, rhs: Half) {
        *self = *self + rhs;
    }
}

impl Neg for Half {
    type Output = Half;
    #[inline]
    fn neg(self) -> Half {
        Half(self.0 ^ 0x8000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_one_round_trip() {
        assert_eq!(Half::from_f32(0.0).to_bits(), 0);
        assert_eq!(Half::from_f32(-0.0).to_bits(), 0x8000);
        assert_eq!(Half::from_f32(1.0), Half::ONE);
        assert_eq!(Half::ONE.to_f32(), 1.0);
    }

    #[test]
    fn powers_of_two_are_exact() {
        for e in -14..=15 {
            let v = (2.0f32).powi(e);
            assert_eq!(Half::from_f32(v).to_f32(), v, "2^{e}");
        }
    }

    #[test]
    fn integers_up_to_2048_are_exact() {
        for i in 0..=2048 {
            let v = i as f32;
            assert_eq!(Half::from_f32(v).to_f32(), v, "{i}");
            assert_eq!(Half::from_f32(-v).to_f32(), -v, "-{i}");
        }
    }

    #[test]
    fn overflow_saturates_to_infinity() {
        assert!(Half::from_f32(70000.0).is_infinite());
        assert!(Half::from_f32(-70000.0).is_infinite());
        assert!(Half::from_f32(-70000.0).is_sign_negative());
        // 65504 is the max finite value; 65520 rounds to infinity.
        assert_eq!(Half::from_f32(65504.0), Half::MAX);
        assert!(Half::from_f32(65520.0).is_infinite());
        // Just below the rounding threshold stays finite.
        assert_eq!(Half::from_f32(65519.0), Half::MAX);
    }

    #[test]
    fn subnormals_convert_exactly() {
        // Smallest positive subnormal is 2^-24.
        let tiny = (2.0f32).powi(-24);
        assert_eq!(Half::from_f32(tiny).to_bits(), 1);
        assert_eq!(Half::from_bits(1).to_f32(), tiny);
        // Below half the smallest subnormal flushes to zero.
        assert_eq!(Half::from_f32(tiny / 4.0).to_bits(), 0);
    }

    #[test]
    fn round_to_nearest_even() {
        // 1.0 + eps/2 is exactly halfway between 1.0 and 1.0+eps -> even (1.0).
        let eps = Half::EPSILON.to_f32();
        assert_eq!(Half::from_f32(1.0 + eps / 2.0), Half::ONE);
        // (1.0+eps) + eps/2 is halfway, rounds to even mantissa (1.0+2eps).
        let halfway_up = 1.0 + eps + eps / 2.0;
        assert_eq!(Half::from_f32(halfway_up).to_f32(), 1.0 + 2.0 * eps);
        // Slightly above halfway rounds up.
        assert_eq!(Half::from_f32(1.0 + eps * 0.51).to_f32(), 1.0 + eps);
    }

    #[test]
    fn nan_propagates() {
        assert!(Half::from_f32(f32::NAN).is_nan());
        assert!(Half::NAN.to_f32().is_nan());
        assert!((Half::NAN + Half::ONE).is_nan());
    }

    #[test]
    fn infinity_round_trips() {
        assert_eq!(Half::from_f32(f32::INFINITY), Half::INFINITY);
        assert_eq!(Half::from_f32(f32::NEG_INFINITY), Half::NEG_INFINITY);
        assert_eq!(Half::NEG_INFINITY.to_f32(), f32::NEG_INFINITY);
    }

    #[test]
    fn arithmetic_matches_f32_then_round() {
        let a = Half::from_f32(0.1);
        let b = Half::from_f32(0.2);
        let expect = Half::from_f32(a.to_f32() + b.to_f32());
        assert_eq!(a + b, expect);
        assert_eq!(-(a - b), b - a);
    }

    #[test]
    fn neg_flips_sign_bit_only() {
        let x = Half::from_f32(3.25);
        assert_eq!((-x).to_f32(), -3.25);
        assert_eq!(-(-x), x);
    }

    #[test]
    fn ordering_matches_f32() {
        let vals = [-2.0f32, -0.5, 0.0, 0.25, 1.0, 100.0];
        for w in vals.windows(2) {
            assert!(Half::from_f32(w[0]) < Half::from_f32(w[1]));
        }
    }

    #[test]
    fn lut_decodes_every_bit_pattern_exactly() {
        // Exhaustive: all 65,536 patterns, LUT load vs. computed decode,
        // compared at the bit level (so NaN payloads count too).
        for bits in 0..=u16::MAX {
            let via_lut = Half::from_bits(bits).to_f32().to_bits();
            let computed = decode_f16_bits(bits);
            assert_eq!(via_lut, computed, "pattern {bits:#06x}");
        }
    }

    #[test]
    fn finite_values_round_trip_through_the_lut() {
        for bits in 0..=u16::MAX {
            let h = Half::from_bits(bits);
            if h.is_finite() {
                assert_eq!(Half::from_f32(h.to_f32()), h, "pattern {bits:#06x}");
            }
        }
    }

    #[test]
    fn max_min_behave_like_f32() {
        let a = Half::from_f32(1.0);
        let b = Half::from_f32(2.0);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(Half::NAN.max(a), a);
    }
}
