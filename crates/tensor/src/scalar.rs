//! The [`Scalar`] trait abstracting over element types stored in matrices.

use crate::Half;
use std::fmt::Debug;

mod private {
    pub trait Sealed {}
    impl Sealed for super::Half {}
    impl Sealed for f32 {}
}

/// A numeric element type a [`crate::Matrix`] can store.
///
/// This trait is sealed: the only implementors are [`Half`] (the storage type
/// the paper's kernels use) and `f32` (used for accumulators and references).
///
/// # Examples
///
/// ```
/// use mg_tensor::{Half, Scalar};
///
/// assert_eq!(<Half as Scalar>::from_f32(2.0).to_f32(), 2.0);
/// assert_eq!(<f32 as Scalar>::ZERO, 0.0);
/// ```
pub trait Scalar:
    Copy + Debug + PartialEq + Default + private::Sealed + Send + Sync + 'static
{
    /// The additive identity.
    const ZERO: Self;
    /// The multiplicative identity.
    const ONE: Self;
    /// Negative infinity (used by masks).
    const NEG_INFINITY: Self;

    /// Converts from `f32`, rounding if necessary.
    fn from_f32(v: f32) -> Self;
    /// Converts to `f32` (exact for both implementors).
    fn to_f32(self) -> f32;
    /// Size of one element in bytes, for memory-traffic accounting.
    fn byte_size() -> u64;

    /// Decodes a whole slice into `f32`, element `i` of `dst` receiving
    /// exactly `src[i].to_f32()`. `Half` overrides this to route through
    /// the vectorized LUT gather in [`crate::simd`] when the dispatch is
    /// active — the gather reads the same table `to_f32` indexes, so the
    /// override is bit-identical by construction.
    ///
    /// Callers guarantee `src.len() == dst.len()`
    /// ([`crate::pack::decode_slice`] asserts it).
    #[inline]
    fn decode_into(src: &[Self], dst: &mut [f32]) {
        for (d, s) in dst.iter_mut().zip(src.iter()) {
            *d = s.to_f32();
        }
    }

    /// Encodes a whole `f32` slice, element `i` of `dst` receiving exactly
    /// `Self::from_f32(src[i])` — the mirror of [`Scalar::decode_into`].
    /// `Half` overrides this to route through the F16C conversion in
    /// [`crate::simd`] when the dispatch is active, which rounds every
    /// input exactly as `from_f32` does.
    ///
    /// Callers guarantee `src.len() == dst.len()`
    /// ([`crate::pack::encode_slice`] asserts it).
    #[inline]
    fn encode_from(src: &[f32], dst: &mut [Self]) {
        for (d, s) in dst.iter_mut().zip(src.iter()) {
            *d = Self::from_f32(*s);
        }
    }
}

impl Scalar for Half {
    const ZERO: Self = Half::ZERO;
    const ONE: Self = Half::ONE;
    const NEG_INFINITY: Self = Half::NEG_INFINITY;

    #[inline]
    fn from_f32(v: f32) -> Self {
        Half::from_f32(v)
    }
    #[inline]
    fn to_f32(self) -> f32 {
        Half::to_f32(self)
    }
    #[inline]
    fn byte_size() -> u64 {
        2
    }

    #[inline]
    fn decode_into(src: &[Half], dst: &mut [f32]) {
        if !crate::simd::decode_f16(src, dst) {
            for (d, s) in dst.iter_mut().zip(src.iter()) {
                *d = s.to_f32();
            }
        }
    }

    #[inline]
    fn encode_from(src: &[f32], dst: &mut [Half]) {
        if !crate::simd::encode_f16(src, dst) {
            for (d, s) in dst.iter_mut().zip(src.iter()) {
                *d = Half::from_f32(*s);
            }
        }
    }
}

impl Scalar for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const NEG_INFINITY: Self = f32::NEG_INFINITY;

    #[inline]
    fn from_f32(v: f32) -> Self {
        v
    }
    #[inline]
    fn to_f32(self) -> f32 {
        self
    }
    #[inline]
    fn byte_size() -> u64 {
        4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_consistent() {
        assert_eq!(<Half as Scalar>::ZERO.to_f32(), 0.0);
        assert_eq!(<Half as Scalar>::ONE.to_f32(), 1.0);
        assert_eq!(<f32 as Scalar>::NEG_INFINITY, f32::NEG_INFINITY);
        assert!(<Half as Scalar>::NEG_INFINITY.to_f32().is_infinite());
    }

    #[test]
    fn byte_sizes() {
        assert_eq!(<Half as Scalar>::byte_size(), 2);
        assert_eq!(<f32 as Scalar>::byte_size(), 4);
    }
}
