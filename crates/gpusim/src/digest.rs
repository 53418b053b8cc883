//! The workspace's one content hash: 64-bit FNV-1a.
//!
//! Device fingerprints key persisted tuning databases, and the serving,
//! decode and cluster reports fold every simulated number into a digest
//! that CI compares across thread counts and SIMD dispatch modes. All of
//! them hash through [`Fnv1a`], so the byte order and constants live in
//! one place. FNV-1a is tiny, stable across Rust releases (unlike
//! `DefaultHasher`) and well distributed for short inputs.
//!
//! # Examples
//!
//! ```
//! use mg_gpusim::digest::Fnv1a;
//!
//! let mut h = Fnv1a::new();
//! h.write(b"foobar");
//! h.write_u64(42);
//! let digest = h.finish();
//! assert_ne!(digest, Fnv1a::new().finish());
//! ```

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// An FNV-1a-64 hasher state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A fresh hasher at the FNV offset basis.
    pub const fn new() -> Fnv1a {
        Fnv1a(OFFSET_BASIS)
    }

    /// Folds `bytes` in, one at a time.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// Folds in the eight little-endian bytes of `v` (the byte order is
    /// part of every persisted digest, so it is fixed, not native).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The hash of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fnv1a(bytes: &[u8]) -> u64 {
        let mut h = Fnv1a::new();
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn standard_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn write_u64_is_little_endian() {
        let mut h = Fnv1a::new();
        h.write_u64(0x0102_0304_0506_0708);
        assert_eq!(h.finish(), fnv1a(&[8, 7, 6, 5, 4, 3, 2, 1]));
    }

    #[test]
    fn writes_concatenate() {
        let mut h = Fnv1a::default();
        for chunk in [&b"fo"[..], b"", b"oba", b"r"] {
            h.write(chunk);
        }
        assert_eq!(h.finish(), fnv1a(b"foobar"));
    }
}
