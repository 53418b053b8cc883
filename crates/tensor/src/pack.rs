//! Packed `f32` operand panels: decode an FP16 operand once, reuse it
//! everywhere.
//!
//! The naive kernels re-convert every FP16 element on every use — a
//! GEMM touches each element of `B` once per output row, so the same
//! bits go through `Half::to_f32` `m` times. Real sparse-attention
//! kernels (SPLAT, Fused3S) win by staging operands into registers or
//! shared memory once and running the MAC loop over the staged tile;
//! this module is the CPU analogue. [`decode_slice`] converts a slice in
//! one pass, [`Panel`] stages a whole matrix as a row-major `f32` panel
//! in a pooled [`crate::scratch`] buffer, and [`Slabs`] stages a dense
//! GEMM's B operand as cache-sized column slabs.
//!
//! Bit-identity: FP16→FP32 decode is exact, so replacing a per-use
//! conversion with a staged panel changes *where* the conversion
//! happens, never the value — provided the consumer keeps its
//! accumulation order, results are bit-identical by construction.

use crate::scratch::{self, ScratchF32};
use crate::simd::SPAN;
use crate::{Matrix, Scalar};

/// Decodes `src` into `dst` element-wise (exact for both scalar types).
///
/// `Half` sources route through the vectorized LUT gather in
/// [`crate::simd`] when the dispatch is active; it reads the same
/// compile-time table per-element decode indexes, so the two paths are
/// bit-identical by construction.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn decode_slice<T: Scalar>(src: &[T], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "decode length mismatch");
    T::decode_into(src, dst);
}

/// Rounds `src` into `dst` element-wise (round-to-nearest-even for
/// `Half` outputs, identity for `f32`).
///
/// `Half` outputs route through the F16C conversion in [`crate::simd`]
/// when the dispatch is active; it rounds exactly as per-element
/// [`crate::Half::from_f32`] does, NaNs included, so the two paths are
/// bit-identical.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn encode_slice<O: Scalar>(src: &[f32], dst: &mut [O]) {
    assert_eq!(src.len(), dst.len(), "encode length mismatch");
    O::encode_from(src, dst);
}

/// A matrix decoded once into a row-major `f32` panel.
///
/// The backing buffer comes from the per-thread [`crate::scratch`] pool
/// and returns there when the panel drops, so repeated kernel calls
/// (e.g. the serve simulator's request loop) reuse the same allocation.
///
/// # Examples
///
/// ```
/// use mg_tensor::{pack::Panel, Half, Matrix};
///
/// let m = Matrix::<Half>::random(4, 8, 1);
/// let panel = Panel::from_matrix(&m);
/// assert_eq!(panel.row(2)[3], m.get(2, 3).to_f32());
/// ```
pub struct Panel {
    buf: ScratchF32,
    cols: usize,
}

impl Panel {
    /// Decodes every element of `m` into a pooled row-major panel.
    pub fn from_matrix<T: Scalar>(m: &Matrix<T>) -> Panel {
        let mut buf = scratch::take_zeroed(m.rows() * m.cols());
        decode_slice(m.as_slice(), &mut buf);
        Panel {
            buf,
            cols: m.cols(),
        }
    }

    /// Decodes `m` into a **column-major** panel: row `c` of the panel is
    /// column `c` of the matrix. `A × Bᵀ`-shaped kernels pack `B` this way
    /// so their inner loops read the same contiguous `n`-major layout a
    /// plain [`Panel::from_matrix`] of an untransposed `B` would give —
    /// one transpose at pack time instead of `n` strided walks per output
    /// row. Decode is exact, so consumers stay bit-identical.
    pub fn from_matrix_transposed<T: Scalar>(m: &Matrix<T>) -> Panel {
        let (rows, cols) = (m.rows(), m.cols());
        let mut buf = scratch::take_zeroed(rows * cols);
        let src = m.as_slice();
        for r in 0..rows {
            for (c, v) in src[r * cols..(r + 1) * cols].iter().enumerate() {
                buf[c * rows + r] = v.to_f32();
            }
        }
        Panel { buf, cols: rows }
    }

    /// Decodes a flat slice as a `rows × cols` panel (e.g. CSR values
    /// with `cols == 1`, or BSR block storage with `cols == block²`).
    ///
    /// # Panics
    ///
    /// Panics if `src.len()` is not a multiple of `cols`.
    pub fn from_slice<T: Scalar>(src: &[T], cols: usize) -> Panel {
        let cols = cols.max(1);
        assert_eq!(
            src.len() % cols,
            0,
            "slice length must be a multiple of cols"
        );
        let mut buf = scratch::take_zeroed(src.len());
        decode_slice(src, &mut buf);
        Panel { buf, cols }
    }

    /// Row `r` of the panel.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.buf[r * self.cols..(r + 1) * self.cols]
    }

    /// Number of columns per row.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The whole panel, row-major.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.buf
    }
}

/// A `k × n` operand decoded once into **column slabs** of width
/// [`SPAN`]: slab `s` holds columns `SPAN·s .. SPAN·s + w` as a
/// contiguous, k-major `k × w` block (`slab[kk * w + j]` is element
/// `(kk, SPAN·s + j)`), and only the last slab may be narrower than
/// `SPAN`. A blocked GEMM streams one slab at a time: the slab is small
/// enough to stay cache-resident while many output rows reuse it, where a
/// whole-width row-major panel would be re-read from memory per row.
///
/// This is its own type rather than a [`Panel`] constructor so that
/// [`Panel::row`] can never index a slab-ordered buffer. Decode is exact,
/// so the layout changes where values sit, never what they are.
///
/// # Examples
///
/// ```
/// use mg_tensor::{pack::Slabs, Half, Matrix};
///
/// let b = Matrix::<Half>::random(3, 40, 1);
/// let slabs = Slabs::from_matrix(&b);
/// let (j0, w, last) = slabs.iter().last().expect("two slabs");
/// assert_eq!((j0, w), (32, 8));
/// assert_eq!(last[2 * w + 5], b.get(2, 37).to_f32());
/// ```
pub struct Slabs {
    buf: ScratchF32,
    depth: usize,
    cols: usize,
}

impl Slabs {
    /// Decodes the `k × n` matrix `m` into column slabs, one contiguous
    /// run of at most [`SPAN`] elements per source row and slab.
    pub fn from_matrix<T: Scalar>(m: &Matrix<T>) -> Slabs {
        let (depth, cols) = (m.rows(), m.cols());
        let mut buf = scratch::take_zeroed(depth * cols);
        for (j0, w) in slab_spans(cols) {
            let slab = &mut buf[j0 * depth..(j0 + w) * depth];
            for (kk, dst) in slab.chunks_exact_mut(w).enumerate() {
                decode_slice(&m.row(kk)[j0..j0 + w], dst);
            }
        }
        Slabs { buf, depth, cols }
    }

    /// Decodes the column slabs of `mᵀ` for an `n × k` matrix `m`, so
    /// `A × Bᵀ` walks the same slabs [`Slabs::from_matrix`] gives `A × B`.
    /// The `w` source rows behind one slab are contiguous, so each slab
    /// is decoded in one run and then transposed into k-major order.
    pub fn from_matrix_transposed<T: Scalar>(m: &Matrix<T>) -> Slabs {
        let (cols, depth) = (m.rows(), m.cols());
        let mut buf = scratch::take_zeroed(depth * cols);
        let mut rows = scratch::take_zeroed(SPAN * depth);
        for (j0, w) in slab_spans(cols) {
            let rows = &mut rows[..w * depth];
            decode_slice(&m.as_slice()[j0 * depth..(j0 + w) * depth], rows);
            let slab = &mut buf[j0 * depth..(j0 + w) * depth];
            for (j, row) in rows.chunks_exact(depth.max(1)).enumerate() {
                for (kk, &v) in row.iter().enumerate() {
                    slab[kk * w + j] = v;
                }
            }
        }
        Slabs { buf, depth, cols }
    }

    /// Number of columns `n` of the operand.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Slab `s` as `(j0, w, slab)`: its first column `j0 = SPAN·s`, its
    /// width `w`, and its `k × w` k-major block. The slab holding column
    /// `c` is `c / SPAN`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is not below `cols().div_ceil(SPAN)`.
    #[inline]
    pub fn slab(&self, s: usize) -> (usize, usize, &[f32]) {
        let j0 = s * SPAN;
        assert!(j0 < self.cols, "slab {s} out of range");
        let w = SPAN.min(self.cols - j0);
        (j0, w, &self.buf[j0 * self.depth..(j0 + w) * self.depth])
    }

    /// The slabs in column order, as [`Slabs::slab`] gives them. An
    /// operand with `k = 0` still yields its (empty) slabs, so every
    /// output column is visited.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, &[f32])> + '_ {
        (0..self.cols.div_ceil(SPAN)).map(|s| self.slab(s))
    }
}

/// The `(j0, w)` column spans of the slabs covering `cols` columns.
fn slab_spans(cols: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..cols)
        .step_by(SPAN)
        .map(move |j0| (j0, SPAN.min(cols - j0)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Half;

    #[test]
    fn decode_and_encode_round_trip() {
        let src = vec![Half::from_f32(1.5), Half::NEG_INFINITY, Half::ZERO];
        let mut mid = vec![0.0f32; 3];
        decode_slice(&src, &mut mid);
        assert_eq!(mid, vec![1.5, f32::NEG_INFINITY, 0.0]);
        let mut back = vec![Half::ZERO; 3];
        encode_slice(&mid, &mut back);
        assert_eq!(back, src);
    }

    #[test]
    #[should_panic(expected = "decode length mismatch")]
    fn mismatched_lengths_panic() {
        let mut dst = vec![0.0f32; 2];
        decode_slice(&[Half::ONE], &mut dst);
    }

    #[test]
    fn panel_rows_match_matrix_rows() {
        let m = Matrix::<Half>::random(5, 7, 3);
        let p = Panel::from_matrix(&m);
        for r in 0..5 {
            for c in 0..7 {
                assert_eq!(p.row(r)[c], m.get(r, c).to_f32());
            }
        }
        assert_eq!(p.cols(), 7);
        assert_eq!(p.as_slice().len(), 35);
    }

    #[test]
    fn from_slice_panels_flat_storage() {
        let vals = vec![Half::ONE, Half::ZERO, Half::from_f32(2.0), Half::ONE];
        let p = Panel::from_slice(&vals, 2);
        assert_eq!(p.row(0), &[1.0, 0.0]);
        assert_eq!(p.row(1), &[2.0, 1.0]);
        // cols = 0 is clamped to 1 (a flat value vector).
        let flat = Panel::from_slice(&vals, 1);
        assert_eq!(flat.as_slice(), &[1.0, 0.0, 2.0, 1.0]);
    }

    #[test]
    fn transposed_panel_rows_are_matrix_columns() {
        let m = Matrix::<Half>::random(5, 7, 4);
        let t = Panel::from_matrix_transposed(&m);
        assert_eq!(t.cols(), 5);
        for c in 0..7 {
            for r in 0..5 {
                assert_eq!(t.row(c)[r], m.get(r, c).to_f32());
            }
        }
    }

    /// Slab `s`, row `kk` must equal `B[kk][32s..32s + w]`, ragged last
    /// slab included, whichever constructor built the slabs.
    fn assert_slabs_hold_columns(slabs: &Slabs, b: &Matrix<Half>) {
        assert_eq!(slabs.cols(), b.cols());
        let spans: Vec<(usize, usize)> = slabs.iter().map(|(j0, w, _)| (j0, w)).collect();
        let want: Vec<(usize, usize)> = (0..b.cols().div_ceil(SPAN))
            .map(|s| (s * SPAN, SPAN.min(b.cols() - s * SPAN)))
            .collect();
        assert_eq!(spans, want);
        for (j0, w, slab) in slabs.iter() {
            assert_eq!(slab.len(), b.rows() * w);
            for kk in 0..b.rows() {
                let want: Vec<f32> = b.row(kk)[j0..j0 + w].iter().map(|v| v.to_f32()).collect();
                assert_eq!(
                    &slab[kk * w..(kk + 1) * w],
                    &want[..],
                    "slab at {j0}, row {kk}"
                );
            }
        }
    }

    #[test]
    fn slabs_hold_column_runs_including_the_ragged_last() {
        for (k, n) in [(5, 2 * SPAN + 7), (3, SPAN), (4, SPAN - 1), (0, 40), (6, 0)] {
            let b = Matrix::<Half>::random(k, n, 7);
            assert_slabs_hold_columns(&Slabs::from_matrix(&b), &b);
            let bt = b.transpose();
            assert_slabs_hold_columns(&Slabs::from_matrix_transposed(&bt), &b);
        }
    }

    #[test]
    fn empty_matrix_panels_cleanly() {
        let m = Matrix::<Half>::zeros(0, 4);
        let p = Panel::from_matrix(&m);
        assert!(p.as_slice().is_empty());
    }
}
