//! Element-wise matrix operations used by attention pipelines.
//!
//! Every operation decodes a row into an `f32` scratch row, computes it
//! there and writes it back with one [`pack::encode_slice`]. The encode
//! rounds exactly as per-element `from_f32` does, so batching it changes
//! no output bit. [`gelu`] on FP16 input and output goes further: its
//! output is a function of 16 input bits, so it reads a table.

use crate::{pack, scratch, Half, Matrix, Scalar};
use std::sync::OnceLock;

/// Applies `f` to every element of `x`, one decoded row at a time.
fn map_rows<T: Scalar, O: Scalar>(x: &Matrix<T>, f: impl Fn(f32) -> f32) -> Matrix<O> {
    let mut out = Matrix::<O>::zeros(x.rows(), x.cols());
    let mut row = scratch::take_zeroed(x.cols());
    for r in 0..x.rows() {
        pack::decode_slice(x.row(r), &mut row);
        for v in row.iter_mut() {
            *v = f(*v);
        }
        pack::encode_slice(&row, out.row_mut(r));
    }
    out
}

/// Applies `f` to every pair of same-position elements of `a` and `b`,
/// row by row like [`map_rows`].
///
/// # Panics
///
/// Panics if the shapes differ.
fn zip_rows<A: Scalar, B: Scalar, O: Scalar>(
    a: &Matrix<A>,
    b: &Matrix<B>,
    f: impl Fn(f32, f32) -> f32,
) -> Matrix<O> {
    assert_eq!(a.rows(), b.rows(), "row mismatch");
    assert_eq!(a.cols(), b.cols(), "col mismatch");
    let mut out = Matrix::<O>::zeros(a.rows(), a.cols());
    let mut a_row = scratch::take_zeroed(a.cols());
    let mut b_row = scratch::take_zeroed(b.cols());
    for r in 0..a.rows() {
        pack::decode_slice(a.row(r), &mut a_row);
        pack::decode_slice(b.row(r), &mut b_row);
        for (av, &bv) in a_row.iter_mut().zip(b_row.iter()) {
            *av = f(*av, bv);
        }
        pack::encode_slice(&a_row, out.row_mut(r));
    }
    out
}

/// Returns `a + b` element-wise, accumulating in `f32`.
///
/// Used to merge the partial contexts produced by the coarse-grained and
/// fine-grained SpMM kernels.
///
/// # Panics
///
/// Panics if the shapes differ.
pub fn add<A: Scalar, B: Scalar, O: Scalar>(a: &Matrix<A>, b: &Matrix<B>) -> Matrix<O> {
    zip_rows(a, b, |av, bv| av + bv)
}

/// Returns `scale * x` element-wise.
pub fn scale<T: Scalar, O: Scalar>(x: &Matrix<T>, scale: f32) -> Matrix<O> {
    map_rows(x, |v| v * scale)
}

/// Returns `x + mask` element-wise; `-inf` mask entries invalidate elements.
///
/// # Panics
///
/// Panics if the shapes differ.
pub fn apply_mask<T: Scalar, O: Scalar>(x: &Matrix<T>, mask: &Matrix<f32>) -> Matrix<O> {
    zip_rows(x, mask, |v, m| v + m)
}

/// GELU (tanh approximation) of one value: the one definition both the
/// per-element path and the FP16 table evaluate. Kept out of line so
/// both run the same machine code, which makes them agree bit for bit,
/// NaN payloads included, in every build.
#[inline(never)]
fn gelu_scalar(v: f32) -> f32 {
    let inner = 0.797_884_6 * (v + 0.044_715 * v * v * v);
    0.5 * v * (1.0 + inner.tanh())
}

/// [`gelu_scalar`] of every FP16 bit pattern, rounded back to FP16 and
/// indexed by the input's bits: 65,536 entries (128 KiB), built once on
/// first use.
fn gelu_half_table() -> &'static [Half; 1 << 16] {
    static TABLE: OnceLock<Box<[Half; 1 << 16]>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = Box::new([Half::ZERO; 1 << 16]);
        for (bits, slot) in (0..=u16::MAX).zip(table.iter_mut()) {
            *slot = Half::from_f32(gelu_scalar(Half::from_bits(bits).to_f32()));
        }
        table
    })
}

/// GELU activation (tanh approximation), used by transformer FFN blocks.
///
/// With FP16 input and output the result is a table lookup per element;
/// the table holds exactly what the per-element expression rounds to.
pub fn gelu<T: Scalar, O: Scalar>(x: &Matrix<T>) -> Matrix<O> {
    if let Some(src) = T::as_halves(x.as_slice()) {
        let mut out = Matrix::<O>::zeros(x.rows(), x.cols());
        if let Some(dst) = O::as_halves_mut(out.as_mut_slice()) {
            let table = gelu_half_table();
            for (d, s) in dst.iter_mut().zip(src) {
                *d = table[usize::from(s.to_bits())];
            }
            return out;
        }
    }
    map_rows(x, gelu_scalar)
}

/// Row-wise layer normalization with learned `gamma` and `beta`.
///
/// # Panics
///
/// Panics if `gamma` or `beta` length differs from `x.cols()`.
pub fn layer_norm<T: Scalar, O: Scalar>(x: &Matrix<T>, gamma: &[f32], beta: &[f32]) -> Matrix<O> {
    assert_eq!(gamma.len(), x.cols(), "gamma length mismatch");
    assert_eq!(beta.len(), x.cols(), "beta length mismatch");
    let cols = x.cols();
    let mut out = Matrix::<O>::zeros(x.rows(), cols);
    let mut row = scratch::take_zeroed(cols);
    for r in 0..x.rows() {
        pack::decode_slice(x.row(r), &mut row);
        let mean = row.iter().sum::<f32>() / cols as f32;
        let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / cols as f32;
        let inv_std = 1.0 / (var + 1e-5).sqrt();
        for ((v, &g), &b) in row.iter_mut().zip(gamma).zip(beta) {
            *v = (*v - mean) * inv_std * g + b;
        }
        pack::encode_slice(&row, out.row_mut(r));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Half;

    #[test]
    fn add_is_elementwise() {
        let a = Matrix::<f32>::from_vec(1, 2, vec![1.0, 2.0]);
        let b = Matrix::<f32>::from_vec(1, 2, vec![10.0, 20.0]);
        let c: Matrix<f32> = add(&a, &b);
        assert_eq!(c.as_slice(), &[11.0, 22.0]);
    }

    #[test]
    fn scale_multiplies() {
        let a = Matrix::<f32>::from_vec(1, 2, vec![2.0, -4.0]);
        let c: Matrix<f32> = scale(&a, 0.5);
        assert_eq!(c.as_slice(), &[1.0, -2.0]);
    }

    #[test]
    fn mask_invalidates_with_neg_infinity() {
        let a = Matrix::<f32>::from_vec(1, 2, vec![2.0, 3.0]);
        let mut m = Matrix::<f32>::zeros(1, 2);
        m.set(0, 1, f32::NEG_INFINITY);
        let c: Matrix<f32> = apply_mask(&a, &m);
        assert_eq!(c.get(0, 0), 2.0);
        assert_eq!(c.get(0, 1), f32::NEG_INFINITY);
    }

    #[test]
    fn gelu_fixed_points() {
        let x = Matrix::<f32>::from_vec(1, 3, vec![0.0, 100.0, -100.0]);
        let y: Matrix<f32> = gelu(&x);
        assert_eq!(y.get(0, 0), 0.0);
        assert!((y.get(0, 1) - 100.0).abs() < 1e-3);
        assert!(y.get(0, 2).abs() < 1e-3);
    }

    /// Every `Half` bit pattern once (NaN payloads, ±Inf, subnormals),
    /// as a 256×256 matrix.
    fn every_half() -> Matrix<Half> {
        Matrix::<Half>::from_fn(256, 256, |r, c| Half::from_bits((r * 256 + c) as u16))
    }

    /// Asserts `got` holds, bit for bit, `O::from_f32` of the `f32`
    /// reference at every position.
    fn assert_bitwise<O: Scalar>(name: &str, got: &Matrix<O>, want: &Matrix<f32>) {
        assert_eq!(
            (got.rows(), got.cols()),
            (want.rows(), want.cols()),
            "{name}"
        );
        for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            let (g, w) = (g.to_f32().to_bits(), O::from_f32(*w).to_f32().to_bits());
            assert_eq!(g, w, "{name}: element {i}");
        }
    }

    /// Layer norm written per element: the same sums in the same order.
    fn layer_norm_reference<T: Scalar>(x: &Matrix<T>, gamma: &[f32], beta: &[f32]) -> Matrix<f32> {
        let n = x.cols() as f32;
        let mut out = Matrix::<f32>::zeros(x.rows(), x.cols());
        for r in 0..x.rows() {
            let row: Vec<f32> = x.row(r).iter().map(|v| v.to_f32()).collect();
            let mean = row.iter().sum::<f32>() / n;
            let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
            let inv_std = 1.0 / (var + 1e-5).sqrt();
            for c in 0..x.cols() {
                out.set(r, c, (row[c] - mean) * inv_std * gamma[c] + beta[c]);
            }
        }
        out
    }

    #[test]
    fn row_wise_ops_match_per_element_expressions_bitwise() {
        // Every Half bit pattern against a reversed copy: each row-wise
        // op must reproduce its per-element expression bit for bit, with
        // `f32` output and with FP16 output (rounded by one encode per
        // row). The FP16 `gelu` table has its own exhaustive test below.
        let x = every_half();
        let y = Matrix::<Half>::from_fn(256, 256, |r, c| x.get(255 - r, 255 - c));
        let mask = y.cast::<f32>();
        let reference = |f: &dyn Fn(usize, usize) -> f32| Matrix::<f32>::from_fn(256, 256, f);
        let sum = reference(&|r, c| x.get(r, c).to_f32() + y.get(r, c).to_f32());
        let scaled = reference(&|r, c| x.get(r, c).to_f32() * 0.37);
        let masked = reference(&|r, c| x.get(r, c).to_f32() + mask.get(r, c));
        let activated = reference(&|r, c| {
            let v = x.get(r, c).to_f32();
            let inner = 0.797_884_6 * (v + 0.044_715 * v * v * v);
            0.5 * v * (1.0 + inner.tanh())
        });
        assert_bitwise::<f32>("add", &add(&x, &y), &sum);
        assert_bitwise::<Half>("add", &add(&x, &y), &sum);
        assert_bitwise::<f32>("scale", &scale(&x, 0.37), &scaled);
        assert_bitwise::<Half>("scale", &scale(&x, 0.37), &scaled);
        assert_bitwise::<f32>("apply_mask", &apply_mask(&x, &mask), &masked);
        assert_bitwise::<Half>("apply_mask", &apply_mask(&x, &mask), &masked);
        assert_bitwise::<f32>("gelu", &gelu(&x), &activated);

        // Layer norm over the bit-space rows (mostly NaN or infinite
        // statistics) and over finite rows whose width is not a multiple
        // of the vector width, with non-trivial gamma and beta.
        for m in [x, Matrix::<Half>::random(37, 203, 11)] {
            let gamma: Vec<f32> = (0..m.cols()).map(|c| 0.5 + c as f32 / 97.0).collect();
            let beta: Vec<f32> = (0..m.cols()).map(|c| c as f32 / 61.0 - 1.0).collect();
            let want = layer_norm_reference(&m, &gamma, &beta);
            assert_bitwise::<f32>("layer_norm", &layer_norm(&m, &gamma, &beta), &want);
            assert_bitwise::<Half>("layer_norm", &layer_norm(&m, &gamma, &beta), &want);
        }
    }

    #[test]
    fn gelu_half_table_matches_per_element_expression_on_every_input() {
        // The FP16 → FP16 table against the per-element expression over
        // all 65,536 inputs, NaNs included, and against the `f32`-output
        // path rounded afterwards.
        let x = every_half();
        let table: Matrix<Half> = gelu(&x);
        let via_f32: Matrix<f32> = gelu(&x);
        for bits in 0..=u16::MAX {
            let (r, c) = (usize::from(bits) / 256, usize::from(bits) % 256);
            let v = Half::from_bits(bits).to_f32();
            let inner = 0.797_884_6 * (v + 0.044_715 * v * v * v);
            let want = Half::from_f32(0.5 * v * (1.0 + inner.tanh()));
            let got = table.get(r, c);
            assert_eq!(got.to_bits(), want.to_bits(), "input {bits:#06x}");
            let rounded = Half::from_f32(via_f32.get(r, c));
            assert_eq!(got.to_bits(), rounded.to_bits(), "input {bits:#06x}");
        }
    }

    #[test]
    fn layer_norm_normalizes_rows() {
        let x = Matrix::<f32>::random(3, 16, 9);
        let gamma = vec![1.0; 16];
        let beta = vec![0.0; 16];
        let y: Matrix<f32> = layer_norm(&x, &gamma, &beta);
        for r in 0..3 {
            let mean: f32 = y.row(r).iter().sum::<f32>() / 16.0;
            let var: f32 = y
                .row(r)
                .iter()
                .map(|v| (v - mean) * (v - mean))
                .sum::<f32>()
                / 16.0;
            assert!(mean.abs() < 1e-5);
            assert!((var - 1.0).abs() < 1e-2);
        }
    }
}
