//! Element-wise matrix operations used by attention pipelines.

use crate::{pack, scratch, Matrix, Scalar};

/// Applies `f` to every element of `x`, decoding one row at a time into
/// a scratch buffer and writing each output row in place.
fn map_rows<T: Scalar, O: Scalar>(x: &Matrix<T>, f: impl Fn(f32) -> f32) -> Matrix<O> {
    let mut out = Matrix::<O>::zeros(x.rows(), x.cols());
    let mut row = scratch::take_zeroed(x.cols());
    for r in 0..x.rows() {
        pack::decode_slice(x.row(r), &mut row);
        for (slot, &v) in out.row_mut(r).iter_mut().zip(row.iter()) {
            *slot = O::from_f32(f(v));
        }
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
        let out_row = out.row_mut(r);
        for ((slot, &av), &bv) in out_row.iter_mut().zip(a_row.iter()).zip(b_row.iter()) {
            *slot = O::from_f32(f(av, bv));
        }
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

/// GELU activation (tanh approximation), used by transformer FFN blocks.
pub fn gelu<T: Scalar, O: Scalar>(x: &Matrix<T>) -> Matrix<O> {
    map_rows(x, |v| {
        let inner = 0.797_884_6 * (v + 0.044_715 * v * v * v);
        0.5 * v * (1.0 + inner.tanh())
    })
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
    for r in 0..x.rows() {
        let mut row = scratch::take_zeroed(cols);
        pack::decode_slice(x.row(r), &mut row);
        let mean = row.iter().sum::<f32>() / cols as f32;
        let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / cols as f32;
        let inv_std = 1.0 / (var + 1e-5).sqrt();
        let out_row = out.row_mut(r);
        for c in 0..cols {
            out_row[c] = O::from_f32((row[c] - mean) * inv_std * gamma[c] + beta[c]);
        }
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

    #[test]
    fn row_wise_ops_match_per_element_expressions_bitwise() {
        // Every Half bit pattern once (NaN payloads, ±Inf, subnormals),
        // against a reversed copy: each row-wise op must reproduce its
        // per-element expression bit for bit.
        let x = Matrix::<Half>::from_fn(256, 256, |r, c| Half::from_bits((r * 256 + c) as u16));
        let y = Matrix::<Half>::from_fn(256, 256, |r, c| x.get(255 - r, 255 - c));
        let mask = y.cast::<f32>();
        let reference = |f: &dyn Fn(usize, usize) -> f32| Matrix::<f32>::from_fn(256, 256, f);
        let cases: [(&str, Matrix<f32>, Matrix<f32>); 4] = [
            (
                "add",
                add(&x, &y),
                reference(&|r, c| x.get(r, c).to_f32() + y.get(r, c).to_f32()),
            ),
            (
                "scale",
                scale(&x, 0.37),
                reference(&|r, c| x.get(r, c).to_f32() * 0.37),
            ),
            (
                "apply_mask",
                apply_mask(&x, &mask),
                reference(&|r, c| x.get(r, c).to_f32() + mask.get(r, c)),
            ),
            (
                "gelu",
                gelu(&x),
                reference(&|r, c| {
                    let v = x.get(r, c).to_f32();
                    let inner = 0.797_884_6 * (v + 0.044_715 * v * v * v);
                    0.5 * v * (1.0 + inner.tanh())
                }),
            ),
        ];
        for (name, got, want) in cases {
            for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
                assert_eq!(g.to_bits(), w.to_bits(), "{name}: element {i}");
            }
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
