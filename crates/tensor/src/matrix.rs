//! Row-major dense matrices generic over a [`Scalar`] element type.

use crate::{pack, scratch, Half, Scalar};
use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;

/// A dense, row-major matrix.
///
/// `Matrix<Half>` is the operand type of the paper's kernels (queries, keys,
/// values, contexts). `Matrix<f32>` is used for reference computations.
///
/// # Examples
///
/// ```
/// use mg_tensor::{Half, Matrix};
///
/// let mut m = Matrix::<Half>::zeros(2, 3);
/// m.set(1, 2, Half::from_f32(4.0));
/// assert_eq!(m.get(1, 2).to_f32(), 4.0);
/// assert_eq!(m.rows(), 2);
/// assert_eq!(m.cols(), 3);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix<T: Scalar = Half> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> Matrix<T> {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Matrix<T> {
        Matrix {
            rows,
            cols,
            data: vec![T::ZERO; rows * cols],
        }
    }

    /// Creates a matrix from an existing row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Matrix<T> {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Creates a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Matrix<T> {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a matrix with elements drawn uniformly from `[-1, 1)`,
    /// deterministically seeded.
    ///
    /// Draws row-major into an `f32` row and encodes each row once with
    /// [`pack::encode_slice`], which rounds exactly as per-element
    /// `T::from_f32` does.
    pub fn random(rows: usize, cols: usize, seed: u64) -> Matrix<T> {
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = Uniform::new(-1.0f32, 1.0f32);
        let mut out = Matrix::zeros(rows, cols);
        let mut row = scratch::take_zeroed(cols);
        for r in 0..rows {
            for v in row.iter_mut() {
                *v = dist.sample(&mut rng);
            }
            pack::encode_slice(&row, out.row_mut(r));
        }
        out
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> T {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col]
    }

    /// Sets the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: T) {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col] = value;
    }

    /// Returns row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    #[inline]
    pub fn row(&self, r: usize) -> &[T] {
        assert!(r < self.rows, "row out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns row `r` as a mutable slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [T] {
        assert!(r < self.rows, "row out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies columns `lo..lo + width` of every row into a new
    /// `rows × width` matrix, one slice copy per row.
    ///
    /// # Panics
    ///
    /// Panics if the window reaches past the last column.
    pub fn col_window(&self, lo: usize, width: usize) -> Matrix<T> {
        assert!(lo + width <= self.cols, "column window out of bounds");
        let mut out = Matrix::zeros(self.rows, width);
        for r in 0..self.rows {
            out.row_mut(r).copy_from_slice(&self.row(r)[lo..lo + width]);
        }
        out
    }

    /// Writes `src` into columns `lo..lo + src.cols()` of every row: the
    /// inverse of [`Matrix::col_window`].
    ///
    /// # Panics
    ///
    /// Panics if the row counts differ or the window reaches past the
    /// last column.
    pub fn set_col_window(&mut self, lo: usize, src: &Matrix<T>) {
        assert_eq!(self.rows, src.rows, "row mismatch");
        assert!(lo + src.cols <= self.cols, "column window out of bounds");
        for r in 0..self.rows {
            self.row_mut(r)[lo..lo + src.cols].copy_from_slice(src.row(r));
        }
    }

    /// The underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// The underlying row-major buffer, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix<T> {
        Matrix::from_fn(self.cols, self.rows, |r, c| self.get(c, r))
    }

    /// Converts every element to another scalar type.
    pub fn cast<U: Scalar>(&self) -> Matrix<U> {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|v| U::from_f32(v.to_f32())).collect(),
        }
    }

    /// Total bytes occupied by the element buffer (metadata excluded).
    pub fn byte_len(&self) -> u64 {
        self.data.len() as u64 * T::byte_size()
    }

    /// Returns the maximum absolute element-wise difference to `other`,
    /// treating matching infinities as equal.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn max_abs_diff<U: Scalar>(&self, other: &Matrix<U>) -> f32 {
        assert_eq!(self.rows, other.rows, "row mismatch");
        assert_eq!(self.cols, other.cols, "col mismatch");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| {
                let (a, b) = (a.to_f32(), b.to_f32());
                if a == b || (a.is_infinite() && b.is_infinite() && a.signum() == b.signum()) {
                    0.0
                } else {
                    (a - b).abs()
                }
            })
            .fold(0.0f32, f32::max)
    }
}

impl<T: Scalar> fmt::Debug for Matrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        for r in 0..show_rows {
            write!(f, "  [")?;
            let show_cols = self.cols.min(8);
            for c in 0..show_cols {
                write!(f, "{:8.4} ", self.get(r, c).to_f32())?;
            }
            if self.cols > show_cols {
                write!(f, "...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > show_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_right_shape_and_values() {
        let m = Matrix::<f32>::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn get_set_round_trip() {
        let mut m = Matrix::<Half>::zeros(2, 2);
        m.set(0, 1, Half::from_f32(3.0));
        assert_eq!(m.get(0, 1).to_f32(), 3.0);
        assert_eq!(m.get(0, 0).to_f32(), 0.0);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn get_out_of_bounds_panics() {
        let m = Matrix::<f32>::zeros(2, 2);
        m.get(2, 0);
    }

    #[test]
    fn from_vec_validates_length() {
        let m = Matrix::<f32>::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.get(1, 0), 3.0);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_wrong_length_panics() {
        let _ = Matrix::<f32>::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn transpose_is_involution() {
        let m = Matrix::<f32>::random(5, 7, 42);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().get(3, 4), m.get(4, 3));
    }

    #[test]
    fn random_is_deterministic() {
        let a = Matrix::<Half>::random(4, 4, 7);
        let b = Matrix::<Half>::random(4, 4, 7);
        let c = Matrix::<Half>::random(4, 4, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    /// Reference draws: one `T::from_f32` per element, row-major.
    fn random_per_element<T: Scalar>(rows: usize, cols: usize, seed: u64) -> Matrix<T> {
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = Uniform::new(-1.0f32, 1.0f32);
        Matrix::from_fn(rows, cols, |_, _| T::from_f32(dist.sample(&mut rng)))
    }

    #[test]
    fn random_matches_per_element_draws_bitwise() {
        let shapes = [
            (0, 5),
            (5, 0),
            (0, 0),
            (1, 1),
            (3, 7),
            (9, 13),
            (2, 33),
            (768, 3072),
        ];
        for (i, (rows, cols)) in shapes.into_iter().enumerate() {
            let seed = 1000 + i as u64;
            let half = Matrix::<Half>::random(rows, cols, seed);
            let want = random_per_element::<Half>(rows, cols, seed);
            assert_eq!((half.rows(), half.cols()), (rows, cols));
            let bits = |m: &Matrix<Half>| m.as_slice().iter().map(|v| v.to_bits()).collect();
            let (got, want): (Vec<u16>, Vec<u16>) = (bits(&half), bits(&want));
            assert_eq!(got, want, "Half {rows}x{cols}");
            let single = Matrix::<f32>::random(rows, cols, seed);
            let want = random_per_element::<f32>(rows, cols, seed);
            let bits = |m: &Matrix<f32>| m.as_slice().iter().map(|v| v.to_bits()).collect();
            let (got, want): (Vec<u32>, Vec<u32>) = (bits(&single), bits(&want));
            assert_eq!(got, want, "f32 {rows}x{cols}");
        }
    }

    #[test]
    fn col_window_round_trips_through_set_col_window() {
        let m = Matrix::<Half>::random(5, 12, 3);
        let w = m.col_window(4, 3);
        assert_eq!((w.rows(), w.cols()), (5, 3));
        for r in 0..5 {
            for c in 0..3 {
                assert_eq!(w.get(r, c), m.get(r, 4 + c));
            }
        }
        let mut back = Matrix::<Half>::zeros(5, 12);
        for lo in (0..12).step_by(3) {
            back.set_col_window(lo, &m.col_window(lo, 3));
        }
        assert_eq!(back, m);
    }

    #[test]
    #[should_panic(expected = "column window out of bounds")]
    fn col_window_past_the_last_column_panics() {
        let _ = Matrix::<f32>::zeros(2, 4).col_window(3, 2);
    }

    #[test]
    fn cast_preserves_representable_values() {
        let m = Matrix::<Half>::random(3, 3, 1);
        let back: Matrix<Half> = m.cast::<f32>().cast();
        assert_eq!(m, back);
    }

    #[test]
    fn max_abs_diff_detects_difference() {
        let a = Matrix::<f32>::zeros(2, 2);
        let mut b = Matrix::<f32>::zeros(2, 2);
        assert_eq!(a.max_abs_diff(&b), 0.0);
        b.set(1, 1, 0.5);
        assert_eq!(a.max_abs_diff(&b), 0.5);
    }

    #[test]
    fn max_abs_diff_treats_matching_infinities_equal() {
        let mut a = Matrix::<f32>::zeros(1, 2);
        let mut b = Matrix::<f32>::zeros(1, 2);
        a.set(0, 0, f32::NEG_INFINITY);
        b.set(0, 0, f32::NEG_INFINITY);
        assert_eq!(a.max_abs_diff(&b), 0.0);
    }

    #[test]
    fn byte_len_counts_element_bytes() {
        assert_eq!(Matrix::<Half>::zeros(4, 4).byte_len(), 32);
        assert_eq!(Matrix::<f32>::zeros(4, 4).byte_len(), 64);
    }
}
