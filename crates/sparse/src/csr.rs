//! Compressed Sparse Row — the element-wise format used by the
//! fine-grained (Sputnik-style) kernels.

use crate::SparseError;
use mg_tensor::{Matrix, Scalar};

/// A sparse matrix in Compressed Sparse Row format.
///
/// `row_offsets` has `rows + 1` entries; the non-zeros of row `r` live at
/// positions `row_offsets[r]..row_offsets[r+1]` of `col_indices`/`values`,
/// with strictly increasing column indices within each row.
///
/// # Examples
///
/// ```
/// use mg_sparse::Csr;
/// use mg_tensor::Matrix;
///
/// let dense = Matrix::<f32>::from_vec(2, 3, vec![1.0, 0.0, 2.0, 0.0, 3.0, 0.0]);
/// let csr = Csr::from_dense(&dense);
/// assert_eq!(csr.nnz(), 3);
/// assert_eq!(csr.to_dense(), dense);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Csr<T: Scalar> {
    rows: usize,
    cols: usize,
    row_offsets: Vec<usize>,
    col_indices: Vec<usize>,
    values: Vec<T>,
}

impl<T: Scalar> Csr<T> {
    /// Builds a CSR matrix after validating all metadata.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError`] if offsets are malformed, indices are out of
    /// bounds or unsorted, or array lengths disagree.
    pub fn try_new(
        rows: usize,
        cols: usize,
        row_offsets: Vec<usize>,
        col_indices: Vec<usize>,
        values: Vec<T>,
    ) -> Result<Csr<T>, SparseError> {
        if row_offsets.len() != rows + 1 {
            return Err(SparseError::ShapeMismatch {
                detail: format!(
                    "row_offsets has {} entries, expected rows + 1 = {}",
                    row_offsets.len(),
                    rows + 1
                ),
            });
        }
        if row_offsets[0] != 0 {
            return Err(SparseError::InvalidOffsets {
                detail: "first offset must be 0".to_owned(),
            });
        }
        if *row_offsets.last().expect("non-empty") != col_indices.len() {
            return Err(SparseError::InvalidOffsets {
                detail: format!(
                    "last offset {} must equal nnz {}",
                    row_offsets.last().expect("non-empty"),
                    col_indices.len()
                ),
            });
        }
        if col_indices.len() != values.len() {
            return Err(SparseError::ShapeMismatch {
                detail: format!(
                    "{} column indices but {} values",
                    col_indices.len(),
                    values.len()
                ),
            });
        }
        for r in 0..rows {
            if row_offsets[r] > row_offsets[r + 1] {
                return Err(SparseError::InvalidOffsets {
                    detail: format!("offsets decrease at row {r}"),
                });
            }
            if row_offsets[r + 1] > col_indices.len() {
                return Err(SparseError::InvalidOffsets {
                    detail: format!("offset {} at row {r} exceeds nnz", row_offsets[r + 1]),
                });
            }
            let lane = &col_indices[row_offsets[r]..row_offsets[r + 1]];
            for w in lane.windows(2) {
                if w[0] >= w[1] {
                    return Err(SparseError::UnsortedIndices { lane: r });
                }
            }
            if let Some(&last) = lane.last() {
                if last >= cols {
                    return Err(SparseError::IndexOutOfBounds {
                        index: last,
                        bound: cols,
                    });
                }
            }
        }
        Ok(Csr {
            rows,
            cols,
            row_offsets,
            col_indices,
            values,
        })
    }

    /// Builds the CSR structure for the given coordinates with all values
    /// zero. Coordinates must be sorted row-major and unique.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError`] on invalid or duplicate coordinates.
    pub fn from_coords(
        rows: usize,
        cols: usize,
        coords: &[(usize, usize)],
    ) -> Result<Csr<T>, SparseError> {
        let mut row_offsets = vec![0usize; rows + 1];
        let mut col_indices = Vec::with_capacity(coords.len());
        let mut prev: Option<(usize, usize)> = None;
        for &(r, c) in coords {
            if r >= rows {
                return Err(SparseError::IndexOutOfBounds {
                    index: r,
                    bound: rows,
                });
            }
            if c >= cols {
                return Err(SparseError::IndexOutOfBounds {
                    index: c,
                    bound: cols,
                });
            }
            if let Some((pr, pc)) = prev {
                if (r, c) == (pr, pc) {
                    return Err(SparseError::DuplicateEntry { row: r, col: c });
                }
                if (r, c) < (pr, pc) {
                    return Err(SparseError::UnsortedIndices { lane: r });
                }
            }
            prev = Some((r, c));
            row_offsets[r + 1] += 1;
            col_indices.push(c);
        }
        for r in 0..rows {
            row_offsets[r + 1] += row_offsets[r];
        }
        let values = vec![T::ZERO; col_indices.len()];
        Csr::try_new(rows, cols, row_offsets, col_indices, values)
    }

    /// Extracts the non-zero structure and values from a dense matrix.
    pub fn from_dense(dense: &Matrix<T>) -> Csr<T> {
        let mut row_offsets = Vec::with_capacity(dense.rows() + 1);
        let mut col_indices = Vec::new();
        let mut values = Vec::new();
        row_offsets.push(0);
        for r in 0..dense.rows() {
            for (c, &v) in dense.row(r).iter().enumerate() {
                if v.to_f32() != 0.0 {
                    col_indices.push(c);
                    values.push(v);
                }
            }
            row_offsets.push(col_indices.len());
        }
        Csr {
            rows: dense.rows(),
            cols: dense.cols(),
            row_offsets,
            col_indices,
            values,
        }
    }

    /// Materialises the matrix densely (zeros elsewhere).
    pub fn to_dense(&self) -> Matrix<T> {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for (r, c, v) in self.iter() {
            out.set(r, c, v);
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

    /// Number of stored non-zero elements.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.col_indices.len()
    }

    /// The `rows + 1` row-offset array.
    #[inline]
    pub fn row_offsets(&self) -> &[usize] {
        &self.row_offsets
    }

    /// The column index of every stored element, row-major.
    #[inline]
    pub fn col_indices(&self) -> &[usize] {
        &self.col_indices
    }

    /// The stored values, row-major.
    #[inline]
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// The stored values, mutably (structure is immutable).
    #[inline]
    pub fn values_mut(&mut self) -> &mut [T] {
        &mut self.values
    }

    /// The half-open range of storage positions for row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[inline]
    pub fn row_range(&self, r: usize) -> std::ops::Range<usize> {
        assert!(r < self.rows, "row out of bounds");
        self.row_offsets[r]..self.row_offsets[r + 1]
    }

    /// Number of non-zeros stored in row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[inline]
    pub fn row_nnz(&self, r: usize) -> usize {
        self.row_range(r).len()
    }

    /// Iterates over `(row, col, value)` triples in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, T)> + '_ {
        (0..self.rows).flat_map(move |r| {
            self.row_range(r)
                .map(move |i| (r, self.col_indices[i], self.values[i]))
        })
    }

    /// Bytes of metadata a GPU kernel must read (4-byte offsets + indices),
    /// for memory-traffic accounting.
    pub fn metadata_bytes(&self) -> u64 {
        (self.row_offsets.len() as u64 + self.col_indices.len() as u64) * 4
    }

    /// Bytes of stored values.
    pub fn value_bytes(&self) -> u64 {
        self.values.len() as u64 * T::byte_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_tensor::Half;

    fn sample() -> Csr<f32> {
        // [1 0 2]
        // [0 0 0]
        // [0 3 4]
        Csr::try_new(
            3,
            3,
            vec![0, 2, 2, 4],
            vec![0, 2, 1, 2],
            vec![1.0, 2.0, 3.0, 4.0],
        )
        .expect("valid")
    }

    #[test]
    fn round_trip_via_dense() {
        let csr = sample();
        let back = Csr::from_dense(&csr.to_dense());
        assert_eq!(back, csr);
    }

    #[test]
    fn row_ranges_and_nnz() {
        let csr = sample();
        assert_eq!(csr.nnz(), 4);
        assert_eq!(csr.row_range(0), 0..2);
        assert_eq!(csr.row_nnz(1), 0);
        assert_eq!(csr.row_nnz(2), 2);
    }

    #[test]
    fn iter_yields_row_major_triples() {
        let triples: Vec<_> = sample().iter().collect();
        assert_eq!(
            triples,
            vec![(0, 0, 1.0), (0, 2, 2.0), (2, 1, 3.0), (2, 2, 4.0)]
        );
    }

    #[test]
    fn rejects_bad_offsets() {
        let err = Csr::<f32>::try_new(2, 2, vec![1, 1, 1], vec![0], vec![1.0]);
        assert!(matches!(err, Err(SparseError::InvalidOffsets { .. })));
        let err = Csr::<f32>::try_new(2, 2, vec![0, 2, 1], vec![0], vec![1.0]);
        assert!(err.is_err());
    }

    #[test]
    fn rejects_unsorted_columns() {
        let err = Csr::<f32>::try_new(1, 3, vec![0, 2], vec![2, 1], vec![1.0, 2.0]);
        assert_eq!(err, Err(SparseError::UnsortedIndices { lane: 0 }));
    }

    #[test]
    fn rejects_out_of_bounds_column() {
        let err = Csr::<f32>::try_new(1, 2, vec![0, 1], vec![5], vec![1.0]);
        assert!(matches!(
            err,
            Err(SparseError::IndexOutOfBounds { index: 5, bound: 2 })
        ));
    }

    #[test]
    fn from_coords_builds_zero_structure() {
        let csr = Csr::<Half>::from_coords(2, 4, &[(0, 1), (0, 3), (1, 0)]).expect("valid");
        assert_eq!(csr.nnz(), 3);
        assert!(csr.values().iter().all(|v| v.to_f32() == 0.0));
        assert_eq!(csr.row_nnz(0), 2);
    }

    #[test]
    fn from_coords_rejects_duplicates() {
        let err = Csr::<f32>::from_coords(2, 2, &[(0, 1), (0, 1)]);
        assert_eq!(err, Err(SparseError::DuplicateEntry { row: 0, col: 1 }));
    }

    #[test]
    fn metadata_bytes_counts_offsets_and_indices() {
        let csr = sample();
        assert_eq!(csr.metadata_bytes(), (4 + 4) * 4);
        assert_eq!(csr.value_bytes(), 16);
    }

    #[test]
    fn empty_matrix_is_valid() {
        let csr = Csr::<f32>::try_new(0, 0, vec![0], vec![], vec![]).expect("valid");
        assert_eq!(csr.nnz(), 0);
        assert_eq!(csr.iter().count(), 0);
    }
}
