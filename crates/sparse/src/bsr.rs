//! Block Sparse Row — the blocked format the coarse-grained kernels use.
//!
//! The matrix is tiled into `block_size × block_size` blocks; metadata
//! addresses block rows and block columns, and every stored block is dense.
//! The paper's coarse SDDMM/SpMM and the compound sparse softmax consume
//! this format (§3.2–3.3).

use crate::{Csr, SparseError};
use mg_tensor::{Matrix, Scalar};

/// Checks that `block_size` is non-zero and tiles both dimensions.
pub(crate) fn check_block_aligned(
    rows: usize,
    cols: usize,
    block_size: usize,
) -> Result<(), SparseError> {
    for dim in [rows, cols] {
        if block_size == 0 || !dim.is_multiple_of(block_size) {
            return Err(SparseError::BlockMisaligned { dim, block_size });
        }
    }
    Ok(())
}

/// A sparse matrix in Block Sparse Row format.
///
/// `block_row_offsets` has `rows / block_size + 1` entries; the non-zero
/// blocks of block row `br` live at positions
/// `block_row_offsets[br]..block_row_offsets[br+1]` of `block_col_indices`,
/// with strictly increasing block-column indices. `blocks` stores each
/// block's `block_size²` elements row-major, blocks concatenated in
/// metadata order.
///
/// # Examples
///
/// ```
/// use mg_sparse::Bsr;
/// use mg_tensor::Matrix;
///
/// let dense = Matrix::<f32>::from_fn(4, 4, |r, c| if r < 2 && c < 2 { 1.0 } else { 0.0 });
/// let bsr = Bsr::from_dense(&dense, 2);
/// assert_eq!(bsr.nnz_blocks(), 1);
/// assert_eq!(bsr.to_dense(), dense);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Bsr<T: Scalar> {
    rows: usize,
    cols: usize,
    block_size: usize,
    block_row_offsets: Vec<usize>,
    block_col_indices: Vec<usize>,
    blocks: Vec<T>,
}

impl<T: Scalar> Bsr<T> {
    /// Builds a BSR matrix after validating all metadata.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError`] if the dimensions are not divisible by
    /// `block_size`, offsets are malformed, block columns are out of bounds
    /// or unsorted, or the value buffer has the wrong length.
    pub fn try_new(
        rows: usize,
        cols: usize,
        block_size: usize,
        block_row_offsets: Vec<usize>,
        block_col_indices: Vec<usize>,
        blocks: Vec<T>,
    ) -> Result<Bsr<T>, SparseError> {
        check_block_aligned(rows, cols, block_size)?;
        if blocks.len() != block_col_indices.len() * block_size * block_size {
            return Err(SparseError::ShapeMismatch {
                detail: format!(
                    "{} block values for {} blocks of {}x{}",
                    blocks.len(),
                    block_col_indices.len(),
                    block_size,
                    block_size
                ),
            });
        }
        // The block structure is a CSR over block coordinates; reuse its
        // validation with dummy values.
        let block_rows = rows / block_size;
        let block_cols = cols / block_size;
        Csr::try_new(
            block_rows,
            block_cols,
            block_row_offsets.clone(),
            block_col_indices.clone(),
            vec![0.0f32; block_col_indices.len()],
        )?;
        Ok(Bsr {
            rows,
            cols,
            block_size,
            block_row_offsets,
            block_col_indices,
            blocks,
        })
    }

    /// Builds the BSR structure for the given block coordinates with all
    /// values zero. Coordinates are `(block_row, block_col)`, sorted
    /// row-major and unique.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError`] on misaligned dimensions or invalid
    /// coordinates.
    pub fn from_block_coords(
        rows: usize,
        cols: usize,
        block_size: usize,
        coords: &[(usize, usize)],
    ) -> Result<Bsr<T>, SparseError> {
        check_block_aligned(rows, cols, block_size)?;
        let structure = Csr::<f32>::from_coords(rows / block_size, cols / block_size, coords)?;
        Ok(Bsr {
            rows,
            cols,
            block_size,
            block_row_offsets: structure.row_offsets().to_vec(),
            block_col_indices: structure.col_indices().to_vec(),
            blocks: vec![T::ZERO; structure.nnz() * block_size * block_size],
        })
    }

    /// Extracts blocks containing at least one non-zero from a dense
    /// matrix. Partially-filled blocks are stored densely (with their
    /// zeros), exactly as the coarse-grained method does.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions are not divisible by `block_size`.
    pub fn from_dense(dense: &Matrix<T>, block_size: usize) -> Bsr<T> {
        assert!(
            block_size > 0
                && dense.rows().is_multiple_of(block_size)
                && dense.cols().is_multiple_of(block_size),
            "dimensions must be divisible by the block size"
        );
        let block_rows = dense.rows() / block_size;
        let block_cols = dense.cols() / block_size;
        let mut block_row_offsets = vec![0usize];
        let mut block_col_indices = Vec::new();
        let mut blocks = Vec::new();
        for br in 0..block_rows {
            for bc in 0..block_cols {
                let mut any = false;
                'scan: for r in 0..block_size {
                    for c in 0..block_size {
                        if dense.get(br * block_size + r, bc * block_size + c).to_f32() != 0.0 {
                            any = true;
                            break 'scan;
                        }
                    }
                }
                if any {
                    block_col_indices.push(bc);
                    for r in 0..block_size {
                        for c in 0..block_size {
                            blocks.push(dense.get(br * block_size + r, bc * block_size + c));
                        }
                    }
                }
            }
            block_row_offsets.push(block_col_indices.len());
        }
        Bsr {
            rows: dense.rows(),
            cols: dense.cols(),
            block_size,
            block_row_offsets,
            block_col_indices,
            blocks,
        }
    }

    /// Materialises the matrix densely.
    pub fn to_dense(&self) -> Matrix<T> {
        let mut out = Matrix::zeros(self.rows, self.cols);
        let b = self.block_size;
        for br in 0..self.block_rows() {
            for i in self.block_row_range(br) {
                let bc = self.block_col_indices[i];
                let block = self.block(i);
                for r in 0..b {
                    for c in 0..b {
                        out.set(br * b + r, bc * b + c, block[r * b + c]);
                    }
                }
            }
        }
        out
    }

    /// Number of rows (elements, not blocks).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (elements, not blocks).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Edge length of the square blocks.
    #[inline]
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Number of block rows.
    #[inline]
    pub fn block_rows(&self) -> usize {
        self.rows / self.block_size
    }

    /// Number of block columns.
    #[inline]
    pub fn block_cols(&self) -> usize {
        self.cols / self.block_size
    }

    /// Number of stored non-zero blocks.
    #[inline]
    pub fn nnz_blocks(&self) -> usize {
        self.block_col_indices.len()
    }

    /// Number of stored elements (`nnz_blocks × block_size²`), including
    /// the explicit zeros inside partially-filled blocks.
    #[inline]
    pub fn stored_elements(&self) -> usize {
        self.blocks.len()
    }

    /// The `block_rows + 1` block-row-offset array.
    #[inline]
    pub fn block_row_offsets(&self) -> &[usize] {
        &self.block_row_offsets
    }

    /// The block-column index of every stored block.
    #[inline]
    pub fn block_col_indices(&self) -> &[usize] {
        &self.block_col_indices
    }

    /// The storage range of block rows `br`.
    ///
    /// # Panics
    ///
    /// Panics if `br >= self.block_rows()`.
    #[inline]
    pub fn block_row_range(&self, br: usize) -> std::ops::Range<usize> {
        assert!(br < self.block_rows(), "block row out of bounds");
        self.block_row_offsets[br]..self.block_row_offsets[br + 1]
    }

    /// Number of non-zero blocks in block row `br`.
    ///
    /// # Panics
    ///
    /// Panics if `br >= self.block_rows()`.
    #[inline]
    pub fn block_row_nnz(&self, br: usize) -> usize {
        self.block_row_range(br).len()
    }

    /// The elements of the `i`-th stored block, row-major.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.nnz_blocks()`.
    #[inline]
    pub fn block(&self, i: usize) -> &[T] {
        assert!(i < self.nnz_blocks(), "block index out of bounds");
        let sq = self.block_size * self.block_size;
        &self.blocks[i * sq..(i + 1) * sq]
    }

    /// The elements of the `i`-th stored block, mutably.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.nnz_blocks()`.
    #[inline]
    pub fn block_mut(&mut self, i: usize) -> &mut [T] {
        assert!(i < self.nnz_blocks(), "block index out of bounds");
        let sq = self.block_size * self.block_size;
        &mut self.blocks[i * sq..(i + 1) * sq]
    }

    /// All stored block values, blocks in storage order (block `i`
    /// occupies `values[i*b*b..(i+1)*b*b]`, row-major within the block).
    #[inline]
    pub fn values(&self) -> &[T] {
        &self.blocks
    }

    /// All stored block values, mutably. Same layout as [`Bsr::values`];
    /// lets callers partition the storage into disjoint block ranges
    /// (e.g. one block row each) for parallel updates.
    #[inline]
    pub fn values_mut(&mut self) -> &mut [T] {
        &mut self.blocks
    }

    /// Iterates over `(block_row, block_col, block_elements)`.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (usize, usize, &[T])> + '_ {
        (0..self.block_rows()).flat_map(move |br| {
            self.block_row_range(br)
                .map(move |i| (br, self.block_col_indices[i], self.block(i)))
        })
    }

    /// Bytes of metadata a GPU kernel must read (4-byte offsets + block
    /// column indices). Note how much smaller this is than CSR metadata for
    /// the same elements — the paper's §5.2.2 memory-request argument.
    pub fn metadata_bytes(&self) -> u64 {
        (self.block_row_offsets.len() as u64 + self.block_col_indices.len() as u64) * 4
    }

    /// Bytes of stored block values (including explicit zeros).
    pub fn value_bytes(&self) -> u64 {
        self.blocks.len() as u64 * T::byte_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_tensor::Half;

    fn banded(n: usize, band: usize) -> Matrix<f32> {
        Matrix::from_fn(n, n, |r, c| {
            if (r as isize - c as isize).unsigned_abs() <= band {
                (r * n + c + 1) as f32
            } else {
                0.0
            }
        })
    }

    #[test]
    fn dense_round_trip_preserves_all_elements() {
        let dense = banded(8, 1);
        let bsr = Bsr::from_dense(&dense, 2);
        assert_eq!(bsr.to_dense(), dense);
    }

    #[test]
    fn partially_filled_blocks_store_zeros() {
        let mut dense = Matrix::<f32>::zeros(4, 4);
        dense.set(0, 0, 5.0);
        let bsr = Bsr::from_dense(&dense, 2);
        assert_eq!(bsr.nnz_blocks(), 1);
        assert_eq!(bsr.stored_elements(), 4); // one 2x2 block incl. 3 zeros
    }

    #[test]
    fn block_row_accessors() {
        let dense = banded(8, 2);
        let bsr = Bsr::from_dense(&dense, 4);
        assert_eq!(bsr.block_rows(), 2);
        let total: usize = (0..bsr.block_rows()).map(|br| bsr.block_row_nnz(br)).sum();
        assert_eq!(total, bsr.nnz_blocks());
    }

    #[test]
    fn from_block_coords_builds_zero_blocks() {
        let bsr = Bsr::<Half>::from_block_coords(4, 4, 2, &[(0, 0), (1, 1)]).expect("valid");
        assert_eq!(bsr.nnz_blocks(), 2);
        assert!(bsr.block(0).iter().all(|v| v.to_f32() == 0.0));
    }

    #[test]
    fn rejects_misaligned_dimensions() {
        let err = Bsr::<f32>::from_block_coords(5, 4, 2, &[]);
        assert!(matches!(
            err,
            Err(SparseError::BlockMisaligned { dim: 5, .. })
        ));
    }

    #[test]
    fn rejects_wrong_value_length() {
        let err = Bsr::<f32>::try_new(4, 4, 2, vec![0, 1, 1], vec![0], vec![1.0]);
        assert!(matches!(err, Err(SparseError::ShapeMismatch { .. })));
    }

    #[test]
    fn rejects_bad_block_offsets() {
        let err = Bsr::<f32>::try_new(4, 4, 2, vec![1, 1, 1], vec![0], vec![0.0; 4]);
        assert!(matches!(err, Err(SparseError::InvalidOffsets { .. })));
    }

    #[test]
    fn rejects_unsorted_block_columns() {
        let err = Bsr::<f32>::try_new(4, 4, 2, vec![0, 2, 2], vec![1, 0], vec![0.0; 8]);
        assert_eq!(err, Err(SparseError::UnsortedIndices { lane: 0 }));
    }

    #[test]
    fn rejects_out_of_range_block_column() {
        let err = Bsr::<f32>::try_new(4, 4, 2, vec![0, 1, 1], vec![2], vec![0.0; 4]);
        assert_eq!(
            err,
            Err(SparseError::IndexOutOfBounds { index: 2, bound: 2 })
        );
    }

    #[test]
    fn iter_blocks_visits_in_row_major_order() {
        let bsr = Bsr::<f32>::from_block_coords(4, 4, 2, &[(0, 0), (0, 1), (1, 0)]).expect("valid");
        let coords: Vec<_> = bsr.iter_blocks().map(|(br, bc, _)| (br, bc)).collect();
        assert_eq!(coords, vec![(0, 0), (0, 1), (1, 0)]);
    }

    #[test]
    fn metadata_is_per_block_not_per_element() {
        let dense = banded(64, 8);
        let bsr = Bsr::from_dense(&dense, 16);
        let csr = Csr::from_dense(&dense);
        assert!(bsr.metadata_bytes() < csr.metadata_bytes() / 10);
    }

    #[test]
    fn block_mut_updates_values() {
        let mut bsr = Bsr::<f32>::from_block_coords(2, 2, 2, &[(0, 0)]).expect("valid");
        bsr.block_mut(0)[3] = 9.0;
        assert_eq!(bsr.to_dense().get(1, 1), 9.0);
    }
}
