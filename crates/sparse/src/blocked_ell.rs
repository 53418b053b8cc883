//! Blocked-ELL — the padded blocked format cuSPARSE exposes for SpMM.
//!
//! Every block row stores the same number of blocks; shorter rows are
//! padded with a sentinel column. The padding is exactly the format's
//! weakness the paper alludes to when discussing cuSPARSE (§6.1): padded
//! blocks cost compute and bandwidth even though they contribute nothing.

use crate::bsr::check_block_aligned;
use crate::{Bsr, SparseError};
use mg_tensor::{Matrix, Scalar};

/// Sentinel block-column index marking a padded slot.
pub const ELL_PAD: usize = usize::MAX;

/// A blocked sparse matrix with a fixed number of block slots per block
/// row, padded with [`ELL_PAD`].
///
/// # Examples
///
/// ```
/// use mg_sparse::{BlockedEll, Bsr};
///
/// let bsr = Bsr::<f32>::from_block_coords(4, 4, 2, &[(0, 0), (0, 1), (1, 1)])?;
/// let ell = BlockedEll::from_bsr(&bsr);
/// assert_eq!(ell.blocks_per_row(), 2);
/// assert_eq!(ell.padded_slots(), 1);
/// # Ok::<(), mg_sparse::SparseError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BlockedEll<T: Scalar> {
    rows: usize,
    cols: usize,
    block_size: usize,
    blocks_per_row: usize,
    /// `block_rows × blocks_per_row` column indices, `ELL_PAD` for padding.
    col_indices: Vec<usize>,
    /// Block storage for every slot including padded ones (zero-filled).
    blocks: Vec<T>,
}

impl<T: Scalar> BlockedEll<T> {
    /// Builds a Blocked-ELL matrix after validation.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError`] on misaligned dimensions, out-of-bounds
    /// columns, or a mis-sized buffer.
    pub fn try_new(
        rows: usize,
        cols: usize,
        block_size: usize,
        blocks_per_row: usize,
        col_indices: Vec<usize>,
        blocks: Vec<T>,
    ) -> Result<BlockedEll<T>, SparseError> {
        check_block_aligned(rows, cols, block_size)?;
        let block_rows = rows / block_size;
        if col_indices.len() != block_rows * blocks_per_row {
            return Err(SparseError::ShapeMismatch {
                detail: format!(
                    "{} column slots for {} block rows x {} slots",
                    col_indices.len(),
                    block_rows,
                    blocks_per_row
                ),
            });
        }
        if blocks.len() != col_indices.len() * block_size * block_size {
            return Err(SparseError::ShapeMismatch {
                detail: format!(
                    "{} block values for {} slots",
                    blocks.len(),
                    col_indices.len()
                ),
            });
        }
        let block_cols = cols / block_size;
        for &bc in &col_indices {
            if bc != ELL_PAD && bc >= block_cols {
                return Err(SparseError::IndexOutOfBounds {
                    index: bc,
                    bound: block_cols,
                });
            }
        }
        Ok(BlockedEll {
            rows,
            cols,
            block_size,
            blocks_per_row,
            col_indices,
            blocks,
        })
    }

    /// Converts from BSR, padding every block row to the maximum row
    /// length.
    pub fn from_bsr(bsr: &Bsr<T>) -> BlockedEll<T> {
        let block_rows = bsr.block_rows();
        let blocks_per_row = (0..block_rows)
            .map(|br| bsr.block_row_nnz(br))
            .max()
            .unwrap_or(0);
        let sq = bsr.block_size() * bsr.block_size();
        let mut col_indices = Vec::with_capacity(block_rows * blocks_per_row);
        let mut blocks = Vec::with_capacity(block_rows * blocks_per_row * sq);
        for br in 0..block_rows {
            let range = bsr.block_row_range(br);
            let filled = range.len();
            for i in range {
                col_indices.push(bsr.block_col_indices()[i]);
                blocks.extend_from_slice(bsr.block(i));
            }
            let pad = blocks_per_row - filled;
            col_indices.extend(std::iter::repeat_n(ELL_PAD, pad));
            blocks.extend(std::iter::repeat_n(T::ZERO, pad * sq));
        }
        BlockedEll {
            rows: bsr.rows(),
            cols: bsr.cols(),
            block_size: bsr.block_size(),
            blocks_per_row,
            col_indices,
            blocks,
        }
    }

    /// Materialises the matrix densely (padding contributes nothing).
    pub fn to_dense(&self) -> Matrix<T> {
        let mut out = Matrix::zeros(self.rows, self.cols);
        let b = self.block_size;
        for br in 0..self.rows / b {
            for slot in 0..self.blocks_per_row {
                let idx = br * self.blocks_per_row + slot;
                let bc = self.col_indices[idx];
                if bc == ELL_PAD {
                    continue;
                }
                let sq = b * b;
                let block = &self.blocks[idx * sq..(idx + 1) * sq];
                for r in 0..b {
                    for c in 0..b {
                        out.set(br * b + r, bc * b + c, block[r * b + c]);
                    }
                }
            }
        }
        out
    }

    /// Number of rows (elements).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (elements).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Edge length of the square blocks.
    #[inline]
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Block slots per block row (including padding).
    #[inline]
    pub fn blocks_per_row(&self) -> usize {
        self.blocks_per_row
    }

    /// The `block_rows × blocks_per_row` slot column indices.
    #[inline]
    pub fn col_indices(&self) -> &[usize] {
        &self.col_indices
    }

    /// Total number of padded (wasted) slots.
    pub fn padded_slots(&self) -> usize {
        self.col_indices.iter().filter(|&&c| c == ELL_PAD).count()
    }

    /// Bytes of value storage including the zero-filled padding — the
    /// format's overhead relative to BSR.
    pub fn value_bytes(&self) -> u64 {
        self.blocks.len() as u64 * T::byte_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bsr_round_trip_through_dense() {
        let bsr = Bsr::<f32>::from_block_coords(8, 8, 2, &[(0, 0), (0, 3), (2, 1)]).expect("valid");
        let ell = BlockedEll::from_bsr(&bsr);
        assert_eq!(ell.to_dense(), bsr.to_dense());
    }

    #[test]
    fn padding_fills_to_longest_row() {
        let bsr = Bsr::<f32>::from_block_coords(8, 8, 2, &[(0, 0), (0, 1), (0, 2), (3, 0)])
            .expect("valid");
        let ell = BlockedEll::from_bsr(&bsr);
        assert_eq!(ell.blocks_per_row(), 3);
        // Rows 1 and 2 fully padded (3 each), row 3 padded twice.
        assert_eq!(ell.padded_slots(), 8);
    }

    #[test]
    fn padded_value_bytes_exceed_bsr() {
        let bsr = Bsr::<f32>::from_block_coords(8, 8, 2, &[(0, 0), (0, 1), (1, 0)]).expect("valid");
        let ell = BlockedEll::from_bsr(&bsr);
        assert!(ell.value_bytes() > bsr.value_bytes());
    }

    #[test]
    fn rejects_out_of_bounds_column() {
        let err = BlockedEll::<f32>::try_new(4, 4, 2, 1, vec![7, 0], vec![0.0; 8]);
        assert!(matches!(err, Err(SparseError::IndexOutOfBounds { .. })));
    }

    #[test]
    fn rejects_wrong_slot_count() {
        // Two block rows of two slots need four column slots, not three.
        let err = BlockedEll::<f32>::try_new(4, 4, 2, 2, vec![0, 1, 0], vec![0.0; 12]);
        assert!(matches!(err, Err(SparseError::ShapeMismatch { .. })));
    }

    #[test]
    fn rejects_wrong_value_length() {
        let err = BlockedEll::<f32>::try_new(4, 4, 2, 1, vec![0, 1], vec![0.0; 7]);
        assert!(matches!(err, Err(SparseError::ShapeMismatch { .. })));
    }

    #[test]
    fn empty_matrix_has_zero_slots() {
        let bsr = Bsr::<f32>::from_block_coords(4, 4, 2, &[]).expect("valid");
        let ell = BlockedEll::from_bsr(&bsr);
        assert_eq!(ell.blocks_per_row(), 0);
        assert_eq!(ell.padded_slots(), 0);
    }
}
