//! Error type shared by every sparse-format constructor.

use std::error::Error;
use std::fmt;

/// Validation failure when constructing a sparse matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparseError {
    /// Metadata array lengths are inconsistent with the declared shape.
    ShapeMismatch {
        /// Description of which lengths disagreed.
        detail: String,
    },
    /// An index refers outside the matrix bounds.
    IndexOutOfBounds {
        /// The offending index.
        index: usize,
        /// The exclusive bound it violated.
        bound: usize,
    },
    /// Offset arrays must start at zero, end at `nnz`, and be non-decreasing.
    InvalidOffsets {
        /// Description of the violated property.
        detail: String,
    },
    /// Column indices within a row (block columns within a block row)
    /// must be strictly increasing.
    UnsortedIndices {
        /// The row or block row whose indices are out of order.
        lane: usize,
    },
    /// A duplicate coordinate was supplied.
    DuplicateEntry {
        /// Row of the duplicate.
        row: usize,
        /// Column of the duplicate.
        col: usize,
    },
    /// The matrix dimensions are not divisible by the block size.
    BlockMisaligned {
        /// The dimension that failed to divide.
        dim: usize,
        /// The block size requested.
        block_size: usize,
    },
}

impl fmt::Display for SparseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseError::ShapeMismatch { detail } => {
                write!(f, "metadata shape mismatch: {detail}")
            }
            SparseError::IndexOutOfBounds { index, bound } => {
                write!(f, "index {index} out of bounds (must be < {bound})")
            }
            SparseError::InvalidOffsets { detail } => {
                write!(f, "invalid offset array: {detail}")
            }
            SparseError::UnsortedIndices { lane } => {
                write!(f, "indices in lane {lane} are not strictly increasing")
            }
            SparseError::DuplicateEntry { row, col } => {
                write!(f, "duplicate entry at ({row}, {col})")
            }
            SparseError::BlockMisaligned { dim, block_size } => {
                write!(
                    f,
                    "dimension {dim} is not divisible by block size {block_size}"
                )
            }
        }
    }
}

impl Error for SparseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let e = SparseError::IndexOutOfBounds { index: 9, bound: 4 };
        let s = e.to_string();
        assert!(s.contains('9') && s.contains('4'));
        assert!(s.chars().next().unwrap().is_lowercase());
    }

    #[test]
    fn error_trait_object_works() {
        let e: Box<dyn Error> = Box::new(SparseError::UnsortedIndices { lane: 3 });
        assert!(e.to_string().contains("lane 3"));
    }
}
