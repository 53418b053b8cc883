//! Compound sparse patterns: unions of atomic patterns with padding
//! support, plus conversions to the sparse formats the kernels consume.

use crate::slicing::walk_block_rows;
use crate::{AtomicPattern, Grain};
use mg_sparse::{Bsr, Csr, SparseError};
use mg_tensor::{Half, Matrix, Scalar};

/// A compound sparse pattern: the union of several [`AtomicPattern`]s over
/// a fixed (padded) sequence length, with an optional shorter valid length.
///
/// Rows and columns at positions `>= valid_len` correspond to zero padding
/// and are invalid everywhere (paper §2.2's masking of padded tokens).
///
/// # Examples
///
/// ```
/// use mg_patterns::{AtomicPattern, CompoundPattern};
///
/// let pattern = CompoundPattern::new(64)
///     .with(AtomicPattern::Local { window: 8 })
///     .with(AtomicPattern::Selected { tokens: vec![0, 1] });
/// assert!(pattern.row_columns(10).contains(&0)); // selected column
/// assert!(pattern.row_columns(10).contains(&10)); // local diagonal
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CompoundPattern {
    seq_len: usize,
    valid_len: usize,
    parts: Vec<AtomicPattern>,
}

/// A blocked (BSR) rendering of a pattern: the structure plus a per-stored-
/// element validity mask (`0.0` valid, `-inf` invalid), aligned with the
/// BSR block storage order.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockedPattern {
    /// Zero-valued BSR structure covering every touched block.
    pub structure: Bsr<Half>,
    /// One mask value per stored element: `0.0` where the compound pattern
    /// is valid, `-inf` where the block slot is padding.
    pub mask: Vec<f32>,
}

impl BlockedPattern {
    /// Number of stored elements that are actually valid.
    pub fn valid_elements(&self) -> usize {
        self.mask.iter().filter(|&&m| m == 0.0).count()
    }

    /// Fraction of stored elements that are valid (the block fill ratio).
    pub fn fill_ratio(&self) -> f64 {
        if self.mask.is_empty() {
            1.0
        } else {
            self.valid_elements() as f64 / self.mask.len() as f64
        }
    }
}

/// Merges two sorted, deduplicated column lists into one, dropping
/// duplicates across the pair. Linear two-pointer walk. Shared with the
/// decode-time incremental extension so both produce bit-identical rows.
pub(crate) fn merge_sorted_dedup(a: &[usize], b: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

impl CompoundPattern {
    /// Creates an empty compound pattern over `seq_len` tokens with no
    /// padding (`valid_len == seq_len`).
    pub fn new(seq_len: usize) -> CompoundPattern {
        CompoundPattern {
            seq_len,
            valid_len: seq_len,
            parts: Vec::new(),
        }
    }

    /// Adds an atomic pattern (builder style).
    #[must_use]
    pub fn with(mut self, part: AtomicPattern) -> CompoundPattern {
        self.parts.push(part);
        self
    }

    /// Declares that only the first `valid_len` tokens are real; the rest
    /// is zero padding and masked out everywhere.
    ///
    /// # Panics
    ///
    /// Panics if `valid_len > seq_len`.
    #[must_use]
    pub fn with_valid_len(mut self, valid_len: usize) -> CompoundPattern {
        assert!(valid_len <= self.seq_len, "valid_len exceeds seq_len");
        self.valid_len = valid_len;
        self
    }

    /// Appends one real token row for autoregressive decode
    /// (`valid_len += 1`); the [`crate::DecodePatternState`] extension
    /// path. Callers must check capacity first.
    pub(crate) fn grow_valid_len(&mut self) {
        assert!(
            self.valid_len < self.seq_len,
            "cannot grow valid_len past seq_len"
        );
        self.valid_len += 1;
    }

    /// The padded sequence length.
    #[inline]
    pub fn seq_len(&self) -> usize {
        self.seq_len
    }

    /// The number of non-padding tokens.
    #[inline]
    pub fn valid_len(&self) -> usize {
        self.valid_len
    }

    /// The atomic parts, in insertion order.
    #[inline]
    pub fn parts(&self) -> &[AtomicPattern] {
        &self.parts
    }

    /// Compound display name like `"L+S+G"`.
    pub fn name(&self) -> String {
        if self.parts.is_empty() {
            return "∅".to_owned();
        }
        self.parts
            .iter()
            .map(AtomicPattern::short_name)
            .collect::<Vec<_>>()
            .join("+")
    }

    /// The sorted, deduplicated valid key columns attended by `row`,
    /// empty for padded rows.
    ///
    /// # Panics
    ///
    /// Panics if `row >= seq_len`.
    pub fn row_columns(&self, row: usize) -> Vec<usize> {
        assert!(row < self.seq_len, "row out of bounds");
        if row >= self.valid_len {
            return Vec::new();
        }
        // Every atomic pattern emits its row columns sorted and
        // deduplicated, so the union is a linear k-way merge — the
        // concatenate-sort-dedup this replaces dominated the per-row cost
        // of the compute kernels.
        let mut merged: Vec<usize> = Vec::new();
        for part in &self.parts {
            let mut cols = part.row_columns(self.seq_len, row);
            debug_assert!(cols.is_sorted(), "atomic row columns must be sorted");
            // Sorted, so clipping to the valid region is a truncation.
            cols.truncate(cols.partition_point(|&c| c < self.valid_len));
            if merged.is_empty() {
                merged = cols;
            } else if !cols.is_empty() {
                merged = merge_sorted_dedup(&merged, &cols);
            }
        }
        merged
    }

    /// All valid `(row, col)` coordinates, row-major sorted.
    pub fn coords(&self) -> Vec<(usize, usize)> {
        (0..self.seq_len)
            .flat_map(|r| self.row_columns(r).into_iter().map(move |c| (r, c)))
            .collect()
    }

    /// Total number of valid elements.
    pub fn nnz(&self) -> usize {
        (0..self.seq_len).map(|r| self.row_columns(r).len()).sum()
    }

    /// Valid elements as a fraction of the full `seq_len²` map.
    pub fn density(&self) -> f64 {
        if self.seq_len == 0 {
            return 0.0;
        }
        self.nnz() as f64 / (self.seq_len * self.seq_len) as f64
    }

    /// Rows made fully dense by `Global` (or `Dense`) parts, sorted. These
    /// are the rows Multigrain routes to dense kernels (paper §3.1).
    pub fn global_rows(&self) -> Vec<usize> {
        let mut rows: Vec<usize> = Vec::new();
        for p in &self.parts {
            match p {
                AtomicPattern::Global { tokens } => {
                    rows.extend(tokens.iter().copied().filter(|&t| t < self.valid_len));
                }
                AtomicPattern::Dense => rows.extend(0..self.valid_len),
                _ => {}
            }
        }
        rows.sort_unstable();
        rows.dedup();
        rows
    }

    /// The atomic parts of a given grain class.
    pub fn parts_of_grain(&self, grain: Grain) -> Vec<&AtomicPattern> {
        self.parts.iter().filter(|p| p.grain() == grain).collect()
    }

    /// Renders the whole pattern as an element-wise CSR structure (zero
    /// values) — what the fine-grained-only (Sputnik-style) baseline uses.
    /// Offsets and columns are filled row by row.
    pub fn to_csr<T: Scalar>(&self) -> Csr<T> {
        let mut row_offsets = Vec::with_capacity(self.seq_len + 1);
        row_offsets.push(0);
        let mut col_indices = Vec::new();
        for r in 0..self.seq_len {
            col_indices.extend(self.row_columns(r));
            row_offsets.push(col_indices.len());
        }
        let col_indices = col_indices.to_vec();
        let values = vec![T::ZERO; col_indices.len()];
        Csr::try_new(self.seq_len, self.seq_len, row_offsets, col_indices, values)
            .expect("compound row columns are sorted and in bounds")
    }

    /// Renders the whole pattern as a blocked BSR structure plus validity
    /// mask — what the coarse-grained-only (Triton-style) baseline uses.
    /// Every block containing at least one valid element is stored whole:
    /// the slicing walk with every part marking and no rows skipped.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::BlockMisaligned`] if `seq_len` is not
    /// divisible by `block_size`.
    pub fn to_blocked(&self, block_size: usize) -> Result<BlockedPattern, SparseError> {
        let every_part: Vec<&AtomicPattern> = self.parts.iter().collect();
        let (blocked, fine) = walk_block_rows(self, block_size, &every_part, &[])?;
        debug_assert!(fine.is_none(), "every element lies in a marked block");
        Ok(blocked)
    }

    /// A dense `seq_len × seq_len` attention mask: `0.0` on valid
    /// elements, `-inf` elsewhere. Reference for correctness tests.
    pub fn to_dense_mask(&self) -> Matrix<f32> {
        let mut mask = Matrix::from_fn(self.seq_len, self.seq_len, |_, _| f32::NEG_INFINITY);
        for r in 0..self.seq_len {
            for c in self.row_columns(r) {
                mask.set(r, c, 0.0);
            }
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CompoundPattern {
        CompoundPattern::new(16)
            .with(AtomicPattern::Local { window: 4 })
            .with(AtomicPattern::Selected { tokens: vec![0] })
    }

    #[test]
    fn union_semantics() {
        let p = sample();
        let cols = p.row_columns(8);
        assert!(cols.contains(&0), "selected column present");
        assert!(cols.contains(&8), "diagonal present");
        assert!(
            cols.contains(&6) && cols.contains(&10),
            "window edges present"
        );
        // Sorted and deduplicated.
        let mut sorted = cols.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(cols, sorted);
    }

    #[test]
    fn name_joins_short_names() {
        assert_eq!(sample().name(), "L+S");
        assert_eq!(CompoundPattern::new(4).name(), "∅");
    }

    #[test]
    fn padding_masks_rows_and_columns() {
        let p = CompoundPattern::new(16)
            .with(AtomicPattern::Dense)
            .with_valid_len(10);
        assert!(p.row_columns(12).is_empty(), "padded row has no columns");
        assert_eq!(p.row_columns(0).len(), 10, "padded columns excluded");
    }

    #[test]
    fn nnz_and_density_agree_with_coords() {
        let p = sample();
        assert_eq!(p.nnz(), p.coords().len());
        let expected = p.nnz() as f64 / 256.0;
        assert!((p.density() - expected).abs() < 1e-12);
    }

    #[test]
    fn global_rows_collects_valid_tokens() {
        let p = CompoundPattern::new(16)
            .with(AtomicPattern::Global {
                tokens: vec![2, 14],
            })
            .with_valid_len(10);
        assert_eq!(p.global_rows(), vec![2], "padded token 14 excluded");
    }

    #[test]
    fn to_csr_matches_dense_mask() {
        let p = sample();
        let csr = p.to_csr::<f32>();
        let mask = p.to_dense_mask();
        for (r, c, _) in csr.iter() {
            assert_eq!(mask.get(r, c), 0.0);
        }
        assert_eq!(
            csr.nnz(),
            mask.as_slice().iter().filter(|&&v| v == 0.0).count()
        );
    }

    #[test]
    fn to_blocked_covers_every_coord_and_masks_padding() {
        let p = sample();
        let blocked = p.to_blocked(4).expect("aligned");
        assert_eq!(blocked.valid_elements(), p.nnz());
        assert!(
            blocked.fill_ratio() < 1.0,
            "local pattern partially fills blocks"
        );
        // Every stored element count is blocks * 16.
        assert_eq!(blocked.mask.len(), blocked.structure.nnz_blocks() * 16);
    }

    #[test]
    fn misaligned_block_size_errors() {
        let p = sample();
        assert!(p.to_blocked(5).is_err());
    }

    #[test]
    fn zero_valid_len_masks_everything() {
        let p = CompoundPattern::new(16)
            .with(AtomicPattern::Dense)
            .with_valid_len(0);
        assert_eq!(p.nnz(), 0);
        assert!(p.global_rows().is_empty());
        assert_eq!(p.to_csr::<f32>().nnz(), 0);
    }

    #[test]
    #[should_panic(expected = "valid_len exceeds seq_len")]
    fn oversized_valid_len_panics() {
        let _ = CompoundPattern::new(8).with_valid_len(9);
    }

    #[test]
    fn parts_of_grain_filters() {
        let p = CompoundPattern::new(8)
            .with(AtomicPattern::Local { window: 2 })
            .with(AtomicPattern::Random {
                per_row: 1,
                seed: 0,
            })
            .with(AtomicPattern::Global { tokens: vec![0] });
        assert_eq!(p.parts_of_grain(Grain::Coarse).len(), 1);
        assert_eq!(p.parts_of_grain(Grain::Fine).len(), 1);
        assert_eq!(p.parts_of_grain(Grain::Special).len(), 1);
    }
}
