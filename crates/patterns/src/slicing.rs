//! Slicing a compound pattern into coarse, fine, and special (global)
//! parts — the "slice" step of the paper's slice-and-dice method (§3.1).
//!
//! Ownership rules, applied in priority order so that every valid element
//! belongs to exactly one grain (required for softmax correctness, §3.3):
//!
//! 1. **Global rows** (rows made dense by a `Global`/`Dense` part) own
//!    their entire row and are routed to dense kernels.
//! 2. **Coarse blocks** — blocks touched by coarse-grain parts in the
//!    remaining rows — own every compound-pattern element inside them;
//!    elements of the block not in the pattern are invalidated by the
//!    block mask.
//! 3. **Fine elements** — everything left: fine-grain-pattern elements
//!    outside global rows and outside coarse blocks.
//!
//! # The walk
//!
//! [`walk_block_rows`] builds every plan in one pass per block row,
//! derived from the atomic parts' row columns rather than from a
//! materialised coordinate list:
//!
//! 1. mark the block columns the marking parts touch in a reused
//!    `Vec<bool>` of length `L/B` (valid, non-global rows; columns below
//!    `valid_len`);
//! 2. read the marks out in ascending order — that block row's BSR
//!    column list;
//! 3. map block column → block index through a reused slot table, reset
//!    after the block row;
//! 4. walk each row's compound columns once: a column inside a stored
//!    block sets its mask slot to `0.0`, any other is appended to the
//!    fine CSR row, whose offset is written as the walk goes.
//!
//! Steps 1–2 run for every block row before steps 3–4, so the block count
//! is known first and the mask is allocated at exact size. The index
//! lists grow in temporary buffers and are copied once into exact-size
//! allocations, so cached plans carry no spare capacity.
//! The work is `O(nnz + (L/B)²)`: the compound elements once, the
//! marking parts' elements once, and one scan of the marks per block row.
//! Multigrain marks with the coarse-grain parts and skips global rows;
//! the Triton-style [`CompoundPattern::to_blocked`] marks with every part
//! and skips nothing, so every element owns its block.

use crate::compound::BlockedPattern;
use crate::{AtomicPattern, CompoundPattern, Grain};
use mg_sparse::{Bsr, Csr, SparseError};
use mg_tensor::Half;

/// Slot-table entry of a block column with no stored block in the current
/// block row.
const NO_BLOCK: usize = usize::MAX;

/// Walks `pattern` once per block row of size `block_size` (see the module
/// docs). Blocks touched by `marking` parts own every compound element
/// inside them; the remaining elements form the fine CSR part. Rows in
/// `skip_rows` (sorted) are neither marked nor walked. Returns the blocked
/// part and the fine part, `None` when it is empty.
///
/// # Errors
///
/// Returns [`SparseError::BlockMisaligned`] if `block_size` is zero or does
/// not divide the sequence length.
pub(crate) fn walk_block_rows(
    pattern: &CompoundPattern,
    block_size: usize,
    marking: &[&AtomicPattern],
    skip_rows: &[usize],
) -> Result<(BlockedPattern, Option<Csr<Half>>), SparseError> {
    let seq_len = pattern.seq_len();
    let valid_len = pattern.valid_len();
    if block_size == 0 || !seq_len.is_multiple_of(block_size) {
        return Err(SparseError::BlockMisaligned {
            dim: seq_len,
            block_size,
        });
    }
    let block_rows = seq_len / block_size;
    let block_row = |br: usize| br * block_size..(br + 1) * block_size;
    let walked = |r: usize| r < valid_len && skip_rows.binary_search(&r).is_err();

    // Steps 1–2 for every block row: the BSR structure, so the block count
    // is known before the mask is allocated.
    let mut marks = vec![false; block_rows];
    let mut block_offsets = Vec::with_capacity(block_rows + 1);
    block_offsets.push(0);
    let mut block_cols = Vec::new();
    for br in 0..block_rows {
        for r in block_row(br).filter(|&r| walked(r)) {
            for part in marking {
                let cols = part.row_columns(seq_len, r);
                for &c in &cols[..cols.partition_point(|&c| c < valid_len)] {
                    marks[c / block_size] = true;
                }
            }
        }
        for (bc, mark) in marks.iter_mut().enumerate() {
            if std::mem::take(mark) {
                block_cols.push(bc);
            }
        }
        block_offsets.push(block_cols.len());
    }
    let block_cols = block_cols.to_vec();

    // Steps 3–4: resolve each element to its block's mask slot or to the
    // fine part.
    let sq = block_size * block_size;
    let mut mask = vec![f32::NEG_INFINITY; block_cols.len() * sq];
    let mut slots = vec![NO_BLOCK; block_rows];
    let mut fine_offsets = Vec::with_capacity(seq_len + 1);
    fine_offsets.push(0);
    let mut fine_cols = Vec::new();
    for br in 0..block_rows {
        let blocks = block_offsets[br]..block_offsets[br + 1];
        for i in blocks.clone() {
            slots[block_cols[i]] = i;
        }
        for r in block_row(br) {
            if walked(r) {
                let row_base = (r % block_size) * block_size;
                for c in pattern.row_columns(r) {
                    match slots[c / block_size] {
                        NO_BLOCK => fine_cols.push(c),
                        i => mask[i * sq + row_base + c % block_size] = 0.0,
                    }
                }
            }
            fine_offsets.push(fine_cols.len());
        }
        for i in blocks {
            slots[block_cols[i]] = NO_BLOCK;
        }
    }
    let fine_cols = fine_cols.to_vec();

    let values = vec![Half::ZERO; block_cols.len() * sq];
    let structure = Bsr::try_new(
        seq_len,
        seq_len,
        block_size,
        block_offsets,
        block_cols,
        values,
    )
    .expect("block columns are read out sorted and in bounds");
    let fine = (!fine_cols.is_empty()).then(|| {
        let values = vec![Half::ZERO; fine_cols.len()];
        Csr::try_new(seq_len, seq_len, fine_offsets, fine_cols, values)
            .expect("compound row columns are sorted and in bounds")
    });
    Ok((BlockedPattern { structure, mask }, fine))
}

/// A compound pattern decomposed into the three kernel-facing parts.
///
/// # Examples
///
/// ```
/// use mg_patterns::{AtomicPattern, CompoundPattern, SlicedPattern};
///
/// let pattern = CompoundPattern::new(64)
///     .with(AtomicPattern::Local { window: 8 })
///     .with(AtomicPattern::Random { per_row: 4, seed: 1 })
///     .with(AtomicPattern::Global { tokens: vec![0] });
/// let sliced = SlicedPattern::from_compound(&pattern, 8)?;
/// assert_eq!(sliced.global_rows(), &[0]);
/// assert!(sliced.coarse().is_some());
/// assert!(sliced.fine().is_some());
/// # Ok::<(), mg_sparse::SparseError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SlicedPattern {
    seq_len: usize,
    block_size: usize,
    coarse: Option<BlockedPattern>,
    fine: Option<Csr<Half>>,
    global_rows: Vec<usize>,
}

impl SlicedPattern {
    /// Slices `pattern` with the given coarse block size.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::BlockMisaligned`] if the sequence length is
    /// not divisible by `block_size`.
    pub fn from_compound(
        pattern: &CompoundPattern,
        block_size: usize,
    ) -> Result<SlicedPattern, SparseError> {
        let global_rows = pattern.global_rows();
        let (coarse, fine) = walk_block_rows(
            pattern,
            block_size,
            &pattern.parts_of_grain(Grain::Coarse),
            &global_rows,
        )?;
        Ok(SlicedPattern {
            seq_len: pattern.seq_len(),
            block_size,
            coarse: (coarse.structure.nnz_blocks() > 0).then_some(coarse),
            fine,
            global_rows,
        })
    }

    /// The padded sequence length.
    #[inline]
    pub fn seq_len(&self) -> usize {
        self.seq_len
    }

    /// The coarse block size.
    #[inline]
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// The coarse (blocked) part, if any coarse blocks exist.
    #[inline]
    pub fn coarse(&self) -> Option<&BlockedPattern> {
        self.coarse.as_ref()
    }

    /// The fine (element-wise) part, if any fine elements remain.
    #[inline]
    pub fn fine(&self) -> Option<&Csr<Half>> {
        self.fine.as_ref()
    }

    /// Rows routed to dense kernels, sorted.
    #[inline]
    pub fn global_rows(&self) -> &[usize] {
        &self.global_rows
    }

    /// Summary statistics used by benches and logging.
    pub fn stats(&self) -> SliceStats {
        SliceStats {
            coarse_blocks: self.coarse.as_ref().map_or(0, |c| c.structure.nnz_blocks()),
            coarse_valid_elements: self
                .coarse
                .as_ref()
                .map_or(0, BlockedPattern::valid_elements),
            coarse_stored_elements: self
                .coarse
                .as_ref()
                .map_or(0, |c| c.structure.stored_elements()),
            fine_elements: self.fine.as_ref().map_or(0, Csr::nnz),
            global_rows: self.global_rows.len(),
        }
    }

    /// Total valid elements across all three parts (global rows count
    /// `seq_len` columns each).
    pub fn total_valid_elements(&self) -> usize {
        let s = self.stats();
        s.coarse_valid_elements + s.fine_elements + s.global_rows * self.seq_len
    }
}

/// Element and block counts of a sliced pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceStats {
    /// Stored coarse blocks.
    pub coarse_blocks: usize,
    /// Valid elements inside coarse blocks.
    pub coarse_valid_elements: usize,
    /// Stored elements in coarse blocks (valid + masked padding).
    pub coarse_stored_elements: usize,
    /// Elements in the fine CSR part.
    pub fine_elements: usize,
    /// Number of dense (global) rows.
    pub global_rows: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AtomicPattern;
    use std::collections::BTreeSet;

    fn compound() -> CompoundPattern {
        CompoundPattern::new(32)
            .with(AtomicPattern::Local { window: 8 })
            .with(AtomicPattern::Random {
                per_row: 3,
                seed: 5,
            })
            .with(AtomicPattern::Global { tokens: vec![1] })
    }

    #[test]
    fn partition_is_exact() {
        let pattern = compound();
        let sliced = SlicedPattern::from_compound(&pattern, 4).expect("aligned");
        // Every valid element is owned by exactly one grain.
        let mut owned: BTreeSet<(usize, usize)> = BTreeSet::new();
        if let Some(coarse) = sliced.coarse() {
            let b = coarse.structure.block_size();
            let sq = b * b;
            for (i, (br, bc, _)) in coarse.structure.iter_blocks().enumerate() {
                for e in 0..sq {
                    if coarse.mask[i * sq + e] == 0.0 {
                        let coord = (br * b + e / b, bc * b + e % b);
                        assert!(owned.insert(coord), "duplicate ownership {coord:?}");
                    }
                }
            }
        }
        if let Some(fine) = sliced.fine() {
            for (r, c, _) in fine.iter() {
                assert!(owned.insert((r, c)), "duplicate ownership ({r},{c})");
            }
        }
        for &r in sliced.global_rows() {
            for c in 0..pattern.valid_len() {
                assert!(owned.insert((r, c)), "duplicate ownership ({r},{c})");
            }
        }
        let expected: BTreeSet<(usize, usize)> = pattern.coords().into_iter().collect();
        assert_eq!(owned, expected, "partition covers exactly the pattern");
    }

    #[test]
    fn global_rows_leave_coarse_and_fine() {
        let sliced = SlicedPattern::from_compound(&compound(), 4).expect("aligned");
        assert_eq!(sliced.global_rows(), &[1]);
        if let Some(coarse) = sliced.coarse() {
            // Block row 0 exists but no valid element in row 1.
            let b = coarse.structure.block_size();
            let sq = b * b;
            for (i, (br, _, _)) in coarse.structure.iter_blocks().enumerate() {
                for e in 0..sq {
                    if coarse.mask[i * sq + e] == 0.0 {
                        assert_ne!(br * b + e / b, 1, "global row leaked into coarse part");
                    }
                }
            }
        }
        if let Some(fine) = sliced.fine() {
            assert_eq!(fine.row_nnz(1), 0, "global row leaked into fine part");
        }
    }

    #[test]
    fn fine_elements_inside_coarse_blocks_are_absorbed() {
        // A random element that lands inside the local band's blocks must
        // be owned by the coarse part, not duplicated in fine.
        let pattern = CompoundPattern::new(16)
            .with(AtomicPattern::BlockedLocal { block: 4 })
            .with(AtomicPattern::Selected { tokens: vec![1] });
        let sliced = SlicedPattern::from_compound(&pattern, 4).expect("aligned");
        let fine = sliced
            .fine()
            .expect("selected columns outside diagonal blocks");
        for (r, c, _) in fine.iter() {
            assert_eq!(c, 1);
            assert_ne!(r / 4, 0, "rows 0..4 own column 1 via the diagonal block");
        }
    }

    #[test]
    fn coarse_only_pattern_has_no_fine_part() {
        let pattern = CompoundPattern::new(16).with(AtomicPattern::BlockedLocal { block: 4 });
        let sliced = SlicedPattern::from_compound(&pattern, 4).expect("aligned");
        assert!(sliced.fine().is_none());
        assert!(sliced.coarse().is_some());
        assert!(sliced.global_rows().is_empty());
        // Diagonal blocks are fully valid: no masked elements.
        assert_eq!(sliced.coarse().expect("coarse").fill_ratio(), 1.0);
    }

    #[test]
    fn fine_only_pattern_has_no_coarse_part() {
        let pattern = CompoundPattern::new(16).with(AtomicPattern::Random {
            per_row: 2,
            seed: 9,
        });
        let sliced = SlicedPattern::from_compound(&pattern, 4).expect("aligned");
        assert!(sliced.coarse().is_none());
        assert_eq!(sliced.fine().expect("fine").nnz(), pattern.nnz());
    }

    #[test]
    fn stats_totals_match_pattern_nnz() {
        let pattern = compound();
        let sliced = SlicedPattern::from_compound(&pattern, 4).expect("aligned");
        assert_eq!(sliced.total_valid_elements(), pattern.nnz());
    }

    #[test]
    fn mask_is_allocated_at_exact_size() {
        // Plan caches hold sliced patterns for their whole lifetime, so the
        // mask must not carry growth slack.
        let pattern = crate::presets::longformer(1024, 128, &[0, 1, 500]);
        let sliced = SlicedPattern::from_compound(&pattern, 64).expect("aligned");
        let mask = &sliced.coarse().expect("local band is coarse").mask;
        assert_eq!(mask.capacity(), mask.len());
    }

    #[test]
    fn misaligned_block_size_is_rejected() {
        assert!(SlicedPattern::from_compound(&compound(), 5).is_err());
    }
}
