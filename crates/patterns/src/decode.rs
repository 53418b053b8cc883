//! Incremental decode-time pattern extension.
//!
//! Autoregressive decode appends one query row per step: the compound
//! pattern over `valid_len` real tokens becomes the same pattern over
//! `valid_len + 1`. Rebuilding the pattern from scratch re-enumerates
//! every part for the new row — including re-seeding RNGs for random
//! parts — even though the regular parts (sliding windows, dilations,
//! diagonal blocks) admit a closed-form *affine* description of each
//! row's columns (SPLAT's ACSR observation). [`DecodePatternState`]
//! caches one such encoding per part at prefill time and extends the
//! pattern one row per call, bit-identical to from-scratch
//! construction.
//!
//! Because padding clips every row's columns to `< valid_len`, the
//! freshly appended row `r` (with `valid_len = r + 1`) only ever sees
//! columns `<= r` — extension is causal by construction, with no extra
//! masking.
//!
//! # Examples
//!
//! ```
//! use mg_patterns::{AtomicPattern, CompoundPattern, DecodePatternState};
//!
//! let prefill = CompoundPattern::new(16)
//!     .with(AtomicPattern::Local { window: 4 })
//!     .with_valid_len(8);
//! let mut state = DecodePatternState::from_prefill(prefill);
//! let cols = state.extend_decode_row();
//! assert_eq!(cols, vec![6, 7, 8]); // row 8, window clipped causally
//! assert_eq!(state.pattern().valid_len(), 9);
//! ```

use crate::compound::merge_sorted_dedup;
use crate::{AtomicPattern, CompoundPattern};

/// Closed-form per-row column generator for one atomic part, derived
/// once at prefill time. `Affine*` variants emit the new row's columns
/// with index arithmetic only; `Enumerate` falls back to
/// [`AtomicPattern::row_columns`] (random parts re-seed a row RNG, so
/// no cheaper exact encoding exists without changing their semantics).
#[derive(Debug, Clone)]
enum PartEncoding {
    /// `Local { window }`: columns `max(row - half, 0) ..= row`.
    AffineWindow {
        /// Window half-width (`window / 2`).
        half: usize,
    },
    /// `Dilated { window, stride }`: every `stride`-th column in the
    /// clipped window, aligned so the diagonal is included.
    AffineStrided {
        /// Window half-width (`window / 2`).
        half: usize,
        /// Distance between attended columns (>= 1).
        stride: usize,
    },
    /// `BlockedLocal { block }`: columns `(row / block) * block ..= row`.
    AffineDiagonalBlock {
        /// Edge length of the diagonal blocks (>= 1).
        block: usize,
    },
    /// `Dense`: columns `0 ..= row`.
    AffineDense,
    /// `Global { tokens }`: `0 ..= row` when `row` is a global token,
    /// empty otherwise. Tokens pre-sorted for a binary-search test.
    GlobalRows(Vec<usize>),
    /// `Selected { tokens }`: a fixed sorted column list, clipped to the
    /// causal prefix per row.
    FixedColumns(Vec<usize>),
    /// Random-family parts: exact fallback through the part itself.
    Enumerate,
}

impl PartEncoding {
    fn from_part(part: &AtomicPattern, seq_len: usize) -> PartEncoding {
        match part {
            AtomicPattern::Local { window } => PartEncoding::AffineWindow { half: window / 2 },
            AtomicPattern::Dilated { window, stride } => PartEncoding::AffineStrided {
                half: window / 2,
                stride: (*stride).max(1),
            },
            AtomicPattern::BlockedLocal { block } => PartEncoding::AffineDiagonalBlock {
                block: (*block).max(1),
            },
            AtomicPattern::Dense => PartEncoding::AffineDense,
            AtomicPattern::Global { tokens } => {
                let mut rows = tokens.clone();
                rows.sort_unstable();
                rows.dedup();
                PartEncoding::GlobalRows(rows)
            }
            AtomicPattern::Selected { tokens } => {
                let mut cols: Vec<usize> =
                    tokens.iter().copied().filter(|&c| c < seq_len).collect();
                cols.sort_unstable();
                cols.dedup();
                PartEncoding::FixedColumns(cols)
            }
            AtomicPattern::Random { .. }
            | AtomicPattern::VectorRandom { .. }
            | AtomicPattern::BlockedRandom { .. } => PartEncoding::Enumerate,
        }
    }

    /// The sorted columns the freshly appended row `row` attends to
    /// under this part, already clipped to the causal prefix
    /// `0 ..= row` (the new `valid_len` is `row + 1`).
    fn row_columns(&self, part: &AtomicPattern, seq_len: usize, row: usize) -> Vec<usize> {
        let valid_len = row + 1;
        match self {
            PartEncoding::AffineWindow { half } => (row.saturating_sub(*half)..=row).collect(),
            PartEncoding::AffineStrided { half, stride } => {
                let lo = row.saturating_sub(*half);
                // First column >= lo congruent to row modulo stride, so
                // the diagonal lands on the comb.
                let first = row - ((row - lo) / stride) * stride;
                (first..=row).step_by(*stride).collect()
            }
            PartEncoding::AffineDiagonalBlock { block } => ((row / block) * block..=row).collect(),
            PartEncoding::AffineDense => (0..=row).collect(),
            PartEncoding::GlobalRows(rows) => {
                if rows.binary_search(&row).is_ok() {
                    (0..=row).collect()
                } else {
                    Vec::new()
                }
            }
            PartEncoding::FixedColumns(cols) => {
                cols[..cols.partition_point(|&c| c < valid_len)].to_vec()
            }
            PartEncoding::Enumerate => {
                let mut cols = part.row_columns(seq_len, row);
                cols.truncate(cols.partition_point(|&c| c < valid_len));
                cols
            }
        }
    }
}

/// Per-request incremental pattern state for autoregressive decode.
///
/// Wraps the request's [`CompoundPattern`] (prefill shape: `valid_len`
/// real tokens inside a `seq_len` padded canvas) together with one
/// cached row encoding per atomic part. Each
/// [`extend_decode_row`](DecodePatternState::extend_decode_row) call
/// appends one query row — bumping `valid_len` by one — and returns
/// the new row's merged columns. The resulting pattern is bit-identical
/// to `CompoundPattern::new(seq_len).with(parts...).with_valid_len(v)`
/// built from scratch at the final length, and the returned columns are
/// bit-identical to that pattern's `row_columns(new_row)`.
#[derive(Debug, Clone)]
pub struct DecodePatternState {
    pattern: CompoundPattern,
    encodings: Vec<PartEncoding>,
}

impl DecodePatternState {
    /// Derives the per-part encodings from the prefill pattern.
    pub fn from_prefill(pattern: CompoundPattern) -> DecodePatternState {
        let encodings: Vec<PartEncoding> = pattern
            .parts()
            .iter()
            .map(|p| PartEncoding::from_part(p, pattern.seq_len()))
            .collect();
        DecodePatternState { pattern, encodings }
    }

    /// The current pattern (grows one row per extension).
    #[inline]
    pub fn pattern(&self) -> &CompoundPattern {
        &self.pattern
    }

    /// Rows still available inside the padded canvas before the caller
    /// must re-bucket the KV cache to a longer `seq_len`.
    #[inline]
    fn remaining_capacity(&self) -> usize {
        self.pattern.seq_len() - self.pattern.valid_len()
    }

    /// Appends one decode query row: bumps `valid_len` by one and
    /// returns the new row's sorted, deduplicated columns — exactly
    /// what `row_columns(new_row)` reports on the grown pattern.
    ///
    /// # Panics
    ///
    /// Panics if the padded canvas is exhausted (`valid_len` has reached
    /// `seq_len`); grow the KV bucket and rebuild the state first.
    pub fn extend_decode_row(&mut self) -> Vec<usize> {
        assert!(
            self.remaining_capacity() > 0,
            "decode pattern canvas exhausted; grow the KV bucket first"
        );
        let row = self.pattern.valid_len();
        self.pattern.grow_valid_len();
        // Same k-way merge order as `CompoundPattern::row_columns` so
        // the result is bit-identical, part permutations included.
        let seq_len = self.pattern.seq_len();
        let mut merged: Vec<usize> = Vec::new();
        for (part, enc) in self.pattern.parts().iter().zip(&self.encodings) {
            let cols = enc.row_columns(part, seq_len, row);
            debug_assert!(cols.is_sorted(), "encoded row columns must be sorted");
            if merged.is_empty() {
                merged = cols;
            } else if !cols.is_empty() {
                merged = merge_sorted_dedup(&merged, &cols);
            }
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of parts served by the affine fast path (the rest fall
    /// back to per-part enumeration).
    fn affine_parts(state: &DecodePatternState) -> usize {
        state
            .encodings
            .iter()
            .filter(|e| !matches!(e, PartEncoding::Enumerate))
            .count()
    }

    fn rebuild_at(pattern: &CompoundPattern, valid_len: usize) -> CompoundPattern {
        let mut p = CompoundPattern::new(pattern.seq_len());
        for part in pattern.parts() {
            p = p.with(part.clone());
        }
        p.with_valid_len(valid_len)
    }

    #[test]
    fn extension_matches_from_scratch_for_regular_parts() {
        let prefill = CompoundPattern::new(32)
            .with(AtomicPattern::Local { window: 6 })
            .with(AtomicPattern::Dilated {
                window: 12,
                stride: 3,
            })
            .with(AtomicPattern::BlockedLocal { block: 4 })
            .with(AtomicPattern::Global { tokens: vec![0, 9] })
            .with(AtomicPattern::Selected {
                tokens: vec![1, 20],
            })
            .with_valid_len(8);
        let mut state = DecodePatternState::from_prefill(prefill.clone());
        assert_eq!(affine_parts(&state), 5, "every regular part is affine");
        for step in 0..state.remaining_capacity() {
            let cols = state.extend_decode_row();
            let v = 8 + step + 1;
            let scratch = rebuild_at(&prefill, v);
            assert_eq!(state.pattern(), &scratch, "pattern equality at v={v}");
            assert_eq!(cols, scratch.row_columns(v - 1), "new-row columns at v={v}");
        }
        assert_eq!(state.remaining_capacity(), 0);
    }

    #[test]
    fn extension_matches_from_scratch_for_random_parts() {
        let prefill = CompoundPattern::new(24)
            .with(AtomicPattern::Random {
                per_row: 4,
                seed: 11,
            })
            .with(AtomicPattern::VectorRandom {
                per_row: 3,
                group: 4,
                seed: 5,
            })
            .with(AtomicPattern::BlockedRandom {
                block: 4,
                blocks_per_row: 2,
                seed: 9,
            })
            .with_valid_len(6);
        let mut state = DecodePatternState::from_prefill(prefill.clone());
        assert_eq!(affine_parts(&state), 0, "random parts all enumerate");
        for _ in 0..4 {
            let cols = state.extend_decode_row();
            let v = state.pattern().valid_len();
            let scratch = rebuild_at(&prefill, v);
            assert_eq!(cols, scratch.row_columns(v - 1));
        }
    }

    #[test]
    fn extension_is_causal() {
        let prefill = CompoundPattern::new(16)
            .with(AtomicPattern::Dense)
            .with_valid_len(3);
        let mut state = DecodePatternState::from_prefill(prefill);
        let cols = state.extend_decode_row();
        assert_eq!(cols, vec![0, 1, 2, 3], "row 3 sees only columns <= 3");
    }

    #[test]
    #[should_panic(expected = "canvas exhausted")]
    fn exhausted_canvas_panics() {
        let mut state =
            DecodePatternState::from_prefill(CompoundPattern::new(4).with(AtomicPattern::Dense));
        state.extend_decode_row();
    }
}
