//! Integration: property-based tests on the pattern substrate and the
//! slice invariants the whole method rests on.

use mg_patterns::{
    AtomicPattern, BlockedPattern, CompoundPattern, DecodePatternState, Grain, SlicedPattern,
};
use mg_sparse::{Bsr, Csr};
use mg_tensor::Half;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Strategy for the eight atomic kinds other than `Dense`.
fn atomic_pattern() -> impl Strategy<Value = AtomicPattern> {
    prop_oneof![
        (1usize..16).prop_map(|w| AtomicPattern::Local { window: w }),
        (2usize..16, 1usize..4).prop_map(|(w, s)| AtomicPattern::Dilated {
            window: w,
            stride: s
        }),
        proptest::collection::vec(0usize..32, 0..4)
            .prop_map(|tokens| AtomicPattern::Global { tokens }),
        proptest::collection::vec(0usize..32, 0..6)
            .prop_map(|tokens| AtomicPattern::Selected { tokens }),
        (1usize..6, any::<u64>()).prop_map(|(n, seed)| AtomicPattern::Random { per_row: n, seed }),
        (1usize..6, any::<u64>()).prop_map(|(n, seed)| AtomicPattern::VectorRandom {
            per_row: n,
            group: 8,
            seed
        }),
        (2usize..9).prop_map(|b| AtomicPattern::BlockedLocal { block: b }),
        (1usize..4, any::<u64>()).prop_map(|(n, seed)| AtomicPattern::BlockedRandom {
            block: 8,
            blocks_per_row: n,
            seed
        }),
    ]
}

/// Strategy for arbitrary compound patterns over block-aligned lengths.
fn compound_pattern() -> impl Strategy<Value = CompoundPattern> {
    let seq_choices = prop_oneof![Just(32usize), Just(64), Just(96)];
    (
        seq_choices,
        proptest::collection::vec(atomic_pattern(), 1..4),
        any::<bool>(),
    )
        .prop_map(|(seq_len, parts, pad)| {
            let mut p = CompoundPattern::new(seq_len);
            for part in parts {
                p = p.with(part);
            }
            if pad {
                p = p.with_valid_len(seq_len * 3 / 4);
            }
            p
        })
}

/// Strategy for `(pattern, block_size)` over all nine atomic kinds, block
/// sizes {4, 8, 16} and valid lengths {0, 1, a non-multiple of the block
/// size, seq_len}.
fn sliceable_pattern() -> impl Strategy<Value = (CompoundPattern, usize)> {
    // `Dense` as one kind in nine.
    let part = (atomic_pattern(), 0usize..9).prop_map(|(part, kind)| {
        if kind == 0 {
            AtomicPattern::Dense
        } else {
            part
        }
    });
    (
        prop_oneof![Just(32usize), Just(64), Just(96)],
        proptest::collection::vec(part, 1..4),
        prop_oneof![Just(4usize), Just(8), Just(16)],
        0usize..4,
        0usize..96,
    )
        .prop_map(|(seq_len, parts, block, pad_kind, pick)| {
            let mut p = CompoundPattern::new(seq_len);
            for part in parts {
                p = p.with(part);
            }
            // An odd length is never a multiple of 4, 8 or 16.
            let valid_len = [0, 1, (pick % seq_len) | 1, seq_len][pad_kind];
            (p.with_valid_len(valid_len), block)
        })
}

/// A blocked rendering built element by element: `blocks` flags the stored
/// `(block_row, block_col)` cells row-major, and `valid` decides each
/// stored element's mask value.
fn naive_blocked(
    seq_len: usize,
    b: usize,
    blocks: &[bool],
    valid: impl Fn(usize, usize) -> bool,
) -> BlockedPattern {
    let nb = seq_len / b;
    let coords: Vec<(usize, usize)> = (0..nb * nb)
        .filter(|&i| blocks[i])
        .map(|i| (i / nb, i % nb))
        .collect();
    let structure = Bsr::from_block_coords(seq_len, seq_len, b, &coords).expect("aligned");
    let mask = coords
        .iter()
        .flat_map(|&(br, bc)| (0..b * b).map(move |e| (br * b + e / b, bc * b + e % b)))
        .map(|(r, c)| if valid(r, c) { 0.0 } else { f32::NEG_INFINITY })
        .collect();
    BlockedPattern { structure, mask }
}

/// The slicing oracle: the three ownership rules applied element by
/// element to dense masks. Returns the expected coarse part, fine part and
/// global rows.
fn naive_slice(
    pattern: &CompoundPattern,
    b: usize,
) -> (Option<BlockedPattern>, Option<Csr<Half>>, Vec<usize>) {
    let (n, valid_len) = (pattern.seq_len(), pattern.valid_len());
    let nb = n / b;
    let dense = pattern.to_dense_mask();
    let in_pattern = |r: usize, c: usize| dense.get(r, c) == 0.0;
    // Rule 1: rows made dense by a Global or Dense part own their row.
    let global: Vec<usize> = (0..valid_len)
        .filter(|&r| {
            pattern.parts().iter().any(|p| match p {
                AtomicPattern::Global { tokens } => tokens.contains(&r),
                AtomicPattern::Dense => true,
                _ => false,
            })
        })
        .collect();
    let owned_row = |r: usize| !global.contains(&r);
    // Rule 2: blocks touched by the coarse-grain parts in the remaining
    // rows own every pattern element inside them.
    let mut coarse_only = CompoundPattern::new(n);
    for part in pattern.parts_of_grain(Grain::Coarse) {
        coarse_only = coarse_only.with(part.clone());
    }
    let coarse_dense = coarse_only.with_valid_len(valid_len).to_dense_mask();
    let mut blocks = vec![false; nb * nb];
    for r in (0..n).filter(|&r| owned_row(r)) {
        for c in 0..n {
            if coarse_dense.get(r, c) == 0.0 {
                blocks[(r / b) * nb + c / b] = true;
            }
        }
    }
    let coarse = blocks
        .contains(&true)
        .then(|| naive_blocked(n, b, &blocks, |r, c| owned_row(r) && in_pattern(r, c)));
    // Rule 3: every other pattern element is fine.
    let fine_coords: Vec<(usize, usize)> = (0..n)
        .filter(|&r| owned_row(r))
        .flat_map(|r| (0..n).map(move |c| (r, c)))
        .filter(|&(r, c)| in_pattern(r, c) && !blocks[(r / b) * nb + c / b])
        .collect();
    let fine = (!fine_coords.is_empty())
        .then(|| Csr::from_coords(n, n, &fine_coords).expect("row-major unique"));
    (coarse, fine, global)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The slicing partition is exact: every valid element is owned by
    /// exactly one grain, and nothing else is owned.
    #[test]
    fn slicing_partitions_pattern_exactly(pattern in compound_pattern()) {
        let sliced = SlicedPattern::from_compound(&pattern, 8).expect("aligned");
        let mut owned: BTreeSet<(usize, usize)> = BTreeSet::new();
        if let Some(coarse) = sliced.coarse() {
            let b = coarse.structure.block_size();
            let sq = b * b;
            for (i, (br, bc, _)) in coarse.structure.iter_blocks().enumerate() {
                for e in 0..sq {
                    if coarse.mask[i * sq + e] == 0.0 {
                        prop_assert!(
                            owned.insert((br * b + e / b, bc * b + e % b)),
                            "coarse duplicates an element"
                        );
                    }
                }
            }
        }
        if let Some(fine) = sliced.fine() {
            for (r, c, _) in fine.iter() {
                prop_assert!(owned.insert((r, c)), "fine duplicates ({r},{c})");
            }
        }
        for &r in sliced.global_rows() {
            for c in 0..pattern.valid_len() {
                prop_assert!(owned.insert((r, c)), "global duplicates ({r},{c})");
            }
        }
        let expected: BTreeSet<(usize, usize)> = pattern.coords().into_iter().collect();
        prop_assert_eq!(owned, expected);
    }

    /// Row columns are always sorted, unique, and inside the valid range.
    #[test]
    fn row_columns_sorted_unique_valid(pattern in compound_pattern(), row_sel in 0usize..96) {
        let row = row_sel % pattern.seq_len();
        let cols = pattern.row_columns(row);
        for w in cols.windows(2) {
            prop_assert!(w[0] < w[1], "not strictly increasing");
        }
        for &c in &cols {
            prop_assert!(c < pattern.valid_len());
        }
        if row >= pattern.valid_len() {
            prop_assert!(cols.is_empty(), "padded rows attend nothing");
        }
    }

    /// nnz equals the dense-mask count and the CSR rendering's count.
    #[test]
    fn nnz_is_consistent_across_renderings(pattern in compound_pattern()) {
        let nnz = pattern.nnz();
        let mask = pattern.to_dense_mask();
        let mask_count = mask.as_slice().iter().filter(|&&v| v == 0.0).count();
        prop_assert_eq!(nnz, mask_count);
        let csr = pattern.to_csr::<f32>();
        prop_assert_eq!(nnz, csr.nnz());
    }

    /// The blocked rendering stores a superset of the pattern and masks
    /// exactly the difference.
    #[test]
    fn blocked_rendering_masks_exactly_the_padding(pattern in compound_pattern()) {
        let blocked = pattern.to_blocked(8).expect("aligned");
        prop_assert_eq!(blocked.valid_elements(), pattern.nnz());
        let stored = blocked.structure.stored_elements();
        prop_assert!(stored >= pattern.nnz());
        prop_assert_eq!(blocked.mask.len(), stored);
    }

    /// Grain classification is stable and covers every variant.
    #[test]
    fn grains_partition_parts(pattern in compound_pattern()) {
        let total = pattern.parts().len();
        let by_grain: usize = [Grain::Coarse, Grain::Fine, Grain::Special]
            .iter()
            .map(|&g| pattern.parts_of_grain(g).len())
            .sum();
        prop_assert_eq!(total, by_grain);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every plan builder equals the naive oracle exactly: the sliced
    /// parts (block order and mask storage order included), the
    /// Triton-style blocked rendering, and the Sputnik-style CSR.
    #[test]
    fn plan_builders_match_naive_oracle((pattern, b) in sliceable_pattern()) {
        let (n, dense) = (pattern.seq_len(), pattern.to_dense_mask());
        let in_pattern = |r: usize, c: usize| dense.get(r, c) == 0.0;

        let (coarse, fine, global) = naive_slice(&pattern, b);
        let sliced = SlicedPattern::from_compound(&pattern, b).expect("aligned");
        prop_assert_eq!(sliced.coarse(), coarse.as_ref());
        prop_assert_eq!(sliced.fine(), fine.as_ref());
        prop_assert_eq!(sliced.global_rows(), &global[..]);

        let nb = n / b;
        let touched: Vec<bool> = (0..nb * nb)
            .map(|i| (0..b * b).any(|e| in_pattern((i / nb) * b + e / b, (i % nb) * b + e % b)))
            .collect();
        prop_assert_eq!(
            pattern.to_blocked(b).expect("aligned"),
            naive_blocked(n, b, &touched, in_pattern)
        );

        let coords: Vec<(usize, usize)> = (0..n)
            .flat_map(|r| (0..n).map(move |c| (r, c)))
            .filter(|&(r, c)| in_pattern(r, c))
            .collect();
        prop_assert_eq!(
            pattern.to_csr::<Half>(),
            Csr::from_coords(n, n, &coords).expect("row-major unique")
        );
    }
}

/// Extends `base` (already padded to `start_len`) one decode row at a
/// time up to its full canvas, asserting bit-identity against
/// from-scratch construction at every intermediate length: the pattern
/// itself, the appended row's columns, and — at block-aligned lengths —
/// the structural signature and the complete slicing output.
fn assert_extension_matches_from_scratch(base: &CompoundPattern, start_len: usize) {
    use multigrain::AttentionProblem;

    let seq_len = base.seq_len();
    let mut state = DecodePatternState::from_prefill(base.clone().with_valid_len(start_len));
    for len in start_len + 1..=seq_len {
        let row_cols = state.extend_decode_row();
        let scratch = base.clone().with_valid_len(len);
        assert_eq!(
            state.pattern(),
            &scratch,
            "extended pattern diverged at len {len} for {}",
            base.name()
        );
        assert_eq!(
            row_cols,
            scratch.row_columns(len - 1),
            "appended row diverged at len {len} for {}",
            base.name()
        );
        if len % 8 == 0 {
            let ext_problem = AttentionProblem::new(state.pattern().clone(), 16, 1, 2, 8);
            let scr_problem = AttentionProblem::new(scratch.clone(), 16, 1, 2, 8);
            assert_eq!(
                ext_problem.signature(),
                scr_problem.signature(),
                "signatures diverged at len {len} for {}",
                base.name()
            );
            let ext = SlicedPattern::from_compound(state.pattern(), 8).expect("aligned");
            let scr = SlicedPattern::from_compound(&scratch, 8).expect("aligned");
            assert_eq!(ext.coarse(), scr.coarse(), "coarse slice at len {len}");
            assert_eq!(ext.fine(), scr.fine(), "fine slice at len {len}");
            assert_eq!(
                ext.global_rows(),
                scr.global_rows(),
                "global rows at len {len}"
            );
            assert_eq!(ext.stats(), scr.stats(), "slice stats at len {len}");
        }
    }
}

/// Satellite regression: every preset family — including the dilated
/// poolingformer and the random-part figure-9 patterns — extends
/// bit-identically to from-scratch construction.
#[test]
fn presets_extend_bit_identically_to_from_scratch() {
    use mg_patterns::presets;

    let mut patterns = vec![
        presets::longformer(64, 8, &[0, 1, 2, 40]),
        presets::qds_transformer(64, 8, &[5, 20, 41]),
        presets::bigbird_etc(64, 8, &[0, 1]),
        presets::poolingformer(64, 4),
    ];
    patterns.extend(presets::figure9_patterns(64, 8, 3));
    for pattern in &patterns {
        assert_extension_matches_from_scratch(pattern, 24);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary compound patterns (all atomic variants, random parts
    /// included) extend bit-identically from half their canvas to full.
    #[test]
    fn incremental_extension_matches_from_scratch(pattern in compound_pattern()) {
        let start = pattern.seq_len() / 2;
        assert_extension_matches_from_scratch(&pattern, start);
    }
}
