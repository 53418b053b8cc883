//! Property tests for `Runs`, the run-length grid: every operation keeps
//! the runs canonical (no zero counts, no equal neighbours) and equals
//! its per-block counterpart followed by `Runs::from_blocks`.

use mg_gpusim::{Runs, TbWork};
use proptest::prelude::*;

/// A palette of three shapes, so random block sequences have long runs,
/// singletons and equal runs meeting at seams.
fn palette(i: usize) -> TbWork {
    TbWork {
        cuda_flops: [0, 7, 1 << 20][i % 3],
        ..TbWork::default()
    }
}

fn arb_blocks() -> impl Strategy<Value = Vec<TbWork>> {
    proptest::collection::vec((0usize..3, prop_oneof![Just(1usize), 0usize..9]), 0..10).prop_map(
        |runs| {
            runs.into_iter()
                .flat_map(|(i, n)| std::iter::repeat_n(palette(i), n))
                .collect()
        },
    )
}

/// Canonical form: every count is at least 1, neighbours differ, and
/// `len` counts the blocks.
fn assert_canonical(runs: &Runs) -> Result<(), TestCaseError> {
    let list: Vec<(TbWork, usize)> = runs.iter().collect();
    prop_assert!(list.iter().all(|&(_, n)| n >= 1), "zero count in {list:?}");
    prop_assert!(
        list.windows(2).all(|w| w[0].0 != w[1].0),
        "equal neighbours in {list:?}"
    );
    prop_assert_eq!(runs.len(), list.iter().map(|&(_, n)| n).sum::<usize>());
    prop_assert_eq!(runs.len(), runs.to_blocks().len());
    prop_assert_eq!(runs.is_empty(), list.is_empty());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `from_blocks` is canonical and inverts `to_blocks` both ways.
    #[test]
    fn from_blocks_round_trips(blocks in arb_blocks()) {
        let runs = Runs::from_blocks(&blocks);
        assert_canonical(&runs)?;
        prop_assert_eq!(runs.to_blocks(), blocks);
        prop_assert_eq!(Runs::from_blocks(&runs.to_blocks()), runs);
    }

    /// `push` equals appending `n` blocks.
    #[test]
    fn push_matches_appending_blocks(
        blocks in arb_blocks(),
        i in 0usize..3,
        n in 0usize..5,
    ) {
        let mut runs = Runs::from_blocks(&blocks);
        runs.push(palette(i), n);
        assert_canonical(&runs)?;
        let mut expect = blocks;
        expect.extend(std::iter::repeat_n(palette(i), n));
        prop_assert_eq!(runs, Runs::from_blocks(&expect));
    }

    /// `extend` equals concatenating the blocks.
    #[test]
    fn extend_matches_concatenation(a in arb_blocks(), b in arb_blocks()) {
        let mut runs = Runs::from_blocks(&a);
        runs.extend(&Runs::from_blocks(&b));
        assert_canonical(&runs)?;
        let expect: Vec<TbWork> = a.iter().chain(&b).copied().collect();
        prop_assert_eq!(runs, Runs::from_blocks(&expect));
    }

    /// `repeat` equals `Vec::repeat` on the blocks.
    #[test]
    fn repeat_matches_block_repeat(blocks in arb_blocks(), n in 0usize..6) {
        let runs = Runs::from_blocks(&blocks).repeat(n);
        assert_canonical(&runs)?;
        prop_assert_eq!(runs, Runs::from_blocks(&blocks.repeat(n)));
    }

    /// `map` equals mapping every block, including maps that make
    /// distinct runs equal.
    #[test]
    fn map_matches_mapping_every_block(blocks in arb_blocks()) {
        let squash = |w: TbWork| TbWork {
            cuda_flops: w.cuda_flops.min(7),
            ..w
        };
        let runs = Runs::from_blocks(&blocks).map(squash);
        assert_canonical(&runs)?;
        let expect: Vec<TbWork> = blocks.into_iter().map(squash).collect();
        prop_assert_eq!(runs, Runs::from_blocks(&expect));
    }

    /// The aggregate work equals the per-block sum.
    #[test]
    fn total_matches_the_block_sum(blocks in arb_blocks()) {
        let total = blocks
            .iter()
            .fold(TbWork::default(), |acc, &w| acc.merged(w));
        prop_assert_eq!(Runs::from_blocks(&blocks).total(), total);
    }
}
