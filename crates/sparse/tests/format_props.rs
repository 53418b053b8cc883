//! Property-based tests over sparse format invariants and conversions.

use mg_sparse::{BlockedEll, Bsr, Csr};
use mg_tensor::Matrix;
use proptest::prelude::*;

/// Strategy: a random dense matrix whose dimensions are multiples of 4,
/// with roughly the requested density of non-zeros.
fn dense_matrix(max_blocks: usize) -> impl Strategy<Value = Matrix<f32>> {
    (1..=max_blocks, 1..=max_blocks, any::<u64>(), 1u32..100).prop_map(
        |(brows, bcols, seed, density_pct)| {
            let (rows, cols) = (brows * 4, bcols * 4);
            let mut state = seed;
            let mut next = move || {
                // xorshift64
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            Matrix::from_fn(rows, cols, |_, _| {
                let roll = next() % 100;
                if (roll as u32) < density_pct {
                    ((next() % 1000) as f32 / 100.0) - 5.0
                } else {
                    0.0
                }
            })
        },
    )
}

proptest! {
    /// CSR round trips through dense exactly.
    #[test]
    fn csr_dense_round_trip(dense in dense_matrix(6)) {
        let csr = Csr::from_dense(&dense);
        prop_assert_eq!(csr.to_dense(), dense);
    }

    /// Dense -> BSR -> dense preserves every element, and the BSR stores
    /// at least as many elements as the CSR (block padding only adds).
    #[test]
    fn csr_bsr_conversion_is_lossless(dense in dense_matrix(5)) {
        let csr = Csr::from_dense(&dense);
        let bsr = Bsr::from_dense(&dense, 4);
        prop_assert_eq!(bsr.to_dense(), dense);
        prop_assert!(bsr.stored_elements() >= csr.nnz());
    }

    /// Blocked-ELL reproduces the BSR contents.
    #[test]
    fn blocked_formats_agree(dense in dense_matrix(4)) {
        let bsr = Bsr::from_dense(&dense, 4);
        prop_assert_eq!(BlockedEll::from_bsr(&bsr).to_dense(), dense);
    }

    /// Per-row nnz sums to total nnz.
    #[test]
    fn row_nnz_sums_to_total(dense in dense_matrix(6)) {
        let csr = Csr::from_dense(&dense);
        let sum: usize = (0..csr.rows()).map(|r| csr.row_nnz(r)).sum();
        prop_assert_eq!(sum, csr.nnz());
    }
}
