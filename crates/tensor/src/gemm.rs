//! Dense matrix multiplication with FP32 accumulation.
//!
//! These routines are the numeric ground truth for every sparse kernel in
//! the workspace: the functional SDDMM/SpMM kernels must agree with a dense
//! GEMM restricted to the pattern's non-zero positions. Accumulation happens
//! in `f32` regardless of the storage type, matching the tensor-core
//! `HMMA.16816.F32` semantics the paper relies on.
//!
//! ## Cache-blocked slab GEMM
//!
//! [`gemm`] and [`gemm_nt`] decode the B operand (Bᵀ for `gemm_nt`) once
//! into [`crate::pack::Slabs`]: contiguous, k-major column slabs of width
//! [`simd::SPAN`], the last one ragged. The output is cut into blocks of
//! [`MC`] rows, one parallel work item each. A block decodes its A rows
//! once, then walks the slabs in the outer loop and its row pairs in the
//! inner loop. A slab (at most `k × SPAN` floats, 384 KiB at `k = 3072`)
//! and the block's A rows then stay cache-resident while every row of the
//! block reuses them. A whole-width panel walked row pair by row pair
//! does not: once it outgrows L2, each pair re-streams it from memory.
//!
//! Inside a slab the seeded row microkernel [`accumulate_row_window`] is
//! register-tiled: a [`simd::SPAN`] wide span kernel when the vector
//! dispatch is active and the slab is full, [`NR`]-wide register blocks
//! otherwise. Every output element is still one uninterrupted
//! ascending-k chain of mul-then-add from `+0.0`, the order the retained
//! [`naive`] reference uses. Blocking changes only
//! *when* an element is computed, never how, and decode is exact, so the
//! result is bit-identical to the reference at any thread count and
//! dispatch mode by construction (property-tested in `tests/pack_props.rs`
//! over subnormals, ±Inf, and NaN, across row-block and slab boundaries).

use crate::{pack, par, scratch, simd, Matrix, Scalar};

/// Register-tile width of the packed GEMM microkernels: each inner loop
/// accumulates up to this many output columns in a local register block.
pub const NR: usize = 8;

/// Output rows per parallel work item of the blocked GEMM. A fixed
/// constant: it sizes the A block that stays cache-resident beside one
/// slab, which has nothing to do with how many threads share the work.
const MC: usize = 32;

/// The seeded row microkernel: continues the accumulator chains `acc`
/// holds with one decoded A row against a window of a k-major panel,
/// `acc[j] += Σ_kk a[kk] * bp[kk*n + j0 + j]` in ascending `kk`.
///
/// This one routine runs every product over a contiguous operand in the
/// workspace; the callers choose only the seed and whether zeros are
/// skipped:
///
/// * `+0.0`: the slab GEMM, and with `SKIP_ZEROS` the Blocked-ELL SpMM
///   and the sliding-chunk context product;
/// * `-0.0`, the seed [`dot`]'s `Sum` fold uses, so each lane equals
///   [`dot_f32`] against one panel column: the coarse SDDMM, the
///   consecutive-column runs of the fine SDDMM and the fused kernel's
///   scores (over a d-major Kᵀ panel), and the sliding-chunk band scores;
/// * a running sum: the coarse SpMM (a block row's earlier blocks, with
///   `SKIP_ZEROS`) and the fused kernel's chunk-batched accumulate (a
///   probability row against consecutive V rows).
///
/// With `SKIP_ZEROS`, a zero `a[kk]` contributes nothing — exactly a
/// `continue` on zero, even against an infinite or NaN panel element —
/// as long as no accumulator holds `-0.0`. A chain seeded at `+0.0`
/// never does.
///
/// [`simd::SPAN`]-wide windows go through the explicit span kernel when
/// the [`crate::simd`] dispatch is active, then [`NR`]-wide blocks
/// through the block kernel, and the ragged tail (and everything, when
/// the dispatch is off) through fixed-size `[f32; NR]` register windows
/// the compiler keeps in vector registers. The lanes are *independent*
/// sums, so vectorizing across them reorders nothing: every path performs
/// the same per-lane mul-then-add sequence, and the choice is invisible
/// in the bits.
///
/// # Panics
///
/// Panics if the window `j0..j0 + acc.len()` does not fit in a panel row
/// of `n` columns, or `bp` holds fewer than `a.len()` rows.
#[inline]
pub fn accumulate_row_window<const SKIP_ZEROS: bool>(
    a: &[f32],
    bp: &[f32],
    n: usize,
    j0: usize,
    acc: &mut [f32],
) {
    assert!(j0 + acc.len() <= n, "window exceeds the panel row");
    assert!(a.len() * n <= bp.len(), "panel shorter than the A row");
    let mut j = 0;
    for span in acc.chunks_exact_mut(simd::SPAN) {
        let span: &mut [f32; simd::SPAN] = span.try_into().expect("SPAN-wide chunk");
        if !simd::row_panel_span::<SKIP_ZEROS>(a, bp, n, j0 + j, span) {
            break;
        }
        j += simd::SPAN;
    }
    for blk in acc[j..].chunks_exact_mut(NR) {
        let blk: &mut [f32; NR] = blk.try_into().expect("NR-wide chunk");
        if !simd::row_panel_block::<SKIP_ZEROS>(a, bp, n, j0 + j, blk) {
            register_window::<SKIP_ZEROS>(a, bp, n, j0 + j, blk);
        }
        j += NR;
    }
    let tail = acc.len() - j;
    if tail > 0 {
        let mut regs = [0.0f32; NR];
        regs[..tail].copy_from_slice(&acc[j..]);
        for (kk, &av) in a.iter().enumerate() {
            if SKIP_ZEROS && av == 0.0 {
                continue;
            }
            let b_blk = &bp[kk * n + j0 + j..kk * n + j0 + j + tail];
            for (reg, &bv) in regs[..tail].iter_mut().zip(b_blk.iter()) {
                *reg += av * bv;
            }
        }
        acc[j..].copy_from_slice(&regs[..tail]);
    }
}

/// Paired-row form of [`accumulate_row_window`]: two A rows over the same
/// window, so the span kernel reuses each loaded panel vector for both
/// rows ([`simd::row_panel_span2`]). Per row the computation, and
/// therefore every output bit, is identical to two
/// [`accumulate_row_window`] calls; past the spans, that is literally
/// what runs.
///
/// # Panics
///
/// As [`accumulate_row_window`], and if the two rows or the two
/// accumulators differ in length.
#[inline]
pub fn accumulate_row_window2<const SKIP_ZEROS: bool>(
    a0: &[f32],
    a1: &[f32],
    bp: &[f32],
    n: usize,
    j0: usize,
    acc0: &mut [f32],
    acc1: &mut [f32],
) {
    assert_eq!(a0.len(), a1.len(), "paired rows differ in length");
    assert_eq!(acc0.len(), acc1.len(), "paired windows differ in width");
    let mut j = 0;
    for (s0, s1) in acc0
        .chunks_exact_mut(simd::SPAN)
        .zip(acc1.chunks_exact_mut(simd::SPAN))
    {
        let s0: &mut [f32; simd::SPAN] = s0.try_into().expect("SPAN-wide chunk");
        let s1: &mut [f32; simd::SPAN] = s1.try_into().expect("SPAN-wide chunk");
        if !simd::row_panel_span2::<SKIP_ZEROS>(a0, a1, bp, n, j0 + j, s0, s1) {
            break;
        }
        j += simd::SPAN;
    }
    accumulate_row_window::<SKIP_ZEROS>(a0, bp, n, j0 + j, &mut acc0[j..]);
    accumulate_row_window::<SKIP_ZEROS>(a1, bp, n, j0 + j, &mut acc1[j..]);
}

/// One full [`NR`]-wide scalar register window of
/// [`accumulate_row_window`]: a fixed-size array, so the `NR` chains stay
/// in vector registers across the whole `kk` loop.
#[inline]
fn register_window<const SKIP_ZEROS: bool>(
    a: &[f32],
    bp: &[f32],
    n: usize,
    j0: usize,
    acc: &mut [f32; NR],
) {
    let mut regs = *acc;
    for (kk, &av) in a.iter().enumerate() {
        if SKIP_ZEROS && av == 0.0 {
            continue;
        }
        let b_blk: &[f32; NR] = bp[kk * n + j0..kk * n + j0 + NR]
            .try_into()
            .expect("full register block");
        for (reg, &bv) in regs.iter_mut().zip(b_blk) {
            *reg += av * bv;
        }
    }
    *acc = regs;
}

/// The blocked loop nest shared by [`gemm`] and [`gemm_nt`], whose only
/// difference is how the slabs were packed: one parallel work item per
/// [`MC`]-row output block, slabs outer, row pairs inner. Each output
/// element is one [`accumulate_row_window`] chain from `+0.0`, rounded
/// to `O` once.
fn gemm_slabs<A: Scalar, O: Scalar>(a: &Matrix<A>, b: &pack::Slabs) -> Matrix<O> {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = Matrix::<O>::zeros(m, n);
    par::for_each_chunk_mut(out.as_mut_slice(), MC * n, |blk, out_blk| {
        // A non-empty chunk implies `n > 0`.
        let r0 = blk * MC;
        let rows = out_blk.len() / n;
        let mut a_f = scratch::take_zeroed(rows * k);
        pack::decode_slice(&a.as_slice()[r0 * k..(r0 + rows) * k], &mut a_f);
        for (j0, w, bp) in b.iter() {
            for (p, pair) in out_blk.chunks_mut(2 * n).enumerate() {
                let a0_f = &a_f[2 * p * k..(2 * p + 1) * k];
                let mut acc0 = [0.0f32; simd::SPAN];
                let mut acc1 = [0.0f32; simd::SPAN];
                if pair.len() == 2 * n {
                    let a1_f = &a_f[(2 * p + 1) * k..(2 * p + 2) * k];
                    accumulate_row_window2::<false>(
                        a0_f,
                        a1_f,
                        bp,
                        w,
                        0,
                        &mut acc0[..w],
                        &mut acc1[..w],
                    );
                    let (out0, out1) = pair.split_at_mut(n);
                    pack::encode_slice(&acc0[..w], &mut out0[j0..j0 + w]);
                    pack::encode_slice(&acc1[..w], &mut out1[j0..j0 + w]);
                } else {
                    accumulate_row_window::<false>(a0_f, bp, w, 0, &mut acc0[..w]);
                    pack::encode_slice(&acc0[..w], &mut pair[j0..j0 + w]);
                }
            }
        }
    });
    out
}

/// Computes `A × B` where `A` is `m×k` and `B` is `k×n`.
///
/// Inputs may be `Half` or `f32`; products are accumulated in `f32` and the
/// result is rounded to the output scalar type `O`. `B` is packed into
/// `f32` column slabs once up front; results are bit-identical to
/// [`naive::gemm`].
///
/// # Panics
///
/// Panics if the inner dimensions do not match.
///
/// # Examples
///
/// ```
/// use mg_tensor::{gemm, Matrix};
///
/// let a = Matrix::<f32>::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
/// let b = Matrix::<f32>::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
/// let c: Matrix<f32> = gemm(&a, &b);
/// assert_eq!(c.get(0, 0), 19.0);
/// ```
pub fn gemm<A: Scalar, B: Scalar, O: Scalar>(a: &Matrix<A>, b: &Matrix<B>) -> Matrix<O> {
    assert_eq!(
        a.cols(),
        b.rows(),
        "inner dimension mismatch: {}x{} * {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    gemm_slabs(a, &pack::Slabs::from_matrix(b))
}

/// Computes `A × Bᵀ` where `A` is `m×k` and `B` is `n×k`.
///
/// This is the shape of the attention-score computation `Q × Kᵀ`, provided
/// directly so callers do not materialise the transpose. `Bᵀ` is packed
/// into `f32` column slabs once up front, the exact memory shape [`gemm`]
/// walks; results are bit-identical to [`naive::gemm_nt`].
///
/// # Panics
///
/// Panics if `a.cols() != b.cols()`.
pub fn gemm_nt<A: Scalar, B: Scalar, O: Scalar>(a: &Matrix<A>, b: &Matrix<B>) -> Matrix<O> {
    assert_eq!(
        a.cols(),
        b.cols(),
        "inner dimension mismatch for A*B^T: {}x{} * ({}x{})^T",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    gemm_slabs(a, &pack::Slabs::from_matrix_transposed(b))
}

/// The shared gathered-row microkernel: dots one decoded `f32` row
/// against up to [`NR`] gathered panel rows at once, returning the
/// register block of sums.
///
/// This is the sparse-column counterpart of the dense slab microkernel
/// above: the caller gathers up to `NR` row slices (arbitrary, possibly
/// repeated columns of a [`crate::pack::Panel`]) and the `NR` accumulator
/// chains interleave and pipeline. The lanes are *independent* sums, so
/// vectorizing across them reorders nothing: lane `j` accumulates its
/// products in ascending-`k` order from the `-0.0` seed [`dot`]'s `Sum`
/// fold uses, making it bit-identical to `dot_f32(a, rows[j])`. The fine
/// SDDMM and the fused single-pass attention kernel both score their
/// sparse columns through this one function.
///
/// Only the first `width` lanes are meaningful; the rest stay `-0.0`
/// (callers with a ragged tail pass `width < NR` and unused lanes may be
/// empty slices).
///
/// # Panics
///
/// Panics if any of the first `width` rows differs in length from `a`.
#[inline]
pub fn dot_rows_block(a: &[f32], rows: &[&[f32]; NR], width: usize) -> [f32; NR] {
    let n = a.len();
    // Re-slice every active lane to exactly `n` elements (panicking on a
    // length mismatch): the inner loop then indexes slices whose length
    // provably equals the loop bound, so the bounds checks vanish.
    let mut lanes: [&[f32]; NR] = [&[]; NR];
    for (lane, row) in lanes[..width].iter_mut().zip(rows[..width].iter()) {
        assert_eq!(n, row.len(), "dot length mismatch");
        *lane = &row[..n];
    }
    if width == NR {
        if let Some(regs) = simd::dot_rows_block(a, &lanes) {
            return regs;
        }
    }
    let mut regs = [-0.0f32; NR];
    for (k, &av) in a.iter().enumerate() {
        for (reg, lane) in regs[..width].iter_mut().zip(lanes[..width].iter()) {
            *reg += av * lane[k];
        }
    }
    regs
}

/// Computes the dot product of two equal-length slices, accumulating in
/// `f32`. This is the inner primitive every fine-grained kernel uses.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn dot<A: Scalar, B: Scalar>(a: &[A], b: &[B]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| x.to_f32() * y.to_f32())
        .sum()
}

/// Dot product of two already-decoded `f32` slices, in the same
/// left-to-right accumulation order as [`dot`]. Kernels that stage their
/// operands in [`crate::pack::Panel`]s use this on panel rows; because
/// FP16→FP32 decode is exact, `dot_f32` over decoded rows is bit-identical
/// to [`dot`] over the original storage.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn dot_f32(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// The pre-packing reference implementations, retained verbatim as the
/// bit-exactness oracle for the packed microkernels.
///
/// The only semantic change from their original form is the removal of a
/// `continue` that skipped zero A elements in [`naive::gemm`]: skipping
/// dropped `0.0 × Inf = NaN` contributions, so the skip made the optimised
/// dense path disagree with an IEEE GEMM whenever B carried non-finite
/// values (e.g. mask-propagated `-Inf`). For finite data the skip was
/// value-neutral (`acc + ±0.0` cannot change a finite accumulator that is
/// never `-0.0`, and an f32 sum starting at `+0.0` never becomes `-0.0`),
/// so removing it changes no finite result.
pub mod naive {
    use crate::{par, Matrix, Scalar};

    /// Reference `A × B`: re-decodes every B element per output row.
    /// See [`crate::gemm`] for the packed equivalent.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions do not match.
    pub fn gemm<A: Scalar, B: Scalar, O: Scalar>(a: &Matrix<A>, b: &Matrix<B>) -> Matrix<O> {
        assert_eq!(
            a.cols(),
            b.rows(),
            "inner dimension mismatch: {}x{} * {}x{}",
            a.rows(),
            a.cols(),
            b.rows(),
            b.cols()
        );
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let mut out = Matrix::<O>::zeros(m, n);
        // Rows are independent; i-k-j loop order within a row for row-major
        // locality. The per-row f32 accumulation order is the same whether
        // the rows run serially or in parallel, so results are bit-identical.
        par::for_each_chunk_mut(out.as_mut_slice(), n, |i, out_row| {
            let a_row = a.row(i);
            let mut acc = vec![0.0f32; n];
            for (kk, &a_ik) in a_row.iter().enumerate().take(k) {
                let a_val = a_ik.to_f32();
                let b_row = b.row(kk);
                for (j, &b_kj) in b_row.iter().enumerate() {
                    acc[j] += a_val * b_kj.to_f32();
                }
            }
            for (j, &v) in acc.iter().enumerate() {
                out_row[j] = O::from_f32(v);
            }
        });
        out
    }

    /// Reference `A × Bᵀ`: re-decodes both operands inside the k-loop.
    /// See [`crate::gemm_nt`] for the packed equivalent.
    ///
    /// # Panics
    ///
    /// Panics if `a.cols() != b.cols()`.
    pub fn gemm_nt<A: Scalar, B: Scalar, O: Scalar>(a: &Matrix<A>, b: &Matrix<B>) -> Matrix<O> {
        assert_eq!(
            a.cols(),
            b.cols(),
            "inner dimension mismatch for A*B^T: {}x{} * ({}x{})^T",
            a.rows(),
            a.cols(),
            b.rows(),
            b.cols()
        );
        let (m, k, n) = (a.rows(), a.cols(), b.rows());
        let mut out = Matrix::<O>::zeros(m, n);
        par::for_each_chunk_mut(out.as_mut_slice(), n, |i, out_row| {
            let a_row = a.row(i);
            for (j, slot) in out_row.iter_mut().enumerate() {
                let b_row = b.row(j);
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += a_row[kk].to_f32() * b_row[kk].to_f32();
                }
                *slot = O::from_f32(acc);
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Half;

    #[test]
    fn identity_is_neutral() {
        let a = Matrix::<f32>::random(4, 4, 3);
        let id = Matrix::<f32>::from_fn(4, 4, |r, c| if r == c { 1.0 } else { 0.0 });
        let c: Matrix<f32> = gemm(&a, &id);
        assert_eq!(c, a);
    }

    #[test]
    fn known_product() {
        let a = Matrix::<f32>::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::<f32>::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c: Matrix<f32> = gemm(&a, &b);
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn gemm_nt_matches_gemm_with_transpose() {
        let a = Matrix::<f32>::random(5, 8, 1);
        let b = Matrix::<f32>::random(6, 8, 2);
        let via_nt: Matrix<f32> = gemm_nt(&a, &b);
        let via_t: Matrix<f32> = gemm(&a, &b.transpose());
        assert!(via_nt.max_abs_diff(&via_t) < 1e-5);
    }

    #[test]
    fn f16_inputs_accumulate_in_f32() {
        // Sum of 1024 copies of 1.0 overflows nothing in f32 accumulation,
        // and 1024 is exactly representable in Half.
        let a = Matrix::<Half>::from_fn(1, 1024, |_, _| Half::ONE);
        let b = Matrix::<Half>::from_fn(1024, 1, |_, _| Half::ONE);
        let c: Matrix<Half> = gemm(&a, &b);
        assert_eq!(c.get(0, 0).to_f32(), 1024.0);
    }

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0f32, 2.0, 3.0], &[4.0f32, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn dot_f32_matches_dot_over_decoded_rows() {
        let a: Vec<Half> = (0..37)
            .map(|i| Half::from_f32(i as f32 * 0.37 - 3.0))
            .collect();
        let b: Vec<Half> = (0..37)
            .map(|i| Half::from_f32(2.5 - i as f32 * 0.11))
            .collect();
        let a_f: Vec<f32> = a.iter().map(|v| v.to_f32()).collect();
        let b_f: Vec<f32> = b.iter().map(|v| v.to_f32()).collect();
        assert_eq!(dot(&a, &b).to_bits(), dot_f32(&a_f, &b_f).to_bits());
    }

    #[test]
    fn zero_times_inf_propagates_nan() {
        // A zero in A multiplied against an Inf in B must produce NaN, not
        // silently drop the contribution (IEEE 754 semantics). A skip that
        // special-cased `a_val == 0.0` used to lose this.
        let a = Matrix::<f32>::from_vec(1, 2, vec![0.0, 1.0]);
        let b = Matrix::<f32>::from_vec(2, 1, vec![f32::INFINITY, 2.0]);
        let c: Matrix<f32> = gemm(&a, &b);
        assert!(c.get(0, 0).is_nan(), "0 × Inf must contaminate the sum");
        let c_ref: Matrix<f32> = naive::gemm(&a, &b);
        assert!(c_ref.get(0, 0).is_nan());
    }

    #[test]
    fn non_finite_b_matches_naive_bitwise() {
        let mut b = Matrix::<Half>::random(3, 4, 9);
        b.set(0, 1, Half::INFINITY);
        b.set(2, 2, Half::NEG_INFINITY);
        b.set(1, 3, Half::NAN);
        let a = Matrix::<Half>::from_fn(2, 3, |r, c| {
            if (r + c) % 2 == 0 {
                Half::ZERO
            } else {
                Half::from_f32(0.5)
            }
        });
        let packed: Matrix<f32> = gemm(&a, &b);
        let reference: Matrix<f32> = naive::gemm(&a, &b);
        for (p, r) in packed.as_slice().iter().zip(reference.as_slice()) {
            assert_eq!(p.to_bits(), r.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn shape_mismatch_panics() {
        let a = Matrix::<f32>::zeros(2, 3);
        let b = Matrix::<f32>::zeros(2, 3);
        let _: Matrix<f32> = gemm(&a, &b);
    }

    #[test]
    fn dot_rows_block_lanes_match_dot_f32_bitwise() {
        // Every lane of the gathered-row microkernel must reproduce
        // `dot_f32` bit-for-bit, including repeated rows, non-finite
        // values, and ragged widths with empty trailing lanes — under
        // both dispatch modes (full width routes to the AVX2 kernel when
        // forced on and available; the assertions are mode-independent).
        let m = Matrix::<f32>::from_fn(6, 16, |r, c| {
            ((r * 31 + c * 7) as f32).sin() * 2.0 - ((c % 3) as f32)
        });
        let mut a: Vec<f32> = m.row(0).to_vec();
        a[3] = f32::INFINITY;
        a[7] = -0.0;
        simd::in_both_modes(|simd_on| {
            for width in 0..=NR {
                let mut rows: [&[f32]; NR] = [&[]; NR];
                for (j, row) in rows[..width].iter_mut().enumerate() {
                    *row = m.row((j * 5 + 1) % 6); // repeats once width > 6
                }
                let regs = dot_rows_block(&a, &rows, width);
                for (j, &reg) in regs[..width].iter().enumerate() {
                    assert_eq!(
                        reg.to_bits(),
                        dot_f32(&a, rows[j]).to_bits(),
                        "lane {j} at width {width} (simd {simd_on})"
                    );
                }
                for &reg in &regs[width..] {
                    assert_eq!(reg.to_bits(), (-0.0f32).to_bits(), "unused lane seed");
                }
            }
        });
    }

    #[test]
    #[should_panic(expected = "dot length mismatch")]
    fn dot_rows_block_length_mismatch_panics() {
        let a = [1.0f32; 4];
        let short = [1.0f32; 3];
        let mut rows: [&[f32]; NR] = [&[]; NR];
        rows[0] = &short;
        let _ = dot_rows_block(&a, &rows, 1);
    }

    #[test]
    fn accumulate_row_window_runs_match_dot_f32_bitwise() {
        // Over the d-major panel of K from a `-0.0` seed, each lane of a
        // window must equal `dot_f32` against its K row bit for bit, at
        // every width (tail, block and span paths) and every start,
        // non-finite values included, in both dispatch modes.
        let rows = simd::SPAN + NR + 5;
        let mut k = Matrix::<Half>::random(rows, 16, 21);
        k.set(2, 5, Half::INFINITY);
        k.set(9, 0, Half::NEG_INFINITY);
        let kt = pack::Panel::from_matrix_transposed(&k);
        let k_rows: Vec<Vec<f32>> = (0..rows)
            .map(|r| k.row(r).iter().map(|h| h.to_f32()).collect())
            .collect();
        let mut a: Vec<f32> = (0..16).map(|i| (i as f32 * 0.7).cos()).collect();
        a[4] = -0.0;
        simd::in_both_modes(|simd_on| {
            for width in 0..=rows {
                for c0 in 0..=(rows - width) {
                    let mut regs = vec![-0.0f32; width];
                    accumulate_row_window::<false>(&a, kt.as_slice(), rows, c0, &mut regs);
                    for (j, &reg) in regs.iter().enumerate() {
                        assert_eq!(
                            reg.to_bits(),
                            dot_f32(&a, &k_rows[c0 + j]).to_bits(),
                            "lane {j} at width {width} start {c0} (simd {simd_on})"
                        );
                    }
                }
            }
        });
    }

    #[test]
    fn accumulate_row_window_matches_per_column_passes_bitwise() {
        // A probability row against consecutive V rows must equal
        // `width` successive per-column `acc += p_j * v_j` passes bit for
        // bit, for head dims with and without a ragged tail, in both
        // dispatch modes.
        let max_dh = simd::SPAN + NR + 3;
        let v = Matrix::<f32>::from_fn(NR, max_dh, |j, d| {
            ((j * 13 + d * 7) as f32).sin() * 4.0 - 1.0
        });
        let p: Vec<f32> = (0..NR).map(|j| (j as f32 * 1.3).cos() * 2.0).collect();
        simd::in_both_modes(|simd_on| {
            for dh in [0usize, 3, NR, NR + 3, simd::SPAN, max_dh] {
                let panel: Vec<f32> = (0..NR).flat_map(|j| v.row(j)[..dh].to_vec()).collect();
                for width in 0..=NR {
                    let mut acc: Vec<f32> = (0..dh).map(|d| d as f32 * 0.5 - 1.0).collect();
                    let mut want = acc.clone();
                    for (j, &pj) in p[..width].iter().enumerate() {
                        for (slot, &vv) in want.iter_mut().zip(&v.row(j)[..dh]) {
                            *slot += pj * vv;
                        }
                    }
                    accumulate_row_window::<false>(&p[..width], &panel, dh, 0, &mut acc);
                    for (d, (got, w)) in acc.iter().zip(want.iter()).enumerate() {
                        assert_eq!(
                            got.to_bits(),
                            w.to_bits(),
                            "dh {dh} width {width} d {d} (simd {simd_on})"
                        );
                    }
                }
            }
        });
    }

    #[test]
    #[should_panic(expected = "window exceeds the panel row")]
    fn accumulate_row_window_rejects_windows_past_the_row() {
        let mut acc = [0.0f32; NR];
        accumulate_row_window::<false>(&[1.0; 4], &[0.0; 4 * 12], 12, 5, &mut acc);
    }
}
