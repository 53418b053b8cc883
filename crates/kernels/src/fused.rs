//! Fused single-pass sparse attention (a post-paper extension): the whole
//! SDDMM → softmax → SpMM chain in one kernel using an online softmax, so
//! the attention map `S`/`P` never touches device memory.
//!
//! The paper's methods (and its baselines) all materialize `S` and `P`;
//! fusing removes that traffic at the cost of recomputing scores and of a
//! heavier, lower-occupancy kernel. Comparing the two quantifies how much
//! of Multigrain's remaining time is attention-map traffic.
//!
//! Two functional paths, like `gemm`/`gemm::naive`:
//!
//! * [`fused_attention_compute`] — the register-tiled block-wise kernel:
//!   Q/K/V staged as f32 panels once, [`NR`] scores per step through the
//!   shared microkernels ([`accumulate_row_window`] on consecutive-column
//!   runs, [`mg_tensor::dot_rows_block`] on gathered columns), rows in
//!   parallel.
//! * [`naive`] — the retained scalar per-element path the tiled kernel is
//!   property-tested against, bit for bit.
//!
//! Both follow the softmax convention from
//! [`mg_tensor::softmax_rows`]: a row whose every score is `-inf` (FP16
//! negative overflow of the Q·K dot, or a fully masked row) produces an
//! all-zero output row instead of NaN-contaminating through
//! `exp(-inf − -inf)`.

use crate::cache::{filter_and_replicate, CacheHints};
use crate::fine::{fine_reuse_footprint, is_run, score_chunk};
use crate::{tuning, AttnDims};
use mg_gpusim::{DeviceSpec, KernelRuns, LaunchConfig, Runs, TbWork};
use mg_patterns::CompoundPattern;
use mg_tensor::{accumulate_row_window, pack::Panel, par, scratch, Half, Matrix, NR};

/// The online-softmax update chain for one row: feeds one already-scaled
/// score into the running max/sum/accumulator state, in strictly
/// per-column order. The naive path runs the same chain with per-element
/// operand decode; the two are property-tested bit-equal.
///
/// The `new_max == -inf` guard is the masked-row convention: while every
/// score seen so far is `-inf`, the state must stay at its seed instead
/// of computing `correction = exp(-inf − -inf) = NaN`. (A NaN score with
/// the state still at the seed also lands here — `f32::max` ignores NaN —
/// matching the reference softmax, whose max-fold ignores NaN the same
/// way and zero-fills the row.)
///
/// When the score does not raise the running max — every column after
/// the row's maximum — the correction is `exp(0) = 1`, and because
/// `x * 1.0` is exactly `x` in IEEE 754 the rescale collapses to a pure
/// `acc += p·v` accumulation: no correction `exp`, half the multiplies,
/// bit-identical to running the full rescale.
#[inline]
fn online_update(
    s: f32,
    running_max: &mut f32,
    running_sum: &mut f32,
    acc: &mut [f32],
    v_row: &[f32],
) {
    let new_max = running_max.max(s);
    if new_max == f32::NEG_INFINITY {
        return;
    }
    let p = (s - new_max).exp();
    if new_max == *running_max {
        *running_sum += p;
        for (slot, &vv) in acc.iter_mut().zip(v_row.iter()) {
            *slot += p * vv;
        }
    } else {
        let correction = (*running_max - new_max).exp();
        *running_sum = *running_sum * correction + p;
        for (slot, &vv) in acc.iter_mut().zip(v_row.iter()) {
            *slot = *slot * correction + p * vv;
        }
        *running_max = new_max;
    }
}

/// Functionally computes fused sparse attention with an online softmax,
/// register-tiled: for each row, a single sweep over the pattern's columns
/// maintains the running maximum, the rescaled exponential sum, and the
/// rescaled output accumulator — mathematically identical to the
/// three-step pipeline, and bit-identical to
/// [`naive::fused_attention_compute`] on every non-NaN element (NaN
/// *payload* bits are outside the contract: LLVM commutes `fadd` operands
/// per inlining context, and x86 propagates the first operand's payload).
///
/// Q, K, and V are staged as f32 panels once for the whole kernel; each
/// row scores [`NR`] columns at a time, eight independent accumulator
/// chains that pipeline instead of one serial dependent-add chain per
/// score. A chunk of consecutive columns runs on the shared row
/// microkernel [`accumulate_row_window`] over a d-major Kᵀ panel; a
/// chunk of scattered columns gathers its K rows for
/// [`mg_tensor::dot_rows_block`]. The online update chain then consumes
/// the score tile in strictly per-column order. Where a run chunk raises
/// no running max, its accumulate is one more [`accumulate_row_window`]
/// call: the probabilities against the run's contiguous V rows. Tiling
/// changes no accumulation order anywhere.
/// Rows run on the deterministic parallel layer and are independent, so
/// the output is bit-identical at any `MG_THREADS`.
///
/// # Panics
///
/// Panics if the matrices disagree with the pattern's sequence length.
pub fn fused_attention_compute(
    q: &Matrix<Half>,
    k: &Matrix<Half>,
    v: &Matrix<Half>,
    pattern: &CompoundPattern,
    scale: f32,
) -> Matrix<Half> {
    let l = pattern.seq_len();
    assert_eq!(q.rows(), l, "Q rows mismatch");
    assert_eq!(k.rows(), l, "K rows mismatch");
    assert_eq!(v.rows(), l, "V rows mismatch");
    let dh = q.cols();
    let mut out = Matrix::<Half>::zeros(l, dh);
    let q_panel = Panel::from_matrix(q);
    let k_panel = Panel::from_matrix(k);
    // K is staged twice: d-major for the vectorized consecutive-run
    // microkernel (sorted column lists are mostly windows), row-major for
    // the gathered fallback on scattered columns.
    let k_t = Panel::from_matrix_transposed(k);
    let v_panel = Panel::from_matrix(v);

    par::for_each_chunk_mut(out.as_mut_slice(), dh, |r, out_row| {
        let cols = pattern.row_columns(r);
        if cols.is_empty() {
            return;
        }
        let q_row = q_panel.row(r);
        let mut running_max = f32::NEG_INFINITY;
        let mut running_sum = 0.0f32;
        // Per-row accumulator from the pooled scratch arena instead of a
        // fresh allocation per row.
        let mut acc = scratch::take_zeroed(dh);
        // `cols` is sorted and deduplicated, so `is_run` spots the
        // chunks of consecutive columns.
        for chunk in cols.chunks(NR) {
            let cw = chunk.len();
            let regs = score_chunk(q_row, chunk, &k_panel, &k_t);
            let mut s = [f32::NEG_INFINITY; NR];
            for (sj, &raw) in s[..cw].iter_mut().zip(regs[..cw].iter()) {
                // Score rounded through FP16 like the pipeline's stored
                // S, then scaled.
                // mg-lint: allow(P1): single rounding of an f32 score, not a per-element operand decode
                *sj = Half::from_f32(raw).to_f32() * scale;
            }
            // `f32::max` ignores NaN, exactly like the per-column
            // `running_max.max(s)` chain, so a chunk of NaN scores still
            // takes whichever branch the per-column chain would.
            let chunk_max = s[..cw].iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
            if is_run(chunk) && running_max != f32::NEG_INFINITY && chunk_max <= running_max {
                // No score in this run raises the running max, so every
                // column is the equal-max case: `correction = 1` for all
                // of them, and the run's V rows are one contiguous panel
                // that the row microkernel walks in one pass over the
                // accumulator. Each element still receives its
                // `p_j * v_j` terms in strictly ascending column order,
                // so this is bit-identical to `online_update` per column.
                let mut p = [0.0f32; NR];
                for (pj, &sj) in p[..cw].iter_mut().zip(s[..cw].iter()) {
                    *pj = (sj - running_max).exp();
                    running_sum += *pj;
                }
                let v_run = &v_panel.as_slice()[chunk[0] * dh..(chunk[0] + cw) * dh];
                accumulate_row_window::<false>(&p[..cw], v_run, dh, 0, &mut acc);
            } else {
                for (&sj, &c) in s[..cw].iter().zip(chunk) {
                    online_update(
                        sj,
                        &mut running_max,
                        &mut running_sum,
                        &mut acc,
                        v_panel.row(c),
                    );
                }
            }
        }
        if running_max == f32::NEG_INFINITY {
            // Every score was -inf (or the row's only scores were NaN
            // against an otherwise -inf row): the reference softmax
            // defines this row as all zeros, which `out` already is.
            return;
        }
        let inv = 1.0 / running_sum;
        for (slot, out_val) in acc.iter().zip(out_row.iter_mut()) {
            *out_val = Half::from_f32(slot * inv);
        }
    });
    out
}

/// The retained scalar reference path: one score at a time, operands
/// decoded per element straight from the FP16 matrices, rows in sequence
/// on one thread. Kept for bit-level property tests against the tiled
/// kernel, exactly like `gemm::naive`.
pub mod naive {
    use super::*;
    use mg_tensor::dot;

    /// Scalar fused attention; same contract (and bit-identical output)
    /// as the tiled [`super::fused_attention_compute`].
    ///
    /// # Panics
    ///
    /// Panics if the matrices disagree with the pattern's sequence
    /// length.
    pub fn fused_attention_compute(
        q: &Matrix<Half>,
        k: &Matrix<Half>,
        v: &Matrix<Half>,
        pattern: &CompoundPattern,
        scale: f32,
    ) -> Matrix<Half> {
        let l = pattern.seq_len();
        assert_eq!(q.rows(), l, "Q rows mismatch");
        assert_eq!(k.rows(), l, "K rows mismatch");
        assert_eq!(v.rows(), l, "V rows mismatch");
        let dh = q.cols();
        let mut out = Matrix::<Half>::zeros(l, dh);
        let mut acc = vec![0.0f32; dh];
        for r in 0..l {
            let cols = pattern.row_columns(r);
            if cols.is_empty() {
                continue;
            }
            let mut running_max = f32::NEG_INFINITY;
            let mut running_sum = 0.0f32;
            acc.fill(0.0);
            for &c in &cols {
                // The exact chain of `online_update`, with V decoded per
                // element inside the loop (the pre-packing structure):
                // the float operations and their order are identical, so
                // the two paths are bit-equal.
                // mg-lint: allow(P1): the naive path decodes per element by design, like gemm::naive
                let s = Half::from_f32(dot(q.row(r), k.row(c))).to_f32() * scale;
                let new_max = running_max.max(s);
                if new_max == f32::NEG_INFINITY {
                    continue;
                }
                let p = (s - new_max).exp();
                let v_row = v.row(c);
                if new_max == running_max {
                    running_sum += p;
                    for (slot, &vv) in acc.iter_mut().zip(v_row.iter()) {
                        // mg-lint: allow(P1): the naive path decodes per element by design, like gemm::naive
                        *slot += p * vv.to_f32();
                    }
                } else {
                    let correction = (running_max - new_max).exp();
                    running_sum = running_sum * correction + p;
                    for (slot, &vv) in acc.iter_mut().zip(v_row.iter()) {
                        // mg-lint: allow(P1): the naive path decodes per element by design, like gemm::naive
                        *slot = *slot * correction + p * vv.to_f32();
                    }
                    running_max = new_max;
                }
            }
            if running_max == f32::NEG_INFINITY {
                continue;
            }
            let inv = 1.0 / running_sum;
            let out_row = out.row_mut(r);
            for (d, &slot) in acc.iter().enumerate() {
                out_row[d] = Half::from_f32(slot * inv);
            }
        }
        out
    }
}

/// Timing profile of the tiled fused kernel: one thread block per row
/// group, staging the group's *distinct* K/V rows through shared memory
/// once (the BSR-row-block reuse the tiling buys) rather than re-reading
/// them per non-zero. No `S`/`P` reads or writes; scores cost tensor
/// MACs, the online rescale costs CUDA flops and SFU ops, and only `Q`,
/// `K`, `V`, and `C` move through the hierarchy. The register-tiled
/// score loop pipelines like the coarse kernels, so thread blocks carry
/// the pipelined stall charge, not the fine kernels' latency-bound one.
pub fn fused_attention_profile(
    spec: &DeviceSpec,
    dims: &AttnDims,
    pattern: &CompoundPattern,
    name: &str,
) -> KernelRuns {
    // Row-group per thread block (like the coarse kernels' block rows).
    let group = 64usize.min(dims.seq_len).max(1);
    let dh = dims.head_dim as u64;
    let launch = LaunchConfig {
        threads_per_tb: 256,
        regs_per_thread: 160, // accumulators live in registers
        smem_per_tb: 2 * group * dims.head_dim * 2,
    };
    let groups = dims.seq_len.div_ceil(group);
    let per_instance: Runs = (0..groups)
        .map(|g| {
            let rows = g * group..((g + 1) * group).min(dims.seq_len);
            let mut nnz = 0u64;
            let mut max_row = 0u64;
            let mut uniq: Vec<usize> = Vec::new();
            for r in rows {
                let cols = pattern.row_columns(r);
                nnz += cols.len() as u64;
                max_row = max_row.max(cols.len() as u64);
                uniq.extend_from_slice(&cols);
            }
            uniq.sort_unstable();
            uniq.dedup();
            let uniq = uniq.len() as u64;
            TbWork {
                tensor_macs: nnz * dh,          // Q·K scores
                cuda_flops: nnz * (dh * 2 + 8), // P·V accumulate + rescale
                sfu_ops: nnz * 2,               // exp for score and correction
                // Q group once; each distinct K and V row staged once per
                // row group and reused from shared memory; a column index
                // per valid element.
                l2_read: (group as u64) * dh * 2 + uniq * 2 * dh * 2 + nnz * 4,
                dram_read: 0,
                dram_write: (group as u64) * dh * 2, // only the context
                // The score dots pipeline, but the per-column rescale is
                // a loop-carried chain: the group's longest row
                // serializes the block.
                stall_cycles: tuning::PIPELINED_STALL_CYCLES
                    + max_row * tuning::FUSED_CHAIN_STALL_PER_NNZ,
            }
        })
        .filter(|w| w.cuda_flops > 0)
        .collect();
    let unique = 3 * dims.operand_bytes() * dims.instances() as u64;
    let footprint = fine_reuse_footprint(&pattern.to_csr::<Half>(), dims.head_dim, 16) * 2;
    filter_and_replicate(
        spec,
        name,
        launch,
        per_instance,
        dims.instances(),
        CacheHints {
            unique_bytes: unique,
            reuse_footprint: footprint,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_patterns::AtomicPattern;
    use mg_tensor::{gemm, gemm_nt, softmax_rows};

    fn pattern() -> CompoundPattern {
        CompoundPattern::new(64)
            .with(AtomicPattern::Local { window: 8 })
            .with(AtomicPattern::Random {
                per_row: 4,
                seed: 9,
            })
            .with(AtomicPattern::Global {
                tokens: vec![0, 30],
            })
    }

    #[test]
    fn fused_matches_three_step_reference() {
        let p = pattern();
        let q = Matrix::<Half>::random(64, 16, 1);
        let k = Matrix::<Half>::random(64, 16, 2);
        let v = Matrix::<Half>::random(64, 16, 3);
        let fused = fused_attention_compute(&q, &k, &v, &p, 0.25);
        let s: Matrix<Half> = gemm_nt(&q, &k);
        let probs: Matrix<Half> = softmax_rows(&s, 0.25, Some(&p.to_dense_mask()));
        let reference: Matrix<Half> = gemm(&probs, &v);
        let diff = fused.max_abs_diff(&reference);
        assert!(diff < 0.02, "online softmax diverges: {diff}");
    }

    #[test]
    fn tiled_matches_naive_bitwise() {
        let p = pattern();
        let q = Matrix::<Half>::random(64, 16, 11);
        let k = Matrix::<Half>::random(64, 16, 12);
        let v = Matrix::<Half>::random(64, 16, 13);
        let tiled = fused_attention_compute(&q, &k, &v, &p, 0.25);
        let reference = naive::fused_attention_compute(&q, &k, &v, &p, 0.25);
        for (a, b) in tiled.as_slice().iter().zip(reference.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn fused_handles_padded_rows() {
        let p = CompoundPattern::new(32)
            .with(AtomicPattern::Dense)
            .with_valid_len(20);
        let q = Matrix::<Half>::random(32, 8, 4);
        let out = fused_attention_compute(&q, &q.clone(), &q.clone(), &p, 1.0);
        for r in 20..32 {
            assert!(
                out.row(r).iter().all(|v| v.to_f32() == 0.0),
                "padded row {r}"
            );
        }
    }

    #[test]
    fn all_neg_inf_row_is_zeros_not_nan() {
        // Regression: Q·K = -inf for every column of a row (FP16 negative
        // overflow) used to NaN-contaminate the whole row through
        // `correction = exp(-inf − -inf)`. The softmax convention
        // (`softmax_rows` on a fully masked row) is all zeros.
        let p = CompoundPattern::new(4).with(AtomicPattern::Dense);
        let dh = 8;
        // Row 0 of Q is huge-negative against an all-ones K: every score
        // overflows FP16 to -inf. Other rows stay ordinary.
        let q = Matrix::<Half>::from_fn(4, dh, |r, _| {
            if r == 0 {
                Half::from_f32(-60000.0)
            } else {
                Half::from_f32(1e-4)
            }
        });
        let k = Matrix::<Half>::from_fn(4, dh, |_, _| Half::from_f32(60000.0));
        let v = Matrix::<Half>::random(4, dh, 7);
        for out in [
            fused_attention_compute(&q, &k, &v, &p, 1.0),
            naive::fused_attention_compute(&q, &k, &v, &p, 1.0),
        ] {
            assert!(
                out.row(0).iter().all(|h| h.to_bits() == 0),
                "all -inf row must be all zeros, got {:?}",
                out.row(0)
            );
            for r in 1..4 {
                assert!(
                    out.row(r).iter().all(|h| !h.to_f32().is_nan()),
                    "row {r} contaminated"
                );
            }
        }
    }

    #[test]
    fn leading_neg_inf_prefix_matches_reference() {
        // A row whose FIRST columns score -inf but later ones are finite:
        // the guard must skip the seed-state updates, then the finite
        // tail must produce the same probabilities as the three-step
        // reference (the -inf entries contribute exp(-inf) = 0).
        let p = CompoundPattern::new(4).with(AtomicPattern::Dense);
        let dh = 8;
        let q = Matrix::<Half>::from_fn(4, dh, |_, _| Half::from_f32(0.5));
        // Columns 0 and 1 of K overflow the score to -inf; 2 and 3 are
        // ordinary.
        let k = Matrix::<Half>::from_fn(4, dh, |r, _| {
            if r < 2 {
                Half::from_f32(-60000.0)
            } else {
                Half::from_f32(0.25 + r as f32 * 0.125)
            }
        });
        let v = Matrix::<Half>::random(4, dh, 8);
        let fused = fused_attention_compute(&q, &k, &v, &p, 1.0);
        let s: Matrix<Half> = gemm_nt(&q, &k);
        let probs: Matrix<Half> = softmax_rows(&s, 1.0, Some(&p.to_dense_mask()));
        let reference: Matrix<Half> = gemm(&probs, &v);
        assert!(!fused.as_slice().iter().any(|h| h.to_f32().is_nan()));
        let diff = fused.max_abs_diff(&reference);
        assert!(diff < 0.02, "prefix -inf diverges: {diff}");
    }

    #[test]
    fn fused_profile_writes_only_the_context() {
        let spec = DeviceSpec::a100();
        let dims = AttnDims {
            seq_len: 64,
            head_dim: 16,
            batch: 1,
            heads: 2,
        };
        let prof = fused_attention_profile(&spec, &dims, &pattern(), "fused");
        // Writes = context only (25% eviction floor applies): the
        // attention map's 2 bytes per non-zero never appear anywhere in
        // the write stream.
        let raw_context = (64 * 16 * 2 * 2) as u64;
        assert_eq!(prof.total().dram_write, raw_context / 4);
    }

    #[test]
    fn fused_profile_charges_double_exp() {
        let spec = DeviceSpec::a100();
        let dims = AttnDims {
            seq_len: 64,
            head_dim: 16,
            batch: 1,
            heads: 1,
        };
        let prof = fused_attention_profile(&spec, &dims, &pattern(), "fused");
        assert_eq!(prof.total().sfu_ops, 2 * pattern().nnz() as u64);
    }

    #[test]
    fn fused_profile_reads_distinct_kv_rows_once_per_group() {
        // The tiled kernel stages each distinct K/V row once per 64-row
        // group: for a window pattern the group touches far fewer
        // distinct columns than it has non-zeros, so L2 read traffic must
        // sit well below the per-element re-read the scalar kernel paid.
        let spec = DeviceSpec::a100();
        let dims = AttnDims {
            seq_len: 64,
            head_dim: 16,
            batch: 1,
            heads: 1,
        };
        let p = CompoundPattern::new(64).with(AtomicPattern::Local { window: 8 });
        let prof = fused_attention_profile(&spec, &dims, &p, "fused");
        let dh = 16u64;
        let nnz = p.nnz() as u64;
        let per_element = 64 * dh * 2 + nnz * 2 * dh * 2 + nnz * 4;
        let total_l2 = prof.total().l2_read;
        // One 64-row group touches only 64 distinct K/V rows but ~556
        // non-zeros: staging each distinct row once cuts the charged L2
        // traffic several-fold even after the cache model's adjustments.
        assert!(total_l2 * 4 < per_element, "{total_l2} vs {per_element}");
    }
}
