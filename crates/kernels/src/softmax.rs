//! Sparse softmax kernels with fused scaling and masking — paper §3.3.
//!
//! Three sparse variants plus a dense one:
//!
//! * [`compound_softmax_profile`] / [`compound_softmax_compute`] — the
//!   paper's kernel: a single kernel sweeps each row's non-zero blocks
//!   (BSR) *and* non-zero elements (CSR) through the three safe-softmax
//!   steps, so rows mixing coarse and fine elements normalize correctly.
//! * [`element_softmax_profile`] — Sputnik-style: element-wise CSR
//!   processing; exact, but per-element metadata and an extra
//!   scale/mask pass cost memory requests (§5.2.2).
//! * [`blocked_softmax_profile`] — Triton-style: blocked processing that
//!   wastes work on every invalid element inside stored blocks.
//! * [`dense_softmax_profile`] — TensorRT-style row softmax for the
//!   global-pattern rows.

use crate::cache::{filter_and_replicate, CacheHints};
use crate::AttnDims;
use mg_gpusim::{DeviceSpec, KernelRuns, LaunchConfig, Runs, TbWork};
use mg_patterns::BlockedPattern;
use mg_sparse::{Bsr, Csr};
use mg_tensor::pack::{decode_slice, encode_slice};
use mg_tensor::{par, scratch, Half, Matrix};

fn softmax_launch() -> LaunchConfig {
    LaunchConfig {
        threads_per_tb: 256,
        regs_per_thread: 40,
        smem_per_tb: 4 * 1024,
    }
}

/// Per-valid-element costs of the compound kernel: the row is staged once,
/// swept in registers, written once. Mask values ride with the coarse
/// blocks (storage-aligned, coalesced).
const COMPOUND_READ_B: u64 = 6; // one staging read + one L2-resident re-read
const COMPOUND_FLOPS: u64 = 8;
/// Sputnik-style costs: separate scale/mask pass (extra read+write) and a
/// 4-byte column index per element to index the mask matrix.
const ELEMENT_READ_B: u64 = 14;
const ELEMENT_WRITE_B: u64 = 4;
const ELEMENT_FLOPS: u64 = 10;

/// Profile of the compound sparse softmax: one thread block per output
/// block row sweeping that row group's BSR blocks and CSR elements.
pub fn compound_softmax_profile(
    spec: &DeviceSpec,
    dims: &AttnDims,
    coarse: Option<&BlockedPattern>,
    fine: Option<&Csr<Half>>,
    name: &str,
) -> KernelRuns {
    let block = coarse.map_or(64, |c| c.structure.block_size());
    let block_rows = dims.seq_len.div_ceil(block);
    let per_instance: Runs = (0..block_rows)
        .map(|br| {
            let coarse_elems: u64 = coarse.map_or(0, |c| {
                if br < c.structure.block_rows() {
                    (c.structure.block_row_nnz(br) * block * block) as u64
                } else {
                    0
                }
            });
            let fine_elems: u64 = fine.map_or(0, |f| {
                (br * block..((br + 1) * block).min(f.rows()))
                    .map(|r| f.row_nnz(r) as u64)
                    .sum()
            });
            let elems = coarse_elems + fine_elems;
            TbWork {
                tensor_macs: 0,
                cuda_flops: elems * COMPOUND_FLOPS,
                sfu_ops: elems,
                // Values + coarse-aligned mask (2B) + per-block metadata.
                l2_read: elems * COMPOUND_READ_B + coarse_elems * 2 + 64,
                dram_read: 0,
                dram_write: elems * 2,
                stall_cycles: 0,
            }
        })
        .filter(|w| w.cuda_flops > 0)
        .collect();
    finish_softmax_profile(spec, dims, per_instance, name)
}

/// Profile of the Sputnik-style element-wise sparse softmax over a CSR
/// matrix (separate scale/mask pass, per-element metadata).
// mg-lint: allow(C1): baseline-library cost model (Sputnik); its numbers are compound_softmax_compute's, only the kernel shape differs
pub fn element_softmax_profile(
    spec: &DeviceSpec,
    dims: &AttnDims,
    structure: &Csr<Half>,
    name: &str,
) -> KernelRuns {
    let per_instance: Runs = (0..structure.rows())
        .map(|r| {
            let n = structure.row_nnz(r) as u64;
            TbWork {
                tensor_macs: 0,
                cuda_flops: n * ELEMENT_FLOPS,
                sfu_ops: n,
                l2_read: n * ELEMENT_READ_B + 8,
                dram_read: 0,
                dram_write: n * ELEMENT_WRITE_B,
                stall_cycles: 0,
            }
        })
        .collect();
    finish_softmax_profile(spec, dims, per_instance, name)
}

/// Profile of the Triton-style blocked sparse softmax: every stored block
/// element is processed, valid or not (the §5.2.2 waste).
// mg-lint: allow(C1): baseline-library cost model (Triton blocked); its numbers are compound_softmax_compute's over the blocked pattern
pub fn blocked_softmax_profile(
    spec: &DeviceSpec,
    dims: &AttnDims,
    blocked: &BlockedPattern,
    name: &str,
) -> KernelRuns {
    let block = blocked.structure.block_size();
    let per_instance: Runs = (0..blocked.structure.block_rows())
        .map(|br| {
            let stored = (blocked.structure.block_row_nnz(br) * block * block) as u64;
            TbWork {
                tensor_macs: 0,
                cuda_flops: stored * COMPOUND_FLOPS,
                sfu_ops: stored, // exp(-inf) still occupies the SFU
                // Values over the passes + mask per stored element.
                l2_read: stored * (COMPOUND_READ_B + 2) + 64,
                dram_read: 0,
                dram_write: stored * 2,
                stall_cycles: 0,
            }
        })
        .filter(|w| w.cuda_flops > 0)
        .collect();
    finish_softmax_profile(spec, dims, per_instance, name)
}

/// Profile of the dense row softmax (TensorRT-style) used for the global
/// rows: `rows` dense rows of `seq_len` elements each.
pub fn dense_softmax_profile(
    spec: &DeviceSpec,
    dims: &AttnDims,
    rows: usize,
    name: &str,
) -> KernelRuns {
    let n = dims.seq_len as u64;
    let mut per_instance = Runs::new();
    per_instance.push(
        TbWork {
            tensor_macs: 0,
            cuda_flops: n * COMPOUND_FLOPS,
            sfu_ops: n,
            l2_read: n * COMPOUND_READ_B,
            dram_read: 0,
            dram_write: n * 2,
            stall_cycles: 0,
        },
        rows,
    );
    finish_softmax_profile(spec, dims, per_instance, name)
}

fn finish_softmax_profile(
    spec: &DeviceSpec,
    dims: &AttnDims,
    per_instance: Runs,
    name: &str,
) -> KernelRuns {
    // Softmax streams its input once; raw touches are nearly unique.
    let raw = per_instance.total().l2_read * dims.instances() as u64;
    filter_and_replicate(
        spec,
        name,
        softmax_launch(),
        per_instance,
        dims.instances(),
        CacheHints {
            unique_bytes: raw,
            reuse_footprint: raw,
        },
    )
}

/// Functionally computes the compound sparse softmax over a row-aligned
/// pair of parts: BSR blocks (with a storage-aligned validity mask) and
/// CSR elements. Scaling is fused; masked block elements produce zero.
///
/// Both parts participate in the *same* row-wise normalization — the
/// correctness property §3.3 is about.
///
/// # Panics
///
/// Panics if the parts' row counts disagree, or the mask length does not
/// match the BSR storage.
pub fn compound_softmax_compute(
    coarse: Option<(&Bsr<Half>, &[f32])>,
    fine: Option<&Csr<Half>>,
    scale: f32,
) -> (Option<Bsr<Half>>, Option<Csr<Half>>) {
    let rows = coarse
        .map(|(b, _)| b.rows())
        .or_else(|| fine.map(Csr::rows))
        .unwrap_or(0);
    if let (Some((b, m)), Some(f)) = (coarse, fine) {
        assert_eq!(b.rows(), f.rows(), "parts must cover the same rows");
        assert_eq!(
            m.len(),
            b.stored_elements(),
            "mask must align with BSR storage"
        );
    }
    let mut coarse_out = coarse.map(|(b, _)| b.clone());
    let mut fine_out = fine.cloned();

    let block = coarse.map_or(1, |(b, _)| b.block_size());
    // Rows in the same block row share BSR blocks, so the parallel unit is
    // a block-row *group* of `block` consecutive rows: each group owns a
    // contiguous slice of the coarse value storage (its block row) and of
    // the fine value storage (its CSR rows). Per-row reduction order is
    // unchanged, so results are bit-identical to the serial sweep.
    let groups = rows.div_ceil(block.max(1));
    let sq = block * block;
    let coarse_bounds: Vec<usize> = coarse
        .map(|(b, _)| {
            (0..=groups)
                .map(|g| b.block_row_offsets()[g] * sq)
                .collect()
        })
        .unwrap_or_default();
    let fine_bounds: Vec<usize> = fine
        .map(|f| {
            (0..=groups)
                .map(|g| {
                    if g < groups {
                        f.row_range(g * block).start
                    } else {
                        f.nnz()
                    }
                })
                .collect()
        })
        .unwrap_or_default();

    let group_rows = |g: usize| (g * block)..((g + 1) * block).min(rows);
    match (&mut coarse_out, &mut fine_out) {
        (Some(co), Some(fo)) => {
            par::for_each_part_mut2(
                co.values_mut(),
                &coarse_bounds,
                fo.values_mut(),
                &fine_bounds,
                |g, cvals, fvals| {
                    for r in group_rows(g) {
                        softmax_one_row(
                            coarse,
                            fine,
                            Some((cvals, coarse_bounds[g] / sq)),
                            Some((fvals, fine_bounds[g])),
                            r,
                            block,
                            scale,
                        );
                    }
                },
            );
        }
        (Some(co), None) => {
            par::for_each_part_mut(co.values_mut(), &coarse_bounds, |g, cvals| {
                for r in group_rows(g) {
                    softmax_one_row(
                        coarse,
                        fine,
                        Some((cvals, coarse_bounds[g] / sq)),
                        None,
                        r,
                        block,
                        scale,
                    );
                }
            });
        }
        (None, Some(fo)) => {
            par::for_each_part_mut(fo.values_mut(), &fine_bounds, |g, fvals| {
                for r in group_rows(g) {
                    softmax_one_row(
                        coarse,
                        fine,
                        None,
                        Some((fvals, fine_bounds[g])),
                        r,
                        block,
                        scale,
                    );
                }
            });
        }
        (None, None) => {}
    }
    (coarse_out, fine_out)
}

/// Runs the three safe-softmax passes over one row, writing the results
/// into the caller's slices of the output value storage.
///
/// `coarse_vals` is `(group's block values, index of the group's first
/// stored block)`; `fine_vals` is `(group's CSR values, index of the
/// group's first stored element)`.
///
/// The row's coarse and fine values are decoded once into a pooled
/// buffer, in visiting order (block by block, then the CSR elements).
/// Pass 2 keeps each valid element's `(v·scale − max).exp()` in place of
/// its value, so pass 3 only scales and encodes: the expressions and the
/// summation order are the three-pass sweep's, with `exp` evaluated once
/// per element instead of twice.
fn softmax_one_row(
    coarse: Option<(&Bsr<Half>, &[f32])>,
    fine: Option<&Csr<Half>>,
    coarse_vals: Option<(&mut [Half], usize)>,
    fine_vals: Option<(&mut [Half], usize)>,
    r: usize,
    block: usize,
    scale: f32,
) {
    let (lr, sq) = (r % block, block * block);
    let blocks = coarse.map_or(0..0, |(bsr, _)| bsr.block_row_range(r / block));
    let elems = fine.map_or(0..0, |csr| csr.row_range(r));
    let mut row = scratch::take_zeroed(blocks.len() * block + elems.len());
    let (coarse_row, fine_row) = row.split_at_mut(blocks.len() * block);
    // The row's slice of each stored block, with its validity mask.
    let segments = || {
        coarse.into_iter().flat_map(|(bsr, mask)| {
            blocks.clone().map(move |i| {
                let at = i * sq + lr * block..i * sq + (lr + 1) * block;
                (&bsr.values()[at.clone()], &mask[at])
            })
        })
    };
    for ((src, _), dst) in segments().zip(coarse_row.chunks_exact_mut(block)) {
        decode_slice(src, dst);
    }
    if let Some(csr) = fine {
        decode_slice(&csr.values()[elems], fine_row);
    }
    // Pass 1: max over valid elements of the row.
    let mut max = f32::NEG_INFINITY;
    for ((_, mask), vals) in segments().zip(coarse_row.chunks_exact(block)) {
        for (&v, &m) in vals.iter().zip(mask) {
            if m == 0.0 {
                max = max.max(v * scale);
            }
        }
    }
    for &v in fine_row.iter() {
        max = max.max(v * scale);
    }
    // Pass 2: exponential sum, keeping each exponential (invalid slots
    // become the zero pass 3 writes for them).
    let mut sum = 0.0f32;
    for ((_, mask), vals) in segments().zip(coarse_row.chunks_exact_mut(block)) {
        for (v, &m) in vals.iter_mut().zip(mask) {
            *v = if m == 0.0 {
                let e = (*v * scale - max).exp();
                sum += e;
                e
            } else {
                0.0
            };
        }
    }
    for v in fine_row.iter_mut() {
        *v = (*v * scale - max).exp();
        sum += *v;
    }
    // Pass 3: normalize and write back. A positive sum is at least 1 (the
    // element attaining the max contributes `exp(0)`), so `inv` is finite
    // and scaling an invalid slot's zero leaves it `+0.0`.
    if sum > 0.0 {
        let inv = 1.0 / sum;
        row.iter_mut().for_each(|v| *v *= inv);
    } else {
        row.fill(0.0);
    }
    let (coarse_row, fine_row) = row.split_at(blocks.len() * block);
    if let Some((vals, first_block)) = coarse_vals {
        for (i, src) in blocks.zip(coarse_row.chunks_exact(block)) {
            let at = (i - first_block) * sq + lr * block;
            encode_slice(src, &mut vals[at..at + block]);
        }
    }
    if let (Some(csr), Some((vals, base))) = (fine, fine_vals) {
        let at = csr.row_range(r).start - base;
        encode_slice(fine_row, &mut vals[at..at + fine_row.len()]);
    }
}

/// Functionally computes the dense row softmax used for global rows.
pub fn dense_softmax_compute(rows: &Matrix<Half>, scale: f32) -> Matrix<Half> {
    mg_tensor::softmax_rows(rows, scale, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_patterns::{AtomicPattern, CompoundPattern, SlicedPattern};
    use mg_tensor::softmax_rows;

    fn dims() -> AttnDims {
        AttnDims {
            seq_len: 32,
            head_dim: 8,
            batch: 1,
            heads: 1,
        }
    }

    /// Build a sliced pattern, fill both parts with SDDMM values, softmax
    /// them with the compound kernel, and compare to the dense reference.
    #[test]
    fn compound_softmax_matches_dense_reference() {
        let pattern = CompoundPattern::new(32)
            .with(AtomicPattern::Local { window: 4 })
            .with(AtomicPattern::Random {
                per_row: 3,
                seed: 2,
            });
        let sliced = SlicedPattern::from_compound(&pattern, 4).expect("aligned");
        let q = Matrix::<Half>::random(32, 8, 1);
        let k = Matrix::<Half>::random(32, 8, 2);

        let coarse_s = sliced
            .coarse()
            .map(|c| crate::coarse_sddmm_compute(&q, &k, &c.structure));
        let fine_s = sliced.fine().map(|f| crate::fine_sddmm_compute(&q, &k, f));

        let scale = 0.25;
        let (pc, pf) = compound_softmax_compute(
            coarse_s
                .as_ref()
                .map(|s| (s, sliced.coarse().expect("coarse").mask.as_slice())),
            fine_s.as_ref(),
            scale,
        );

        // Dense reference over the same pattern.
        let s_ref: Matrix<f32> = mg_tensor::gemm_nt(&q, &k);
        let p_ref: Matrix<f32> = softmax_rows(&s_ref, scale, Some(&pattern.to_dense_mask()));

        // Reassemble the sparse result densely.
        let mut got = Matrix::<f32>::zeros(32, 32);
        if let Some(pc) = &pc {
            let mask = &sliced.coarse().expect("coarse").mask;
            let b = pc.block_size();
            let sq = b * b;
            for (i, (br, bc, elems)) in pc.iter_blocks().enumerate() {
                for e in 0..sq {
                    if mask[i * sq + e] == 0.0 {
                        got.set(br * b + e / b, bc * b + e % b, elems[e].to_f32());
                    }
                }
            }
        }
        if let Some(pf) = &pf {
            for (r, c, v) in pf.iter() {
                got.set(r, c, v.to_f32());
            }
        }
        assert!(
            got.max_abs_diff(&p_ref) < 0.01,
            "diff {}",
            got.max_abs_diff(&p_ref)
        );
    }

    #[test]
    fn masked_block_elements_are_zero_and_rows_sum_to_one() {
        let pattern = CompoundPattern::new(32).with(AtomicPattern::Local { window: 6 });
        let sliced = SlicedPattern::from_compound(&pattern, 8).expect("aligned");
        let q = Matrix::<Half>::random(32, 8, 3);
        let k = Matrix::<Half>::random(32, 8, 4);
        let coarse = sliced.coarse().expect("coarse");
        let s = crate::coarse_sddmm_compute(&q, &k, &coarse.structure);
        let (pc, _) = compound_softmax_compute(Some((&s, coarse.mask.as_slice())), None, 0.3);
        let pc = pc.expect("coarse output");
        // Sum each row of the dense rendering: must be ~1 (pattern rows are
        // non-empty), and masked slots exactly zero.
        let dense = pc.to_dense();
        for r in 0..32 {
            let sum: f32 = dense.row(r).iter().map(|v| v.to_f32()).sum();
            assert!((sum - 1.0).abs() < 0.02, "row {r} sums to {sum}");
        }
        let sq = 64;
        for (i, (_, _, elems)) in pc.iter_blocks().enumerate() {
            for (e, elem) in elems.iter().enumerate().take(sq) {
                if coarse.mask[i * sq + e] != 0.0 {
                    assert_eq!(elem.to_f32(), 0.0, "masked slot non-zero");
                }
            }
        }
    }

    #[test]
    fn blocked_profile_charges_stored_not_valid_elements() {
        let pattern = CompoundPattern::new(32).with(AtomicPattern::Random {
            per_row: 2,
            seed: 7,
        });
        let spec = DeviceSpec::a100();
        let blocked = pattern.to_blocked(8).expect("aligned");
        let csr = pattern.to_csr::<Half>();
        let triton = blocked_softmax_profile(&spec, &dims(), &blocked, "triton");
        let sputnik = element_softmax_profile(&spec, &dims(), &csr, "sputnik");
        assert!(
            triton.total().sfu_ops > 5 * sputnik.total().sfu_ops,
            "rasterized random pattern wastes block work: {} vs {}",
            triton.total().sfu_ops,
            sputnik.total().sfu_ops
        );
    }

    #[test]
    fn element_softmax_reads_more_per_element_than_compound() {
        // Fully-filled diagonal blocks: stored == valid, so the comparison
        // isolates the per-element cost difference.
        let pattern = CompoundPattern::new(32).with(AtomicPattern::BlockedLocal { block: 8 });
        let spec = DeviceSpec::a100();
        let sliced = SlicedPattern::from_compound(&pattern, 8).expect("aligned");
        let csr = pattern.to_csr::<Half>();
        let compound =
            compound_softmax_profile(&spec, &dims(), sliced.coarse(), sliced.fine(), "mg");
        let element = element_softmax_profile(&spec, &dims(), &csr, "sputnik");
        // Same valid elements, more bytes per element for the element-wise
        // kernel (extra pass + metadata).
        assert!(element.total().l2_read > compound.total().l2_read);
    }

    #[test]
    fn dense_softmax_scales_with_rows() {
        let spec = DeviceSpec::a100();
        let p2 = dense_softmax_profile(&spec, &dims(), 2, "d");
        let p8 = dense_softmax_profile(&spec, &dims(), 8, "d");
        assert_eq!(p8.total().sfu_ops, 4 * p2.total().sfu_ops);
    }

    #[test]
    fn dense_softmax_compute_rows_sum_to_one() {
        let m = Matrix::<Half>::random(4, 16, 9);
        let p = dense_softmax_compute(&m, 0.5);
        for r in 0..4 {
            let sum: f32 = p.row(r).iter().map(|v| v.to_f32()).sum();
            assert!((sum - 1.0).abs() < 0.02);
        }
    }
}
