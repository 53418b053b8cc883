//! Coarse-grained (blocked) sparse GEMM kernels — paper §3.2.
//!
//! Two mappings are provided:
//!
//! * [`CoarseMapping::BlockRowPerTb`] — the paper's kernels: blocked
//!   row-splitting for SDDMM (one thread block owns an output block row and
//!   reuses the LHS row block from shared memory across all its non-zero
//!   blocks) and blocked 1D tiling for SpMM (one thread block accumulates
//!   one output tile in registers). Both use software pipelining, so only
//!   the first tile load's latency is exposed.
//! * [`CoarseMapping::BlockPerTb`] — the Triton-style baseline: one thread
//!   block per non-zero block (BCOO), which balances load perfectly but
//!   reloads the LHS block for every output block and exposes per-iteration
//!   latency (no cross-block pipelining).

use crate::cache::{filter_and_replicate, CacheHints};
use crate::{tuning, AttnDims};
use mg_gpusim::{DeviceSpec, KernelRuns, LaunchConfig, Runs, TbWork};
use mg_sparse::Bsr;
use mg_tensor::pack::{decode_slice, encode_slice, Panel, Slabs};
use mg_tensor::simd::SPAN;
use mg_tensor::{accumulate_row_window, accumulate_row_window2, par, Half, Matrix};

/// Thread-block mapping for the coarse kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoarseMapping {
    /// One block per output block row (ours): LHS reuse + pipelining.
    BlockRowPerTb,
    /// One block per non-zero block (Triton-style): balanced, no reuse.
    BlockPerTb,
}

fn coarse_launch(block: usize, head_dim: usize) -> LaunchConfig {
    LaunchConfig {
        threads_per_tb: 128,
        regs_per_thread: 96,
        // LHS tile + double-buffered RHS tile staged in shared memory.
        smem_per_tb: 3 * block * head_dim * 2,
    }
}

/// Builds the timing profile of the coarse SDDMM `S_blk = Q × Kᵀ`
/// restricted to the blocks of `structure`, replicated over
/// `dims.instances()` heads.
pub fn coarse_sddmm_profile(
    spec: &DeviceSpec,
    dims: &AttnDims,
    structure: &Bsr<Half>,
    mapping: CoarseMapping,
    name: &str,
) -> KernelRuns {
    let b = structure.block_size();
    let dh = dims.head_dim;
    let (bu, dhu) = (b as u64, dh as u64);
    let per_instance: Runs = match mapping {
        CoarseMapping::BlockRowPerTb => (0..structure.block_rows())
            .filter_map(|br| {
                let n = structure.block_row_nnz(br) as u64;
                (n > 0).then(|| TbWork {
                    tensor_macs: n * bu * bu * dhu,
                    cuda_flops: n * bu * bu, // epilogue converts/stores
                    sfu_ops: 0,
                    // LHS row block once (shared-memory reuse), RHS per block.
                    l2_read: bu * dhu * 2 + n * bu * dhu * 2 + (n + 2) * 4,
                    dram_read: 0,
                    dram_write: n * bu * bu * 2,
                    stall_cycles: tuning::PIPELINED_STALL_CYCLES,
                })
            })
            .collect(),
        CoarseMapping::BlockPerTb => {
            let mut runs = Runs::new();
            runs.push(
                TbWork {
                    tensor_macs: bu * bu * dhu,
                    cuda_flops: bu * bu,
                    sfu_ops: 0,
                    // Both operand blocks reloaded per output block (BCOO).
                    l2_read: 2 * bu * dhu * 2 + 8,
                    dram_read: 0,
                    dram_write: bu * bu * 2,
                    stall_cycles: tuning::PIPELINED_STALL_CYCLES,
                },
                structure.nnz_blocks(),
            );
            runs
        }
    };
    let unique = 2 * dims.operand_bytes() * dims.instances() as u64
        + structure.metadata_bytes() * dims.instances() as u64;
    filter_and_replicate(
        spec,
        name,
        coarse_launch(b, dh),
        per_instance,
        dims.instances(),
        CacheHints {
            unique_bytes: unique,
            reuse_footprint: dims.operand_bytes(),
        },
    )
}

/// Computes the coarse SDDMM functionally: every stored block of
/// `structure` is filled with `Q_blockrow × K_blockcolᵀ` (FP16 inputs,
/// FP32 accumulation, rounded to FP16) — including elements at invalid
/// positions, which is exactly the coarse method's wasted work.
///
/// The dense-tile path: `Kᵀ` is packed once into k-major column
/// [`Slabs`], and each stored block is scored by the seeded row
/// microkernel on paired Q rows over the (at most two) slabs covering its
/// columns. Every score is one ascending-d chain from the `-0.0` seed
/// [`mg_tensor::dot`]'s `Sum` fold uses, so the result is bit-identical
/// to [`naive::coarse_sddmm_compute`].
///
/// # Panics
///
/// Panics if `q`/`k` dimensions disagree with the structure.
pub fn coarse_sddmm_compute(
    q: &Matrix<Half>,
    k: &Matrix<Half>,
    structure: &Bsr<Half>,
) -> Bsr<Half> {
    assert_eq!(q.rows(), structure.rows(), "Q rows mismatch");
    assert_eq!(k.rows(), structure.cols(), "K rows mismatch");
    assert_eq!(q.cols(), k.cols(), "head dimension mismatch");
    let b = structure.block_size();
    let q_panel = Panel::from_matrix(q);
    let kt = Slabs::from_matrix_transposed(k);
    // Stored blocks are independent: map block index -> owning block row
    // once, then fill each block's contiguous value slice in parallel.
    let block_rows_of: Vec<usize> = (0..structure.block_rows())
        .flat_map(|br| structure.block_row_range(br).map(move |_| br))
        .collect();
    let mut out = structure.clone();
    par::for_each_chunk_mut(out.values_mut(), b * b, |i, blk| {
        let r0 = block_rows_of[i] * b;
        let c0 = structure.block_col_indices()[i] * b;
        for s in c0 / SPAN..(c0 + b).div_ceil(SPAN) {
            // The part of slab `s` inside the block: slab columns
            // `off..off + w`, block columns `col..col + w`.
            let (j0, sw, slab) = kt.slab(s);
            let lo = j0.max(c0);
            let w = (j0 + sw).min(c0 + b) - lo;
            let (off, col) = (lo - j0, lo - c0);
            for (p, rows) in blk.chunks_mut(2 * b).enumerate() {
                let q0 = q_panel.row(r0 + 2 * p);
                let mut acc0 = [-0.0f32; SPAN];
                if rows.len() == 2 * b {
                    let q1 = q_panel.row(r0 + 2 * p + 1);
                    let mut acc1 = [-0.0f32; SPAN];
                    accumulate_row_window2::<false>(
                        q0,
                        q1,
                        slab,
                        sw,
                        off,
                        &mut acc0[..w],
                        &mut acc1[..w],
                    );
                    let (out0, out1) = rows.split_at_mut(b);
                    encode_slice(&acc0[..w], &mut out0[col..col + w]);
                    encode_slice(&acc1[..w], &mut out1[col..col + w]);
                } else {
                    accumulate_row_window::<false>(q0, slab, sw, off, &mut acc0[..w]);
                    encode_slice(&acc0[..w], &mut rows[col..col + w]);
                }
            }
        }
    });
    out
}

/// Builds the timing profile of the coarse SpMM `C = P_blk × V`,
/// replicated over `dims.instances()` heads.
pub fn coarse_spmm_profile(
    spec: &DeviceSpec,
    dims: &AttnDims,
    structure: &Bsr<Half>,
    mapping: CoarseMapping,
    name: &str,
) -> KernelRuns {
    let b = structure.block_size();
    let dh = dims.head_dim;
    // One output tile (block-row × head_dim) per thread block; tiles along
    // the head dimension when head_dim exceeds the block size.
    let tiles_per_row = dh.div_ceil(b).max(1);
    let (bu, dhu) = (b as u64, (dh / tiles_per_row) as u64);
    let mut per_instance = Runs::new();
    for br in 0..structure.block_rows() {
        let n = structure.block_row_nnz(br) as u64;
        if n == 0 {
            continue;
        }
        let stall = match mapping {
            CoarseMapping::BlockRowPerTb => tuning::PIPELINED_STALL_CYCLES,
            CoarseMapping::BlockPerTb => {
                tuning::PIPELINED_STALL_CYCLES + n * tuning::UNPIPELINED_STALL_PER_ITER
            }
        };
        let extra_meta = match mapping {
            CoarseMapping::BlockRowPerTb => 0,
            // Triton keeps BCOO (SDDMM) and BSR (SpMM) metadata both.
            CoarseMapping::BlockPerTb => n * 8,
        };
        let work = TbWork {
            tensor_macs: n * bu * bu * dhu,
            cuda_flops: bu * dhu,
            sfu_ops: 0,
            // Each non-zero LHS block + the matching RHS rows.
            l2_read: n * (bu * bu * 2 + bu * dhu * 2) + (n + 2) * 4 + extra_meta,
            dram_read: 0,
            dram_write: bu * dhu * 2,
            stall_cycles: stall,
        };
        per_instance.push(work, tiles_per_row);
    }
    let unique = (structure.value_bytes() + structure.metadata_bytes() + dims.operand_bytes())
        * dims.instances() as u64;
    filter_and_replicate(
        spec,
        name,
        coarse_launch(b, dh),
        per_instance,
        dims.instances(),
        CacheHints {
            unique_bytes: unique,
            reuse_footprint: dims.operand_bytes(),
        },
    )
}

/// Computes the coarse SpMM functionally: `C = P × V` where `P` is the
/// blocked sparse matrix (masked-out positions hold zero after softmax, so
/// they contribute nothing).
///
/// The dense-tile path: `V` is packed once into k-major column
/// [`Slabs`]; each block row decodes its own P blocks into a buffer of
/// its own and accumulates paired output rows across its blocks with the
/// seeded row microkernel. Every output element is one chain from `+0.0`
/// over ascending (block column, column in block) that skips zero P
/// elements — the order and the zero skip of
/// [`naive::coarse_spmm_compute`], so the result is bit-identical to it
/// for every `V`, infinities and NaNs included.
///
/// # Panics
///
/// Panics if `v` dimensions disagree with the structure.
pub fn coarse_spmm_compute(p: &Bsr<Half>, v: &Matrix<Half>) -> Matrix<Half> {
    assert_eq!(v.rows(), p.cols(), "V rows mismatch");
    let b = p.block_size();
    let dh = v.cols();
    let sq = b * b;
    let v_slabs = Slabs::from_matrix(v);
    let mut acc = Matrix::<f32>::zeros(p.rows(), dh);
    // A block row's blocks only touch output rows br*b..(br+1)*b, so block
    // rows parallelize cleanly. P is decoded one block row at a time, so
    // the staged copy stays a few blocks in size. It is a plain allocation
    // rather than a `scratch` buffer: the pool hands its buffers to every
    // later kernel, which grow them, and a pooled P buffer raised the
    // peak RSS of a two-layer QDS-base forward by 2 MiB.
    par::for_each_chunk_mut(acc.as_mut_slice(), b * dh, |br, out_rows| {
        let blocks = p.block_row_range(br);
        let mut p_f = vec![0.0f32; blocks.len() * sq];
        decode_slice(&p.values()[blocks.start * sq..blocks.end * sq], &mut p_f);
        let block_cols = &p.block_col_indices()[blocks];
        for (j0, w, slab) in v_slabs.iter() {
            for (pr, pair) in out_rows.chunks_mut(2 * dh).enumerate() {
                let r = 2 * pr;
                for (blk, &bc) in p_f.chunks_exact(sq).zip(block_cols) {
                    let v_rows = &slab[bc * b * w..(bc + 1) * b * w];
                    let p0 = &blk[r * b..(r + 1) * b];
                    if pair.len() == 2 * dh {
                        let p1 = &blk[(r + 1) * b..(r + 2) * b];
                        let (out0, out1) = pair.split_at_mut(dh);
                        accumulate_row_window2::<true>(
                            p0,
                            p1,
                            v_rows,
                            w,
                            0,
                            &mut out0[j0..j0 + w],
                            &mut out1[j0..j0 + w],
                        );
                    } else {
                        accumulate_row_window::<true>(p0, v_rows, w, 0, &mut pair[j0..j0 + w]);
                    }
                }
            }
        }
    });
    acc.cast()
}

/// The pre-slab reference implementations: one score or one output
/// element at a time, operands decoded per element straight from the FP16
/// storage, on one thread. Kept as the bit-level oracle for the slab
/// kernels, exactly like `gemm::naive` and `fused::naive`.
pub mod naive {
    use mg_sparse::Bsr;
    use mg_tensor::{dot, Half, Matrix};

    /// Reference coarse SDDMM; same contract (and bit-identical output)
    /// as [`super::coarse_sddmm_compute`].
    ///
    /// # Panics
    ///
    /// Panics if `q`/`k` dimensions disagree with the structure.
    pub fn coarse_sddmm_compute(
        q: &Matrix<Half>,
        k: &Matrix<Half>,
        structure: &Bsr<Half>,
    ) -> Bsr<Half> {
        assert_eq!(q.rows(), structure.rows(), "Q rows mismatch");
        assert_eq!(k.rows(), structure.cols(), "K rows mismatch");
        assert_eq!(q.cols(), k.cols(), "head dimension mismatch");
        let b = structure.block_size();
        let mut out = structure.clone();
        for br in 0..structure.block_rows() {
            for i in structure.block_row_range(br) {
                let bc = structure.block_col_indices()[i];
                let blk = out.block_mut(i);
                for r in 0..b {
                    for c in 0..b {
                        blk[r * b + c] = Half::from_f32(dot(q.row(br * b + r), k.row(bc * b + c)));
                    }
                }
            }
        }
        out
    }

    /// Reference coarse SpMM; same contract (and bit-identical output)
    /// as [`super::coarse_spmm_compute`]. A zero P element is skipped,
    /// so it contributes nothing even against an infinite or NaN V.
    ///
    /// # Panics
    ///
    /// Panics if `v` dimensions disagree with the structure.
    pub fn coarse_spmm_compute(p: &Bsr<Half>, v: &Matrix<Half>) -> Matrix<Half> {
        assert_eq!(v.rows(), p.cols(), "V rows mismatch");
        let b = p.block_size();
        let mut acc = Matrix::<f32>::zeros(p.rows(), v.cols());
        for br in 0..p.block_rows() {
            for i in p.block_row_range(br) {
                let bc = p.block_col_indices()[i];
                let blk = p.block(i);
                for r in 0..b {
                    let out_row = acc.row_mut(br * b + r);
                    for c in 0..b {
                        // mg-lint: allow(P1): the naive path decodes per element by design, like gemm::naive
                        let pv = blk[r * b + c].to_f32();
                        if pv == 0.0 {
                            continue;
                        }
                        for (out_val, vv) in out_row.iter_mut().zip(v.row(bc * b + c)) {
                            // mg-lint: allow(P1): the naive path decodes per element by design, like gemm::naive
                            *out_val += pv * vv.to_f32();
                        }
                    }
                }
            }
        }
        acc.cast()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_tensor::gemm_nt;

    fn dims() -> AttnDims {
        AttnDims {
            seq_len: 16,
            head_dim: 8,
            batch: 1,
            heads: 2,
        }
    }

    fn diag_structure() -> Bsr<Half> {
        Bsr::from_block_coords(16, 16, 4, &[(0, 0), (0, 3), (1, 1), (2, 2), (3, 3)]).expect("valid")
    }

    #[test]
    fn sddmm_compute_matches_dense_reference() {
        let q = Matrix::<Half>::random(16, 8, 1);
        let k = Matrix::<Half>::random(16, 8, 2);
        let s = coarse_sddmm_compute(&q, &k, &diag_structure());
        let reference: Matrix<f32> = gemm_nt(&q, &k);
        for (br, bc, elems) in s.iter_blocks() {
            for r in 0..4 {
                for c in 0..4 {
                    let expect = Half::from_f32(reference.get(br * 4 + r, bc * 4 + c));
                    assert_eq!(elems[r * 4 + c], expect, "block ({br},{bc}) elem ({r},{c})");
                }
            }
        }
    }

    #[test]
    fn spmm_compute_matches_dense_reference() {
        let structure = diag_structure();
        let q = Matrix::<Half>::random(16, 8, 3);
        let k = Matrix::<Half>::random(16, 8, 4);
        let p = coarse_sddmm_compute(&q, &k, &structure);
        let v = Matrix::<Half>::random(16, 8, 5);
        let c = coarse_spmm_compute(&p, &v);
        // Dense reference: P materialised densely times V.
        let c_ref: Matrix<f32> = mg_tensor::gemm(&p.to_dense(), &v);
        assert!(
            c.max_abs_diff(&c_ref) < 0.05,
            "diff {}",
            c.max_abs_diff(&c_ref)
        );
    }

    #[test]
    fn row_split_profile_has_one_tb_per_block_row() {
        let spec = DeviceSpec::a100();
        let p = coarse_sddmm_profile(
            &spec,
            &dims(),
            &diag_structure(),
            CoarseMapping::BlockRowPerTb,
            "sddmm",
        );
        // 4 non-empty block rows x 2 instances.
        assert_eq!(p.tbs.len(), 8);
    }

    #[test]
    fn block_per_tb_profile_has_one_tb_per_block() {
        let spec = DeviceSpec::a100();
        let p = coarse_sddmm_profile(
            &spec,
            &dims(),
            &diag_structure(),
            CoarseMapping::BlockPerTb,
            "sddmm",
        );
        assert_eq!(p.tbs.len(), 10); // 5 blocks x 2 instances
    }

    #[test]
    fn row_split_reads_less_than_block_per_tb() {
        // LHS reuse: the row-split kernel pulls less through L2.
        let spec = DeviceSpec::a100();
        let ours = coarse_sddmm_profile(
            &spec,
            &dims(),
            &diag_structure(),
            CoarseMapping::BlockRowPerTb,
            "ours",
        );
        let triton = coarse_sddmm_profile(
            &spec,
            &dims(),
            &diag_structure(),
            CoarseMapping::BlockPerTb,
            "triton",
        );
        assert!(ours.total().l2_read < triton.total().l2_read);
    }

    #[test]
    fn sddmm_flops_proportional_to_stored_blocks() {
        let spec = DeviceSpec::a100();
        let p = coarse_sddmm_profile(
            &spec,
            &dims(),
            &diag_structure(),
            CoarseMapping::BlockRowPerTb,
            "sddmm",
        );
        // 5 blocks x 4x4x8 MACs x 2 instances.
        assert_eq!(p.total().tensor_macs, 5 * 4 * 4 * 8 * 2);
    }

    #[test]
    fn spmm_unpipelined_variant_stalls_more() {
        let spec = DeviceSpec::a100();
        let ours = coarse_spmm_profile(
            &spec,
            &dims(),
            &diag_structure(),
            CoarseMapping::BlockRowPerTb,
            "ours",
        );
        let triton = coarse_spmm_profile(
            &spec,
            &dims(),
            &diag_structure(),
            CoarseMapping::BlockPerTb,
            "triton",
        );
        assert!(ours.total().stall_cycles < triton.total().stall_cycles);
    }

    #[test]
    fn spmm_writes_one_tile_per_block_row() {
        let spec = DeviceSpec::a100();
        let p = coarse_spmm_profile(
            &spec,
            &dims(),
            &diag_structure(),
            CoarseMapping::BlockRowPerTb,
            "spmm",
        );
        // Output rows written exactly once per instance (16 x 8 x 2B x 2),
        // with the L2 write-back filter keeping 25% as DRAM evictions.
        assert_eq!(p.total().dram_write, 16 * 8 * 2 * 2 / 4);
    }
}
