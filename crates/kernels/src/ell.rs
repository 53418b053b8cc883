//! cuSPARSE-style Blocked-ELL SpMM (paper §6.1 related work): NVIDIA's
//! library handles blocked SpMM through the Blocked-ELL format, whose
//! per-row padding costs compute and bandwidth on irregular patterns.
//! Provided so the padding overhead is measurable against the BSR
//! kernels.

use crate::cache::{filter_and_replicate, CacheHints};
use crate::{tuning, AttnDims};
use mg_gpusim::{DeviceSpec, KernelRuns, LaunchConfig, Runs, TbWork};
use mg_sparse::BlockedEll;
use mg_tensor::{accumulate_row_window, pack::Panel, Half, Matrix};

fn ell_launch(block: usize, head_dim: usize) -> LaunchConfig {
    LaunchConfig {
        threads_per_tb: 128,
        regs_per_thread: 96,
        smem_per_tb: 3 * block * head_dim * 2,
    }
}

/// Profile of a Blocked-ELL SpMM `C = P_ell × V`: one thread block per
/// output block-row tile, iterating over the row's fixed slot count —
/// padded slots are processed like real ones (the format's overhead).
pub fn ell_spmm_profile(
    spec: &DeviceSpec,
    dims: &AttnDims,
    structure: &BlockedEll<Half>,
    name: &str,
) -> KernelRuns {
    let b = structure.block_size();
    let dh = dims.head_dim as u64;
    let slots = structure.blocks_per_row() as u64;
    let block_rows = structure.rows() / b.max(1);
    // Uniform slot counts: every block row costs the same, padded or not.
    let work = TbWork {
        tensor_macs: slots * (b * b) as u64 * dh,
        cuda_flops: (b as u64) * dh,
        sfu_ops: 0,
        l2_read: slots * ((b * b * 2) as u64 + (b as u64) * dh * 2) + (slots + 1) * 4,
        dram_read: 0,
        dram_write: (b as u64) * dh * 2,
        stall_cycles: tuning::PIPELINED_STALL_CYCLES,
    };
    let unique = (structure.value_bytes() + dims.operand_bytes()) * dims.instances() as u64;
    filter_and_replicate(
        spec,
        name,
        ell_launch(b, dims.head_dim),
        Runs::from_blocks(&[work]),
        block_rows * dims.instances(),
        CacheHints {
            unique_bytes: unique,
            reuse_footprint: dims.operand_bytes(),
        },
    )
}

/// Functional Blocked-ELL SpMM: `C = P × V` over the dense rendering of
/// `P`. Every zero element is skipped — padded slots, the empty blocks
/// of the rendering and stored zeros alike — so a zero contributes
/// nothing even against an infinite or NaN V.
///
/// # Panics
///
/// Panics if `v` row count disagrees with the structure's columns.
pub fn ell_spmm_compute(p: &BlockedEll<Half>, v: &Matrix<Half>) -> Matrix<Half> {
    assert_eq!(v.rows(), p.cols(), "V rows mismatch");
    let dh = v.cols();
    let mut acc = Matrix::<f32>::zeros(p.rows(), dh);
    // The format's semantics are its dense rendering; padded slots
    // (column index ELL_PAD) render as zeros. Both operands are decoded
    // into f32 panels once up front, and each output row is one
    // zero-skipping row-microkernel pass from `+0.0` over all of V.
    let dense_panel = Panel::from_matrix(&p.to_dense());
    let v_panel = Panel::from_matrix(v);
    for r in 0..p.rows() {
        accumulate_row_window::<true>(
            dense_panel.row(r),
            v_panel.as_slice(),
            dh,
            0,
            acc.row_mut(r),
        );
    }
    acc.cast()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_sparse::Bsr;

    fn skewed_bsr() -> Bsr<Half> {
        // One long block row (4 blocks) and three short ones (1 block),
        // with every stored element set to 1 so the structure survives a
        // round trip through dense.
        let mut coords = vec![(0usize, 0usize), (0, 1), (0, 2), (0, 3)];
        coords.extend([(1, 1), (2, 2), (3, 3)]);
        let mut bsr = Bsr::from_block_coords(32, 32, 8, &coords).expect("valid");
        for i in 0..bsr.nnz_blocks() {
            for v in bsr.block_mut(i) {
                *v = Half::ONE;
            }
        }
        bsr
    }

    #[test]
    fn ell_spmm_matches_bsr_spmm() {
        // Fill the skewed structure with deterministic values and check
        // the ELL SpMM against the dense product.
        let structure = skewed_bsr().to_dense();
        let filled = Matrix::<Half>::from_fn(32, 32, |r, c| {
            if structure.get(r, c).to_f32() != 0.0 {
                Half::from_f32(((r + 2 * c) % 7) as f32 * 0.1)
            } else {
                Half::ZERO
            }
        });
        let ell = BlockedEll::from_bsr(&Bsr::from_dense(&filled, 8));
        let v = Matrix::<Half>::random(32, 8, 3);
        let via_ell = ell_spmm_compute(&ell, &v);
        let via_dense: Matrix<f32> = mg_tensor::gemm(&filled, &v);
        assert!(via_ell.max_abs_diff(&via_dense) < 0.05);
    }

    #[test]
    fn padding_costs_show_in_the_profile() {
        let spec = DeviceSpec::a100();
        let dims = AttnDims {
            seq_len: 32,
            head_dim: 8,
            batch: 1,
            heads: 1,
        };
        let bsr = skewed_bsr();
        let ell = BlockedEll::from_bsr(&bsr);
        let p = ell_spmm_profile(&spec, &dims, &ell, "ell");
        // 4 block rows x 4 slots each = 16 slot-blocks of MACs, although
        // only 7 real blocks exist: the padding is paid for.
        assert_eq!(p.total().tensor_macs, 16 * 8 * 8 * 8);
        assert_eq!(p.tbs.len(), 4);
    }

    #[test]
    fn uniform_rows_have_no_padding_overhead() {
        let spec = DeviceSpec::a100();
        let dims = AttnDims {
            seq_len: 32,
            head_dim: 8,
            batch: 1,
            heads: 1,
        };
        let uniform = Bsr::<Half>::from_block_coords(32, 32, 8, &[(0, 0), (1, 1), (2, 2), (3, 3)])
            .expect("valid");
        let ell = BlockedEll::from_bsr(&uniform);
        assert_eq!(ell.padded_slots(), 0);
        let p = ell_spmm_profile(&spec, &dims, &ell, "ell");
        assert_eq!(p.total().tensor_macs, 4 * 8 * 8 * 8);
    }
}
