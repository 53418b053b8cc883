//! 2:4 structured sparsity (paper §6.2): Ampere/Hopper sparse tensor
//! cores double dense-GEMM throughput when every group of four weights
//! keeps at most two non-zeros. cuSPARSELt exposes this, but — as the
//! paper notes — it "only supports the 2:4 fine-grained structured sparse
//! pattern, making it difficult to be applied to the existing compound
//! SA-based sparse transformers": 2:4 removes half the *compute*, while
//! compound patterns remove 90–95 % of it.
//!
//! This module models a 2:4-sparse dense attention (prune S to 2:4, run
//! both GEMMs on sparse tensor cores) so that trade-off is measurable.

use crate::cache::{filter_and_replicate, CacheHints};
use crate::{tuning, AttnDims};
use mg_gpusim::{DeviceSpec, KernelRuns, LaunchConfig, Runs, TbWork};
use mg_tensor::{Half, Matrix};

/// Prunes a matrix to 2:4 structured sparsity along each row: within
/// every aligned group of four elements, only the two largest magnitudes
/// survive.
pub fn prune_2_4(m: &Matrix<Half>) -> Matrix<Half> {
    let mut out = m.clone();
    for r in 0..m.rows() {
        let row = out.row_mut(r);
        let mut c = 0;
        while c < row.len() {
            let end = (c + 4).min(row.len());
            let group = &mut row[c..end];
            if group.len() == 4 {
                // Find the two smallest magnitudes and zero them.
                let mut idx: Vec<usize> = (0..4).collect();
                idx.sort_by(|&a, &b| group[a].abs().partial_cmp(&group[b].abs()).expect("finite"));
                group[idx[0]] = Half::ZERO;
                group[idx[1]] = Half::ZERO;
            }
            c = end;
        }
    }
    out
}

/// Timing profile of a dense GEMM running on the **sparse tensor cores**
/// with a 2:4-compressed left operand: tensor throughput doubles and the
/// LHS shrinks to half plus 2-bit-per-element metadata.
// mg-lint: allow(C1): sparse-tensor-core what-if costing; prune_2_4 and the dense GEMM references supply the numeric side
pub fn gemm_2_4_profile(
    spec: &DeviceSpec,
    m: usize,
    n: usize,
    k: usize,
    instances: usize,
    name: &str,
) -> KernelRuns {
    const TILE: usize = 64;
    let tiles = m.div_ceil(TILE).max(1) * n.div_ceil(TILE).max(1);
    let (tm, tn, ku) = (TILE as u64, TILE as u64, k as u64);
    let work = TbWork {
        // Sparse tensor cores skip the zero half: half the MACs.
        tensor_macs: tm * tn * ku / 2,
        cuda_flops: tm * tn,
        sfu_ops: 0,
        // LHS halved + metadata (2 bits per original element = k/4 bytes
        // per row), RHS unchanged.
        l2_read: tm * ku + tm * ku / 4 + ku * tn * 2,
        dram_read: 0,
        dram_write: tm * tn * 2,
        stall_cycles: tuning::PIPELINED_STALL_CYCLES,
    };
    let launch = LaunchConfig {
        threads_per_tb: 128,
        regs_per_thread: 128,
        smem_per_tb: 32 * 1024,
    };
    let unique = ((m * k + k * n * 2) * instances) as u64;
    filter_and_replicate(
        spec,
        name,
        launch,
        Runs::from_blocks(&[work]),
        tiles * instances,
        CacheHints {
            unique_bytes: unique,
            reuse_footprint: (k * TILE * 2 * 2) as u64,
        },
    )
}

/// Profiles a full *dense* attention pipeline accelerated with 2:4
/// sparsity on `P` (the §6.2 alternative): dense SDDMM, dense softmax,
/// 2:4-pruned SpMM. Returns the kernels in order.
pub fn attention_2_4_profiles(spec: &DeviceSpec, dims: &AttnDims) -> Vec<KernelRuns> {
    let l = dims.seq_len;
    let inst = dims.instances();
    vec![
        crate::dense_gemm_profile(spec, l, l, dims.head_dim, inst, "s24.sddmm.dense"),
        crate::dense_softmax_profile(spec, dims, l, "s24.softmax.dense"),
        gemm_2_4_profile(spec, l, dims.head_dim, l, inst, "s24.spmm.sparse_tc"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pruning_keeps_exactly_two_of_four() {
        let m = Matrix::<Half>::random(8, 16, 3);
        let pruned = prune_2_4(&m);
        for r in 0..8 {
            for g in 0..4 {
                let zeros = (0..4)
                    .filter(|&i| pruned.get(r, g * 4 + i).to_f32() == 0.0)
                    .count();
                assert!(zeros >= 2, "row {r} group {g}: {zeros} zeros");
            }
        }
    }

    #[test]
    fn pruning_keeps_the_largest_magnitudes() {
        let m = Matrix::<Half>::from_vec(
            1,
            4,
            vec![
                Half::from_f32(0.1),
                Half::from_f32(-0.9),
                Half::from_f32(0.5),
                Half::from_f32(0.2),
            ],
        );
        let pruned = prune_2_4(&m);
        assert_eq!(pruned.get(0, 0), Half::ZERO);
        assert_eq!(pruned.get(0, 1), Half::from_f32(-0.9));
        assert_eq!(pruned.get(0, 2), Half::from_f32(0.5));
        assert_eq!(pruned.get(0, 3), Half::ZERO);
    }

    #[test]
    fn sparse_tensor_core_gemm_halves_macs() {
        let spec = DeviceSpec::a100();
        let dense = crate::dense_gemm_profile(&spec, 256, 256, 256, 1, "d");
        let sparse = gemm_2_4_profile(&spec, 256, 256, 256, 1, "s");
        assert_eq!(sparse.total().tensor_macs * 2, dense.total().tensor_macs);
    }

    #[test]
    fn full_24_pipeline_has_three_kernels() {
        let spec = DeviceSpec::a100();
        let dims = AttnDims {
            seq_len: 128,
            head_dim: 32,
            batch: 1,
            heads: 2,
        };
        let ks = attention_2_4_profiles(&spec, &dims);
        assert_eq!(ks.len(), 3);
        assert!(ks.iter().all(|k| !k.tbs.is_empty()));
    }
}
