//! Element-wise merge kernel: sums the partial contexts produced by the
//! coarse and fine SpMM kernels (Multigrain's dice step splits `P` by
//! grain, so `C = C_coarse + C_fine` with the global rows written
//! directly by the dense kernel).

use crate::cache::{filter_and_replicate, CacheHints};
use mg_gpusim::{DeviceSpec, KernelRuns, LaunchConfig, Runs, TbWork};
use mg_tensor::{Half, Matrix};

/// Elements processed per thread block of the merge kernel.
const MERGE_TILE: usize = 8 * 1024;

/// Profile of an `n_inputs`-way element-wise add over `elements` FP16
/// values, replicated over `instances`.
pub fn merge_add_profile(
    spec: &DeviceSpec,
    elements: usize,
    n_inputs: usize,
    instances: usize,
    name: &str,
) -> KernelRuns {
    let total = elements * instances;
    let tbs = total.div_ceil(MERGE_TILE).max(1);
    let per_tb = (total.div_ceil(tbs)) as u64;
    let work = TbWork {
        tensor_macs: 0,
        cuda_flops: per_tb * (n_inputs as u64 - 1).max(1),
        sfu_ops: 0,
        l2_read: per_tb * 2 * n_inputs as u64,
        dram_read: 0,
        dram_write: per_tb * 2,
        stall_cycles: 0,
    };
    let launch = LaunchConfig {
        threads_per_tb: 256,
        regs_per_thread: 32,
        smem_per_tb: 0,
    };
    let raw = work.l2_read * tbs as u64;
    filter_and_replicate(
        spec,
        name,
        launch,
        Runs::from_blocks(&[work]),
        tbs,
        CacheHints {
            unique_bytes: raw,
            reuse_footprint: raw,
        },
    )
}

/// Functionally merges partial contexts by element-wise addition,
/// accumulating in FP32.
///
/// # Panics
///
/// Panics if the parts have different shapes or `parts` is empty.
pub fn merge_add_compute(parts: &[&Matrix<Half>]) -> Matrix<Half> {
    assert!(!parts.is_empty(), "need at least one partial context");
    let (rows, cols) = (parts[0].rows(), parts[0].cols());
    Matrix::from_fn(rows, cols, |r, c| {
        let sum: f32 = parts.iter().map(|m| m.get(r, c).to_f32()).sum();
        Half::from_f32(sum)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_elementwise() {
        let a = Matrix::<Half>::random(4, 4, 1);
        let b = Matrix::<Half>::random(4, 4, 2);
        let m = merge_add_compute(&[&a, &b]);
        for r in 0..4 {
            for c in 0..4 {
                let expect = Half::from_f32(a.get(r, c).to_f32() + b.get(r, c).to_f32());
                assert_eq!(m.get(r, c), expect);
            }
        }
    }

    #[test]
    fn profile_is_memory_dominated() {
        let spec = DeviceSpec::a100();
        let p = merge_add_profile(&spec, 1 << 20, 2, 4, "merge");
        let t = p.total();
        assert!(t.l2_read > t.cuda_flops, "reads dominate flops");
        // 8 MiB of writes against a 20 MiB half-L2: 40% evicted.
        let full: u64 = (1 << 20) * 4 * 2;
        assert!(
            t.dram_write < full && t.dram_write > full / 4,
            "write-back filtered: {}",
            t.dram_write
        );
    }

    #[test]
    fn tiny_merge_still_launches_one_block() {
        let spec = DeviceSpec::a100();
        let p = merge_add_profile(&spec, 16, 2, 1, "merge");
        assert_eq!(p.tbs.len(), 1);
    }
}
