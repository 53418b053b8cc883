//! Decode-step cost accounting: the incremental kernel an
//! autoregressive step launches.
//!
//! A decode step appends ONE query row per request: the kernel dots the
//! new row's query against the K rows its (extended) pattern selects,
//! runs an online softmax over just those scores, and accumulates the
//! matching V rows — a fused single-row attention. Work therefore
//! scales with the new row's non-zeros, not with the full pattern, and
//! a whole decode batch fits one kernel launch with one thread block
//! per (request, head).

use crate::cache::{filter_and_replicate, CacheHints};
use crate::tuning;
use mg_gpusim::{DeviceSpec, KernelProfile, LaunchConfig, Runs, TbWork};

/// Builds the timing profile of one batched decode step: `row_nnzs[i]`
/// is the number of key columns request `i`'s freshly appended query
/// row attends to (its incremental pattern row), and every request
/// contributes `heads` thread blocks.
///
/// The profile charges only incremental work — one Q row, `nnz` K and V
/// rows, one context row out — which is what makes decode steps short
/// and latency-critical next to prefills. A step has one block per
/// (request, head), a few hundred at most, so unlike the prefill
/// builders it returns the per-block [`KernelProfile`].
// mg-lint: allow(C1): decode reuses the prefill kernels' numerics (fine/coarse/merge); only the timing shape is decode-specific
pub fn decode_step_profile(
    spec: &DeviceSpec,
    head_dim: usize,
    heads: usize,
    row_nnzs: &[usize],
    name: &str,
) -> KernelProfile {
    let dh = head_dim as u64;
    let launch = LaunchConfig {
        threads_per_tb: 128,
        regs_per_thread: 96, // the context accumulator lives in registers
        smem_per_tb: 2 * head_dim * 2,
    };
    let mut tbs = Runs::new();
    for &nnz in row_nnzs {
        let n = nnz as u64;
        let work = TbWork {
            tensor_macs: 0, // a single query row cannot fill an MMA tile
            // Q·K scores, then P·V accumulation, plus the online
            // rescale per column.
            cuda_flops: n * dh * 2 + n * dh * 2 + n * 8,
            sfu_ops: n * 2, // exp for score and correction
            // Q row once; one K row, one V row, and a column index per
            // attended position; running max/sum stay in registers.
            l2_read: dh * 2 + n * (2 * dh * 2 + 4),
            dram_read: 0,
            dram_write: dh * 2, // the new context row
            // The online-softmax rescale is a loop-carried chain over
            // the row's columns.
            stall_cycles: tuning::PIPELINED_STALL_CYCLES + n * tuning::FUSED_CHAIN_STALL_PER_NNZ,
        };
        tbs.push(work, heads.max(1));
    }
    // Every K/V row is touched exactly once per step: streaming reads
    // with no intra-step reuse beyond the staged Q row.
    let total_nnz: u64 = row_nnzs.iter().map(|&n| n as u64).sum();
    let kernel = filter_and_replicate(
        spec,
        name,
        launch,
        tbs,
        1,
        CacheHints {
            unique_bytes: (total_nnz * 2 * dh * 2 + row_nnzs.len() as u64 * dh * 2)
                * heads.max(1) as u64,
            reuse_footprint: dh * 2,
        },
    );
    KernelProfile {
        tbs: kernel.tbs.to_blocks(),
        name: kernel.name,
        launch: kernel.launch,
        cache: kernel.cache,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total_flops(p: &KernelProfile) -> u64 {
        p.tbs.iter().map(|t| t.cuda_flops).sum()
    }

    #[test]
    fn work_scales_with_row_nnz_not_context() {
        let spec = DeviceSpec::a100();
        let sparse = decode_step_profile(&spec, 64, 8, &[32], "step");
        let dense = decode_step_profile(&spec, 64, 8, &[1024], "step");
        assert_eq!(sparse.tb_count(), 8, "one thread block per head");
        assert_eq!(
            total_flops(&dense),
            total_flops(&sparse) * 32,
            "flops proportional to the new row's nnz"
        );
    }

    #[test]
    fn batched_step_stacks_requests() {
        let spec = DeviceSpec::a100();
        let one = decode_step_profile(&spec, 64, 4, &[16], "step");
        let four = decode_step_profile(&spec, 64, 4, &[16, 16, 16, 16], "step");
        assert_eq!(four.tb_count(), 4 * one.tb_count());
        assert_eq!(total_flops(&four), 4 * total_flops(&one));
    }

    #[test]
    fn decode_step_is_cheap_next_to_prefill() {
        use crate::fused_attention_profile;
        use crate::AttnDims;
        use mg_patterns::{AtomicPattern, CompoundPattern};

        let spec = DeviceSpec::a100();
        let pattern = CompoundPattern::new(256).with(AtomicPattern::Local { window: 32 });
        let dims = AttnDims {
            seq_len: 256,
            head_dim: 64,
            batch: 1,
            heads: 8,
        };
        let prefill = fused_attention_profile(&spec, &dims, &pattern, "prefill");
        let step = decode_step_profile(&spec, 64, 8, &[33], "step");
        assert!(
            total_flops(&step) * 20 < prefill.total().cuda_flops,
            "one row's work is a small fraction of the whole pattern's"
        );
    }
}
