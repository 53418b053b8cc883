//! Dense GEMM kernels (CUTLASS-style tiled, tensor cores) used for the
//! global-pattern rows (paper §3.1) and for the transformer's dense
//! layers (projections, FFN).

use crate::cache::{filter_and_replicate, CacheHints};
use crate::tuning;
use mg_gpusim::{DeviceSpec, KernelRuns, LaunchConfig, Runs, TbWork};
use mg_tensor::{gemm, gemm_nt, Half, Matrix};

/// Output tile edge of the dense GEMM kernel.
pub const DENSE_TILE: usize = 64;

fn dense_launch() -> LaunchConfig {
    LaunchConfig {
        threads_per_tb: 128,
        regs_per_thread: 128,
        smem_per_tb: 4 * DENSE_TILE * 16 * 2 * 2, // double-buffered A and B tiles
    }
}

/// Profile of a dense `m × k · k × n` GEMM, replicated over `instances`
/// independent problems (e.g. heads). Tiled at `DENSE_TILE²` outputs per
/// thread block with shared-memory double buffering.
// mg-lint: allow(C1): family-shared cost model; its compute twins are the dense_sddmm/dense_spmm wrappers and the mg-tensor gemm references
pub fn dense_gemm_profile(
    spec: &DeviceSpec,
    m: usize,
    n: usize,
    k: usize,
    instances: usize,
    name: &str,
) -> KernelRuns {
    let tiles_m = m.div_ceil(DENSE_TILE).max(1);
    let tiles_n = n.div_ceil(DENSE_TILE).max(1);
    let tile_m = (m.div_ceil(tiles_m)) as u64;
    let tile_n = (n.div_ceil(tiles_n)) as u64;
    // Split-K: tall-skinny problems (few tiles, deep K) are parallelized
    // along K so they can fill the machine, with a cheap FP32 reduction.
    let base_tbs = tiles_m * tiles_n * instances;
    let split_k = (2 * spec.sm_count)
        .div_ceil(base_tbs)
        .clamp(1, (k / DENSE_TILE).max(1));
    let k_slice = (k.div_ceil(split_k)) as u64;
    let work = TbWork {
        tensor_macs: tile_m * tile_n * k_slice,
        cuda_flops: tile_m * tile_n,
        sfu_ops: 0,
        l2_read: (tile_m * k_slice + k_slice * tile_n) * 2,
        dram_read: 0,
        dram_write: tile_m * tile_n * if split_k > 1 { 4 } else { 2 },
        stall_cycles: tuning::PIPELINED_STALL_CYCLES,
    };
    let mut tbs = Runs::new();
    tbs.push(work, base_tbs * split_k);
    if split_k > 1 {
        // Reduction pass: one block per output tile sums the partials.
        let reduce = TbWork {
            tensor_macs: 0,
            cuda_flops: tile_m * tile_n * split_k as u64,
            sfu_ops: 0,
            l2_read: tile_m * tile_n * split_k as u64 * 4,
            dram_read: 0,
            dram_write: tile_m * tile_n * 2,
            stall_cycles: 0,
        };
        tbs.push(reduce, base_tbs);
    }
    let unique = ((m * k + k * n) * 2 * instances) as u64;
    filter_and_replicate(
        spec,
        name,
        dense_launch(),
        tbs,
        1,
        CacheHints {
            unique_bytes: unique,
            reuse_footprint: ((k * (tile_m as usize + tile_n as usize)) * 2) as u64,
        },
    )
}

/// Functionally computes the dense SDDMM for global rows:
/// `S_rows = Q_rows × Kᵀ` (FP32 accumulation, FP16 result).
pub fn dense_sddmm_compute(q_rows: &Matrix<Half>, k: &Matrix<Half>) -> Matrix<Half> {
    gemm_nt(q_rows, k)
}

/// Profile of [`dense_sddmm_compute`] for `global_rows` dense rows:
/// a `global_rows × head_dim · head_dim × seq_len` GEMM per instance.
///
/// The shape mapping lives here, next to the compute aspect, so a
/// planner cannot price the SDDMM with the SpMM's transposed shape.
pub fn dense_sddmm_profile(
    spec: &DeviceSpec,
    global_rows: usize,
    seq_len: usize,
    head_dim: usize,
    instances: usize,
    name: &str,
) -> KernelRuns {
    dense_gemm_profile(spec, global_rows, seq_len, head_dim, instances, name)
}

/// Functionally computes the dense SpMM for global rows:
/// `C_rows = P_rows × V`.
pub fn dense_spmm_compute(p_rows: &Matrix<Half>, v: &Matrix<Half>) -> Matrix<Half> {
    gemm(p_rows, v)
}

/// Profile of [`dense_spmm_compute`] for `global_rows` dense rows:
/// a `global_rows × seq_len · seq_len × head_dim` GEMM per instance.
pub fn dense_spmm_profile(
    spec: &DeviceSpec,
    global_rows: usize,
    seq_len: usize,
    head_dim: usize,
    instances: usize,
    name: &str,
) -> KernelRuns {
    dense_gemm_profile(spec, global_rows, head_dim, seq_len, instances, name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_covers_all_tiles() {
        let spec = DeviceSpec::a100();
        let p = dense_gemm_profile(&spec, 128, 256, 64, 2, "gemm");
        // 16 base tiles; split-k may multiply but never drop tiles.
        assert!(p.tbs.len() >= 2 * 4 * 2);
        // Total MACs >= m*n*k per instance (k-slice rounding only adds).
        assert!(p.total().tensor_macs >= 128 * 256 * 64 * 2);
    }

    #[test]
    fn tall_skinny_gemm_splits_k_to_fill_the_machine() {
        let spec = DeviceSpec::a100();
        let p = dense_gemm_profile(&spec, 32, 64, 4096, 1, "gemm");
        // One base tile splits into k/DENSE_TILE = 64 slices + reduction.
        assert!(
            p.tbs.len() >= 64,
            "split-k must create parallelism: {} blocks",
            p.tbs.len()
        );
        let _ = spec;
    }

    #[test]
    fn computes_match_tensor_reference() {
        let q = Matrix::<Half>::random(4, 8, 1);
        let k = Matrix::<Half>::random(16, 8, 2);
        let s = dense_sddmm_compute(&q, &k);
        let s_ref: Matrix<f32> = gemm_nt(&q, &k);
        assert!(s.max_abs_diff(&s_ref) < 0.01);

        let v = Matrix::<Half>::random(16, 8, 3);
        let c = dense_spmm_compute(&s, &v);
        let c_ref: Matrix<f32> = gemm(&s, &v);
        assert!(c.max_abs_diff(&c_ref) < 0.05);
    }

    #[test]
    fn sddmm_and_spmm_profiles_encode_their_gemm_shapes() {
        let spec = DeviceSpec::a100();
        let (g, seq, hd, inst) = (8, 256, 64, 4);
        // SDDMM is g×hd · hd×seq; SpMM is g×seq · seq×hd. The wrappers
        // must reproduce exactly the shape mapping the planner used to
        // spell out by hand at every call site.
        let sddmm = dense_sddmm_profile(&spec, g, seq, hd, inst, "s");
        let sddmm_ref = dense_gemm_profile(&spec, g, seq, hd, inst, "s");
        assert_eq!(sddmm.total(), sddmm_ref.total());
        assert_eq!(sddmm.tbs.len(), sddmm_ref.tbs.len());
        let spmm = dense_spmm_profile(&spec, g, seq, hd, inst, "p");
        let spmm_ref = dense_gemm_profile(&spec, g, hd, seq, inst, "p");
        assert_eq!(spmm.total(), spmm_ref.total());
        assert_eq!(spmm.tbs.len(), spmm_ref.tbs.len());
        // And the two mappings are genuinely transposed, not aliases.
        assert_ne!(sddmm.total().l2_read, spmm.total().l2_read);
    }

    #[test]
    fn writes_each_output_once() {
        let spec = DeviceSpec::a100();
        let p = dense_gemm_profile(&spec, 64, 64, 32, 1, "gemm");
        // One write per output element, 25% evicted to DRAM (write-back).
        assert_eq!(p.total().dram_write, 64 * 64 * 2 / 4);
    }
}
