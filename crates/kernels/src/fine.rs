//! Fine-grained (element-wise, CSR) sparse GEMM kernels — the Sputnik-
//! style method (paper §2.4 and §4).
//!
//! The SDDMM comes in two schemes:
//!
//! * [`FineSddmmScheme::RowSplit`] — the paper's optimized Sputnik: one
//!   thread block per output row, touching only the row's non-zeros.
//! * [`FineSddmmScheme::OneDimTiling`] — the official Sputnik mapping the
//!   paper replaces: fixed-size one-dimensional output tiles, so short
//!   rows leave warps idle and spawn extra thread blocks (the 3.3×–6.2×
//!   ablation of §4).
//!
//! The SpMM uses Sputnik's 1D tiling over the *dense* output, which is
//! appropriate there (every output element exists).

use crate::cache::{filter_and_replicate, CacheHints};
use crate::{tuning, AttnDims};
use mg_gpusim::{DeviceSpec, KernelProfile, LaunchConfig, TbWork};
use mg_sparse::Csr;
use mg_tensor::{
    accumulate_row_window, dot_f32, dot_rows_block, pack, pack::Panel, par, Half, Matrix, NR,
};

/// Output mapping of the fine SDDMM kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FineSddmmScheme {
    /// One thread block per output row (the paper's optimization).
    RowSplit,
    /// Fixed-size 1D output tiles (official Sputnik; wasteful on short
    /// rows).
    OneDimTiling,
}

/// Elements covered by one 1D tile in [`FineSddmmScheme::OneDimTiling`].
pub const ONE_DIM_TILE: usize = 128;

fn row_split_launch() -> LaunchConfig {
    LaunchConfig {
        threads_per_tb: 64,
        regs_per_thread: 64,
        smem_per_tb: 2 * 1024,
    }
}

fn one_dim_launch() -> LaunchConfig {
    // The official kernel's register pressure caps occupancy well below
    // the row-split kernel's (the paper's "decreases the achieved active
    // warps per SM" observation, §4).
    LaunchConfig {
        threads_per_tb: ONE_DIM_TILE,
        regs_per_thread: 128,
        smem_per_tb: 2 * 1024,
    }
}

/// Estimates the reuse footprint of fine-kernel RHS accesses: the bytes of
/// distinct RHS rows touched by a group of `group` consecutive output
/// rows. Sliding-window patterns produce small footprints (L1-resident),
/// scattered patterns produce operand-sized ones.
pub fn fine_reuse_footprint(structure: &Csr<Half>, head_dim: usize, group: usize) -> u64 {
    let rows = structure.rows();
    if rows == 0 {
        return 0;
    }
    let group = group.max(1);
    // Co-resident thread blocks are handed out round-robin across SMs, so
    // the rows sharing an SM's L1 are STRIDED through the matrix, not
    // consecutive. Sample `group` rows at the typical dispatch stride.
    let stride = 101.min(rows.max(1));
    let mut samples = 0u64;
    let mut total_distinct = 0u64;
    let mut start = 0;
    // Distinct columns per sample are counted on a bitset over the
    // columns, cleared between samples.
    let mut seen = vec![0u64; structure.cols().div_ceil(64)];
    while start < rows && samples < 8 {
        seen.fill(0);
        for i in 0..group {
            let r = (start + i * stride) % rows;
            for &c in &structure.col_indices()[structure.row_range(r)] {
                let (word, bit) = (c / 64, 1u64 << (c % 64));
                total_distinct += u64::from(seen[word] & bit == 0);
                seen[word] |= bit;
            }
        }
        samples += 1;
        start += (rows / 8).max(1);
    }
    let avg_distinct = total_distinct / samples.max(1);
    avg_distinct * head_dim as u64 * 2
}

/// Builds the timing profile of the fine SDDMM `s[i] = q_row · k_col` over
/// the non-zeros of `structure`, replicated over `dims.instances()` heads.
pub fn fine_sddmm_profile(
    spec: &DeviceSpec,
    dims: &AttnDims,
    structure: &Csr<Half>,
    scheme: FineSddmmScheme,
    name: &str,
) -> KernelProfile {
    let dh = dims.head_dim as u64;
    let per_instance: Vec<TbWork> = match scheme {
        FineSddmmScheme::RowSplit => par::map_indexed(structure.rows(), |r| {
            let n = structure.row_nnz(r) as u64;
            TbWork {
                tensor_macs: 0,
                cuda_flops: n * dh * 2 + n * 4,
                sfu_ops: 0,
                // Q row once (registers), K row + column index per nnz.
                l2_read: dh * 2 + n * (dh * 2 + 4) + 8,
                dram_read: 0,
                dram_write: n * 2,
                stall_cycles: tuning::FINE_STALL_CYCLES,
            }
        }),
        FineSddmmScheme::OneDimTiling => par::map_indexed(structure.rows(), |r| {
            let n = structure.row_nnz(r);
            let tiles = n.div_ceil(ONE_DIM_TILE).max(1);
            (0..tiles)
                .map(move |t| {
                    let real = (n - t * ONE_DIM_TILE).min(ONE_DIM_TILE) as u64;
                    TbWork {
                        tensor_macs: 0,
                        // Idle warps still occupy the block for the full
                        // tile's duration: charge the padded tile.
                        cuda_flops: ONE_DIM_TILE as u64 * dh * 2,
                        sfu_ops: 0,
                        l2_read: dh * 2 + real * (dh * 2 + 4) + 8,
                        dram_read: 0,
                        dram_write: real * 2,
                        stall_cycles: tuning::FINE_STALL_CYCLES,
                    }
                })
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect(),
    };
    let launch = match scheme {
        FineSddmmScheme::RowSplit => row_split_launch(),
        FineSddmmScheme::OneDimTiling => one_dim_launch(),
    };
    let unique = (2 * dims.operand_bytes() + structure.metadata_bytes()) * dims.instances() as u64;
    filter_and_replicate(
        spec,
        name,
        launch,
        per_instance,
        dims.instances(),
        CacheHints {
            unique_bytes: unique,
            reuse_footprint: fine_reuse_footprint(structure, dims.head_dim, 16),
        },
    )
}

/// Rows with fewer stored elements than this skip the chunked microkernel
/// routing (run detection, lane gathering) and dot each element directly
/// against the K panel: a row shorter than one `NR` chunk never fills the
/// register block, so the chunk machinery is pure overhead there. The
/// direct path uses the same ascending-d `-0.0`-seeded accumulation
/// (`dot_f32` ≡ each microkernel lane), so the routing threshold never
/// changes a bit of the output — perf_study's paired-timing assertion
/// holds the packed path to ≥ 1.0× naive on every request class.
const FINE_SDDMM_DIRECT_NNZ: usize = NR;

/// Computes the fine SDDMM functionally: fills the values of `structure`
/// with `q[row] · k[col]` (FP32 accumulation, FP16 result) — only valid
/// elements, no waste.
///
/// # Panics
///
/// Panics if `q`/`k` dimensions disagree with the structure.
pub fn fine_sddmm_compute(q: &Matrix<Half>, k: &Matrix<Half>, structure: &Csr<Half>) -> Csr<Half> {
    assert_eq!(q.rows(), structure.rows(), "Q rows mismatch");
    assert_eq!(k.rows(), structure.cols(), "K rows mismatch");
    assert_eq!(q.cols(), k.cols(), "head dimension mismatch");
    let mut out = structure.clone();
    // Q and K are decoded into f32 panels once per kernel invocation, not
    // once per non-zero inside the dot — the CPU analogue of staging
    // operand tiles in shared memory. Decode is exact, so results are
    // bit-identical to dotting the FP16 rows directly.
    let q_panel = Panel::from_matrix(q);
    let k_panel = Panel::from_matrix(k);
    // K is also staged d-major: sliding-window and selected-column parts
    // leave long consecutive-column runs in the CSR rows, and a run reads
    // the transposed panel contiguously instead of gathering NR row
    // pointers.
    let k_t = Panel::from_matrix_transposed(k);
    // Each CSR row owns a contiguous run of the value array; split there
    // and fill the runs in parallel.
    let rows = structure.rows();
    let bounds: Vec<usize> = (0..=rows)
        .map(|r| {
            if r < rows {
                structure.row_range(r).start
            } else {
                structure.nnz()
            }
        })
        .collect();
    par::for_each_part_mut(out.values_mut(), &bounds, |r, vals| {
        let base = bounds[r];
        let q_row = q_panel.row(r);
        if vals.len() < FINE_SDDMM_DIRECT_NNZ {
            // Short row: direct per-element dots over the staged panels
            // (see `FINE_SDDMM_DIRECT_NNZ`); bit-identical to the chunked
            // routing below.
            for (slot, &c) in vals.iter_mut().zip(structure.col_indices()[base..].iter()) {
                *slot = Half::from_f32(dot_f32(q_row, k_panel.row(c)));
            }
            return;
        }
        // NR-wide register blocks over the row's non-zeros: the NR
        // accumulator chains interleave and pipeline, while each stored
        // element still sums its products in ascending-d order from the
        // -0.0 seed — bit-identical to dotting the FP16 rows one non-zero
        // at a time.
        let cols = &structure.col_indices()[base..base + vals.len()];
        for (chunk, slots) in cols.chunks(NR).zip(vals.chunks_mut(NR)) {
            let regs = score_chunk(q_row, chunk, &k_panel, &k_t);
            pack::encode_slice(&regs[..chunk.len()], slots);
        }
    });
    out
}

/// Whether a non-empty list of sorted, distinct columns is consecutive:
/// exactly when its endpoints are `len - 1` apart.
pub(crate) fn is_run(cols: &[usize]) -> bool {
    cols[cols.len() - 1] == cols[0] + cols.len() - 1
}

/// Scores one chunk of at most [`NR`] sorted, distinct columns against
/// `q_row`: lane `j` is `dot_f32(q_row, K row cols[j])`, the ascending-d
/// chain from the `-0.0` seed `dot`'s `Sum` fold uses. A consecutive run
/// reads a contiguous window of the d-major `k_t` through the shared row
/// microkernel; any other chunk gathers its rows of `k` for
/// [`dot_rows_block`]. Both orders are the same, so the route never
/// changes a bit. The fine SDDMM and the fused kernel score through it.
pub(crate) fn score_chunk(q_row: &[f32], cols: &[usize], k: &Panel, k_t: &Panel) -> [f32; NR] {
    let mut regs = [-0.0f32; NR];
    if is_run(cols) {
        let window = &mut regs[..cols.len()];
        accumulate_row_window::<false>(q_row, k_t.as_slice(), k_t.cols(), cols[0], window);
        regs
    } else {
        let mut rows: [&[f32]; NR] = [&[]; NR];
        for (row, &c) in rows.iter_mut().zip(cols) {
            *row = k.row(c);
        }
        dot_rows_block(q_row, &rows, cols.len())
    }
}

/// Builds the timing profile of the fine SpMM `C = P_csr × V` (1D tiling
/// over the dense output: one thread block per output row), replicated
/// over `dims.instances()` heads.
pub fn fine_spmm_profile(
    spec: &DeviceSpec,
    dims: &AttnDims,
    structure: &Csr<Half>,
    name: &str,
) -> KernelProfile {
    let dh = dims.head_dim as u64;
    let per_instance: Vec<TbWork> = par::map_indexed(structure.rows(), |r| {
        let n = structure.row_nnz(r) as u64;
        TbWork {
            tensor_macs: 0,
            cuda_flops: n * dh * 2,
            sfu_ops: 0,
            // P value + column index + V row per non-zero.
            l2_read: n * (2 + 4 + dh * 2) + 8,
            dram_read: 0,
            dram_write: dh * 2,
            stall_cycles: tuning::FINE_STALL_CYCLES,
        }
    });
    let unique = (dims.operand_bytes() + structure.value_bytes() + structure.metadata_bytes())
        * dims.instances() as u64;
    filter_and_replicate(
        spec,
        name,
        row_split_launch(),
        per_instance,
        dims.instances(),
        CacheHints {
            unique_bytes: unique,
            reuse_footprint: fine_reuse_footprint(structure, dims.head_dim, 16),
        },
    )
}

/// Computes the fine SpMM functionally: `C = P × V` over stored non-zeros
/// only.
///
/// # Panics
///
/// Panics if `v` row count disagrees with the structure's columns.
pub fn fine_spmm_compute(p: &Csr<Half>, v: &Matrix<Half>) -> Matrix<Half> {
    assert_eq!(v.rows(), p.cols(), "V rows mismatch");
    let dh = v.cols();
    // Decode V and the stored probabilities once up front; the inner loop
    // then runs purely on f32 panels.
    let v_panel = Panel::from_matrix(v);
    let p_panel = Panel::from_slice(p.values(), 1);
    let p_vals = p_panel.as_slice();
    let mut acc = Matrix::<f32>::zeros(p.rows(), dh);
    // Output rows are independent; per-row accumulation order follows the
    // CSR storage order either way, so parallel runs are bit-identical.
    par::for_each_chunk_mut(acc.as_mut_slice(), dh, |r, out_row| {
        for i in p.row_range(r) {
            let c = p.col_indices()[i];
            let pv = p_vals[i];
            // `fine::naive`'s rule: a zero probability is skipped, so
            // it contributes nothing even where `0 × Inf` would be NaN.
            if pv == 0.0 {
                continue;
            }
            let v_row = v_panel.row(c);
            for (d, out_val) in out_row.iter_mut().enumerate() {
                *out_val += pv * v_row[d];
            }
        }
    });
    acc.cast()
}

/// Scalar reference implementations of the fine kernels; same contract
/// (and bit-identical output) as the packed compute paths above — the
/// gate that lets the packed paths re-tile freely.
pub mod naive {
    use super::*;
    use mg_tensor::dot;

    /// Scalar fine SDDMM: one FP16 `dot` per stored element, no
    /// panels, no register tiling.
    ///
    /// # Panics
    ///
    /// Panics if `q`/`k` dimensions disagree with the structure.
    pub fn fine_sddmm_compute(
        q: &Matrix<Half>,
        k: &Matrix<Half>,
        structure: &Csr<Half>,
    ) -> Csr<Half> {
        assert_eq!(q.rows(), structure.rows(), "Q rows mismatch");
        assert_eq!(k.rows(), structure.cols(), "K rows mismatch");
        assert_eq!(q.cols(), k.cols(), "head dimension mismatch");
        let mut out = structure.clone();
        for r in 0..structure.rows() {
            for i in structure.row_range(r) {
                let c = structure.col_indices()[i];
                out.values_mut()[i] = Half::from_f32(dot(q.row(r), k.row(c)));
            }
        }
        out
    }

    /// Scalar fine SpMM: both operands decoded per element, stored
    /// elements in CSR order. A zero P element is skipped, so it
    /// contributes nothing even against an infinite or NaN V.
    ///
    /// # Panics
    ///
    /// Panics if `v` row count disagrees with the structure's columns.
    pub fn fine_spmm_compute(p: &Csr<Half>, v: &Matrix<Half>) -> Matrix<Half> {
        assert_eq!(v.rows(), p.cols(), "V rows mismatch");
        let mut acc = Matrix::<f32>::zeros(p.rows(), v.cols());
        for r in 0..p.rows() {
            let out_row = acc.row_mut(r);
            for i in p.row_range(r) {
                // mg-lint: allow(P1): the naive path decodes per element by design, like gemm::naive
                let pv = p.values()[i].to_f32();
                if pv == 0.0 {
                    continue;
                }
                for (out_val, vv) in out_row.iter_mut().zip(v.row(p.col_indices()[i])) {
                    // mg-lint: allow(P1): the naive path decodes per element by design, like gemm::naive
                    *out_val += pv * vv.to_f32();
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
            heads: 1,
        }
    }

    fn structure() -> Csr<Half> {
        Csr::from_coords(
            16,
            16,
            &[(0, 0), (0, 5), (1, 2), (3, 3), (3, 9), (3, 15), (10, 1)],
        )
        .expect("valid")
    }

    #[test]
    fn sddmm_compute_matches_dense_reference() {
        let q = Matrix::<Half>::random(16, 8, 1);
        let k = Matrix::<Half>::random(16, 8, 2);
        let s = fine_sddmm_compute(&q, &k, &structure());
        let reference: Matrix<f32> = gemm_nt(&q, &k);
        for (r, c, v) in s.iter() {
            assert_eq!(v, Half::from_f32(reference.get(r, c)), "element ({r},{c})");
        }
    }

    #[test]
    fn sddmm_run_routing_is_bit_identical_to_naive() {
        // Sliding-window rows are all consecutive runs (the contiguous
        // d-major path); the scattered structure above exercises the
        // gathered path; a mix of both covers the routing boundary.
        let window: Csr<Half> = {
            let coords: Vec<(usize, usize)> = (0..32)
                .flat_map(|r: usize| (r.saturating_sub(5)..=(r + 5).min(31)).map(move |c| (r, c)))
                .collect();
            Csr::from_coords(32, 32, &coords).expect("valid")
        };
        let mixed: Csr<Half> = {
            let mut coords: Vec<(usize, usize)> = (0..32)
                .flat_map(|r: usize| (r.saturating_sub(3)..=r).map(move |c| (r, c)))
                .collect();
            coords.extend((0..32).map(|r: usize| (r, (r * 13 + 7) % 32)));
            coords.sort_unstable();
            coords.dedup();
            Csr::from_coords(32, 32, &coords).expect("valid")
        };
        let q = Matrix::<Half>::random(32, 8, 6);
        let k = Matrix::<Half>::random(32, 8, 7);
        for structure in [&window, &mixed] {
            let packed = fine_sddmm_compute(&q, &k, structure);
            let reference = naive::fine_sddmm_compute(&q, &k, structure);
            for (a, b) in packed.values().iter().zip(reference.values()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn spmm_compute_matches_dense_reference() {
        let q = Matrix::<Half>::random(16, 8, 3);
        let k = Matrix::<Half>::random(16, 8, 4);
        let p = fine_sddmm_compute(&q, &k, &structure());
        let v = Matrix::<Half>::random(16, 8, 5);
        let c = fine_spmm_compute(&p, &v);
        let c_ref: Matrix<f32> = mg_tensor::gemm(&p.to_dense(), &v);
        assert!(c.max_abs_diff(&c_ref) < 0.05);
    }

    #[test]
    fn row_split_has_one_tb_per_row() {
        let spec = DeviceSpec::a100();
        let p = fine_sddmm_profile(
            &spec,
            &dims(),
            &structure(),
            FineSddmmScheme::RowSplit,
            "sddmm",
        );
        assert_eq!(p.tb_count(), 16);
    }

    #[test]
    fn one_dim_tiling_charges_padded_tiles() {
        let spec = DeviceSpec::a100();
        let rs = fine_sddmm_profile(
            &spec,
            &dims(),
            &structure(),
            FineSddmmScheme::RowSplit,
            "rs",
        );
        let od = fine_sddmm_profile(
            &spec,
            &dims(),
            &structure(),
            FineSddmmScheme::OneDimTiling,
            "od",
        );
        assert!(
            od.total().cuda_flops > 10 * rs.total().cuda_flops,
            "padded tiles waste compute: {} vs {}",
            od.total().cuda_flops,
            rs.total().cuda_flops
        );
    }

    #[test]
    fn flops_proportional_to_nnz_only() {
        let spec = DeviceSpec::a100();
        let p = fine_sddmm_profile(
            &spec,
            &dims(),
            &structure(),
            FineSddmmScheme::RowSplit,
            "sddmm",
        );
        // 7 nnz x (8 MACs x 2 + epilogue 4).
        assert_eq!(p.total().cuda_flops, 7 * (8 * 2 + 4));
    }

    #[test]
    fn footprint_small_for_local_large_for_random() {
        let local: Csr<Half> = {
            let coords: Vec<(usize, usize)> = (0..64)
                .flat_map(|r: usize| (r.saturating_sub(2)..=(r + 2).min(63)).map(move |c| (r, c)))
                .collect();
            Csr::from_coords(64, 64, &coords).expect("valid")
        };
        let scattered: Csr<Half> = {
            let coords: Vec<(usize, usize)> = (0..64).map(|r: usize| (r, (r * 37) % 64)).collect();
            let mut sorted = coords;
            sorted.sort_unstable();
            Csr::from_coords(64, 64, &sorted).expect("valid")
        };
        let f_local = fine_reuse_footprint(&local, 64, 16);
        let f_scattered = fine_reuse_footprint(&scattered, 64, 16);
        assert!(
            f_local <= f_scattered * 6,
            "local {f_local} vs scattered {f_scattered}"
        );
        assert!(f_local > 0 && f_scattered > 0);
    }

    /// Reference footprint: collect, sort and dedup each sample's
    /// columns.
    fn footprint_by_sorting(structure: &Csr<Half>, head_dim: usize, group: usize) -> u64 {
        let rows = structure.rows();
        if rows == 0 {
            return 0;
        }
        let group = group.max(1);
        let stride = 101.min(rows.max(1));
        let mut samples = 0u64;
        let mut total_distinct = 0u64;
        let mut start = 0;
        while start < rows && samples < 8 {
            let mut cols: Vec<usize> = (0..group)
                .map(|i| (start + i * stride) % rows)
                .flat_map(|r| {
                    let range = structure.row_range(r);
                    structure.col_indices()[range].iter().copied()
                })
                .collect();
            cols.sort_unstable();
            cols.dedup();
            total_distinct += cols.len() as u64;
            samples += 1;
            start += (rows / 8).max(1);
        }
        total_distinct / samples.max(1) * head_dim as u64 * 2
    }

    #[test]
    fn footprint_matches_sort_and_dedup_on_presets_and_random_patterns() {
        use mg_patterns::presets;
        let mut corpus: Vec<Csr<Half>> = Vec::new();
        for seq in [64, 256, 1024] {
            let specials = [0, 1, seq / 2];
            let mut patterns = presets::figure9_patterns(seq, 16, seq as u64);
            patterns.push(presets::longformer(seq, 32, &specials));
            patterns.push(presets::qds_transformer(seq, 32, &specials));
            patterns.push(presets::bigbird_etc(seq, 16, &specials));
            patterns.push(presets::poolingformer(seq, 32));
            for p in &patterns {
                corpus.push(p.to_csr());
                corpus.push(p.clone().with_valid_len(seq * 3 / 4).to_csr());
            }
        }
        // Random patterns: shapes from empty to wide, densities from one
        // column per row to nearly dense, column counts not a multiple
        // of 64.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = |n: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % n
        };
        for _ in 0..200 {
            let (rows, cols) = (next(300), 1 + next(700));
            let per_row = 1 + next(cols.min(90));
            let mut coords: Vec<(usize, usize)> = (0..rows)
                .flat_map(|r| (0..per_row).map(move |_| r))
                .map(|r| (r, next(cols)))
                .collect();
            coords.sort_unstable();
            coords.dedup();
            corpus.push(Csr::from_coords(rows, cols, &coords).expect("valid"));
        }
        for (i, csr) in corpus.iter().enumerate() {
            for group in [0, 1, 16, 40] {
                assert_eq!(
                    fine_reuse_footprint(csr, 64, group),
                    footprint_by_sorting(csr, 64, group),
                    "pattern {i} ({}x{}), group {group}",
                    csr.rows(),
                    csr.cols()
                );
            }
        }
    }

    #[test]
    fn spmm_writes_each_output_row_once() {
        let spec = DeviceSpec::a100();
        let p = fine_spmm_profile(&spec, &dims(), &structure(), "spmm");
        // One write per output element, 25% evicted to DRAM (write-back).
        assert_eq!(p.total().dram_write, 16 * 8 * 2 / 4);
    }

    #[test]
    fn global_row_dominates_row_split_blocks() {
        // A dense row produces a far heavier thread block than the rest —
        // the paper's §5.2.1 load-imbalance mechanism.
        let mut coords: Vec<(usize, usize)> = (0..64).map(|c| (0, c)).collect();
        coords.extend((1..64).map(|r| (r, r)));
        coords.sort_unstable();
        let csr = Csr::<Half>::from_coords(64, 64, &coords).expect("valid");
        let spec = DeviceSpec::a100();
        let p = fine_sddmm_profile(
            &spec,
            &AttnDims {
                seq_len: 64,
                head_dim: 8,
                batch: 1,
                heads: 1,
            },
            &csr,
            FineSddmmScheme::RowSplit,
            "sddmm",
        );
        let max = p.tbs.iter().map(|t| t.cuda_flops).max().expect("non-empty");
        let sum: u64 = p.tbs.iter().map(|t| t.cuda_flops).sum();
        let mean = sum / p.tb_count() as u64;
        assert!(max > 20 * mean, "skew: max {max} mean {mean}");
    }
}
