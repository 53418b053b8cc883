//! The GEMM-conversion methods for local patterns the paper discusses in
//! §2.4: Longformer's *sliding chunk* and BigBird's *blockify*.
//!
//! Both trade sparse kernels for dense GEMMs by copying the operands into
//! chunked tensors first — sliding chunk duplicates overlapping key/value
//! chunks (≈2× extra memory), blockify materializes three rolled copies
//! of the right-hand side (≈3×). The copies are pure memory traffic; the
//! GEMMs run at full tensor-core efficiency. This module provides both
//! the functional computation and the kernel profiles so the trade-off
//! can be measured against the sparse methods.

use crate::cache::apply_writeback_filter;
use crate::{dense_gemm_profile, AttnDims};
use mg_gpusim::{DeviceSpec, KernelRuns, LaunchConfig, TbWork};
use mg_tensor::{
    accumulate_row_window, pack, pack::Panel, scratch, softmax_row_in_place, Half, Matrix,
};

/// Functional sliding-chunk attention: computes exactly the local-window
/// attention `softmax(scale·QKᵀ + band_mask) V` with half-window
/// `window / 2`, via per-chunk dense GEMMs over a 3-chunk key span —
/// Longformer's algorithm.
///
/// # Panics
///
/// Panics if the matrices disagree in shape or the chunk size
/// (`window / 2`) does not divide the sequence length.
pub fn sliding_chunk_attention_compute(
    q: &Matrix<Half>,
    k: &Matrix<Half>,
    v: &Matrix<Half>,
    window: usize,
    scale: f32,
) -> Matrix<Half> {
    let l = q.rows();
    assert_eq!(k.rows(), l, "K rows mismatch");
    assert_eq!(v.rows(), l, "V rows mismatch");
    let h = (window / 2).max(1);
    assert_eq!(l % h, 0, "chunk size must divide the sequence length");
    let dh = q.cols();
    let chunks = l / h;
    let mut out = Matrix::<Half>::zeros(l, dh);
    // Operands staged as f32 panels once for the whole computation; K
    // d-major, so a row's band of keys is a contiguous window of Kᵀ.
    let q_panel = Panel::from_matrix(q);
    let k_t = Panel::from_matrix_transposed(k);
    let v_panel = Panel::from_matrix(v);
    let mut acc = vec![0.0f32; dh];

    for ci in 0..chunks {
        // Key/value span: chunks ci-1, ci, ci+1 (clipped at the edges).
        let span_lo = ci.saturating_sub(1) * h;
        let span_hi = ((ci + 2) * h).min(l);
        let span = span_hi - span_lo;
        for r in ci * h..(ci + 1) * h {
            // Scores for the row's band `|r - c| <= h` inside the span,
            // each lane from the `-0.0` seed `dot` uses; the rest of the
            // span stays masked at -inf.
            let band_lo = r.saturating_sub(h).max(span_lo);
            let band_hi = (r + h + 1).min(span_hi);
            let mut row = scratch::take_zeroed(span);
            row.fill(f32::NEG_INFINITY);
            let band = &mut row[band_lo - span_lo..band_hi - span_lo];
            band.fill(-0.0);
            accumulate_row_window::<false>(q_panel.row(r), k_t.as_slice(), l, band_lo, band);
            for slot in band.iter_mut() {
                // Same FP16 rounding as the sparse kernels: S is stored
                // in FP16 before the softmax.
                // mg-lint: allow(P1): single rounding of an f32 score, not an operand decode
                *slot = Half::from_f32(*slot).to_f32() * scale;
            }
            softmax_row_in_place(&mut row);
            // P is rounded through FP16 like the sparse pipeline's stored
            // probabilities before the context GEMM.
            for x in row.iter_mut() {
                // mg-lint: allow(P1): intentional FP16 round-trip of P, not an operand decode
                *x = Half::from_f32(*x).to_f32();
            }
            // Context: a zero-skipping row-microkernel pass from `+0.0`
            // over the span's contiguous V rows.
            acc.fill(0.0);
            let v_span = &v_panel.as_slice()[span_lo * dh..span_hi * dh];
            accumulate_row_window::<true>(&row, v_span, dh, 0, &mut acc);
            pack::encode_slice(&acc, out.row_mut(r));
        }
    }
    out
}

/// Per-chunk-method workspace and kernel profiles.
#[derive(Debug, Clone)]
pub struct ChunkedPlan {
    /// Kernels to run, in order (copies, GEMMs, softmax, GEMMs).
    pub kernels: Vec<KernelRuns>,
    /// Extra workspace the method allocates beyond Q/K/V/C, bytes — the
    /// paper's ≈2× (sliding chunk) or ≈3× (blockify) memory overhead.
    pub workspace_bytes: u64,
}

impl ChunkedPlan {
    /// Total simulated duration when run back-to-back on one stream.
    pub fn run_timed(&self, gpu: &mut mg_gpusim::Gpu) -> f64 {
        let t0 = gpu.elapsed();
        for kernel in &self.kernels {
            gpu.launch(mg_gpusim::DEFAULT_STREAM, kernel.clone());
        }
        gpu.synchronize() - t0
    }
}

/// Memory-copy kernel profile: streams `bytes` in and out.
fn copy_profile(spec: &DeviceSpec, bytes: u64, name: &str) -> KernelRuns {
    let launch = LaunchConfig {
        threads_per_tb: 256,
        regs_per_thread: 32,
        smem_per_tb: 0,
    };
    let tile: u64 = 64 * 1024;
    let tbs = (bytes / tile).max(1) as usize;
    let per = bytes / tbs as u64;
    let mut profile = KernelRuns::uniform(
        name,
        launch,
        tbs,
        TbWork {
            l2_read: per,
            dram_read: per, // copies stream fresh data; no reuse to filter
            dram_write: per,
            ..TbWork::default()
        },
    );
    apply_writeback_filter(spec, &mut profile);
    profile
}

/// Softmax-over-chunks profile: `rows` rows of `span` elements each.
fn chunk_softmax_profile(
    spec: &DeviceSpec,
    rows: usize,
    span: usize,
    instances: usize,
    name: &str,
) -> KernelRuns {
    let launch = LaunchConfig {
        threads_per_tb: 256,
        regs_per_thread: 40,
        smem_per_tb: 4096,
    };
    let n = span as u64;
    let mut profile = KernelRuns::uniform(
        name,
        launch,
        rows * instances,
        TbWork {
            cuda_flops: n * 8,
            sfu_ops: n,
            l2_read: n * 8,
            dram_read: n * 8,
            dram_write: n * 2,
            ..TbWork::default()
        },
    );
    apply_writeback_filter(spec, &mut profile);
    profile
}

/// Builds the sliding-chunk execution plan for a local pattern of total
/// width `window` (Longformer's method): copy K and V into overlapping
/// chunk tensors (~2× duplication), then run chunked dense GEMMs and a
/// dense softmax over the 3-chunk span.
pub fn sliding_chunk_plan(spec: &DeviceSpec, dims: &AttnDims, window: usize) -> ChunkedPlan {
    let h = (window / 2).max(1);
    let l = dims.seq_len;
    let chunks = l.div_ceil(h);
    let span = 3 * h;
    let inst = dims.instances();
    let operand = dims.operand_bytes();

    // Overlapping chunk copies of K and V: each interior chunk is stored
    // in three spans → ~3x reads, 2x extra storage (the paper's "2x the
    // amount of memory" for the duplicated overlaps, per operand).
    let copy_bytes = 2 * operand * 2 * inst as u64;
    let workspace = 2 * operand * 2 * inst as u64;

    // Copies, scores (h x span GEMM per chunk), softmax, context
    // (h x head_dim GEMM per chunk over the span).
    let kernels = vec![
        copy_profile(spec, copy_bytes, "chunk.copy_kv"),
        dense_gemm_profile(spec, h, span, dims.head_dim, chunks * inst, "chunk.scores"),
        chunk_softmax_profile(spec, l, span, inst, "chunk.softmax"),
        dense_gemm_profile(spec, h, dims.head_dim, span, chunks * inst, "chunk.context"),
    ];
    ChunkedPlan {
        kernels,
        workspace_bytes: workspace,
    }
}

/// Profile of [`sliding_chunk_attention_compute`]: the kernels of the
/// sliding-chunk plan, flattened into one list for the cost model.
///
/// The plan ([`sliding_chunk_plan`]) stays the richer interface — it
/// also carries the workspace overhead — but this sibling keeps the
/// chunked method inside the same `*_compute` ↔ `*_profile` contract
/// as every other kernel.
pub fn sliding_chunk_attention_profile(
    spec: &DeviceSpec,
    dims: &AttnDims,
    window: usize,
) -> Vec<KernelRuns> {
    sliding_chunk_plan(spec, dims, window).kernels
}

/// Builds the blockify execution plan for a blocked-local band of block
/// size `block` (BigBird's method): materialize three rolled copies of
/// the key/value tensors (≈3× memory), then run block-diagonal GEMMs.
pub fn blockify_plan(spec: &DeviceSpec, dims: &AttnDims, block: usize) -> ChunkedPlan {
    let b = block.max(1);
    let l = dims.seq_len;
    let blocks = l.div_ceil(b);
    let inst = dims.instances();
    let operand = dims.operand_bytes();

    // Three stacked copies of K and V (rolled up, middle, rolled down).
    let copy_bytes = 3 * operand * 2 * inst as u64;
    let workspace = 3 * operand * 2 * inst as u64;

    let kernels = vec![
        copy_profile(spec, copy_bytes, "blockify.stack_kv"),
        dense_gemm_profile(
            spec,
            b,
            3 * b,
            dims.head_dim,
            blocks * inst,
            "blockify.scores",
        ),
        chunk_softmax_profile(spec, l, 3 * b, inst, "blockify.softmax"),
        dense_gemm_profile(
            spec,
            b,
            dims.head_dim,
            3 * b,
            blocks * inst,
            "blockify.context",
        ),
    ];
    ChunkedPlan {
        kernels,
        workspace_bytes: workspace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_patterns::{AtomicPattern, CompoundPattern};

    #[test]
    fn sliding_chunk_matches_local_reference() {
        let (l, dh, window) = (64, 8, 16);
        let q = Matrix::<Half>::random(l, dh, 1);
        let k = Matrix::<Half>::random(l, dh, 2);
        let v = Matrix::<Half>::random(l, dh, 3);
        let got = sliding_chunk_attention_compute(&q, &k, &v, window, 0.35);
        let pattern = CompoundPattern::new(l).with(AtomicPattern::Local { window });
        let mask = pattern.to_dense_mask();
        let s: Matrix<Half> = mg_tensor::gemm_nt(&q, &k);
        let p: Matrix<Half> = mg_tensor::softmax_rows(&s, 0.35, Some(&mask));
        let reference: Matrix<Half> = mg_tensor::gemm(&p, &v);
        let diff = got.max_abs_diff(&reference);
        assert!(diff < 0.02, "sliding chunk diverges: {diff}");
    }

    #[test]
    #[should_panic(expected = "chunk size must divide")]
    fn sliding_chunk_rejects_misaligned_length() {
        let q = Matrix::<Half>::zeros(10, 4);
        let _ = sliding_chunk_attention_compute(&q, &q.clone(), &q.clone(), 8, 1.0);
    }

    #[test]
    fn plans_report_memory_overhead() {
        let spec = DeviceSpec::a100();
        let dims = AttnDims {
            seq_len: 1024,
            head_dim: 64,
            batch: 1,
            heads: 4,
        };
        let sliding = sliding_chunk_plan(&spec, &dims, 128);
        let blockify = blockify_plan(&spec, &dims, 64);
        // Paper §2.4: sliding chunk ~2x per operand, blockify ~3x.
        assert_eq!(sliding.workspace_bytes, 2 * 2 * dims.operand_bytes() * 4);
        assert_eq!(blockify.workspace_bytes, 3 * 2 * dims.operand_bytes() * 4);
        assert!(blockify.workspace_bytes > sliding.workspace_bytes);
    }

    #[test]
    fn attention_profile_is_the_plan_kernels() {
        let spec = DeviceSpec::a100();
        let dims = AttnDims {
            seq_len: 512,
            head_dim: 64,
            batch: 1,
            heads: 2,
        };
        let profile = sliding_chunk_attention_profile(&spec, &dims, 64);
        let plan = sliding_chunk_plan(&spec, &dims, 64);
        assert_eq!(profile.len(), plan.kernels.len());
        for (a, b) in profile.iter().zip(&plan.kernels) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.total(), b.total());
        }
    }

    #[test]
    fn plans_time_positive_and_copy_bound_part_visible() {
        let spec = DeviceSpec::a100();
        let dims = AttnDims {
            seq_len: 1024,
            head_dim: 64,
            batch: 1,
            heads: 4,
        };
        let plan = sliding_chunk_plan(&spec, &dims, 128);
        let mut gpu = mg_gpusim::Gpu::new(spec);
        let t = plan.run_timed(&mut gpu);
        assert!(t > 0.0);
        assert_eq!(gpu.records().len(), 4);
        let copy = gpu
            .records()
            .iter()
            .find(|r| r.name == "chunk.copy_kv")
            .expect("copy kernel");
        assert!(copy.duration() > 0.0, "copies cost real time");
    }
}
