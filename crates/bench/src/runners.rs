//! Experiment runners: one function per table/figure of the paper.
//!
//! Each runner returns structured results (and [`crate::reproduce`]
//! renders them next to the paper's reported ranges). All runners are
//! deterministic: fixed seeds, analytical timing.

use crate::{Band, Table};
use mg_gpusim::{DeviceSpec, Gpu, DEFAULT_STREAM};
use mg_kernels::{
    coarse_sddmm_profile, coarse_spmm_profile, fine_sddmm_profile, AttnDims, CoarseMapping,
    FineSddmmScheme,
};
use mg_models::{workload, ModelConfig, PatternKind, SparseTransformer};
use mg_patterns::{presets, AtomicPattern, CompoundPattern};
use multigrain::{Attention, AttentionProblem, Method, Op};

/// Head dimension used throughout the paper's §5.2 experiments.
pub const HEAD_DIM: usize = 64;
/// Heads used in §5.2 (single batch, four heads).
pub const HEADS: usize = 4;
/// Sequence length of §5.2.
pub const SEQ_LEN: usize = 4096;
/// Coarse block size.
pub const BLOCK: usize = 64;
/// Seed for the synthetic patterns and workloads.
pub const SEED: u64 = 42;

/// Speedup of Multigrain over a baseline: `baseline_s / multigrain_s`.
///
/// The single definition behind every `vs_*` ratio accessor below, so
/// the orientation (baseline in the numerator) can never drift between
/// result types.
fn speedup_over(baseline_s: f64, multigrain_s: f64) -> f64 {
    baseline_s / multigrain_s
}

/// Result of comparing Multigrain against the two baselines on one
/// operation and pattern.
#[derive(Debug, Clone)]
pub struct OpComparison {
    /// Pattern name, e.g. `"L+S+G"`.
    pub pattern: String,
    /// Multigrain phase time, seconds.
    pub multigrain_s: f64,
    /// Sputnik-style phase time, seconds.
    pub sputnik_s: f64,
    /// Triton-style phase time, seconds.
    pub triton_s: f64,
}

impl OpComparison {
    /// Speedup of Multigrain over the Sputnik-style baseline.
    pub fn vs_sputnik(&self) -> f64 {
        speedup_over(self.sputnik_s, self.multigrain_s)
    }

    /// Speedup of Multigrain over the Triton-style baseline.
    pub fn vs_triton(&self) -> f64 {
        speedup_over(self.triton_s, self.multigrain_s)
    }
}

/// Times one attention phase for all three methods on one pattern.
pub fn compare_op(
    spec: &DeviceSpec,
    pattern: &CompoundPattern,
    op: Op,
    batch: usize,
) -> OpComparison {
    let mut times = [0.0f64; 3];
    for (i, method) in Method::ALL.iter().enumerate() {
        let problem = AttentionProblem::new(pattern.clone(), HEAD_DIM, batch, HEADS, BLOCK);
        let attn = Attention::plan(*method, problem).expect("pattern is block-aligned");
        let mut gpu = Gpu::new(spec.clone());
        times[i] = attn.time_op(&mut gpu, op);
    }
    OpComparison {
        pattern: pattern.name(),
        multigrain_s: times[0],
        sputnik_s: times[2],
        triton_s: times[1],
    }
}

/// Table 1: echoes the simulated device specifications.
pub fn table1() -> Table {
    let mut t = Table::new(
        "Table 1 — GPU specifications used in the evaluation (simulated)",
        &[
            "GPU",
            "Mem BW (GB/s)",
            "FP16 CUDA (TFLOPS)",
            "FP16 Tensor (TFLOPS)",
            "L1/SM (KB)",
            "L2 (MB)",
            "SMs",
        ],
    );
    for spec in [DeviceSpec::a100(), DeviceSpec::rtx3090()] {
        t.push(vec![
            spec.name.to_owned(),
            format!("{:.1}", spec.mem_bw_bytes_per_s / 1e9),
            format!("{:.1}", spec.cuda_fp16_flops / 1e12),
            format!("{:.0}", spec.tensor_fp16_flops / 1e12),
            format!("{}", spec.l1_per_sm / 1024),
            format!("{}", spec.l2_bytes / 1024 / 1024),
            format!("{}", spec.sm_count),
        ]);
    }
    t
}

/// One model × device × method end-to-end measurement (Fig. 7/8).
#[derive(Debug, Clone)]
pub struct EndToEnd {
    /// Device name.
    pub device: &'static str,
    /// Model name.
    pub model: &'static str,
    /// Batch size.
    pub batch: usize,
    /// Total times per method, seconds: [Multigrain, Triton, Sputnik].
    pub total_s: [f64; 3],
    /// DRAM traffic per method, bytes.
    pub dram: [u64; 3],
}

impl EndToEnd {
    /// Speedup of Multigrain over the Sputnik baseline.
    pub fn vs_sputnik(&self) -> f64 {
        speedup_over(self.total_s[2], self.total_s[0])
    }

    /// Speedup of Multigrain over the Triton baseline.
    pub fn vs_triton(&self) -> f64 {
        speedup_over(self.total_s[1], self.total_s[0])
    }
}

/// Runs one end-to-end inference comparison.
fn end_to_end(spec: &DeviceSpec, config: &ModelConfig, batch: usize) -> EndToEnd {
    let model = SparseTransformer::new(config.clone());
    let samples = match config.pattern {
        PatternKind::LongformerStyle | PatternKind::BigBirdStyle => {
            workload::hotpotqa_like(config.max_seq_len, 16, SEED)
        }
        PatternKind::QdsStyle | PatternKind::PoolingformerStyle => {
            workload::msmarco_like(config.max_seq_len, 16, SEED)
        }
    };
    let rep = workload::representative(&samples);
    let mut total_s = [0.0f64; 3];
    let mut dram = [0u64; 3];
    for (i, method) in Method::ALL.iter().enumerate() {
        let mut gpu = Gpu::new(spec.clone());
        let r = model
            .inference_report(&mut gpu, *method, &rep, batch)
            .expect("model configs are block-aligned");
        total_s[i] = r.total();
        dram[i] = r.total_dram();
    }
    EndToEnd {
        device: spec.name,
        model: config.name,
        batch,
        total_s,
        dram,
    }
}

/// Fig. 7: end-to-end time and memory traffic, both models × both GPUs,
/// batch 1.
pub fn figure7() -> Vec<EndToEnd> {
    let mut out = Vec::new();
    for spec in [DeviceSpec::a100(), DeviceSpec::rtx3090()] {
        for cfg in [ModelConfig::longformer_large(), ModelConfig::qds_base()] {
            out.push(end_to_end(&spec, &cfg, 1));
        }
    }
    out
}

/// Fig. 8: end-to-end speedups over batch sizes 1–8 on the A100.
pub fn figure8() -> Vec<EndToEnd> {
    let spec = DeviceSpec::a100();
    let mut out = Vec::new();
    for cfg in [ModelConfig::longformer_large(), ModelConfig::qds_base()] {
        for batch in [1, 2, 4, 8] {
            out.push(end_to_end(&spec, &cfg, batch));
        }
    }
    out
}

/// Fig. 9: compound sparse GEMM (SDDMM and SpMM) over the six compound
/// patterns. Returns `(sddmm, spmm)` comparisons in pattern order.
pub fn figure9() -> (Vec<OpComparison>, Vec<OpComparison>) {
    let spec = DeviceSpec::a100();
    let patterns = presets::figure9_patterns(SEQ_LEN, BLOCK, SEED);
    let sddmm = patterns
        .iter()
        .map(|p| compare_op(&spec, p, Op::Sddmm, 1))
        .collect();
    let spmm = patterns
        .iter()
        .map(|p| compare_op(&spec, p, Op::Spmm, 1))
        .collect();
    (sddmm, spmm)
}

/// Fig. 10: compound sparse softmax over the same six patterns on A100.
pub fn figure10() -> Vec<OpComparison> {
    let spec = DeviceSpec::a100();
    presets::figure9_patterns(SEQ_LEN, BLOCK, SEED)
        .iter()
        .map(|p| compare_op(&spec, p, Op::Softmax, 1))
        .collect()
}

/// The three coarse-grained patterns of Fig. 11/12, with parameters
/// derived from Longformer (window 512) and QDS (block 64).
fn coarse_patterns() -> Vec<(String, CompoundPattern)> {
    vec![
        (
            "local".to_owned(),
            CompoundPattern::new(SEQ_LEN).with(AtomicPattern::Local { window: 128 }),
        ),
        (
            "blocked local".to_owned(),
            CompoundPattern::new(SEQ_LEN).with(AtomicPattern::BlockedLocal { block: 128 }),
        ),
        (
            "blocked random".to_owned(),
            CompoundPattern::new(SEQ_LEN).with(AtomicPattern::BlockedRandom {
                block: BLOCK,
                blocks_per_row: 3,
                seed: SEED,
            }),
        ),
    ]
}

/// One coarse-kernel comparison (our blocked row-splitting kernel vs the
/// Triton-style block-per-TB kernel).
#[derive(Debug, Clone)]
pub struct CoarseComparison {
    /// Pattern name.
    pub pattern: String,
    /// Batch size.
    pub batch: usize,
    /// Our kernel's time, seconds.
    pub ours_s: f64,
    /// Triton-style kernel's time, seconds.
    pub triton_s: f64,
}

impl CoarseComparison {
    /// Speedup of our kernel over the Triton-style kernel.
    pub fn speedup(&self) -> f64 {
        speedup_over(self.triton_s, self.ours_s)
    }
}

/// Fig. 11/12 core: times our coarse kernel vs Triton's mapping for one
/// op on one coarse pattern.
fn compare_coarse(
    spec: &DeviceSpec,
    name: &str,
    pattern: &CompoundPattern,
    op: Op,
    batch: usize,
) -> CoarseComparison {
    let dims = AttnDims {
        seq_len: SEQ_LEN,
        head_dim: HEAD_DIM,
        batch,
        heads: HEADS,
    };
    let blocked = pattern.to_blocked(BLOCK).expect("block-aligned");
    let run = |mapping: CoarseMapping| -> f64 {
        let profile = match op {
            Op::Sddmm => coarse_sddmm_profile(spec, &dims, &blocked.structure, mapping, "sddmm"),
            Op::Spmm => coarse_spmm_profile(spec, &dims, &blocked.structure, mapping, "spmm"),
            _ => unreachable!("fig 11/12 cover the sparse GEMMs"),
        };
        let mut gpu = Gpu::new(spec.clone());
        gpu.run_solo(profile).duration()
    };
    CoarseComparison {
        pattern: name.to_owned(),
        batch,
        ours_s: run(CoarseMapping::BlockRowPerTb),
        triton_s: run(CoarseMapping::BlockPerTb),
    }
}

/// Fig. 11: coarse kernels at batch 1 for SDDMM and SpMM.
pub fn figure11() -> (Vec<CoarseComparison>, Vec<CoarseComparison>) {
    let spec = DeviceSpec::a100();
    let pats = coarse_patterns();
    let sddmm = pats
        .iter()
        .map(|(n, p)| compare_coarse(&spec, n, p, Op::Sddmm, 1))
        .collect();
    let spmm = pats
        .iter()
        .map(|(n, p)| compare_coarse(&spec, n, p, Op::Spmm, 1))
        .collect();
    (sddmm, spmm)
}

/// Fig. 12: coarse kernels over batch sizes 1–8.
pub fn figure12() -> (Vec<CoarseComparison>, Vec<CoarseComparison>) {
    let spec = DeviceSpec::a100();
    let pats = coarse_patterns();
    let mut sddmm = Vec::new();
    let mut spmm = Vec::new();
    for batch in [1, 2, 4, 8] {
        for (n, p) in &pats {
            sddmm.push(compare_coarse(&spec, n, p, Op::Sddmm, batch));
            spmm.push(compare_coarse(&spec, n, p, Op::Spmm, batch));
        }
    }
    (sddmm, spmm)
}

/// §4 ablation: row-splitting vs official 1D-tiling fine SDDMM
/// (paper: 3.3×–6.2×). Returns `(pattern, speedup)` pairs.
pub fn ablation_rowsplit() -> Vec<(String, f64)> {
    let spec = DeviceSpec::a100();
    let dims = AttnDims {
        seq_len: SEQ_LEN,
        head_dim: HEAD_DIM,
        batch: 1,
        heads: HEADS,
    };
    coarse_patterns()
        .iter()
        .map(|(name, pattern)| {
            let csr = pattern.to_csr::<mg_tensor::Half>();
            let time = |scheme: FineSddmmScheme| -> f64 {
                let p = fine_sddmm_profile(&spec, &dims, &csr, scheme, "sddmm");
                let mut gpu = Gpu::new(spec.clone());
                gpu.run_solo(p).duration()
            };
            let row_split = time(FineSddmmScheme::RowSplit);
            let one_dim = time(FineSddmmScheme::OneDimTiling);
            (name.clone(), one_dim / row_split)
        })
        .collect()
}

/// §5.2.1: achieved/theoretical occupancy of the Sputnik SDDMM on the
/// L+S vs L+S+G patterns (paper: 89 % vs 61.2 %). Returns the two ratios.
pub fn occupancy_study() -> (f64, f64) {
    let spec = DeviceSpec::a100();
    let patterns = presets::figure9_patterns(SEQ_LEN, BLOCK, SEED);
    let measure = |pattern: &CompoundPattern| -> f64 {
        let dims = AttnDims {
            seq_len: SEQ_LEN,
            head_dim: HEAD_DIM,
            batch: 1,
            heads: HEADS,
        };
        let csr = pattern.to_csr::<mg_tensor::Half>();
        let profile = fine_sddmm_profile(&spec, &dims, &csr, FineSddmmScheme::RowSplit, "sddmm");
        let mut gpu = Gpu::new(spec.clone());
        gpu.launch(DEFAULT_STREAM, profile);
        gpu.synchronize();
        gpu.records()[0].achieved_over_theoretical
    };
    (measure(&patterns[0]), measure(&patterns[4])) // L+S, L+S+G
}

/// Paper bands for the reproduction verdicts.
pub mod bands {
    use super::Band;

    /// Fig. 9 SDDMM vs Sputnik (without / with global).
    pub const SDDMM_VS_SPUTNIK: Band = Band { lo: 1.34, hi: 5.81 };
    /// Fig. 9 SDDMM vs Triton.
    pub const SDDMM_VS_TRITON: Band = Band { lo: 1.73, hi: 2.34 };
    /// Fig. 9 SpMM vs Sputnik.
    pub const SPMM_VS_SPUTNIK: Band = Band { lo: 1.23, hi: 5.24 };
    /// Fig. 9 SpMM vs Triton.
    pub const SPMM_VS_TRITON: Band = Band { lo: 1.79, hi: 3.04 };
    /// Fig. 10 softmax vs Sputnik.
    pub const SOFTMAX_VS_SPUTNIK: Band = Band { lo: 1.26, hi: 2.82 };
    /// Fig. 10 softmax vs Triton.
    pub const SOFTMAX_VS_TRITON: Band = Band {
        lo: 5.06,
        hi: 12.63,
    };
    /// Fig. 7 Longformer A100 vs Triton / vs Sputnik.
    pub const LF_A100_TRITON: Band = Band { lo: 2.07, hi: 2.07 };
    /// Fig. 7 Longformer A100 vs Sputnik.
    pub const LF_A100_SPUTNIK: Band = Band { lo: 2.08, hi: 2.08 };
    /// Fig. 7 QDS A100 vs Triton.
    pub const QDS_A100_TRITON: Band = Band { lo: 1.55, hi: 1.55 };
    /// Fig. 7 QDS A100 vs Sputnik.
    pub const QDS_A100_SPUTNIK: Band = Band { lo: 1.08, hi: 1.08 };
    /// §4 ablation: row-splitting over 1D tiling.
    pub const ROWSPLIT_ABLATION: Band = Band { lo: 3.3, hi: 6.2 };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_lists_both_gpus() {
        let t = table1().render();
        assert!(t.contains("A100") && t.contains("RTX3090"));
        assert!(t.contains("1555") && t.contains("936"));
    }

    #[test]
    fn coarse_patterns_are_block_aligned() {
        for (_, p) in coarse_patterns() {
            assert!(p.to_blocked(BLOCK).is_ok());
        }
    }
}
