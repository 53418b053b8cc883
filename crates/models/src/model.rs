//! The sparse transformer encoder: pattern construction from a workload
//! sample, per-layer timing on the simulated GPU, and a functional
//! numeric forward pass for correctness tests.

use crate::{ModelConfig, PatternKind, WorkloadSample};
use mg_gpusim::{Gpu, DEFAULT_STREAM};
use mg_kernels::{dense_gemm_profile, merge_add_profile};
use mg_patterns::{presets, CompoundPattern};
use mg_sparse::SparseError;
use mg_tensor::{gelu, gemm, layer_norm, Half, Matrix};
use multigrain::{Attention, AttentionProblem, Method, PipelineReport};

/// End-to-end inference timing for one batch through the whole encoder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InferenceReport {
    /// Accumulated sparse-attention phases across all layers.
    pub attention: PipelineReport,
    /// Time in the dense parts (projections, FFN, layernorm), seconds.
    pub dense_s: f64,
    /// DRAM bytes of the dense parts.
    pub dense_dram: u64,
}

impl InferenceReport {
    /// Total end-to-end time.
    pub fn total(&self) -> f64 {
        self.attention.total() + self.dense_s
    }

    /// Total DRAM traffic.
    pub fn total_dram(&self) -> u64 {
        self.attention.dram_bytes + self.dense_dram
    }
}

/// A sparse transformer encoder bound to a configuration.
///
/// # Examples
///
/// ```
/// use mg_gpusim::{DeviceSpec, Gpu};
/// use mg_models::{ModelConfig, SparseTransformer, WorkloadSample};
/// use multigrain::Method;
///
/// let model = SparseTransformer::new(ModelConfig::tiny());
/// let sample = WorkloadSample { valid_len: 64, special_tokens: vec![0, 1] };
/// let mut gpu = Gpu::new(DeviceSpec::a100());
/// let report = model.inference_report(&mut gpu, Method::Multigrain, &sample, 1)?;
/// assert!(report.total() > 0.0);
/// # Ok::<(), mg_sparse::SparseError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SparseTransformer {
    config: ModelConfig,
}

impl SparseTransformer {
    /// Creates a model from its configuration.
    pub fn new(config: ModelConfig) -> SparseTransformer {
        SparseTransformer { config }
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Builds the compound attention pattern for one input sample.
    pub fn pattern_for(&self, sample: &WorkloadSample) -> CompoundPattern {
        let cfg = &self.config;
        let base = match cfg.pattern {
            PatternKind::LongformerStyle => {
                presets::longformer(cfg.max_seq_len, cfg.window, &sample.special_tokens)
            }
            PatternKind::QdsStyle => {
                presets::qds_transformer(cfg.max_seq_len, cfg.window, &sample.special_tokens)
            }
            PatternKind::BigBirdStyle => {
                presets::bigbird_etc(cfg.max_seq_len, cfg.block_size, &sample.special_tokens)
            }
            PatternKind::PoolingformerStyle => presets::poolingformer(cfg.max_seq_len, cfg.window),
        };
        base.with_valid_len(sample.valid_len.min(cfg.max_seq_len))
    }

    /// Plans the sparse attention of one layer for a method and batch.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError`] if the configuration's block size does not
    /// divide the sequence length.
    pub fn plan_attention(
        &self,
        method: Method,
        sample: &WorkloadSample,
        batch: usize,
    ) -> Result<Attention, SparseError> {
        self.plan_attention_with_block(method, sample, batch, self.config.block_size)
    }

    /// [`SparseTransformer::plan_attention`] with the coarse block size
    /// overridden — the hook an autotuner uses to apply a tuned slicing
    /// granularity instead of the model's configured default.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError`] when the pattern cannot be planned at
    /// `block_size` (e.g. it does not divide the padded length for a
    /// blocked method).
    pub fn plan_attention_with_block(
        &self,
        method: Method,
        sample: &WorkloadSample,
        batch: usize,
        block_size: usize,
    ) -> Result<Attention, SparseError> {
        let cfg = &self.config;
        let problem = AttentionProblem::new(
            self.pattern_for(sample),
            cfg.head_dim,
            batch,
            cfg.heads,
            block_size,
        );
        Attention::plan(method, problem)
    }

    /// Times the dense (method-independent) parts of one encoder layer:
    /// QKV projection, output projection, FFN, and the element-wise
    /// layernorm/residual/GELU kernels.
    pub fn time_dense_layer(&self, gpu: &mut Gpu, batch: usize) -> (f64, u64) {
        let cfg = &self.config;
        let spec = gpu.spec().clone();
        let l = cfg.max_seq_len;
        let records_before = gpu.records().len();
        let t0 = gpu.elapsed();
        // QKV projection (fused as one GEMM), per batch element.
        gpu.launch(
            DEFAULT_STREAM,
            dense_gemm_profile(&spec, l, 3 * cfg.hidden, cfg.hidden, batch, "dense.qkv"),
        );
        // Attention output projection.
        gpu.launch(
            DEFAULT_STREAM,
            dense_gemm_profile(&spec, l, cfg.hidden, cfg.hidden, batch, "dense.out"),
        );
        // Residual + layernorm after attention.
        gpu.launch(
            DEFAULT_STREAM,
            merge_add_profile(&spec, l * cfg.hidden, 2, batch, "dense.ln1"),
        );
        // FFN up, GELU, down.
        gpu.launch(
            DEFAULT_STREAM,
            dense_gemm_profile(&spec, l, cfg.ffn_hidden, cfg.hidden, batch, "dense.ffn1"),
        );
        gpu.launch(
            DEFAULT_STREAM,
            merge_add_profile(&spec, l * cfg.ffn_hidden, 1, batch, "dense.gelu"),
        );
        gpu.launch(
            DEFAULT_STREAM,
            dense_gemm_profile(&spec, l, cfg.hidden, cfg.ffn_hidden, batch, "dense.ffn2"),
        );
        // Residual + layernorm after FFN.
        gpu.launch(
            DEFAULT_STREAM,
            merge_add_profile(&spec, l * cfg.hidden, 2, batch, "dense.ln2"),
        );
        let dt = gpu.synchronize() - t0;
        let dram = gpu.records()[records_before..]
            .iter()
            .map(|r| r.dram_bytes)
            .sum();
        (dt, dram)
    }

    /// Times a full end-to-end inference of one batch through all layers
    /// with the given attention method. Layers are identical, so one layer
    /// is timed and scaled.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError`] if attention planning fails.
    pub fn inference_report(
        &self,
        gpu: &mut Gpu,
        method: Method,
        sample: &WorkloadSample,
        batch: usize,
    ) -> Result<InferenceReport, SparseError> {
        let attention = self.plan_attention(method, sample, batch)?;
        let layer_attn = attention.run_timed(gpu);
        let (layer_dense, layer_dense_dram) = self.time_dense_layer(gpu, batch);
        let layers = self.config.layers as f64;
        Ok(InferenceReport {
            attention: PipelineReport {
                sddmm: layer_attn.sddmm * layers,
                softmax: layer_attn.softmax * layers,
                spmm: layer_attn.spmm * layers,
                merge: layer_attn.merge * layers,
                dram_bytes: layer_attn.dram_bytes * self.config.layers as u64,
            },
            dense_s: layer_dense * layers,
            dense_dram: layer_dense_dram * self.config.layers as u64,
        })
    }

    /// Plans per-head attention with Longformer's dilation detail: heads
    /// `0..heads/2` keep the plain sliding window, while the upper half
    /// add a dilated window (stride 4 over four times the span) — so
    /// different heads carry different grains and the batch merger has to
    /// schedule a mixed set of kernels.
    ///
    /// Returns one plan per head (each with `heads = 1`).
    ///
    /// # Errors
    ///
    /// Returns [`SparseError`] if any per-head plan fails.
    pub fn plan_attention_per_head(
        &self,
        method: Method,
        sample: &WorkloadSample,
        batch: usize,
    ) -> Result<Vec<Attention>, SparseError> {
        let cfg = &self.config;
        (0..cfg.heads)
            .map(|h| {
                let mut pattern = self.pattern_for(sample);
                if h >= cfg.heads / 2 {
                    // Longformer dilates upper-layer heads to widen the
                    // receptive field: 4x the span at stride 4.
                    pattern = pattern.with(mg_patterns::AtomicPattern::Dilated {
                        window: 4 * cfg.window,
                        stride: 4,
                    });
                }
                let problem =
                    AttentionProblem::new(pattern, cfg.head_dim, batch, 1, cfg.block_size);
                Attention::plan(method, problem)
            })
            .collect()
    }

    /// Times a *heterogeneous* batch: each sample is planned with its own
    /// pattern (its own length and special tokens) and their kernel grids
    /// merge, instead of padding every sample to one representative
    /// pattern. Dense layers still run at the full batch size.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError`] if any per-sample plan fails.
    pub fn heterogeneous_inference_report(
        &self,
        gpu: &mut Gpu,
        method: Method,
        samples: &[WorkloadSample],
    ) -> Result<InferenceReport, SparseError> {
        let attns: Vec<Attention> = samples
            .iter()
            .map(|s| self.plan_attention(method, s, 1))
            .collect::<Result<_, _>>()?;
        let refs: Vec<&Attention> = attns.iter().collect();
        let layer_attn = Attention::run_timed_batch(&refs, gpu);
        let (layer_dense, layer_dense_dram) = self.time_dense_layer(gpu, samples.len());
        let layers = self.config.layers as f64;
        Ok(InferenceReport {
            attention: PipelineReport {
                sddmm: layer_attn.sddmm * layers,
                softmax: layer_attn.softmax * layers,
                spmm: layer_attn.spmm * layers,
                merge: layer_attn.merge * layers,
                dram_bytes: layer_attn.dram_bytes * self.config.layers as u64,
            },
            dense_s: layer_dense * layers,
            dense_dram: layer_dense_dram * self.config.layers as u64,
        })
    }

    /// Functional forward pass of one sequence (batch 1), returning the
    /// final hidden states. Deterministic random weights; used by the
    /// correctness tests to check that the three attention methods agree
    /// end to end.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError`] if attention planning fails.
    pub fn forward_numeric(
        &self,
        method: Method,
        sample: &WorkloadSample,
        token_seed: u64,
    ) -> Result<Matrix<Half>, SparseError> {
        let cfg = &self.config;
        let l = cfg.max_seq_len;
        let dm = cfg.hidden;
        let attention = self.plan_attention(method, sample, 1)?;

        // Embedding: deterministic pseudo-embeddings for the tokens.
        let mut hidden: Matrix<Half> = Matrix::random(l, dm, token_seed);
        let gamma = vec![1.0f32; dm];
        let beta = vec![0.0f32; dm];
        let ffn_gamma = vec![1.0f32; dm];

        for layer in 0..cfg.layers {
            let seed = 1000 + layer as u64 * 17;
            let wq = Matrix::<Half>::random(dm, dm, seed);
            let wk = Matrix::<Half>::random(dm, dm, seed + 1);
            let wv = Matrix::<Half>::random(dm, dm, seed + 2);
            let wo = Matrix::<Half>::random(dm, dm, seed + 3);
            let w1 = Matrix::<Half>::random(dm, cfg.ffn_hidden, seed + 4);
            let w2 = Matrix::<Half>::random(cfg.ffn_hidden, dm, seed + 5);

            let q: Matrix<Half> = gemm(&hidden, &wq);
            let k: Matrix<Half> = gemm(&hidden, &wk);
            let v: Matrix<Half> = gemm(&hidden, &wv);

            // Per-head sparse attention, concatenated.
            let mut context = Matrix::<Half>::zeros(l, dm);
            for h in 0..cfg.heads {
                let lo = h * cfg.head_dim;
                let head = |m: &Matrix<Half>| m.col_window(lo, cfg.head_dim);
                let ch = attention.execute_numeric(&head(&q), &head(&k), &head(&v));
                context.set_col_window(lo, &ch);
            }
            let attn_out: Matrix<Half> = gemm(&context, &wo);
            let residual: Matrix<Half> = mg_tensor::add(&hidden, &attn_out);
            let normed: Matrix<Half> = layer_norm(&residual, &gamma, &beta);

            let up: Matrix<Half> = gemm(&normed, &w1);
            let act: Matrix<Half> = gelu(&up);
            let down: Matrix<Half> = gemm(&act, &w2);
            let residual2: Matrix<Half> = mg_tensor::add(&normed, &down);
            hidden = layer_norm(&residual2, &ffn_gamma, &beta);
        }
        Ok(hidden)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_gpusim::DeviceSpec;

    fn sample() -> WorkloadSample {
        WorkloadSample {
            valid_len: 56,
            special_tokens: vec![0, 1, 2],
        }
    }

    #[test]
    fn pattern_respects_valid_len_and_specials() {
        let model = SparseTransformer::new(ModelConfig::tiny());
        let p = model.pattern_for(&sample());
        assert_eq!(p.valid_len(), 56);
        assert_eq!(p.global_rows(), vec![0, 1, 2]);
        assert!(p.row_columns(60).is_empty(), "padded row masked");
    }

    #[test]
    fn inference_report_scales_with_layers() {
        let model = SparseTransformer::new(ModelConfig::tiny());
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let r1 = model
            .inference_report(&mut gpu, Method::Multigrain, &sample(), 1)
            .expect("plans");
        let mut cfg2 = ModelConfig::tiny();
        cfg2.layers = 4;
        let model2 = SparseTransformer::new(cfg2);
        let mut gpu2 = Gpu::new(DeviceSpec::a100());
        let r2 = model2
            .inference_report(&mut gpu2, Method::Multigrain, &sample(), 1)
            .expect("plans");
        assert!(
            (r2.total() / r1.total() - 2.0).abs() < 0.05,
            "doubling layers doubles time"
        );
    }

    #[test]
    fn dense_time_is_method_independent() {
        let model = SparseTransformer::new(ModelConfig::tiny());
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let (d1, b1) = model.time_dense_layer(&mut gpu, 1);
        let (d2, b2) = model.time_dense_layer(&mut gpu, 1);
        assert!((d1 - d2).abs() < 1e-12);
        assert_eq!(b1, b2);
    }

    #[test]
    fn forward_numeric_methods_agree() {
        // One layer: beyond that, FP16 rounding noise is chaotically
        // amplified by the sharp softmax (all methods remain individually
        // correct; they just diverge from each other like any reordered
        // floating-point reduction would).
        let mut cfg = ModelConfig::tiny();
        cfg.layers = 1;
        let model = SparseTransformer::new(cfg);
        let out: Vec<Matrix<Half>> = [
            Method::Multigrain,
            Method::TritonStyle,
            Method::SputnikStyle,
        ]
        .iter()
        .map(|&m| model.forward_numeric(m, &sample(), 5).expect("runs"))
        .collect();
        assert!(
            out[0].max_abs_diff(&out[1]) < 0.08,
            "MG vs Triton {}",
            out[0].max_abs_diff(&out[1])
        );
        assert!(
            out[0].max_abs_diff(&out[2]) < 0.08,
            "MG vs Sputnik {}",
            out[0].max_abs_diff(&out[2])
        );
    }

    #[test]
    fn forward_numeric_output_is_pinned() {
        // FNV-1a over the output's FP16 bits, recorded with per-element
        // weight draws, element-wise ops and head copies. Doing them a
        // row at a time must not move one output bit.
        let model = SparseTransformer::new(ModelConfig::tiny());
        for (method, want) in [
            (Method::Multigrain, 0x3dc4_4df5_3d2c_5d48_u64),
            (Method::TritonStyle, 0x7dc9_4f8e_6a00_ccbe),
            (Method::SputnikStyle, 0x7dc9_4f8e_6a00_ccbe),
        ] {
            let out = model.forward_numeric(method, &sample(), 5).expect("runs");
            let mut h = mg_gpusim::digest::Fnv1a::new();
            for v in out.as_slice() {
                h.write(&v.to_bits().to_le_bytes());
            }
            assert_eq!(h.finish(), want, "{method:?}: {:#018x}", h.finish());
        }
    }

    #[test]
    fn forward_numeric_deep_stack_stays_finite_and_normalized() {
        let model = SparseTransformer::new(ModelConfig::tiny());
        let out = model
            .forward_numeric(Method::Multigrain, &sample(), 5)
            .expect("runs");
        for r in 0..out.rows() {
            let row: Vec<f32> = out.row(r).iter().map(|v| v.to_f32()).collect();
            assert!(
                row.iter().all(|v| v.is_finite()),
                "row {r} has non-finite values"
            );
            let var: f32 = row.iter().map(|v| v * v).sum::<f32>() / row.len() as f32;
            assert!((var - 1.0).abs() < 0.2, "row {r} not normalized: var {var}");
        }
    }

    #[test]
    fn per_head_plans_differ_between_head_halves() {
        let model = SparseTransformer::new(ModelConfig::tiny());
        let s = WorkloadSample {
            valid_len: 64,
            special_tokens: vec![0],
        };
        let plans = model
            .plan_attention_per_head(Method::Multigrain, &s, 1)
            .expect("plans");
        assert_eq!(plans.len(), 2);
        // The dilated upper head has a fine part the plain head lacks.
        let lower_fine = plans[0]
            .sliced()
            .and_then(|sl| sl.fine().map(|f| f.nnz()))
            .unwrap_or(0);
        let upper_fine = plans[1]
            .sliced()
            .and_then(|sl| sl.fine().map(|f| f.nnz()))
            .unwrap_or(0);
        assert!(
            upper_fine > lower_fine,
            "dilation adds fine elements: {lower_fine} vs {upper_fine}"
        );
        // The mixed-head batch still runs.
        let refs: Vec<&Attention> = plans.iter().collect();
        let t = Attention::run_timed_batch(&refs, &mut Gpu::new(mg_gpusim::DeviceSpec::a100()));
        assert!(t.total() > 0.0);
    }

    #[test]
    fn heterogeneous_batch_beats_worst_case_padding() {
        // Three samples of very different lengths: per-sample plans do
        // less work than padding all three to the longest's pattern.
        let model = SparseTransformer::new(ModelConfig::tiny());
        let samples = vec![
            WorkloadSample {
                valid_len: 16,
                special_tokens: vec![0],
            },
            WorkloadSample {
                valid_len: 40,
                special_tokens: vec![0, 20],
            },
            WorkloadSample {
                valid_len: 64,
                special_tokens: vec![0, 30],
            },
        ];
        let mut gpu_h = Gpu::new(mg_gpusim::DeviceSpec::a100());
        let hetero = model
            .heterogeneous_inference_report(&mut gpu_h, Method::Multigrain, &samples)
            .expect("plans");
        // Homogeneous: everyone gets the longest sample's pattern.
        let mut gpu_p = Gpu::new(mg_gpusim::DeviceSpec::a100());
        let padded = model
            .inference_report(&mut gpu_p, Method::Multigrain, &samples[2], 3)
            .expect("plans");
        assert!(
            hetero.attention.total() <= padded.attention.total() * 1.05,
            "hetero {} vs padded {}",
            hetero.attention.total(),
            padded.attention.total()
        );
    }

    #[test]
    fn extension_models_plan_and_run() {
        for cfg in [
            ModelConfig::bigbird_etc_base(),
            ModelConfig::poolingformer_base(),
        ] {
            let mut small = cfg.clone();
            small.max_seq_len = 256;
            small.layers = 1;
            let model = SparseTransformer::new(small);
            let s = WorkloadSample {
                valid_len: 200,
                special_tokens: vec![0, 50, 100],
            };
            let mut gpu = Gpu::new(mg_gpusim::DeviceSpec::a100());
            let r = model
                .inference_report(&mut gpu, Method::Multigrain, &s, 1)
                .expect("plans");
            assert!(r.total() > 0.0, "{} must run", cfg.name);
        }
    }

    #[test]
    fn bigbird_pattern_exercises_all_grains() {
        let mut cfg = ModelConfig::bigbird_etc_base();
        cfg.max_seq_len = 512;
        let model = SparseTransformer::new(cfg);
        let s = WorkloadSample {
            valid_len: 512,
            special_tokens: vec![0, 1],
        };
        let attn = model
            .plan_attention(Method::Multigrain, &s, 1)
            .expect("plans");
        let sliced = attn.sliced().expect("multigrain");
        assert!(sliced.coarse().is_some(), "blocked parts go coarse");
        assert!(sliced.fine().is_some(), "selected columns go fine");
        assert_eq!(sliced.global_rows(), &[0, 1]);
    }

    #[test]
    fn batch_scaling_increases_throughput() {
        // Time per sequence must drop (or at least not grow) with batch.
        let model = SparseTransformer::new(ModelConfig::tiny());
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let r1 = model
            .inference_report(&mut gpu, Method::Multigrain, &sample(), 1)
            .expect("plans");
        let mut gpu8 = Gpu::new(DeviceSpec::a100());
        let r8 = model
            .inference_report(&mut gpu8, Method::Multigrain, &sample(), 8)
            .expect("plans");
        assert!(r8.total() / 8.0 < r1.total(), "batching amortizes");
    }
}
