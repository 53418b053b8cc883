//! Every table and figure of the reproduction, as a function returning
//! the text it reports, behind one name → function registry.
//!
//! The `reproduce` binary prints one entry (`reproduce fig9`), every
//! entry in registry order (`reproduce all`), or the names
//! (`reproduce --list`). The functions only build strings; the binary
//! owns stdout.

use crate::runners::{
    self, bands, figure10, figure11, figure12, figure7, figure8, figure9, occupancy_study, BLOCK,
    HEADS, HEAD_DIM, SEED, SEQ_LEN,
};
use crate::{Band, Table};
use mg_gpusim::{DeviceSpec, Gpu, DEFAULT_STREAM};
use mg_kernels::{
    attention_2_4_profiles, blockify_plan, coarse_spmm_profile, dense_gemm_profile,
    dense_softmax_profile, ell_spmm_profile, fused_attention_profile, sliding_chunk_plan, AttnDims,
    CoarseMapping,
};
use mg_models::{workload, ModelConfig, PatternKind, SparseTransformer, WorkloadSample};
use mg_patterns::{presets, AtomicPattern, CompoundPattern};
use mg_sparse::BlockedEll;
use mg_tensor::{par, Half, Matrix};
use multigrain::{reference_attention, Attention, AttentionProblem, Method};
use std::fmt::Write as _;

/// A registry entry: the experiment's name and the function rendering
/// its report.
pub type Entry = (&'static str, fn() -> String);

/// Every reproduction by name, in the order `reproduce all` runs them.
pub const REGISTRY: &[Entry] = &[
    ("table1", table1),
    ("memory_motivation", memory_motivation),
    ("fig7", fig7),
    ("fig7_breakdown", fig7_breakdown),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("occupancy", occupancy),
    ("ablation_rowsplit", ablation_rowsplit),
    ("ablation_multistream", ablation_multistream),
    ("plan_memory", plan_memory),
    ("dataset_latency", dataset_latency),
    ("workload_study", workload_study),
    ("sweeps", sweeps),
    ("models_ext", models_ext),
    ("future_devices", future_devices),
    ("ext_24_sparsity", ext_24_sparsity),
    ("ext_ell_spmm", ext_ell_spmm),
    ("ext_fidelity", ext_fidelity),
    ("ext_fused", ext_fused),
    ("ext_hetero_batch", ext_hetero_batch),
    ("ext_local_methods", ext_local_methods),
    ("ext_per_head", ext_per_head),
    ("report_card", report_card),
];

/// Reproduces Table 1: the GPU specifications used in the evaluation.
pub fn table1() -> String {
    let mut out = String::new();
    out.push_str(&runners::table1().render());
    out.push_str("\nPaper Table 1: A100 1555 GB/s, 42.3/169 TFLOPS, 192 KB L1, 40 MB L2;\n");
    out.push_str("               RTX3090 936.2 GB/s, 29.3/58 TFLOPS, 128 KB L1, 6 MB L2.\n");
    out
}

/// Reproduces the paper's §1 motivation numbers: the memory wall of dense
/// attention at long sequence lengths, and what compound sparsity does to
/// it.
pub fn memory_motivation() -> String {
    let mut out = String::new();
    let mut t = Table::new(
        "§1 motivation — attention-map memory (S + P, FP16, full forward pass)",
        &[
            "Model",
            "Seq len",
            "Dense",
            "Sparse (5% density)",
            "Reduction",
        ],
    );
    for (cfg, density) in [
        (ModelConfig::bert_large_4096(), 0.05),
        (ModelConfig::longformer_large(), 0.14),
        (ModelConfig::qds_base(), 0.09),
    ] {
        let dense = cfg.dense_attention_map_bytes();
        let sparse = cfg.sparse_attention_map_bytes(density);
        t.push(vec![
            cfg.name.to_owned(),
            cfg.max_seq_len.to_string(),
            format!("{:.1} GB", dense as f64 / 1e9),
            format!("{:.2} GB", sparse as f64 / 1e9),
            format!("{:.0}x", dense as f64 / sparse as f64),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\n\
         Paper §1: 'For L = 4096, BERT-large requires a memory size of 64GB' for\n\
         training — the forward attention maps above are the dominant activation; the\n\
         rest is weights, hidden states, and gradients. Sparse attention's linear\n\
         footprint is what makes 4K+ sequences practical at all.\n",
    );
    out
}

/// Reproduces Fig. 7: end-to-end execution time and memory traffic of
/// Longformer and QDS-Transformer under Triton, Sputnik, and Multigrain
/// on A100 and RTX3090 (batch 1).
pub fn fig7() -> String {
    let mut out = String::new();
    let results = figure7();
    let mut t = Table::new(
        "Fig. 7 — end-to-end time (ms) and DRAM traffic (GB), batch 1",
        &[
            "GPU", "Model", "MG", "Triton", "Sputnik", "MG GB", "T GB", "S GB", "vs T", "vs S",
        ],
    );
    for r in &results {
        t.push(vec![
            r.device.to_owned(),
            r.model.to_owned(),
            format!("{:.2}", r.total_s[0] * 1e3),
            format!("{:.2}", r.total_s[1] * 1e3),
            format!("{:.2}", r.total_s[2] * 1e3),
            format!("{:.1}", r.dram[0] as f64 / 1e9),
            format!("{:.1}", r.dram[1] as f64 / 1e9),
            format!("{:.1}", r.dram[2] as f64 / 1e9),
            format!("{:.2}x", r.vs_triton()),
            format!("{:.2}x", r.vs_sputnik()),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');
    let _ = writeln!(
        out,
        "Paper (A100):    Longformer {} vs Triton [{}], {} vs Sputnik [{}]",
        bands::LF_A100_TRITON,
        bands::LF_A100_TRITON.verdict(results[0].vs_triton()),
        bands::LF_A100_SPUTNIK,
        bands::LF_A100_SPUTNIK.verdict(results[0].vs_sputnik()),
    );
    let _ = writeln!(
        out,
        "                 QDS        {} vs Triton [{}], {} vs Sputnik [{}]",
        bands::QDS_A100_TRITON,
        bands::QDS_A100_TRITON.verdict(results[1].vs_triton()),
        bands::QDS_A100_SPUTNIK,
        bands::QDS_A100_SPUTNIK.verdict(results[1].vs_sputnik()),
    );
    out.push_str(
        "Paper (RTX3090): Longformer 1.58x vs Triton, 1.44x vs Sputnik; QDS 1.68x / 1.02x.\n\
         Shape check: Multigrain fastest everywhere; Multigrain also moves the least DRAM traffic.\n",
    );
    out
}

/// Fig. 7 companion: the per-phase breakdown behind the end-to-end bars —
/// where each method spends its attention time (SDDMM / softmax / SpMM /
/// merge) and how much is the dense, method-independent rest of the layer.
pub fn fig7_breakdown() -> String {
    let mut out = String::new();
    let spec = DeviceSpec::a100();
    for cfg in [ModelConfig::longformer_large(), ModelConfig::qds_base()] {
        let model = SparseTransformer::new(cfg.clone());
        let samples = match cfg.pattern {
            PatternKind::QdsStyle => workload::msmarco_like(cfg.max_seq_len, 16, 42),
            _ => workload::hotpotqa_like(cfg.max_seq_len, 16, 42),
        };
        let rep = workload::representative(&samples);
        let mut t = Table::new(
            format!(
                "{} — phase breakdown, A100, batch 1 (ms, all layers)",
                cfg.name
            ),
            &[
                "Method",
                "SDDMM",
                "Softmax",
                "SpMM",
                "Merge",
                "Dense rest",
                "Total",
            ],
        );
        for method in Method::ALL {
            let mut gpu = Gpu::new(spec.clone());
            let r = model
                .inference_report(&mut gpu, method, &rep, 1)
                .expect("plans");
            t.push(vec![
                method.name().to_owned(),
                format!("{:.2}", r.attention.sddmm * 1e3),
                format!("{:.2}", r.attention.softmax * 1e3),
                format!("{:.2}", r.attention.spmm * 1e3),
                format!("{:.2}", r.attention.merge * 1e3),
                format!("{:.2}", r.dense_s * 1e3),
                format!("{:.2}", r.total() * 1e3),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out.push_str(
        "The softmax phase dominates Triton's loss (see fig10); the dense rest of the\n\
         layer (projections + FFN) is identical across methods and dilutes the\n\
         end-to-end speedup relative to the per-op numbers of fig9/fig10.\n",
    );
    out
}

/// Reproduces Fig. 8: end-to-end speedup as the batch size grows
/// (paper: up to 2.34x/1.82x vs Triton and 2.13x/1.17x vs Sputnik for
/// Longformer/QDS on A100).
pub fn fig8() -> String {
    let mut out = String::new();
    let results = figure8();
    let mut t = Table::new(
        "Fig. 8 — A100 end-to-end speedup of Multigrain vs batch size",
        &[
            "Model",
            "Batch",
            "MG ms",
            "Triton ms",
            "Sputnik ms",
            "vs Triton",
            "vs Sputnik",
        ],
    );
    for r in &results {
        t.push(vec![
            r.model.to_owned(),
            r.batch.to_string(),
            format!("{:.2}", r.total_s[0] * 1e3),
            format!("{:.2}", r.total_s[1] * 1e3),
            format!("{:.2}", r.total_s[2] * 1e3),
            format!("{:.2}x", r.vs_triton()),
            format!("{:.2}x", r.vs_sputnik()),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\n\
         Paper: Longformer up to 2.34x vs Triton / 2.13x vs Sputnik at larger batches;\n",
    );
    out.push_str(
        "       QDS up to 1.82x / 1.17x. Shape check: speedups grow (or hold) with batch.\n",
    );
    out
}

/// Reproduces Fig. 9: Multigrain speedup on the compound sparse GEMMs
/// (SDDMM and SpMM) over six compound patterns, A100, batch 1, 4 heads,
/// head dim 64, ~95% row sparsity.
pub fn fig9() -> String {
    let mut out = String::new();
    let (sddmm, spmm) = figure9();
    for (name, rows, b_sput, b_triton) in [
        (
            "SDDMM",
            &sddmm,
            bands::SDDMM_VS_SPUTNIK,
            bands::SDDMM_VS_TRITON,
        ),
        ("SpMM", &spmm, bands::SPMM_VS_SPUTNIK, bands::SPMM_VS_TRITON),
    ] {
        let mut t = Table::new(
            format!("Fig. 9 — {name}: Multigrain speedup (A100, batch 1)"),
            &[
                "Pattern",
                "MG us",
                "Sputnik us",
                "Triton us",
                "vs Sputnik",
                "vs Triton",
                "verdict",
            ],
        );
        for r in rows.iter() {
            t.push(vec![
                r.pattern.clone(),
                format!("{:.1}", r.multigrain_s * 1e6),
                format!("{:.1}", r.sputnik_s * 1e6),
                format!("{:.1}", r.triton_s * 1e6),
                format!("{:.2}x", r.vs_sputnik()),
                format!("{:.2}x", r.vs_triton()),
                format!(
                    "{}/{}",
                    b_sput.verdict(r.vs_sputnik()),
                    b_triton.verdict(r.vs_triton())
                ),
            ]);
        }
        out.push_str(&t.render());
        let _ = writeln!(
            out,
            "Paper: vs Sputnik {b_sput} (largest with global patterns), vs Triton {b_triton}.\n"
        );
    }
    out.push_str(
        "Shape check: Multigrain wins everywhere; the global patterns (L+S+G, LB+S+G)\n\
         produce the largest gains over Sputnik (its row-split blocks hit load imbalance).\n",
    );
    out
}

/// Reproduces Fig. 10: compound sparse softmax speedups over the six
/// compound patterns on A100.
pub fn fig10() -> String {
    let mut out = String::new();
    let rows = figure10();
    let mut t = Table::new(
        "Fig. 10 — SpSoftmax: Multigrain speedup (A100, batch 1)",
        &[
            "Pattern",
            "MG us",
            "Sputnik us",
            "Triton us",
            "vs Sputnik",
            "vs Triton",
            "verdict",
        ],
    );
    for r in &rows {
        t.push(vec![
            r.pattern.clone(),
            format!("{:.1}", r.multigrain_s * 1e6),
            format!("{:.1}", r.sputnik_s * 1e6),
            format!("{:.1}", r.triton_s * 1e6),
            format!("{:.2}x", r.vs_sputnik()),
            format!("{:.2}x", r.vs_triton()),
            format!(
                "{}/{}",
                bands::SOFTMAX_VS_SPUTNIK.verdict(r.vs_sputnik()),
                bands::SOFTMAX_VS_TRITON.verdict(r.vs_triton())
            ),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\n\
         Paper: 1.26x-1.31x vs Sputnik (no global) / 2.20x-2.82x (global); 7.09x-12.63x vs\n\
         Triton (no global) / 5.06x-7.48x (global). Shape check: Triton's blocked softmax\n\
         pays for every invalid element it rasterizes, so it loses by ~an order of magnitude.\n",
    );
    out
}

/// Reproduces Fig. 11: our coarse-grained kernel vs the Triton-style
/// mapping on local / blocked-local / blocked-random patterns, batch 1.
pub fn fig11() -> String {
    let mut out = String::new();
    let (sddmm, spmm) = figure11();
    for (name, rows) in [("SDDMM", &sddmm), ("SpMM", &spmm)] {
        let mut t = Table::new(
            format!("Fig. 11 — coarse kernel vs Triton, {name} (A100, batch 1)"),
            &["Pattern", "Ours us", "Triton us", "Speedup"],
        );
        for r in rows.iter() {
            t.push(vec![
                r.pattern.clone(),
                format!("{:.1}", r.ours_s * 1e6),
                format!("{:.1}", r.triton_s * 1e6),
                format!("{:.2}x", r.speedup()),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out.push_str(
        "Paper: SDDMM up to 1.26x (local) / 1.24x (blocked local), but 25% SLOWER on\n\
         blocked random (row imbalance at batch 1); SpMM up to 1.15x / 1.44x.\n\
         Shape check: ours wins on local patterns; blocked random favors Triton at batch 1.\n",
    );
    out
}

/// Reproduces Fig. 12: coarse kernel vs Triton as the batch grows
/// (paper: blocked random recovers to 1.32x by batch 4-8; SpMM up to
/// 1.43x/2.02x/1.49x).
pub fn fig12() -> String {
    let mut out = String::new();
    let (sddmm, spmm) = figure12();
    for (name, rows) in [("SDDMM", &sddmm), ("SpMM", &spmm)] {
        let mut t = Table::new(
            format!("Fig. 12 — coarse kernel vs Triton over batch, {name} (A100)"),
            &["Pattern", "Batch", "Ours us", "Triton us", "Speedup"],
        );
        for r in rows.iter() {
            t.push(vec![
                r.pattern.clone(),
                r.batch.to_string(),
                format!("{:.1}", r.ours_s * 1e6),
                format!("{:.1}", r.triton_s * 1e6),
                format!("{:.2}x", r.speedup()),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out.push_str(
        "Shape check: our blocked-random speedup improves as batch grows (more thread\n\
         blocks per wave hide the row imbalance).\n",
    );
    out
}

/// Reproduces the §5.2.1 occupancy study: the achieved/theoretical
/// occupancy ratio of the Sputnik SDDMM drops when a global pattern is
/// present (paper: 89% for L+S vs 61.2% for L+S+G).
pub fn occupancy() -> String {
    let mut out = String::new();
    let (ls, lsg) = occupancy_study();
    out.push_str("## §5.2.1 — Sputnik SDDMM achieved/theoretical occupancy (A100)\n");
    let _ = writeln!(out, "L+S   : {:.1}%   (paper: 89.0%)", ls * 100.0);
    let _ = writeln!(out, "L+S+G : {:.1}%   (paper: 61.2%)", lsg * 100.0);
    out.push('\n');
    let _ = writeln!(
        out,
        "Shape check: the global pattern drops the ratio by {:.0} points (paper: ~28).",
        (ls - lsg) * 100.0
    );
    assert!(lsg < ls, "global rows must worsen load balance");
    out
}

/// Reproduces the §4 ablation: the paper's row-splitting fine SDDMM vs
/// the official Sputnik 1D-tiling scheme (paper: 3.3x-6.2x faster).
pub fn ablation_rowsplit() -> String {
    let mut out = String::new();
    let rows = runners::ablation_rowsplit();
    let mut t = Table::new(
        "§4 ablation — row-splitting vs 1D-tiling fine SDDMM (A100)",
        &["Pattern", "Speedup", "Verdict"],
    );
    for (pattern, speedup) in &rows {
        t.push(vec![
            pattern.clone(),
            format!("{:.2}x", speedup),
            bands::ROWSPLIT_ABLATION.verdict(*speedup).to_owned(),
        ]);
    }
    out.push_str(&t.render());
    out.push_str("\nPaper: the row-splitting scheme reduces execution time by 3.3x-6.2x.\n");
    out
}

/// Design-choice ablation: Multigrain with multi-stream co-execution
/// disabled (all kernels serialized on one stream). Quantifies how much
/// of the method's win is the dice step (concurrency) versus the slice
/// step (grain-matched kernels).
pub fn ablation_multistream() -> String {
    let mut out = String::new();
    let spec = DeviceSpec::a100();
    let mut t = Table::new(
        "Ablation — Multigrain scheduling variants (A100, batch 1)",
        &[
            "Pattern",
            "serial us",
            "barriers us",
            "pipelined us",
            "stream gain",
            "event gain",
            "Sputnik us",
        ],
    );
    for pattern in presets::figure9_patterns(SEQ_LEN, BLOCK, SEED) {
        let prob = AttentionProblem::new(pattern.clone(), HEAD_DIM, 1, HEADS, BLOCK);
        let mg = Attention::plan(Method::Multigrain, prob.clone()).expect("plans");
        let barriers = mg.run_timed_with(&mut Gpu::new(spec.clone()), true).total();
        let serial = mg
            .run_timed_with(&mut Gpu::new(spec.clone()), false)
            .total();
        let pipelined = mg.run_timed_pipelined(&mut Gpu::new(spec.clone()));
        let sputnik = Attention::plan(Method::SputnikStyle, prob).expect("plans");
        let sput = sputnik.run_timed(&mut Gpu::new(spec.clone())).total();
        t.push(vec![
            pattern.name(),
            format!("{:.1}", serial * 1e6),
            format!("{:.1}", barriers * 1e6),
            format!("{:.1}", pipelined * 1e6),
            format!("{:.2}x", serial / barriers),
            format!("{:.2}x", barriers / pipelined),
            format!("{:.1}", sput * 1e6),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\n\
         serial = one stream; barriers = the paper's per-phase multi-stream (§3.1);\n\
         pipelined = kernel-level CUDA-event dependencies (extension). 'stream gain'\n\
         isolates the paper's dice step; 'event gain' is what finer synchronization\n\
         adds on top — mostly the dense chain running ahead of the phase barriers.\n",
    );
    out
}

/// §3.2 companion: device-memory footprint of each method's sparse plan.
/// Triton keeps both BCOO and BSR metadata and stores every padded block
/// element; Sputnik pays 4-byte metadata per element; Multigrain stores
/// each sliced part in its natural format exactly once.
pub fn plan_memory() -> String {
    let mut out = String::new();
    let mut t = Table::new(
        "Sparse-plan memory per head instance (L=4096)",
        &[
            "Pattern",
            "Method",
            "Metadata KB",
            "Values KB",
            "Total KB",
            "vs MG",
        ],
    );
    for pattern in presets::figure9_patterns(SEQ_LEN, BLOCK, SEED) {
        let mut mg_total = 0u64;
        for method in Method::ALL {
            let prob = AttentionProblem::new(pattern.clone(), HEAD_DIM, 1, HEADS, BLOCK);
            let mem = Attention::plan(method, prob)
                .expect("plans")
                .plan_memory_bytes();
            if method == Method::Multigrain {
                mg_total = mem.total();
            }
            t.push(vec![
                pattern.name(),
                method.name().to_owned(),
                format!("{:.0}", mem.metadata as f64 / 1024.0),
                format!("{:.0}", mem.values as f64 / 1024.0),
                format!("{:.0}", mem.total() as f64 / 1024.0),
                format!("{:.2}x", mem.total() as f64 / mg_total as f64),
            ]);
        }
    }
    out.push_str(&t.render());
    out.push_str(
        "\n\
         Paper §3.2: Triton's inconsistent formats (BCOO for SDDMM, BSR for SpMM)\n\
         'require more memory spaces for storing the metadata of the different sparse\n\
         formats' — and its padded blocks inflate the value buffers further.\n",
    );
    out
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Dataset-level latency study: instead of one representative input, run
/// per-sample plans over a synthetic dataset and report the latency
/// distribution (p50 / p95 / p99) per method — what a serving deployment
/// of these models would observe.
pub fn dataset_latency() -> String {
    let mut out = String::new();
    let spec = DeviceSpec::a100();
    let n_samples = 48;
    for cfg in [ModelConfig::longformer_large(), ModelConfig::qds_base()] {
        let model = SparseTransformer::new(cfg.clone());
        let samples = match cfg.pattern {
            PatternKind::QdsStyle => workload::msmarco_like(cfg.max_seq_len, n_samples, 21),
            _ => workload::hotpotqa_like(cfg.max_seq_len, n_samples, 21),
        };
        let mut t = Table::new(
            format!(
                "{} — per-sample latency over {} synthetic inputs (ms, A100)",
                cfg.name, n_samples
            ),
            &["Method", "p50", "p95", "p99", "mean", "min", "max"],
        );
        for method in Method::ALL {
            let mut lat: Vec<f64> = samples
                .iter()
                .map(|s| {
                    let mut gpu = Gpu::new(spec.clone());
                    model
                        .inference_report(&mut gpu, method, s, 1)
                        .expect("plans")
                        .total()
                        * 1e3
                })
                .collect();
            lat.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let mean = lat.iter().sum::<f64>() / lat.len() as f64;
            t.push(vec![
                method.name().to_owned(),
                format!("{:.2}", percentile(&lat, 0.50)),
                format!("{:.2}", percentile(&lat, 0.95)),
                format!("{:.2}", percentile(&lat, 0.99)),
                format!("{mean:.2}"),
                format!("{:.2}", lat[0]),
                format!("{:.2}", lat[lat.len() - 1]),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out.push_str(
        "Latency varies per sample through the number of special tokens (pattern size)\n\
         and document length (padding); Multigrain's lead holds across the whole\n\
         distribution, not just the median input.\n",
    );
    out
}

/// Workload-sensitivity study: the same Longformer model over four
/// dataset-like input distributions (the tasks the paper cites Longformer
/// results on). Special-token counts and placement change the pattern's
/// grain mix, which moves each method differently.
pub fn workload_study() -> String {
    let mut out = String::new();
    let spec = DeviceSpec::a100();
    let model = SparseTransformer::new(ModelConfig::longformer_large());
    let l = model.config().max_seq_len;
    let datasets: Vec<(&str, Vec<WorkloadSample>)> = vec![
        ("hotpotQA-like", workload::hotpotqa_like(l, 12, 31)),
        ("TriviaQA-like", workload::triviaqa_like(l, 12, 32)),
        ("WikiHop-like", workload::wikihop_like(l, 12, 33)),
        ("MSMARCO-like", workload::msmarco_like(l, 12, 34)),
    ];
    let mut t = Table::new(
        "Longformer-large across dataset-like workloads (A100, batch 1, mean ms)",
        &[
            "Workload", "specials", "fill %", "MG", "Triton", "Sputnik", "vs T", "vs S",
        ],
    );
    for (name, samples) in &datasets {
        let rep = workload::representative(samples);
        let mut means = Vec::new();
        for method in Method::ALL {
            let mut gpu = Gpu::new(spec.clone());
            let r = model
                .inference_report(&mut gpu, method, &rep, 1)
                .expect("plans");
            means.push(r.total());
        }
        t.push(vec![
            (*name).to_owned(),
            rep.special_tokens.len().to_string(),
            format!("{:.0}", 100.0 * rep.valid_len as f64 / l as f64),
            format!("{:.2}", means[0] * 1e3),
            format!("{:.2}", means[1] * 1e3),
            format!("{:.2}", means[2] * 1e3),
            format!("{:.2}x", means[1] / means[0]),
            format!("{:.2}x", means[2] / means[0]),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\n\
         More special tokens (WikiHop's candidate markers) mean more global rows and\n\
         selected columns: the fine/dense grains grow, Sputnik's imbalance worsens, and\n\
         Multigrain's multi-stream routing pays off most. Short-question TriviaQA is\n\
         the friendliest case for the coarse-only baseline.\n",
    );
    out
}

/// Times all three methods on `pattern` with the given block size.
fn time_methods(
    spec: &DeviceSpec,
    pattern: &mg_patterns::CompoundPattern,
    block: usize,
) -> Vec<f64> {
    Method::ALL
        .iter()
        .map(|&method| {
            let prob = AttentionProblem::new(pattern.clone(), HEAD_DIM, 1, HEADS, block);
            let attn = Attention::plan(method, prob).expect("plans");
            let mut gpu = Gpu::new(spec.clone());
            attn.run_timed(&mut gpu).total()
        })
        .collect()
}

/// Design-space sweeps: how Multigrain's advantage moves with the coarse
/// block size and the sequence length. These locate the crossovers that
/// the paper's fixed configurations only sample.
///
/// Each sweep point (pattern build + three planned, timed runs) is
/// independent of every other, so the points run on the parallel layer
/// and are collected in sweep order — the printed tables are
/// bit-identical at any thread count.
pub fn sweeps() -> String {
    let mut out = String::new();
    let spec = DeviceSpec::a100();

    // Sweep 1: block size, fixed L = 4096, L+S pattern.
    let blocks = [16usize, 32, 64, 128];
    let rows = par::map_indexed(blocks.len(), |i| {
        let block = blocks[i];
        let pattern = presets::figure9_patterns(4096, block, SEED)
            .into_iter()
            .next()
            .expect("L+S");
        let prob = AttentionProblem::new(pattern.clone(), HEAD_DIM, 1, HEADS, block);
        let attn = Attention::plan(Method::Multigrain, prob).expect("plans");
        let fill = attn
            .sliced()
            .and_then(|s| s.coarse())
            .map(|c| c.fill_ratio() * 100.0)
            .unwrap_or(0.0);
        (block, time_methods(&spec, &pattern, block), fill)
    });
    let mut t = Table::new(
        "Sweep — coarse block size (L+S pattern, L=4096, A100)",
        &[
            "Block",
            "MG us",
            "Triton us",
            "Sputnik us",
            "vs T",
            "vs S",
            "coarse fill %",
        ],
    );
    for (block, times, fill) in rows {
        t.push(vec![
            block.to_string(),
            format!("{:.1}", times[0] * 1e6),
            format!("{:.1}", times[1] * 1e6),
            format!("{:.1}", times[2] * 1e6),
            format!("{:.2}x", times[1] / times[0]),
            format!("{:.2}x", times[2] / times[0]),
            format!("{:.0}", fill),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "Smaller blocks waste fewer elements (higher fill) but give the tensor cores\n\
         less to chew on; the paper settles on 64.\n\n",
    );

    // Sweep 2: sequence length, fixed block 64.
    let seq_lens = [512usize, 1024, 2048, 4096, 8192];
    let rows = par::map_indexed(seq_lens.len(), |i| {
        let seq_len = seq_lens[i];
        let pattern = presets::figure9_patterns(seq_len, 64, SEED)
            .into_iter()
            .nth(4)
            .expect("L+S+G");
        (seq_len, time_methods(&spec, &pattern, 64))
    });
    let mut t = Table::new(
        "Sweep — sequence length (L+S+G pattern, block 64, A100)",
        &[
            "Seq len",
            "MG us",
            "Triton us",
            "Sputnik us",
            "vs T",
            "vs S",
        ],
    );
    for (seq_len, times) in rows {
        t.push(vec![
            seq_len.to_string(),
            format!("{:.1}", times[0] * 1e6),
            format!("{:.1}", times[1] * 1e6),
            format!("{:.1}", times[2] * 1e6),
            format!("{:.2}x", times[1] / times[0]),
            format!("{:.2}x", times[2] / times[0]),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "Short sequences amortize Multigrain's extra kernel launches poorly; the\n\
         advantage grows with length — the paper's long-sequence motivation (§1).\n",
    );
    out
}

/// Extension experiment: the two additional compound-sparse transformers
/// the paper names in §2.3 — BigBird-ETC and Poolingformer — run end to
/// end under all three methods. Multigrain's advantage should carry over
/// to these "future model" workloads (the stated motivation of §5.2).
pub fn models_ext() -> String {
    let mut out = String::new();
    let spec = DeviceSpec::a100();
    let mut t = Table::new(
        "Extension — additional compound-SA models, end to end (A100, batch 1)",
        &[
            "Model",
            "Pattern",
            "MG ms",
            "Triton ms",
            "Sputnik ms",
            "vs T",
            "vs S",
        ],
    );
    for cfg in [
        ModelConfig::bigbird_etc_base(),
        ModelConfig::poolingformer_base(),
    ] {
        let model = SparseTransformer::new(cfg.clone());
        let sample = workload::representative(&workload::hotpotqa_like(cfg.max_seq_len, 8, 5));
        let pattern_name = model.pattern_for(&sample).name();
        let mut totals = Vec::new();
        for method in Method::ALL {
            let mut gpu = Gpu::new(spec.clone());
            let r = model
                .inference_report(&mut gpu, method, &sample, 1)
                .expect("plans");
            totals.push(r.total());
        }
        t.push(vec![
            cfg.name.to_owned(),
            pattern_name,
            format!("{:.2}", totals[0] * 1e3),
            format!("{:.2}", totals[1] * 1e3),
            format!("{:.2}", totals[2] * 1e3),
            format!("{:.2}x", totals[1] / totals[0]),
            format!("{:.2}x", totals[2] / totals[0]),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\n\
         Shape check: the slice-and-dice advantage generalizes beyond the two models\n\
         the paper evaluates — BigBird's blocked patterns land in the coarse kernels,\n\
         Poolingformer's dilated second level in the fine kernels.\n",
    );
    out
}

/// Extension: projecting the three methods onto a Hopper-class device
/// (paper §6.2 mentions Ampere and Hopper). H100's tensor:CUDA throughput
/// ratio is even more extreme than A100's, which should *widen*
/// Multigrain's advantage over the fine-only method.
pub fn future_devices() -> String {
    let mut out = String::new();
    let pattern = presets::figure9_patterns(SEQ_LEN, BLOCK, SEED)
        .into_iter()
        .nth(4)
        .expect("L+S+G");
    let mut t = Table::new(
        "Projection — L+S+G attention pipeline across device generations",
        &[
            "Device",
            "T:C ratio",
            "MG us",
            "Triton us",
            "Sputnik us",
            "vs T",
            "vs S",
        ],
    );
    for spec in [
        DeviceSpec::rtx3090(),
        DeviceSpec::a100(),
        DeviceSpec::h100(),
    ] {
        let mut times = Vec::new();
        for method in Method::ALL {
            let prob = AttentionProblem::new(pattern.clone(), HEAD_DIM, 1, HEADS, BLOCK);
            let attn = Attention::plan(method, prob).expect("plans");
            let mut gpu = Gpu::new(spec.clone());
            times.push(attn.run_timed(&mut gpu).total());
        }
        t.push(vec![
            spec.name.to_owned(),
            format!("{:.1}", spec.tensor_fp16_flops / spec.cuda_fp16_flops),
            format!("{:.1}", times[0] * 1e6),
            format!("{:.1}", times[1] * 1e6),
            format!("{:.1}", times[2] * 1e6),
            format!("{:.2}x", times[1] / times[0]),
            format!("{:.2}x", times[2] / times[0]),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\n\
         Multigrain leads on every generation, but the per-baseline gaps move in\n\
         opposite directions: Triton's waste shrinks a little as tensor cores get\n\
         faster, while Sputnik — L2-bandwidth-bound at this problem size — closes in on\n\
         H100 because memory bandwidth grew even faster than the tensor pipes. The\n\
         paper's §5.1 lesson generalizes: which baseline is closer depends on the\n\
         device's compute:bandwidth balance, and the compound method is the hedge.\n",
    );
    out
}

/// Extension experiment (paper §6.2): 2:4 structured sparsity on sparse
/// tensor cores versus compound sparse attention. cuSPARSELt halves the
/// dense GEMM time, but a compound pattern removes ~95% of the work —
/// the paper's point that 2:4 "is difficult to be applied to the existing
/// compound SA-based sparse transformers" as a substitute.
pub fn ext_24_sparsity() -> String {
    let mut out = String::new();
    let spec = DeviceSpec::a100();
    let dims = AttnDims {
        seq_len: SEQ_LEN,
        head_dim: HEAD_DIM,
        batch: 1,
        heads: HEADS,
    };

    // Fully dense attention as the reference point.
    let mut gpu = Gpu::new(spec.clone());
    for k in [
        dense_gemm_profile(
            &spec,
            SEQ_LEN,
            SEQ_LEN,
            HEAD_DIM,
            dims.instances(),
            "dense.sddmm",
        ),
        dense_softmax_profile(&spec, &dims, SEQ_LEN, "dense.softmax"),
        dense_gemm_profile(
            &spec,
            SEQ_LEN,
            HEAD_DIM,
            SEQ_LEN,
            dims.instances(),
            "dense.spmm",
        ),
    ] {
        gpu.launch(DEFAULT_STREAM, k);
    }
    let t_dense = gpu.synchronize();

    // 2:4 sparse-tensor-core attention.
    let mut gpu24 = Gpu::new(spec.clone());
    for k in attention_2_4_profiles(&spec, &dims) {
        gpu24.launch(DEFAULT_STREAM, k);
    }
    let t_24 = gpu24.synchronize();

    // Compound sparse attention (Multigrain on the L+S preset).
    let pattern = presets::figure9_patterns(SEQ_LEN, BLOCK, SEED)
        .into_iter()
        .next()
        .expect("L+S");
    let prob = AttentionProblem::new(pattern.clone(), HEAD_DIM, 1, HEADS, BLOCK);
    let mg = Attention::plan(Method::Multigrain, prob).expect("plans");
    let t_mg = mg.run_timed(&mut Gpu::new(spec.clone())).total();

    let mut t = Table::new(
        "§6.2 extension — 2:4 structured sparsity vs compound SA (A100, L=4096)",
        &["Approach", "Time us", "vs dense", "Work removed"],
    );
    t.push(vec![
        "dense attention".into(),
        format!("{:.1}", t_dense * 1e6),
        "1.00x".into(),
        "0%".into(),
    ]);
    t.push(vec![
        "2:4 sparse tensor cores".into(),
        format!("{:.1}", t_24 * 1e6),
        format!("{:.2}x", t_dense / t_24),
        "50% (of SpMM only)".into(),
    ]);
    t.push(vec![
        format!("Multigrain on {}", pattern.name()),
        format!("{:.1}", t_mg * 1e6),
        format!("{:.2}x", t_dense / t_mg),
        format!("{:.0}%", (1.0 - pattern.density()) * 100.0),
    ]);
    out.push_str(&t.render());
    out.push_str(
        "\n\
         Paper §6.2: cuSPARSELt's 2:4 support 'reduces the execution time by half\n\
         compared to the dense GEMM' but cannot express compound patterns; compound\n\
         sparse attention removes an order of magnitude more work. (The two are also\n\
         composable in principle — 2:4 within non-zero blocks — left as future work.)\n",
    );
    out
}

/// Extension experiment (paper §6.1 related work): the cuSPARSE-style
/// Blocked-ELL SpMM vs the BSR SpMM kernels on patterns of increasing
/// row irregularity. Blocked-ELL pads every block row to the longest,
/// so skewed patterns pay for slots that carry nothing.
pub fn ext_ell_spmm() -> String {
    let mut out = String::new();
    let spec = DeviceSpec::a100();
    let seq_len = 2048;
    let dims = AttnDims {
        seq_len,
        head_dim: HEAD_DIM,
        batch: 1,
        heads: HEADS,
    };

    let cases: Vec<(&str, CompoundPattern)> = vec![
        (
            "uniform (blocked local)",
            CompoundPattern::new(seq_len).with(AtomicPattern::BlockedLocal { block: 128 }),
        ),
        (
            "mildly skewed (blocked random)",
            CompoundPattern::new(seq_len).with(AtomicPattern::BlockedRandom {
                block: 64,
                blocks_per_row: 2,
                seed: 7,
            }),
        ),
        (
            "heavily skewed (local + global)",
            CompoundPattern::new(seq_len)
                .with(AtomicPattern::Local { window: 128 })
                .with(AtomicPattern::Global {
                    tokens: (0..32).collect(),
                }),
        ),
    ];

    let mut t = Table::new(
        "§6.1 extension — Blocked-ELL vs BSR SpMM (A100)",
        &[
            "Pattern",
            "Batch",
            "BSR us",
            "ELL us",
            "BSR wins",
            "padded slots %",
        ],
    );
    for (name, pattern) in &cases {
        let blocked = pattern.to_blocked(64).expect("aligned");
        let ell = BlockedEll::from_bsr(&blocked.structure);
        let pad_pct = if ell.col_indices().is_empty() {
            0.0
        } else {
            100.0 * ell.padded_slots() as f64 / ell.col_indices().len() as f64
        };
        for batch in [1usize, 8] {
            let bdims = AttnDims { batch, ..dims };
            let bsr_p = coarse_spmm_profile(
                &spec,
                &bdims,
                &blocked.structure,
                CoarseMapping::BlockRowPerTb,
                "bsr.spmm",
            );
            let ell_p = ell_spmm_profile(&spec, &bdims, &ell, "ell.spmm");
            let t_bsr = Gpu::new(spec.clone()).run_solo(bsr_p).duration();
            let t_ell = Gpu::new(spec.clone()).run_solo(ell_p).duration();
            t.push(vec![
                (*name).to_owned(),
                batch.to_string(),
                format!("{:.1}", t_bsr * 1e6),
                format!("{:.1}", t_ell * 1e6),
                format!("{:.2}x", t_ell / t_bsr),
                format!("{:.0}", pad_pct),
            ]);
        }
    }
    out.push_str(&t.render());
    out.push_str(
        "\n\
         Paper §6.1: cuSPARSE's Blocked-ELL API pads block rows, so irregular\n\
         compound patterns waste compute and bandwidth. At batch 1 both kernels are\n\
         bounded by the longest row either way; once the machine saturates (batch 8),\n\
         the padding's extra work becomes real time and BSR pulls ahead.\n",
    );
    out
}

/// Mean cosine similarity between the rows of two matrices.
fn mean_row_cosine(a: &Matrix<Half>, b: &Matrix<Half>) -> f64 {
    let mut total = 0.0f64;
    let mut rows = 0usize;
    for r in 0..a.rows() {
        let (mut dot, mut na, mut nb) = (0.0f64, 0.0f64, 0.0f64);
        for c in 0..a.cols() {
            let (x, y) = (a.get(r, c).to_f32() as f64, b.get(r, c).to_f32() as f64);
            dot += x * y;
            na += x * x;
            nb += y * y;
        }
        if na > 0.0 && nb > 0.0 {
            total += dot / (na.sqrt() * nb.sqrt());
            rows += 1;
        }
    }
    total / rows.max(1) as f64
}

/// Extension: numerical fidelity of sparse attention vs dense attention.
/// The paper takes for granted (citing the model papers) that compound
/// patterns preserve accuracy; this study measures how close the sparse
/// context is to the dense one on synthetic embeddings, per pattern.
pub fn ext_fidelity() -> String {
    let mut out = String::new();
    let seq_len = 512;
    let head_dim = 64;
    let q = Matrix::<Half>::random(seq_len, head_dim, 1);
    let k = Matrix::<Half>::random(seq_len, head_dim, 2);
    let v = Matrix::<Half>::random(seq_len, head_dim, 3);
    let dense_pattern = CompoundPattern::new(seq_len).with(AtomicPattern::Dense);
    let scale = 1.0 / (head_dim as f32).sqrt();
    let dense = reference_attention(&q, &k, &v, &dense_pattern, scale);

    let mut t = Table::new(
        "Extension — context fidelity of sparse vs dense attention (random embeddings)",
        &["Pattern", "density %", "mean row cosine"],
    );
    for pattern in presets::figure9_patterns(seq_len, 32, 5) {
        let attn = Attention::plan(
            Method::Multigrain,
            AttentionProblem::new(pattern.clone(), head_dim, 1, 1, 32),
        )
        .expect("plans");
        let sparse = attn.execute_numeric(&q, &k, &v);
        t.push(vec![
            pattern.name(),
            format!("{:.1}", pattern.density() * 100.0),
            format!("{:.4}", mean_row_cosine(&sparse, &dense)),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\n\
         Random embeddings are the WORST case: attention mass is nearly uniform, so a\n\
         ~14%-density pattern can only capture ~0.36 of the dense context direction —\n\
         about what keeping a random seventh of i.i.d. mass predicts. Trained models\n\
         concentrate attention on exactly the local/selected/global positions the\n\
         patterns keep, which is why the model papers report no accuracy loss. (This\n\
         harness measures kernels, not model quality; the study bounds the structural\n\
         information the pattern itself preserves.)\n",
    );
    out
}

/// Post-paper extension: a fused single-pass attention kernel (online
/// softmax, no S/P materialization) against the pipelined methods. Shows
/// how much of the remaining time and traffic is the attention map.
pub fn ext_fused() -> String {
    let mut out = String::new();
    let spec = DeviceSpec::a100();
    let dims = AttnDims {
        seq_len: SEQ_LEN,
        head_dim: HEAD_DIM,
        batch: 1,
        heads: HEADS,
    };
    let mut t = Table::new(
        "Extension — fused one-pass attention vs the pipelined methods (A100)",
        &[
            "Pattern",
            "Fused us",
            "MG us",
            "Sputnik us",
            "Fused DRAM MB",
            "MG DRAM MB",
        ],
    );
    for pattern in presets::figure9_patterns(SEQ_LEN, BLOCK, SEED) {
        let fused = fused_attention_profile(&spec, &dims, &pattern, "fused");
        let mut gpu = Gpu::new(spec.clone());
        gpu.launch(DEFAULT_STREAM, fused);
        let t_fused = gpu.synchronize();
        let fused_dram = gpu.total_dram_bytes();

        let prob = AttentionProblem::new(pattern.clone(), HEAD_DIM, 1, HEADS, BLOCK);
        let mg = Attention::plan(Method::Multigrain, prob.clone()).expect("plans");
        let mut gpu_mg = Gpu::new(spec.clone());
        let r_mg = mg.run_timed(&mut gpu_mg);
        let sput = Attention::plan(Method::SputnikStyle, prob).expect("plans");
        let t_sput = sput.run_timed(&mut Gpu::new(spec.clone())).total();

        t.push(vec![
            pattern.name(),
            format!("{:.1}", t_fused * 1e6),
            format!("{:.1}", r_mg.total() * 1e6),
            format!("{:.1}", t_sput * 1e6),
            format!("{:.1}", fused_dram as f64 / 1e6),
            format!("{:.1}", r_mg.dram_bytes as f64 / 1e6),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\n\
         The fused kernel eliminates the attention map's traffic entirely (DRAM column)\n\
         but runs everything on one heavyweight kernel; Multigrain's sliced pipeline\n\
         still leads where tensor cores can chew on blocked parts. (This comparison is\n\
         an extension — the paper predates fused attention kernels.)\n",
    );
    out
}

/// Extension: heterogeneous batching. A serving batch contains documents
/// of very different lengths and special-token counts; planning each
/// sample's own pattern and merging the kernel grids beats padding every
/// sample to the batch's worst case.
pub fn ext_hetero_batch() -> String {
    let mut out = String::new();
    let spec = DeviceSpec::a100();
    let model = SparseTransformer::new(ModelConfig::qds_base());
    let l = model.config().max_seq_len;
    let mut t = Table::new(
        "Extension — heterogeneous vs padded batching (QDS, A100)",
        &["Batch", "Method", "padded ms", "hetero ms", "gain"],
    );
    for batch in [4usize, 8, 16] {
        let samples = workload::msmarco_like(l, batch, 77);
        // Padded baseline: everyone gets the longest sample's pattern.
        let longest = samples
            .iter()
            .max_by_key(|s| s.valid_len)
            .expect("non-empty")
            .clone();
        for method in [Method::Multigrain, Method::SputnikStyle] {
            let mut gpu_p = Gpu::new(spec.clone());
            let padded = model
                .inference_report(&mut gpu_p, method, &longest, batch)
                .expect("plans");
            let mut gpu_h = Gpu::new(spec.clone());
            let hetero = model
                .heterogeneous_inference_report(&mut gpu_h, method, &samples)
                .expect("plans");
            t.push(vec![
                batch.to_string(),
                method.name().to_owned(),
                format!("{:.2}", padded.total() * 1e3),
                format!("{:.2}", hetero.total() * 1e3),
                format!("{:.2}x", padded.total() / hetero.total()),
            ]);
        }
    }
    out.push_str(&t.render());
    out.push_str(
        "\n\
         MSMARCO documents vary 0.4x-1.0x of the window; per-sample patterns skip the\n\
         padded tokens' work entirely. The gain is pure scheduling — the same kernels,\n\
         just with each sample's own metadata (the paper's ahead-of-time metadata\n\
         generation, §3.1, done per input).\n",
    );
    out
}

/// Extension experiment (paper §2.4): for a pure local pattern, compare
/// the sparse methods against the GEMM-conversion methods — Longformer's
/// sliding chunk and BigBird's blockify — including their memory-copy
/// overheads and workspace costs.
pub fn ext_local_methods() -> String {
    let mut out = String::new();
    let spec = DeviceSpec::a100();
    let dims = AttnDims {
        seq_len: SEQ_LEN,
        head_dim: HEAD_DIM,
        batch: 1,
        heads: HEADS,
    };
    let window = 512; // Longformer's local window

    let mut t = Table::new(
        "§2.4 extension — local-pattern methods (A100, L=4096, w=512, 4 heads)",
        &["Method", "Time us", "Workspace MB", "Note"],
    );

    // Sparse methods on the local pattern.
    let pattern = CompoundPattern::new(SEQ_LEN).with(AtomicPattern::Local { window });
    for method in Method::ALL {
        let prob = AttentionProblem::new(pattern.clone(), HEAD_DIM, 1, HEADS, BLOCK);
        let attn = Attention::plan(method, prob).expect("plans");
        let mut gpu = Gpu::new(spec.clone());
        let r = attn.run_timed(&mut gpu);
        t.push(vec![
            method.name().to_owned(),
            format!("{:.1}", r.total() * 1e6),
            "0.0".to_owned(),
            "sparse kernels, no workspace".to_owned(),
        ]);
    }

    // Sliding chunk (Longformer's original implementation).
    let sliding = sliding_chunk_plan(&spec, &dims, window);
    let mut gpu = Gpu::new(spec.clone());
    let t_sliding = sliding.run_timed(&mut gpu);
    t.push(vec![
        "SlidingChunk".to_owned(),
        format!("{:.1}", t_sliding * 1e6),
        format!("{:.1}", sliding.workspace_bytes as f64 / 1e6),
        "2x duplicated K/V chunks".to_owned(),
    ]);

    // Blockify (BigBird) on the equivalent blocked band.
    let blockify = blockify_plan(&spec, &dims, window / 2);
    let mut gpu = Gpu::new(spec.clone());
    let t_blockify = blockify.run_timed(&mut gpu);
    t.push(vec![
        "Blockify".to_owned(),
        format!("{:.1}", t_blockify * 1e6),
        format!("{:.1}", blockify.workspace_bytes as f64 / 1e6),
        "3x rolled K/V copies".to_owned(),
    ]);

    out.push_str(&t.render());
    out.push_str(
        "\n\
         Paper §2.4: the chunk methods run at dense-GEMM efficiency but 'suffer from\n\
         significant memory copy overheads' and 2x/3x workspace. The sparse blocked\n\
         kernels avoid the copies entirely.\n",
    );
    out
}

/// Extension: Longformer's per-head dilation. Upper heads add a stride-4
/// dilated window (a fine-grained pattern), so a single layer mixes heads
/// with different grain profiles — planned per head and merged into one
/// batched launch.
pub fn ext_per_head() -> String {
    let mut out = String::new();
    let spec = DeviceSpec::a100();
    let model = SparseTransformer::new(ModelConfig::longformer_large());
    let sample =
        workload::representative(&workload::hotpotqa_like(model.config().max_seq_len, 8, 17));

    let mut t = Table::new(
        "Extension — per-head dilation (Longformer-large layer, A100, batch 1)",
        &[
            "Method",
            "uniform heads ms",
            "dilated upper heads ms",
            "dilation cost",
        ],
    );
    for method in Method::ALL {
        // Uniform: all heads share one plan (the fig7 configuration).
        let uniform = model
            .plan_attention(method, &sample, 1)
            .expect("plans")
            .run_timed(&mut Gpu::new(spec.clone()))
            .total();
        // Per-head: upper half dilated, merged into one batched launch.
        let plans = model
            .plan_attention_per_head(method, &sample, 1)
            .expect("plans");
        let refs: Vec<&Attention> = plans.iter().collect();
        let per_head = Attention::run_timed_batch(&refs, &mut Gpu::new(spec.clone())).total();
        t.push(vec![
            method.name().to_owned(),
            format!("{:.2}", uniform * 1e3),
            format!("{:.2}", per_head * 1e3),
            format!("{:.2}x", per_head / uniform),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\n\
         The dilated heads add a pure fine-grained pattern (stride 4 cannot form\n\
         blocks). Triton barely notices: the dilated window's blocks largely overlap\n\
         the blocks it already rasterizes. The element-exact methods pay real extra\n\
         work — Multigrain routes it to its fine kernels (which stay overlapped with\n\
         the coarse stream) and remains ~2-4x ahead overall.\n",
    );
    out
}

/// Summarizes the whole reproduction in one table: for every headline
/// number the paper reports, the measured value and an IN/NEAR/OFF
/// verdict. This is the machine-checked version of EXPERIMENTS.md.
pub fn report_card() -> String {
    let mut out = String::new();
    let mut t = Table::new(
        "Reproduction report card (A100 unless noted)",
        &["Experiment", "Paper", "Measured", "Verdict"],
    );
    let mut push = |name: &str, band: Band, value: f64| {
        t.push(vec![
            name.to_owned(),
            band.to_string(),
            format!("{value:.2}x"),
            band.verdict(value).to_owned(),
        ]);
    };

    // Fig. 7 headline speedups.
    let fig7 = runners::figure7();
    push(
        "Fig7 Longformer vs Triton",
        bands::LF_A100_TRITON,
        fig7[0].vs_triton(),
    );
    push(
        "Fig7 Longformer vs Sputnik",
        bands::LF_A100_SPUTNIK,
        fig7[0].vs_sputnik(),
    );
    push(
        "Fig7 QDS vs Triton",
        bands::QDS_A100_TRITON,
        fig7[1].vs_triton(),
    );
    push(
        "Fig7 QDS vs Sputnik",
        bands::QDS_A100_SPUTNIK,
        fig7[1].vs_sputnik(),
    );

    // Fig. 9 per-op geomeans over patterns.
    let (sddmm, spmm) = runners::figure9();
    let gm = |rows: &[runners::OpComparison], f: fn(&runners::OpComparison) -> f64| {
        crate::geomean(&rows.iter().map(f).collect::<Vec<_>>())
    };
    push(
        "Fig9 SDDMM vs Sputnik (geomean)",
        bands::SDDMM_VS_SPUTNIK,
        gm(&sddmm, runners::OpComparison::vs_sputnik),
    );
    push(
        "Fig9 SDDMM vs Triton (geomean)",
        bands::SDDMM_VS_TRITON,
        gm(&sddmm, runners::OpComparison::vs_triton),
    );
    push(
        "Fig9 SpMM vs Sputnik (geomean)",
        bands::SPMM_VS_SPUTNIK,
        gm(&spmm, runners::OpComparison::vs_sputnik),
    );
    push(
        "Fig9 SpMM vs Triton (geomean)",
        bands::SPMM_VS_TRITON,
        gm(&spmm, runners::OpComparison::vs_triton),
    );

    // Fig. 10 softmax geomeans.
    let softmax = runners::figure10();
    push(
        "Fig10 softmax vs Sputnik (geomean)",
        bands::SOFTMAX_VS_SPUTNIK,
        gm(&softmax, runners::OpComparison::vs_sputnik),
    );
    push(
        "Fig10 softmax vs Triton (geomean)",
        bands::SOFTMAX_VS_TRITON,
        gm(&softmax, runners::OpComparison::vs_triton),
    );

    // Fig. 11 signature: blocked random at batch 1.
    let (fig11_sddmm, _) = runners::figure11();
    let br = fig11_sddmm
        .iter()
        .find(|r| r.pattern == "blocked random")
        .expect("present");
    push(
        "Fig11 SDDMM blocked random (ours/Triton)",
        Band::new(0.75, 0.75),
        br.speedup(),
    );

    // §4 ablation best case.
    let best_ablation = runners::ablation_rowsplit()
        .into_iter()
        .map(|(_, s)| s)
        .fold(0.0f64, f64::max);
    push(
        "§4 row-split vs 1D tiling (best)",
        bands::ROWSPLIT_ABLATION,
        best_ablation,
    );

    // §5.2.1 occupancy drop (points).
    let (ls, lsg) = runners::occupancy_study();
    t.push(vec![
        "§5.2.1 occupancy with global pattern".to_owned(),
        "89.0% -> 61.2%".to_owned(),
        format!("{:.1}% -> {:.1}%", ls * 100.0, lsg * 100.0),
        if lsg < ls {
            "SHAPE OK".to_owned()
        } else {
            "OFF".to_owned()
        },
    ]);

    out.push_str(&t.render());
    let _ = writeln!(out, "\nCSV:\n{}", t.to_csv());
    out
}
