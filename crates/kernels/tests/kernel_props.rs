//! Property-based tests on the kernel layer: softmax stochasticity over
//! random sliced patterns, SDDMM/SpMM against dense references, profile
//! invariants, and the run-wise cache filters, builders and batch merge
//! against per-block oracles.

use mg_gpusim::digest::Fnv1a;
use mg_gpusim::{DeviceSpec, KernelProfile, KernelRuns, LaunchConfig, Runs, TbWork};
use mg_kernels::cache::{
    apply_writeback_filter, filter_and_replicate, merge_and_refilter, CacheHints,
};
use mg_kernels::*;
use mg_patterns::{AtomicPattern, CompoundPattern, SlicedPattern};
use mg_sparse::BlockedEll;
use mg_tensor::{gemm, gemm_nt, softmax_rows, Half, Matrix};
use multigrain::{Attention, AttentionProblem, Method, Op};
use proptest::prelude::*;

fn small_pattern() -> impl Strategy<Value = CompoundPattern> {
    let atomic = prop_oneof![
        (0usize..12).prop_map(|w| AtomicPattern::Local { window: w }),
        (1usize..5, any::<u64>()).prop_map(|(n, seed)| AtomicPattern::Random { per_row: n, seed }),
        proptest::collection::vec(0usize..32, 1..4)
            .prop_map(|tokens| AtomicPattern::Selected { tokens }),
        (2usize..9).prop_map(|b| AtomicPattern::BlockedLocal { block: b }),
    ];
    proptest::collection::vec(atomic, 1..3).prop_map(|parts| {
        let mut p = CompoundPattern::new(32);
        for part in parts {
            p = p.with(part);
        }
        p
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The compound softmax over any sliced pattern is row-stochastic on
    /// non-empty rows: probabilities sum to 1 and lie in [0, 1].
    #[test]
    fn compound_softmax_is_row_stochastic(pattern in small_pattern(), seed in 0u64..1000) {
        let sliced = SlicedPattern::from_compound(&pattern, 8).expect("aligned");
        let q = Matrix::<Half>::random(32, 8, seed);
        let k = Matrix::<Half>::random(32, 8, seed + 1);
        let coarse_s = sliced.coarse().map(|c| coarse_sddmm_compute(&q, &k, &c.structure));
        let fine_s = sliced.fine().map(|f| fine_sddmm_compute(&q, &k, f));
        let (pc, pf) = compound_softmax_compute(
            coarse_s.as_ref().map(|s| (s, sliced.coarse().expect("coarse").mask.as_slice())),
            fine_s.as_ref(),
            0.35,
        );
        let mut row_sums = [0.0f32; 32];
        if let Some(pc) = &pc {
            let b = pc.block_size();
            for (br, _, elems) in pc.iter_blocks() {
                for (e, v) in elems.iter().enumerate() {
                    let val = v.to_f32();
                    prop_assert!((0.0..=1.001).contains(&val), "probability out of range: {val}");
                    row_sums[br * b + e / b] += val;
                }
            }
        }
        if let Some(pf) = &pf {
            for (r, _, v) in pf.iter() {
                let val = v.to_f32();
                prop_assert!((0.0..=1.001).contains(&val));
                row_sums[r] += val;
            }
        }
        for (r, &sum) in row_sums.iter().enumerate() {
            let nnz = pattern.row_columns(r).len();
            // Rows owned by the sliced parts sum to ~1; empty rows to 0.
            if nnz > 0 {
                prop_assert!((sum - 1.0).abs() < 0.05, "row {r} sums to {sum}");
            } else {
                prop_assert!(sum.abs() < 1e-6, "empty row {r} must stay zero");
            }
        }
    }

    /// Fine SDDMM values equal the dense product at their coordinates.
    #[test]
    fn fine_sddmm_matches_dense(pattern in small_pattern(), seed in 0u64..1000) {
        let csr = pattern.to_csr::<Half>();
        let q = Matrix::<Half>::random(32, 8, seed);
        let k = Matrix::<Half>::random(32, 8, seed + 7);
        let s = fine_sddmm_compute(&q, &k, &csr);
        let dense: Matrix<f32> = gemm_nt(&q, &k);
        for (r, c, v) in s.iter() {
            prop_assert_eq!(v, Half::from_f32(dense.get(r, c)));
        }
    }

    /// Coarse SpMM over a blocked softmax equals the dense pipeline.
    #[test]
    fn coarse_pipeline_matches_dense(seed in 0u64..500, window in 2usize..10) {
        let pattern = CompoundPattern::new(32).with(AtomicPattern::Local { window });
        let sliced = SlicedPattern::from_compound(&pattern, 8).expect("aligned");
        let coarse = sliced.coarse().expect("local has a coarse part");
        let q = Matrix::<Half>::random(32, 8, seed);
        let k = Matrix::<Half>::random(32, 8, seed + 1);
        let v = Matrix::<Half>::random(32, 8, seed + 2);
        let s = coarse_sddmm_compute(&q, &k, &coarse.structure);
        let (pc, _) = compound_softmax_compute(Some((&s, coarse.mask.as_slice())), None, 0.35);
        let c = coarse_spmm_compute(&pc.expect("coarse"), &v);

        let s_ref: Matrix<Half> = gemm_nt(&q, &k);
        let p_ref: Matrix<Half> = softmax_rows(&s_ref, 0.35, Some(&pattern.to_dense_mask()));
        let c_ref: Matrix<Half> = gemm(&p_ref, &v);
        prop_assert!(c.max_abs_diff(&c_ref) < 0.02, "diff {}", c.max_abs_diff(&c_ref));
    }

    /// fine SpMM distributes over addition of the sparse operand
    /// (linearity in P).
    #[test]
    fn fine_spmm_is_linear(seed in 0u64..500) {
        let pattern = CompoundPattern::new(32)
            .with(AtomicPattern::Random { per_row: 4, seed });
        let csr = pattern.to_csr::<Half>();
        let q = Matrix::<Half>::random(32, 8, seed);
        let k = Matrix::<Half>::random(32, 8, seed + 1);
        let v = Matrix::<Half>::random(32, 8, seed + 2);
        let p1 = fine_sddmm_compute(&q, &k, &csr);
        // P2 = 2 * P1 (same structure).
        let mut p2 = p1.clone();
        for val in p2.values_mut() {
            *val = Half::from_f32(val.to_f32() * 2.0);
        }
        let c1 = fine_spmm_compute(&p1, &v);
        let c2 = fine_spmm_compute(&p2, &v);
        for r in 0..32 {
            for c in 0..8 {
                let expect = 2.0 * c1.get(r, c).to_f32();
                let got = c2.get(r, c).to_f32();
                prop_assert!((got - expect).abs() <= expect.abs() * 0.01 + 0.01);
            }
        }
    }

    /// Profiles never lose work: total flops are independent of the
    /// scheme's thread-block decomposition (up to 1D padding, which only
    /// adds).
    #[test]
    fn one_dim_tiling_only_adds_work(pattern in small_pattern()) {
        let spec = DeviceSpec::a100();
        let dims = AttnDims { seq_len: 32, head_dim: 8, batch: 1, heads: 1 };
        let csr = pattern.to_csr::<Half>();
        let rs = fine_sddmm_profile(&spec, &dims, &csr, FineSddmmScheme::RowSplit, "rs");
        let od = fine_sddmm_profile(&spec, &dims, &csr, FineSddmmScheme::OneDimTiling, "od");
        prop_assert!(od.total().cuda_flops >= rs.total().cuda_flops - 4 * csr.nnz() as u64);
        // And both write the same payload.
        let rs_payload: u64 = csr.nnz() as u64 * 2;
        prop_assert!(od.total().dram_write <= rs_payload);
    }
}

/// The cache filters as they were before the run-wise rewrite: every
/// block does its own arithmetic, and merged grids are concatenated
/// block by block. The oracle the run-wise filters must match bit for bit,
/// compared on expanded blocks.
mod per_block {
    use mg_gpusim::{CacheStats, DeviceSpec, KernelProfile};
    use mg_kernels::cache::{l1_hit_rate, l2_miss_rate, CacheHints};

    pub fn apply_cache_model(spec: &DeviceSpec, profile: &mut KernelProfile, hints: CacheHints) {
        let raw: u64 = profile.tbs.iter().map(|t| t.l2_read).sum();
        let prior_write = profile.cache.map_or(0, |c| c.raw_write);
        profile.cache = Some(CacheStats {
            unique_bytes: hints.unique_bytes,
            reuse_footprint: hints.reuse_footprint,
            raw_l2: raw,
            raw_write: prior_write,
        });
        if raw == 0 {
            return;
        }
        let unique = hints.unique_bytes.min(raw);
        let retouches = (raw - unique) as f64;
        let l1_hit = l1_hit_rate(spec, hints.reuse_footprint);
        let l2_total = unique as f64 + retouches * (1.0 - l1_hit);
        let dram_total = unique as f64 + (l2_total - unique as f64) * l2_miss_rate(spec, unique);
        let l2_scale = l2_total / raw as f64;
        let dram_scale = dram_total / raw as f64;
        for tb in &mut profile.tbs {
            let raw_tb = tb.l2_read as f64;
            tb.l2_read = (raw_tb * l2_scale).round() as u64;
            tb.dram_read = (raw_tb * dram_scale).round() as u64;
        }
    }

    pub fn apply_writeback_filter(spec: &DeviceSpec, profile: &mut KernelProfile) {
        let total_write: u64 = profile.tbs.iter().map(|t| t.dram_write).sum();
        if let Some(cache) = &mut profile.cache {
            cache.raw_write = total_write;
        } else {
            profile.cache = Some(CacheStats {
                unique_bytes: 0,
                reuse_footprint: 0,
                raw_l2: 0,
                raw_write: total_write,
            });
        }
        if total_write == 0 {
            return;
        }
        let l2_half = spec.l2_bytes as f64 * 0.5;
        let evicted = (total_write as f64 / l2_half).clamp(0.25, 1.0);
        for tb in &mut profile.tbs {
            tb.dram_write = (tb.dram_write as f64 * evicted).round() as u64;
        }
    }

    pub fn reapply_cache_model(spec: &DeviceSpec, profile: &mut KernelProfile) {
        let Some(stats) = profile.cache else {
            return;
        };
        let cur_l2: u64 = profile.tbs.iter().map(|t| t.l2_read).sum();
        if stats.raw_l2 > 0 && cur_l2 > 0 {
            let scale = stats.raw_l2 as f64 / cur_l2 as f64;
            for tb in &mut profile.tbs {
                tb.l2_read = (tb.l2_read as f64 * scale).round() as u64;
                tb.dram_read = 0;
            }
            apply_cache_model(
                spec,
                profile,
                CacheHints {
                    unique_bytes: stats.unique_bytes,
                    reuse_footprint: stats.reuse_footprint,
                },
            );
        }
        let cur_w: u64 = profile.tbs.iter().map(|t| t.dram_write).sum();
        if stats.raw_write > 0 && cur_w > 0 {
            let scale = stats.raw_write as f64 / cur_w as f64;
            for tb in &mut profile.tbs {
                tb.dram_write = (tb.dram_write as f64 * scale).round() as u64;
            }
            apply_writeback_filter(spec, profile);
        }
        if let Some(cache) = &mut profile.cache {
            cache.unique_bytes = stats.unique_bytes;
            cache.reuse_footprint = stats.reuse_footprint;
            cache.raw_write = stats.raw_write;
        }
    }

    /// The parts' blocks concatenated (stats merge only when every part
    /// has them), then `reapply_cache_model`.
    pub fn merge_and_refilter(spec: &DeviceSpec, parts: &[KernelProfile]) -> KernelProfile {
        let mut merged = parts[0].clone();
        for part in &parts[1..] {
            merged.tbs.extend_from_slice(&part.tbs);
            merged.cache = match (merged.cache, part.cache) {
                (Some(a), Some(b)) => Some(a.merged(b)),
                _ => None,
            };
        }
        reapply_cache_model(spec, &mut merged);
        merged
    }
}

/// Raw per-instance grids (raw touches in `l2_read`, no `dram_read`) as
/// runs over a small palette, with zero-work blocks and singletons.
fn arb_raw_grid() -> impl Strategy<Value = Vec<TbWork>> {
    (
        proptest::collection::vec((0u64..1 << 20, 0u64..1 << 16), 1..5),
        proptest::collection::vec((0usize..6, prop_oneof![Just(1usize), 1usize..40]), 0..12),
    )
        .prop_map(|(shapes, runs)| {
            let mut palette: Vec<TbWork> = shapes
                .into_iter()
                .map(|(l2, write)| TbWork {
                    tensor_macs: l2 * 3,
                    cuda_flops: l2 / 2 + 1,
                    l2_read: l2,
                    dram_write: write,
                    stall_cycles: 300,
                    ..TbWork::default()
                })
                .collect();
            palette.push(TbWork::default());
            runs.into_iter()
                .flat_map(|(i, n)| std::iter::repeat_n(palette[i % palette.len()], n))
                .collect()
        })
}

/// Locality hints around every L1 and L2 threshold of the model.
fn arb_hints() -> impl Strategy<Value = CacheHints> {
    (
        prop_oneof![Just(0u64), 0u64..1 << 26, Just(1u64 << 40)],
        prop_oneof![
            Just(0u64),
            Just(100 * 1024),
            Just(400 * 1024),
            Just(4 << 20),
            0u64..1 << 30
        ],
    )
        .prop_map(|(unique_bytes, reuse_footprint)| CacheHints {
            unique_bytes,
            reuse_footprint,
        })
}

/// Devices with a small, a stock and a large L2, so capacity misses and
/// write-back eviction both vary.
fn arb_spec() -> impl Strategy<Value = DeviceSpec> {
    prop_oneof![Just(1usize << 20), Just(40 << 20), Just(1 << 30)].prop_map(|l2_bytes| DeviceSpec {
        l2_bytes,
        ..DeviceSpec::a100()
    })
}

fn raw_profile(tbs: Vec<TbWork>) -> KernelProfile {
    KernelProfile {
        name: "k".to_owned(),
        launch: LaunchConfig::default(),
        tbs,
        cache: None,
    }
}

/// A kernel's runs expanded block by block, the form the oracles use.
fn expanded(kernel: KernelRuns) -> KernelProfile {
    KernelProfile {
        tbs: kernel.tbs.to_blocks(),
        name: kernel.name,
        launch: kernel.launch,
        cache: kernel.cache,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The builders' shared finisher equals replicating the raw grid and
    /// filtering every block on its own.
    #[test]
    fn filter_and_replicate_matches_the_per_block_filters(
        spec in arb_spec(),
        grid in arb_raw_grid(),
        instances in 0usize..12,
        hints in arb_hints(),
    ) {
        let mut oracle = raw_profile(grid.repeat(instances));
        per_block::apply_cache_model(&spec, &mut oracle, hints);
        per_block::apply_writeback_filter(&spec, &mut oracle);
        let finished = filter_and_replicate(
            &spec,
            "k",
            LaunchConfig::default(),
            Runs::from_blocks(&grid),
            instances,
            hints,
        );
        prop_assert_eq!(expanded(finished), oracle);
    }

    /// The write-back filter, on a raw profile or one that already
    /// carries stats, matches the per-block filter.
    #[test]
    fn writeback_filter_matches_the_per_block_filter(
        spec in arb_spec(),
        grid in arb_raw_grid(),
        hints in arb_hints(),
        with_stats in any::<bool>(),
    ) {
        let mut oracle = raw_profile(grid);
        if with_stats {
            per_block::apply_cache_model(&spec, &mut oracle, hints);
        }
        let mut run_wise = KernelRuns::from(oracle.clone());
        apply_writeback_filter(&spec, &mut run_wise);
        per_block::apply_writeback_filter(&spec, &mut oracle);
        prop_assert_eq!(expanded(run_wise), oracle);
    }

    /// Merging 1–4 filtered (or raw) parts and re-filtering run-wise
    /// equals block-by-block concatenation and the per-block re-filter.
    #[test]
    fn merge_and_refilter_matches_the_per_block_merge(
        spec in arb_spec(),
        parts in proptest::collection::vec(
            (arb_raw_grid(), 1usize..6, arb_hints(), 0u8..5),
            1..5,
        ),
    ) {
        let parts: Vec<KernelRuns> = parts
            .into_iter()
            .map(|(grid, instances, hints, raw_odds)| {
                // One part in five stays raw (no stats).
                if raw_odds > 0 {
                    let grid = Runs::from_blocks(&grid);
                    filter_and_replicate(&spec, "k", LaunchConfig::default(), grid, instances, hints)
                } else {
                    raw_profile(grid).into()
                }
            })
            .collect();
        let blocks: Vec<KernelProfile> = parts.iter().cloned().map(expanded).collect();
        let oracle = per_block::merge_and_refilter(&spec, &blocks);
        prop_assert_eq!(expanded(merge_and_refilter(&spec, parts)), oracle);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `batch_phase_profiles` over a random mix of 1–4 plans (any method,
    /// any batch and head count) equals merging each plan's phase
    /// profiles block by block and re-filtering them per block.
    #[test]
    fn batch_phase_profiles_match_the_per_block_merge(
        plans in proptest::collection::vec(
            (small_pattern(), 0usize..4, 1usize..3, 1usize..4),
            1..5,
        ),
    ) {
        let spec = DeviceSpec::a100();
        let attns: Vec<Attention> = plans
            .into_iter()
            .map(|(pattern, method, batch, heads)| {
                let problem = AttentionProblem::new(pattern, 8, batch, heads, 8);
                Attention::plan(Method::EXTENDED[method], problem).expect("aligned")
            })
            .collect();
        let refs: Vec<&Attention> = attns.iter().collect();
        for op in [Op::Sddmm, Op::Softmax, Op::Spmm, Op::Merge] {
            let mut groups: Vec<(multigrain::StreamRole, Vec<KernelProfile>)> = Vec::new();
            for attn in &refs {
                for (role, profile) in attn.phase_profiles(&spec, op) {
                    let profile = expanded(profile);
                    match groups
                        .iter_mut()
                        .find(|(r, parts)| *r == role && parts[0].name == profile.name)
                    {
                        Some((_, parts)) => parts.push(profile),
                        None => groups.push((role, vec![profile])),
                    }
                }
            }
            let oracle: Vec<_> = groups
                .iter()
                .map(|(role, parts)| (*role, per_block::merge_and_refilter(&spec, parts)))
                .collect();
            let merged: Vec<_> = Attention::batch_phase_profiles(&refs, &spec, op)
                .into_iter()
                .map(|(role, kernel)| (role, expanded(kernel)))
                .collect();
            prop_assert_eq!(merged, oracle);
        }
    }
}

/// Folds a profile into `h`: name, launch, every block, cache stats.
fn fold_profile(h: &mut Fnv1a, p: &KernelProfile) {
    h.write(p.name.as_bytes());
    let l = p.launch;
    for v in [
        l.threads_per_tb,
        l.regs_per_thread,
        l.smem_per_tb,
        p.tbs.len(),
    ] {
        h.write_u64(v as u64);
    }
    for t in &p.tbs {
        for v in [
            t.tensor_macs,
            t.cuda_flops,
            t.sfu_ops,
            t.l2_read,
            t.dram_read,
            t.dram_write,
            t.stall_cycles,
        ] {
            h.write_u64(v);
        }
    }
    match p.cache {
        None => h.write_u64(0),
        Some(c) => {
            h.write_u64(1);
            for v in [c.unique_bytes, c.reuse_footprint, c.raw_l2, c.raw_write] {
                h.write_u64(v);
            }
        }
    }
}

/// Every profile builder of the crate over a fixed sweep of devices,
/// patterns, block sizes and head/batch shapes, folded into one digest.
fn builder_sweep_digest() -> u64 {
    use AtomicPattern::*;
    let mut h = Fnv1a::new();
    let patterns = [
        CompoundPattern::new(256)
            .with(Local { window: 32 })
            .with(Selected {
                tokens: vec![0, 7, 130],
            })
            .with(Random {
                per_row: 3,
                seed: 11,
            }),
        CompoundPattern::new(256)
            .with(BlockedLocal { block: 32 })
            .with(Global { tokens: vec![0, 1] })
            .with(Dilated {
                window: 64,
                stride: 4,
            }),
        CompoundPattern::new(256)
            .with(BlockedRandom {
                block: 16,
                blocks_per_row: 2,
                seed: 3,
            })
            .with(VectorRandom {
                per_row: 4,
                group: 8,
                seed: 5,
            }),
    ];
    for spec in [DeviceSpec::a100(), DeviceSpec::rtx3090()] {
        for pattern in &patterns {
            for (batch, heads, head_dim) in [(1, 1, 32), (2, 3, 64)] {
                let dims = AttnDims {
                    seq_len: 256,
                    head_dim,
                    batch,
                    heads,
                };
                let inst = dims.instances();
                let mut out: Vec<KernelRuns> = Vec::new();
                for block in [16, 32] {
                    let sliced = SlicedPattern::from_compound(pattern, block).expect("aligned");
                    if let Some(c) = sliced.coarse() {
                        for mapping in [CoarseMapping::BlockRowPerTb, CoarseMapping::BlockPerTb] {
                            out.push(coarse_sddmm_profile(
                                &spec,
                                &dims,
                                &c.structure,
                                mapping,
                                "cs",
                            ));
                            out.push(coarse_spmm_profile(
                                &spec,
                                &dims,
                                &c.structure,
                                mapping,
                                "cp",
                            ));
                        }
                        let ell = BlockedEll::from_bsr(&c.structure);
                        out.push(ell_spmm_profile(&spec, &dims, &ell, "ell"));
                    }
                    if let Some(f) = sliced.fine() {
                        for scheme in [FineSddmmScheme::RowSplit, FineSddmmScheme::OneDimTiling] {
                            out.push(fine_sddmm_profile(&spec, &dims, f, scheme, "fs"));
                        }
                        out.push(fine_spmm_profile(&spec, &dims, f, "fp"));
                    }
                    out.push(compound_softmax_profile(
                        &spec,
                        &dims,
                        sliced.coarse(),
                        sliced.fine(),
                        "sm",
                    ));
                    let blocked = pattern.to_blocked(block).expect("aligned");
                    out.push(blocked_softmax_profile(&spec, &dims, &blocked, "bsm"));
                    out.push(merge_add_profile(&spec, 256 * head_dim, 2, inst, "merge"));
                    out.extend(blockify_plan(&spec, &dims, block).kernels);
                }
                let csr = pattern.to_csr::<Half>();
                out.push(element_softmax_profile(&spec, &dims, &csr, "esm"));
                out.push(dense_softmax_profile(
                    &spec,
                    &dims,
                    pattern.global_rows().len(),
                    "dsm",
                ));
                out.push(fused_attention_profile(&spec, &dims, pattern, "fused"));
                let row_nnzs: Vec<usize> = (0..256)
                    .step_by(37)
                    .map(|r| pattern.row_columns(r).len())
                    .collect();
                out.push(decode_step_profile(&spec, head_dim, heads, &row_nnzs, "decode").into());
                out.extend(sliding_chunk_plan(&spec, &dims, 32).kernels);
                out.extend(attention_2_4_profiles(&spec, &dims));
                for (m, n, k) in [(2, 256, head_dim), (256, head_dim, 256), (8, 4096, 512)] {
                    out.push(dense_gemm_profile(&spec, m, n, k, inst, "gemm"));
                    out.push(gemm_2_4_profile(&spec, m, n, k, inst, "gemm24"));
                }
                out.push(dense_sddmm_profile(&spec, 2, 256, head_dim, inst, "dsd"));
                out.push(dense_spmm_profile(&spec, 2, 256, head_dim, inst, "dsp"));
                for p in out {
                    fold_profile(&mut h, &expanded(p));
                }
            }
        }
    }
    h.finish()
}

/// Every builder gives the profiles the per-block build gave: the
/// digest of the sweep was taken with the per-block filters and the
/// hand-replicated grids.
#[test]
fn every_builder_matches_the_per_block_build() {
    assert_eq!(builder_sweep_digest(), 0x9e5f_ea5f_7dfa_64e1);
}
