//! Adversarial property corpus for the fused single-pass attention
//! kernel: the register-tiled path promises *bit-identical* output to
//! `fused::naive` at every thread count (NaN payload bits excepted — see
//! [`assert_bits_eq`]), and both promise the reference softmax
//! convention — a row whose every score is `-inf` (fully masked, padded
//! past `valid_len`, or FP16 negative overflow) is all zeros, not NaN.
//!
//! Inputs are drawn from the **full** `Half` bit space (normals,
//! subnormals, ±0, ±Inf, NaN payloads) over patterns with empty rows,
//! padded rows, global tokens, and scattered columns, under 1-thread and
//! 4-thread pools. A second, finite-operand corpus over window-plus-
//! scattered patterns keeps the running max settled, so the chunk-batched
//! accumulate runs on window runs and the per-column update on gathered
//! chunks; with no NaN in play it is held to strict bit equality.

use mg_kernels::fused;
use mg_kernels::fused_attention_compute;
use mg_patterns::{AtomicPattern, CompoundPattern};
use mg_tensor::{simd, Half, Matrix};
use rayon::ThreadPoolBuilder;

/// Deterministic LCG over raw u16 bit patterns (MMIX constants), covering
/// every `Half` class — same idiom as mg-tensor's pack_props.
struct BitRng(u64);

impl BitRng {
    fn next_u16(&mut self) -> u16 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 48) as u16
    }

    fn matrix(&mut self, rows: usize, cols: usize) -> Matrix<Half> {
        Matrix::from_fn(rows, cols, |_, _| Half::from_bits(self.next_u16()))
    }
}

fn pool(n: usize) -> rayon::ThreadPool {
    ThreadPoolBuilder::new().num_threads(n).build().unwrap()
}

/// Bit-level comparison with NaN payloads normalized: the two paths must
/// agree exactly on every non-NaN element AND on where NaNs are, but NaN
/// *payload* bits are outside the contract — LLVM commutes `fadd`
/// operands freely per inlining context, and x86 propagates the first
/// operand's payload, so `NaN(a) + NaN(b)` can surface either payload
/// depending on codegen.
fn assert_bits_eq(tiled: &Matrix<Half>, reference: &Matrix<Half>, ctx: &str) {
    for (i, (t, r)) in tiled
        .as_slice()
        .iter()
        .zip(reference.as_slice())
        .enumerate()
    {
        if t.to_f32().is_nan() && r.to_f32().is_nan() {
            continue;
        }
        assert_eq!(
            t.to_bits(),
            r.to_bits(),
            "{ctx}: element {i} diverges: tiled {t:?} vs naive {r:?}"
        );
    }
}

/// The pattern gauntlet: empty rows, valid-len padding, windows narrower
/// and wider than the NR=8 score tile, scattered columns, global tokens.
fn patterns(l: usize) -> Vec<(String, CompoundPattern)> {
    vec![
        ("empty".into(), CompoundPattern::new(l)),
        (
            "local3".into(),
            CompoundPattern::new(l).with(AtomicPattern::Local { window: 3 }),
        ),
        (
            "local16+random".into(),
            CompoundPattern::new(l)
                .with(AtomicPattern::Local { window: 16 })
                .with(AtomicPattern::Random {
                    per_row: 5,
                    seed: 3,
                }),
        ),
        (
            "global+random".into(),
            CompoundPattern::new(l)
                .with(AtomicPattern::Global {
                    tokens: vec![0, l / 2],
                })
                .with(AtomicPattern::Random {
                    per_row: 2,
                    seed: 7,
                }),
        ),
        (
            "dense-padded".into(),
            CompoundPattern::new(l)
                .with(AtomicPattern::Dense)
                .with_valid_len(l / 2),
        ),
        (
            "compound-padded".into(),
            CompoundPattern::new(l)
                .with(AtomicPattern::Local { window: 9 })
                .with(AtomicPattern::Global { tokens: vec![1] })
                .with_valid_len(l - 3),
        ),
    ]
}

#[test]
fn tiled_matches_naive_bitwise_over_full_half_space() {
    let mut rng = BitRng(0x5eed_f00d);
    for threads in [1, 4] {
        for l in [8, 33, 64] {
            for (name, p) in patterns(l) {
                for (round, dh) in [(0usize, 8usize), (1, 16), (2, 17)] {
                    let q = rng.matrix(l, dh);
                    let k = rng.matrix(l, dh);
                    let v = rng.matrix(l, dh);
                    let scale = 1.0 / (dh as f32).sqrt();
                    let (tiled, reference) = pool(threads).install(|| {
                        let t = fused_attention_compute(&q, &k, &v, &p, scale);
                        let r = fused::naive::fused_attention_compute(&q, &k, &v, &p, scale);
                        (t, r)
                    });
                    assert_bits_eq(
                        &tiled,
                        &reference,
                        &format!("{name} l={l} dh={dh} round {round} threads {threads}"),
                    );
                }
            }
        }
    }
}

#[test]
fn simd_and_scalar_dispatch_agree_bitwise() {
    // Force the two dispatch modes in turn on identical inputs and demand
    // *strict* bit equality — stronger than the NaN-normalized tiled-vs-
    // naive comparison, because scalar and vector legs of the SAME fused
    // kernel share one accumulation order, payload bits included.
    let mut rng = BitRng(0x5eed_d15b);
    for threads in [1, 4] {
        for l in [8, 33, 64] {
            for (name, p) in patterns(l) {
                let q = rng.matrix(l, 16);
                let k = rng.matrix(l, 16);
                let v = rng.matrix(l, 16);
                let (scalar_out, simd_out) = pool(threads).install(|| {
                    simd::set_override(Some(false));
                    let s = fused_attention_compute(&q, &k, &v, &p, 0.25);
                    simd::set_override(Some(true));
                    let vec = fused_attention_compute(&q, &k, &v, &p, 0.25);
                    simd::set_override(None);
                    (s, vec)
                });
                for (i, (a, b)) in simd_out
                    .as_slice()
                    .iter()
                    .zip(scalar_out.as_slice())
                    .enumerate()
                {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "cross-mode {name} l={l} threads {threads}: element {i} \
                         diverges: simd {a:?} vs scalar {b:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn masked_and_padded_rows_are_zero_bits() {
    // The softmax convention (softmax_rows on a fully masked row): rows
    // with no pattern columns — empty patterns or rows past valid_len —
    // must come out as exact +0.0 bits from both paths, whatever the
    // operand bits are (Inf and NaN operands included).
    let mut rng = BitRng(0x5eed_beef);
    let l = 32;
    let dh = 8;
    for threads in [1, 4] {
        for (name, p) in patterns(l) {
            let q = rng.matrix(l, dh);
            let k = rng.matrix(l, dh);
            let v = rng.matrix(l, dh);
            let outs = pool(threads).install(|| {
                [
                    fused_attention_compute(&q, &k, &v, &p, 0.5),
                    fused::naive::fused_attention_compute(&q, &k, &v, &p, 0.5),
                ]
            });
            for (path, out) in ["tiled", "naive"].iter().zip(outs.iter()) {
                for r in 0..l {
                    if p.row_columns(r).is_empty() {
                        assert!(
                            out.row(r).iter().all(|h| h.to_bits() == 0),
                            "{name} {path} threads {threads}: masked row {r} not zero"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn fp16_score_overflow_rows_are_zero_bits() {
    // Every score of row 0 overflows FP16 to -inf: the convention says
    // all zeros. Before the guard, `correction = exp(-inf − -inf)`
    // NaN-contaminated the whole row.
    let l = 16;
    let dh = 8;
    let p = CompoundPattern::new(l).with(AtomicPattern::Local { window: 5 });
    let q = Matrix::<Half>::from_fn(l, dh, |r, _| {
        if r == 0 {
            Half::from_f32(-60000.0)
        } else {
            Half::from_f32(1e-3)
        }
    });
    let k = Matrix::<Half>::from_fn(l, dh, |_, _| Half::from_f32(60000.0));
    let v = Matrix::<Half>::random(l, dh, 5);
    for threads in [1, 4] {
        let outs = pool(threads).install(|| {
            [
                fused_attention_compute(&q, &k, &v, &p, 1.0),
                fused::naive::fused_attention_compute(&q, &k, &v, &p, 1.0),
            ]
        });
        for (path, out) in ["tiled", "naive"].iter().zip(outs.iter()) {
            assert!(
                out.row(0).iter().all(|h| h.to_bits() == 0),
                "{path} threads {threads}: overflow row not zeroed: {:?}",
                out.row(0)
            );
            for r in 1..l {
                assert!(
                    out.row(r).iter().all(|h| !h.to_f32().is_nan()),
                    "{path} threads {threads}: row {r} contaminated"
                );
            }
        }
    }
}

#[test]
fn subnormal_operands_round_trip_bitwise() {
    // All-subnormal Q/K/V: scores collapse toward zero but stay finite;
    // tiled and naive must agree bit for bit and produce no NaN.
    let l = 24;
    let dh = 8;
    // Subnormal Half bit patterns: exponent zero, nonzero mantissa.
    let mut rng = BitRng(0x5eed_50b0);
    let sub = |rng: &mut BitRng| Half::from_bits((rng.next_u16() & 0x03FF).max(1));
    let q = Matrix::<Half>::from_fn(l, dh, |_, _| sub(&mut rng));
    let k = Matrix::<Half>::from_fn(l, dh, |_, _| sub(&mut rng));
    let v = Matrix::<Half>::from_fn(l, dh, |_, _| sub(&mut rng));
    let p = CompoundPattern::new(l)
        .with(AtomicPattern::Local { window: 7 })
        .with(AtomicPattern::Global { tokens: vec![0] });
    let tiled = fused_attention_compute(&q, &k, &v, &p, 1.0);
    let reference = fused::naive::fused_attention_compute(&q, &k, &v, &p, 1.0);
    assert_bits_eq(&tiled, &reference, "subnormal");
    assert!(tiled.as_slice().iter().all(|h| !h.to_f32().is_nan()));
}

#[test]
fn finite_operands_match_naive_strictly_on_run_and_gathered_chunks() {
    // Matrix::random-scale operands keep every score finite, so once a
    // row's first chunk has set the running max, most later chunks raise
    // nothing: window runs take the chunk-batched accumulate and the
    // scattered columns between them take the per-column update. With no
    // NaN anywhere, tiled and naive must agree strictly, in both dispatch
    // modes.
    for (l, window, per_row) in [(64, 24, 6), (100, 40, 9)] {
        let p = CompoundPattern::new(l)
            .with(AtomicPattern::Local { window })
            .with(AtomicPattern::Random { per_row, seed: 5 })
            .with(AtomicPattern::Global { tokens: vec![3] });
        for dh in [8, 13, 40, 64, 70] {
            let seed = (l * 1000 + dh) as u64;
            let q = Matrix::<Half>::random(l, dh, seed);
            let k = Matrix::<Half>::random(l, dh, seed + 1);
            let v = Matrix::<Half>::random(l, dh, seed + 2);
            let scale = 1.0 / (dh as f32).sqrt();
            let reference = fused::naive::fused_attention_compute(&q, &k, &v, &p, scale);
            for threads in [1, 4] {
                for simd_on in [false, true] {
                    let tiled = pool(threads).install(|| {
                        simd::set_override(Some(simd_on));
                        fused_attention_compute(&q, &k, &v, &p, scale)
                    });
                    for (i, (a, b)) in tiled
                        .as_slice()
                        .iter()
                        .zip(reference.as_slice())
                        .enumerate()
                    {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "l={l} dh={dh} threads {threads} simd {simd_on}: element {i} \
                             diverges: tiled {a:?} vs naive {b:?}"
                        );
                    }
                }
            }
            simd::set_override(None);
        }
    }
}
