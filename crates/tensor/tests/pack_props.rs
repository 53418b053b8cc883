//! Bit-equality of the packed microkernels against the naive reference.
//!
//! The packed `gemm`/`gemm_nt` promise *bit-identical* results to the
//! retained `naive` module at every thread count: FP16→FP32 decode is
//! exact and the per-element accumulation order is unchanged. These tests
//! pin that promise over matrices drawn from the **full** `Half` bit
//! space — which naturally includes subnormals, ±Inf, and NaN — plus
//! empty and degenerate shapes and shapes crossing the blocked GEMM's
//! row-block and slab boundaries, under 1-thread and 4-thread pools. The
//! vector FP16 encode is pinned to per-element `Half::from_f32` at every
//! rounding boundary, and (ignored by default) over all 2³² inputs.

use mg_tensor::simd::{self, Level};
use mg_tensor::{dot, dot_f32, gemm, gemm_nt, naive, pack, Half, Matrix};
use rayon::ThreadPoolBuilder;

/// Deterministic LCG over raw u16 bit patterns (MMIX constants). Unlike
/// `Matrix::random`, which draws finite values, this covers every `Half`
/// class: normals, subnormals, ±0, ±Inf, and NaN payloads.
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

/// Bit-level comparison that treats every NaN payload distinctly: the
/// packed path must reproduce the reference's exact bits, NaNs included.
fn assert_bits_eq(packed: &Matrix<f32>, reference: &Matrix<f32>, ctx: &str) {
    assert_eq!(packed.rows(), reference.rows(), "{ctx}: row mismatch");
    assert_eq!(packed.cols(), reference.cols(), "{ctx}: col mismatch");
    for (i, (p, r)) in packed
        .as_slice()
        .iter()
        .zip(reference.as_slice())
        .enumerate()
    {
        assert_eq!(
            p.to_bits(),
            r.to_bits(),
            "{ctx}: element {i} diverges: packed {p:?} vs reference {r:?}"
        );
    }
}

/// Shapes chosen to stress the register tiler: empty, single-element,
/// below/at/above the NR=8 tile width, and odd sizes with ragged tails.
const SHAPES: &[(usize, usize, usize)] = &[
    (0, 4, 3),
    (3, 0, 5),
    (2, 7, 0),
    (1, 1, 1),
    (5, 3, 7),
    (4, 16, 8),
    (9, 12, 17),
    (16, 64, 33),
];

/// Shapes that cross the blocked GEMM's 32-row output blocks and
/// 32-column B slabs: one below, at, and above each boundary, and several
/// blocks in (a ragged last block and slab), at a one-deep and a deep k.
/// The last row block's 8-row groups end on every residue 0–7 (31, 32,
/// 33, 34, 67, 36, 37 and 38 leave 7, 0, 1, 2, 3, 4, 5 and 6 rows), so
/// every row count of the row-group kernel runs. The empty extent of
/// each dimension comes at blocked size too.
fn blocked_shapes() -> Vec<(usize, usize, usize)> {
    let mut shapes = vec![(0, 97, 101), (67, 0, 101), (67, 97, 0)];
    for m in [31, 32, 33, 34, 67, 36, 37, 38] {
        for n in [31, 32, 33, 101] {
            for k in [1, 97] {
                shapes.push((m, k, n));
            }
        }
    }
    shapes
}

/// Every shape the GEMM bit-equality tests run: the register-tiler
/// shapes, then the blocked geometry.
fn all_shapes() -> Vec<(usize, usize, usize)> {
    SHAPES.iter().copied().chain(blocked_shapes()).collect()
}

#[test]
fn packed_gemm_matches_naive_bitwise_over_full_half_space() {
    let mut rng = BitRng(0x5eed_0001);
    for threads in [1, 4] {
        for (m, k, n) in all_shapes() {
            for round in 0..4 {
                let a = rng.matrix(m, k);
                let b = rng.matrix(k, n);
                let (packed, reference) = pool(threads).install(|| {
                    let p: Matrix<f32> = gemm(&a, &b);
                    let r: Matrix<f32> = naive::gemm(&a, &b);
                    (p, r)
                });
                assert_bits_eq(
                    &packed,
                    &reference,
                    &format!("gemm {m}x{k}x{n} round {round} threads {threads}"),
                );
            }
        }
    }
}

#[test]
fn packed_gemm_nt_matches_naive_bitwise_over_full_half_space() {
    let mut rng = BitRng(0x5eed_0002);
    for threads in [1, 4] {
        for (m, k, n) in all_shapes() {
            for round in 0..4 {
                let a = rng.matrix(m, k);
                let b = rng.matrix(n, k);
                let (packed, reference) = pool(threads).install(|| {
                    let p: Matrix<f32> = gemm_nt(&a, &b);
                    let r: Matrix<f32> = naive::gemm_nt(&a, &b);
                    (p, r)
                });
                assert_bits_eq(
                    &packed,
                    &reference,
                    &format!("gemm_nt {m}x{k}x{n} round {round} threads {threads}"),
                );
            }
        }
    }
}

#[test]
fn dot_f32_matches_dot_bitwise_over_full_half_space() {
    let mut rng = BitRng(0x5eed_0003);
    for len in [0, 1, 7, 8, 9, 63, 64, 257] {
        for round in 0..8 {
            let a: Vec<Half> = (0..len).map(|_| Half::from_bits(rng.next_u16())).collect();
            let b: Vec<Half> = (0..len).map(|_| Half::from_bits(rng.next_u16())).collect();
            let a_f: Vec<f32> = a.iter().map(|v| v.to_f32()).collect();
            let b_f: Vec<f32> = b.iter().map(|v| v.to_f32()).collect();
            assert_eq!(
                dot(&a, &b).to_bits(),
                dot_f32(&a_f, &b_f).to_bits(),
                "dot len {len} round {round}"
            );
        }
    }
}

/// The dispatch levels this CPU can run, lowest first; a level it lacks
/// is skipped with a line naming it.
fn supported_levels() -> Vec<Level> {
    Level::ALL
        .into_iter()
        .filter(|level| {
            let ok = level.supported();
            if !ok {
                println!("skipping SIMD level {}: this CPU lacks it", level.name());
            }
            ok
        })
        .collect()
}

#[test]
fn simd_and_scalar_dispatch_agree_bitwise() {
    // The env-driven tests above already run under whatever MG_SIMD the CI
    // matrix sets; this one pins the *override* path directly — forcing
    // every supported level in turn on identical inputs and demanding
    // bit-identical output, NaN payloads included. Interleaving with
    // other tests is harmless: every level equals `naive`, so a transient
    // level change cannot fail a concurrent packed-vs-naive check.
    let mut rng = BitRng(0x5eed_0005);
    let levels = supported_levels();
    for threads in [1, 4] {
        for (m, k, n) in all_shapes() {
            let a = rng.matrix(m, k);
            let b = rng.matrix(k, n);
            let bt = rng.matrix(n, k);
            let runs: Vec<(Matrix<f32>, Matrix<f32>)> = pool(threads).install(|| {
                let runs = levels
                    .iter()
                    .map(|&level| {
                        simd::set_override(Some(level));
                        (gemm(&a, &b), gemm_nt(&a, &bt))
                    })
                    .collect();
                simd::set_override(None);
                runs
            });
            let (s_gemm, s_nt) = &runs[0];
            for (level, (v_gemm, v_nt)) in levels.iter().zip(&runs).skip(1) {
                let level = level.name();
                assert_bits_eq(
                    v_gemm,
                    s_gemm,
                    &format!("{level} vs scalar gemm {m}x{k}x{n} threads {threads}"),
                );
                assert_bits_eq(
                    v_nt,
                    s_nt,
                    &format!("{level} vs scalar gemm_nt {m}x{k}x{n} threads {threads}"),
                );
            }
        }
    }
}

#[test]
fn packed_f16_output_matches_naive_rounding() {
    // Rounding back to Half happens element-wise after accumulation; a
    // packed run must round the exact same f32 values the reference does.
    let mut rng = BitRng(0x5eed_0004);
    let a = rng.matrix(11, 19);
    let b = rng.matrix(19, 13);
    let packed: Matrix<Half> = gemm(&a, &b);
    let reference: Matrix<Half> = naive::gemm(&a, &b);
    for (p, r) in packed.as_slice().iter().zip(reference.as_slice()) {
        assert_eq!(p.to_bits(), r.to_bits());
    }
}

/// Encodes `src` with [`pack::encode_slice`] at each of `levels` and
/// checks every output against per-element `Half::from_f32`.
fn assert_encode_matches_from_f32(src: &[f32], levels: &[Level]) {
    let want: Vec<u16> = src.iter().map(|&v| Half::from_f32(v).to_bits()).collect();
    let mut dst = vec![Half::ZERO; src.len()];
    for &level in levels {
        simd::set_override(Some(level));
        pack::encode_slice(src, &mut dst);
        for (i, (d, w)) in dst.iter().zip(&want).enumerate() {
            assert_eq!(
                d.to_bits(),
                *w,
                "encode of {:#010x} ({})",
                src[i].to_bits(),
                level.name()
            );
        }
    }
    simd::set_override(None);
}

#[test]
fn encode_slice_matches_from_f32_at_every_rounding_boundary() {
    // f32 → f16 keeps the top 10 mantissa bits of a normal result and
    // rounds on the 13 below them; subnormal results round on more. So for
    // every high half (sign, exponent and the top 7 mantissa bits), the low
    // half's three kept bits take all 8 values, each with the truncated
    // bits just below, at, and above the halfway point and at the ends.
    // Halfway points above bit 15 (deep subnormal results) are swept by
    // the high half itself against low halves of 0 and 0xFFFF.
    let rounding = [0x0000u32, 0x0001, 0x0FFF, 0x1000, 0x1001, 0x1FFF];
    let lows: Vec<u32> = (0..8u32)
        .flat_map(|kept| rounding.iter().map(move |r| kept << 13 | r))
        .collect();
    let src: Vec<f32> = (0..=u16::MAX as u32)
        .flat_map(|hi| lows.iter().map(move |lo| f32::from_bits(hi << 16 | lo)))
        .collect();
    assert_encode_matches_from_f32(&src, &supported_levels());
}

#[test]
#[ignore = "all 2^32 inputs; run in release"]
fn encode_slice_matches_from_f32_over_every_f32() {
    const CHUNK: u64 = 1 << 22;
    let levels = supported_levels();
    for start in (0..1u64 << 32).step_by(CHUNK as usize) {
        let src: Vec<f32> = (start..start + CHUNK)
            .map(|bits| f32::from_bits(bits as u32))
            .collect();
        assert_encode_matches_from_f32(&src, &levels);
    }
}
