//! Bit-equality corpus for the Multigrain numeric kernels on the slab
//! path: the coarse SDDMM and SpMM must equal `coarse::naive` bit for
//! bit, and the one-exp compound softmax must equal the three-pass sweep
//! it replaced, at every thread count and in both dispatch modes.
//!
//! The corpus targets what the slab path could get wrong: block sizes
//! that straddle the 32-column slabs (12) or are odd (5), head dims that are not
//! multiples of 8 or 32, empty block rows, the `-0.0` score seed (a Q
//! row of zeros against same-signed K), and the SpMM zero skip (zero P
//! elements against infinite and NaN V). Inputs hold subnormals and ±Inf;
//! V and the softmax scores also hold NaN.

use mg_kernels::{coarse, coarse_sddmm_compute, coarse_spmm_compute, compound_softmax_compute};
use mg_sparse::{Bsr, Csr};
use mg_tensor::{simd, Half, Matrix};
use rayon::ThreadPoolBuilder;

/// Deterministic LCG over raw u16 bit patterns (MMIX constants) — same
/// idiom as mg-tensor's pack_props.
struct BitRng(u64);

impl BitRng {
    fn next_u16(&mut self) -> u16 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 48) as u16
    }

    /// One in `n` draws is true.
    fn one_in(&mut self, n: u16) -> bool {
        self.next_u16().is_multiple_of(n)
    }

    /// Any `Half` except NaN, biased toward the classes that decide
    /// bit-equality: signed zeros, subnormals, and infinities.
    fn non_nan(&mut self) -> Half {
        let bits = self.next_u16();
        let sign = bits & 0x8000;
        let h = match self.next_u16() % 16 {
            0 => Half::from_bits(sign),                   // ±0
            1 => Half::from_bits(sign | (bits & 0x03FF)), // subnormal (or ±0)
            2 => Half::from_bits(sign | 0x7C00),          // ±Inf
            _ => Half::from_bits(bits),
        };
        if h.is_nan() {
            Half::from_bits(sign | 0x7C00)
        } else {
            h
        }
    }

    /// Any `Half`, NaN payloads included.
    fn any(&mut self) -> Half {
        if self.one_in(16) {
            Half::from_bits(0x7C01 | (self.next_u16() & 0x83FF))
        } else {
            self.non_nan()
        }
    }

    fn matrix(&mut self, rows: usize, cols: usize, draw: fn(&mut BitRng) -> Half) -> Matrix<Half> {
        Matrix::from_fn(rows, cols, |_, _| draw(self))
    }

    /// A square block structure of `nb` block rows where every third
    /// block row is empty and the others hold a random, non-empty subset
    /// of the block columns.
    fn structure(&mut self, nb: usize, b: usize) -> Bsr<Half> {
        let mut coords = Vec::new();
        for br in (0..nb).filter(|br| br % 3 != 1) {
            let first = coords.len();
            for bc in 0..nb {
                if self.one_in(2) {
                    coords.push((br, bc));
                }
            }
            if coords.len() == first {
                coords.push((br, br));
            }
        }
        Bsr::from_block_coords(nb * b, nb * b, b, &coords).expect("valid blocks")
    }
}

fn pool(n: usize) -> rayon::ThreadPool {
    ThreadPoolBuilder::new().num_threads(n).build().unwrap()
}

/// Runs `body` at one and four threads under each forced dispatch mode.
/// Both modes must equal the oracle, so another test flipping the
/// process-wide override concurrently cannot make a correct kernel fail.
fn in_every_mode(mut body: impl FnMut(&str)) {
    for threads in [1, 4] {
        for simd_on in [false, true] {
            pool(threads).install(|| {
                simd::set_override(Some(simd_on));
                body(&format!("threads {threads}, simd {simd_on}"));
            });
        }
    }
    simd::set_override(None);
}

fn assert_halves_eq(got: &[Half], want: &[Half], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{ctx}: element {i} diverges: got {g:?} vs reference {w:?}"
        );
    }
}

/// 12 straddles the 32-column slabs; 5 leaves each block's last row
/// without a partner, so the single-row kernels run too.
const BLOCKS: [usize; 7] = [4, 5, 8, 12, 16, 32, 64];
const HEAD_DIMS: [usize; 5] = [1, 5, 13, 40, 70];

/// Block rows per structure: enough for several slabs at small blocks,
/// few at 64 so the naive oracle stays quick in debug builds.
fn block_rows(b: usize) -> usize {
    if b >= 32 {
        3
    } else {
        7
    }
}

#[test]
fn coarse_sddmm_matches_naive_bitwise() {
    let mut rng = BitRng(0xc0a5_0001);
    for b in BLOCKS {
        for dh in HEAD_DIMS {
            let structure = rng.structure(block_rows(b), b);
            let l = structure.rows();
            let mut q = rng.matrix(l, dh, BitRng::non_nan);
            let mut k = rng.matrix(l, dh, BitRng::non_nan);
            // -0.0 scores: Q row 0 is all -0.0 and the K rows it meets are
            // finite and non-negative, so every product is -0.0 and only
            // the -0.0 seed keeps the sign.
            for d in 0..dh {
                q.set(0, d, Half::from_bits(0x8000));
            }
            for &bc in &structure.block_col_indices()[structure.block_row_range(0)] {
                for c in bc * b..(bc + 1) * b {
                    for d in 0..dh {
                        let v = k.get(c, d).abs();
                        k.set(c, d, if v.is_finite() { v } else { Half::MAX });
                    }
                }
            }
            let want = coarse::naive::coarse_sddmm_compute(&q, &k, &structure);
            in_every_mode(|mode| {
                let got = coarse_sddmm_compute(&q, &k, &structure);
                assert_halves_eq(
                    got.values(),
                    want.values(),
                    &format!("b {b} dh {dh} {mode}"),
                );
            });
        }
    }
}

#[test]
fn coarse_spmm_matches_naive_bitwise_and_skips_zeros() {
    let mut rng = BitRng(0xc0a5_0002);
    for b in BLOCKS {
        for dh in HEAD_DIMS {
            let mut p = rng.structure(block_rows(b), b);
            for v in p.values_mut() {
                *v = if rng.one_in(2) {
                    Half::from_bits(rng.next_u16() & 0x8000) // ±0: skipped
                } else {
                    rng.non_nan()
                };
            }
            let mut v = rng.matrix(p.cols(), dh, BitRng::any);
            // Every V row infinite at column 0 and NaN at the last: a zero
            // P element that is multiplied instead of skipped turns its
            // output NaN.
            for c in 0..p.cols() {
                v.set(c, 0, Half::INFINITY);
                v.set(c, dh - 1, Half::NAN);
            }
            let want = coarse::naive::coarse_spmm_compute(&p, &v);
            in_every_mode(|mode| {
                let got = coarse_spmm_compute(&p, &v);
                assert_halves_eq(
                    got.as_slice(),
                    want.as_slice(),
                    &format!("b {b} dh {dh} {mode}"),
                );
            });
        }
    }
}

#[test]
fn coarse_spmm_zero_p_contributes_nothing_against_infinite_v() {
    // All P zero except one element per block row: every other V row is
    // infinite, so a single unskipped zero would poison the output.
    let structure = Bsr::<Half>::from_block_coords(24, 24, 12, &[(0, 0), (0, 1), (1, 1)])
        .expect("valid blocks");
    let mut p = structure.clone();
    p.values_mut().fill(Half::ZERO);
    p.block_mut(0)[5] = Half::ONE;
    p.block_mut(2)[3] = Half::from_f32(-2.0);
    let v = Matrix::<Half>::from_fn(24, 37, |r, c| {
        if r == 5 || r == 15 {
            Half::from_f32(c as f32 * 0.5)
        } else {
            Half::NEG_INFINITY
        }
    });
    let want = coarse::naive::coarse_spmm_compute(&p, &v);
    assert!(
        want.as_slice().iter().all(|h| !h.is_nan()),
        "oracle skips zeros"
    );
    in_every_mode(|mode| {
        let got = coarse_spmm_compute(&p, &v);
        assert_halves_eq(got.as_slice(), want.as_slice(), mode);
    });
}

// ---------------------------------------------------------------------
// Compound softmax against the three-pass sweep it replaced.
// ---------------------------------------------------------------------

/// The coarse input of the compound softmax: the scores and their mask.
type CoarsePart<'a> = Option<(&'a Bsr<Half>, &'a [f32])>;
/// The compound softmax's output parts.
type SoftmaxOut = (Option<Bsr<Half>>, Option<Csr<Half>>);

/// The compound softmax as it was computed before the one-exp rewrite:
/// three passes per row that decode each value per visit and evaluate
/// `exp` in pass 2 and again in pass 3. Serial; kept here verbatim in
/// its arithmetic as the oracle.
fn three_pass_softmax(coarse: CoarsePart, fine: Option<&Csr<Half>>, scale: f32) -> SoftmaxOut {
    let rows = coarse
        .map(|(b, _)| b.rows())
        .or_else(|| fine.map(Csr::rows))
        .unwrap_or(0);
    let block = coarse.map_or(1, |(b, _)| b.block_size());
    let sq = block * block;
    let mut coarse_out = coarse.map(|(b, _)| b.clone());
    let mut fine_out = fine.cloned();
    for r in 0..rows {
        let (br, lr) = (r / block, r % block);
        // Every element of row `r` as (value, valid), in visiting order.
        let mut elems = Vec::new();
        if let Some((bsr, mask)) = coarse {
            for i in bsr.block_row_range(br) {
                for lc in 0..block {
                    let valid = mask[i * sq + lr * block + lc] == 0.0;
                    elems.push((bsr.block(i)[lr * block + lc].to_f32(), valid));
                }
            }
        }
        if let Some(csr) = fine {
            for i in csr.row_range(r) {
                elems.push((csr.values()[i].to_f32(), true));
            }
        }
        let mut max = f32::NEG_INFINITY;
        for &(v, valid) in &elems {
            if valid {
                max = max.max(v * scale);
            }
        }
        let mut sum = 0.0f32;
        for &(v, valid) in &elems {
            if valid {
                sum += (v * scale - max).exp();
            }
        }
        let inv = if sum > 0.0 { 1.0 / sum } else { 0.0 };
        let out = |(v, valid): (f32, bool)| {
            if valid && inv > 0.0 {
                Half::from_f32((v * scale - max).exp() * inv)
            } else {
                Half::ZERO
            }
        };
        let mut at = 0;
        if let (Some((bsr, _)), Some(co)) = (coarse, coarse_out.as_mut()) {
            for i in bsr.block_row_range(br) {
                for lc in 0..block {
                    co.block_mut(i)[lr * block + lc] = out(elems[at]);
                    at += 1;
                }
            }
        }
        if let (Some(csr), Some(fo)) = (fine, fine_out.as_mut()) {
            for i in csr.row_range(r) {
                fo.values_mut()[i] = out(elems[at]);
                at += 1;
            }
        }
    }
    (coarse_out, fine_out)
}

/// A score: mostly finite, with NaN and ±Inf mixed in.
fn score(rng: &mut BitRng) -> Half {
    match rng.next_u16() % 24 {
        0 => Half::NAN,
        1 => Half::INFINITY,
        2 => Half::NEG_INFINITY,
        _ => Half::from_f32((rng.next_u16() as f32 / 6553.6) - 5.0),
    }
}

/// A random compound over `nb` block rows of size `b`: the coarse part
/// has every third block row empty (its rows are fine-only), a mask that
/// fully masks some rows and validates random elements of others; the
/// fine part leaves some rows empty (coarse-only, or fully masked when
/// their mask is too). Scores hold NaN and ±Inf, each with probability
/// `1/specials` per element (0 disables them).
fn compound(
    rng: &mut BitRng,
    nb: usize,
    b: usize,
    specials: u16,
) -> (Bsr<Half>, Vec<f32>, Csr<Half>) {
    let mut s = rng.structure(nb, b);
    let draw = |rng: &mut BitRng| {
        if specials > 0 && rng.one_in(specials) {
            score(rng)
        } else {
            Half::from_f32((rng.next_u16() as f32 / 6553.6) - 5.0)
        }
    };
    for v in s.values_mut() {
        *v = draw(rng);
    }
    let sq = b * b;
    let mut mask = vec![f32::NEG_INFINITY; s.stored_elements()];
    for i in 0..s.nnz_blocks() {
        for lr in 0..b {
            let fully_masked = rng.one_in(5);
            for lc in 0..b {
                if !fully_masked && rng.one_in(2) {
                    mask[i * sq + lr * b + lc] = 0.0;
                }
            }
        }
    }
    let l = nb * b;
    let mut coords = Vec::new();
    for r in 0..l {
        if rng.one_in(3) {
            continue;
        }
        for c in 0..l {
            if rng.one_in(7) {
                coords.push((r, c));
            }
        }
    }
    let mut f = Csr::<Half>::from_coords(l, l, &coords).expect("sorted coords");
    for v in f.values_mut() {
        *v = draw(rng);
    }
    (s, mask, f)
}

fn assert_softmax_eq(got: &SoftmaxOut, want: &SoftmaxOut, ctx: &str) {
    assert_eq!(got.0.is_some(), want.0.is_some(), "{ctx}: coarse part");
    assert_eq!(got.1.is_some(), want.1.is_some(), "{ctx}: fine part");
    if let (Some(g), Some(w)) = (&got.0, &want.0) {
        assert_halves_eq(g.values(), w.values(), &format!("{ctx}: coarse"));
    }
    if let (Some(g), Some(w)) = (&got.1, &want.1) {
        assert_halves_eq(g.values(), w.values(), &format!("{ctx}: fine"));
    }
}

#[test]
fn compound_softmax_matches_three_pass_sweep_bitwise() {
    let mut rng = BitRng(0xc0a5_0003);
    for b in [4, 8, 12] {
        for specials in [0, 40, 6] {
            for scale in [0.125f32, 0.6, -1.0] {
                let (s, mask, f) = compound(&mut rng, 6, b, specials);
                let ctx = format!("b {b} specials 1/{specials} scale {scale}");
                let cases: [(CoarsePart, Option<&Csr<Half>>, &str); 3] = [
                    (Some((&s, &mask)), Some(&f), "compound"),
                    (Some((&s, &mask)), None, "coarse only"),
                    (None, Some(&f), "fine only"),
                ];
                for (c, fine, part) in cases {
                    let want = three_pass_softmax(c, fine, scale);
                    in_every_mode(|mode| {
                        let got = compound_softmax_compute(c, fine, scale);
                        assert_softmax_eq(&got, &want, &format!("{ctx} {part} {mode}"));
                    });
                }
            }
        }
    }
}

#[test]
fn fully_masked_and_empty_rows_are_all_zero() {
    let mut rng = BitRng(0xc0a5_0004);
    let (s, _, f) = compound(&mut rng, 4, 8, 0);
    let mask = vec![f32::NEG_INFINITY; s.stored_elements()];
    let empty = Csr::<Half>::from_coords(s.rows(), s.cols(), &[]).expect("empty");
    let want = three_pass_softmax(Some((&s, &mask)), Some(&empty), 0.5);
    assert!(want
        .0
        .as_ref()
        .expect("coarse")
        .values()
        .iter()
        .all(|h| h.to_bits() == 0));
    in_every_mode(|mode| {
        let got = compound_softmax_compute(Some((&s, &mask)), Some(&empty), 0.5);
        assert_softmax_eq(&got, &want, mode);
        // Fine elements still normalize on rows the coarse part masks out.
        let got = compound_softmax_compute(Some((&s, &mask)), Some(&f), 0.5);
        let want = three_pass_softmax(Some((&s, &mask)), Some(&f), 0.5);
        assert_softmax_eq(&got, &want, mode);
    });
}
