//! Bit-equality corpus for the fine (Sputnik-style) kernels: the packed
//! SDDMM and SpMM must equal `fine::naive` bit for bit, at every thread
//! count and in both dispatch modes.
//!
//! The corpus targets the SDDMM's three routes through a CSR row: rows
//! shorter than one `NR` chunk (the direct per-element path),
//! consecutive-column runs starting at unaligned columns (the contiguous
//! d-major path), and scattered columns (the gathered path), mixed
//! within one row. Operands are drawn from the full `Half` bit space,
//! biased toward signed zeros, subnormals, ±Inf and NaN payloads (a zero
//! against an infinity tells a skipped product from a computed one), and
//! from `Matrix::random`'s finite scale. The SpMM corpus adds
//! zero probabilities against infinite and NaN V, where only the zero
//! skip keeps the output finite.
//!
//! One exception, as in `fused_props`: when an SDDMM product meets two
//! NaN operands, which payload survives depends on how the compiler
//! orders the operands of the multiply, so SDDMM outputs are compared to
//! the naive oracle with NaN payloads ignored (NaN positions still
//! count). The packed kernel's own runs must agree strictly across
//! thread counts and dispatch modes, payloads included.

use mg_kernels::{fine, fine_sddmm_compute, fine_spmm_compute};
use mg_sparse::Csr;
use mg_tensor::{simd, Half, Matrix, NR};
use rayon::ThreadPoolBuilder;

/// Deterministic LCG over raw u16 bit patterns (MMIX constants) — same
/// idiom as the other corpora.
struct BitRng(u64);

impl BitRng {
    fn next_u16(&mut self) -> u16 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 48) as u16
    }

    fn below(&mut self, n: usize) -> usize {
        self.next_u16() as usize % n
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
        if self.below(16) == 0 {
            Half::from_bits(0x7C01 | (self.next_u16() & 0x83FF))
        } else {
            self.non_nan()
        }
    }

    /// A finite value in `[-1, 1)`, the scale of `Matrix::random`.
    fn finite(&mut self) -> Half {
        Half::from_f32(self.next_u16() as f32 / 32768.0 - 1.0)
    }

    fn matrix(&mut self, rows: usize, cols: usize, draw: fn(&mut BitRng) -> Half) -> Matrix<Half> {
        Matrix::from_fn(rows, cols, |_, _| draw(self))
    }

    /// An `l × l` structure whose rows cycle through the SDDMM's routes:
    /// empty, shorter than `NR`, one run at an unaligned start, scattered
    /// columns, and a run followed by scattered columns.
    fn structure(&mut self, l: usize) -> Csr<Half> {
        let mut coords = Vec::new();
        for r in 0..l {
            let mut cols: Vec<usize> = match r % 5 {
                0 => Vec::new(),
                1 => (0..1 + self.below(NR - 1)).map(|_| self.below(l)).collect(),
                2 => {
                    let len = NR + self.below(3 * NR);
                    let start = self.below(l - len.min(l - 1));
                    (start..(start + len).min(l)).collect()
                }
                3 => (0..l).filter(|_| self.below(3) == 0).collect(),
                _ => {
                    let start = 1 + self.below(l / 2);
                    let mut cols: Vec<usize> = (start..(start + NR + 3).min(l)).collect();
                    cols.extend((0..l).filter(|_| self.below(5) == 0));
                    cols
                }
            };
            cols.sort_unstable();
            cols.dedup();
            coords.extend(cols.into_iter().map(|c| (r, c)));
        }
        Csr::from_coords(l, l, &coords).expect("sorted coords")
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
    assert_halves_match(got, want, false, ctx);
}

/// Element-wise bit equality; with `any_nan_payload`, two NaNs match
/// whatever their payloads.
fn assert_halves_match(got: &[Half], want: &[Half], any_nan_payload: bool, ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if any_nan_payload && g.is_nan() && w.is_nan() {
            continue;
        }
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{ctx}: element {i} diverges: got {g:?} vs reference {w:?}"
        );
    }
}

const SEQ_LENS: [usize; 3] = [19, 40, 67];
const HEAD_DIMS: [usize; 6] = [1, 5, 8, 13, 40, 70];

#[test]
fn fine_sddmm_matches_naive_bitwise() {
    let mut rng = BitRng(0xf1e_0001);
    for l in SEQ_LENS {
        for dh in HEAD_DIMS {
            let structure = rng.structure(l);
            for (operands, draw) in [
                ("non-NaN", BitRng::non_nan as fn(&mut BitRng) -> Half),
                ("any", BitRng::any),
                ("finite", BitRng::finite),
            ] {
                let q = rng.matrix(l, dh, draw);
                let k = rng.matrix(l, dh, draw);
                let want = fine::naive::fine_sddmm_compute(&q, &k, &structure);
                let mut first: Option<Csr<Half>> = None;
                in_every_mode(|mode| {
                    let got = fine_sddmm_compute(&q, &k, &structure);
                    let ctx = format!("l {l} dh {dh} {operands} {mode}");
                    assert_halves_match(got.values(), want.values(), true, &ctx);
                    match &first {
                        Some(f) => assert_halves_eq(got.values(), f.values(), &ctx),
                        None => first = Some(got),
                    }
                });
            }
        }
    }
}

#[test]
fn fine_spmm_matches_naive_bitwise_and_skips_zeros() {
    let mut rng = BitRng(0xf1e_0002);
    for l in SEQ_LENS {
        for dh in HEAD_DIMS {
            let mut p = rng.structure(l);
            for v in p.values_mut() {
                *v = if rng.below(2) == 0 {
                    Half::from_bits(rng.next_u16() & 0x8000) // ±0: skipped
                } else {
                    rng.any()
                };
            }
            let mut v = rng.matrix(l, dh, BitRng::any);
            // Every V row infinite at column 0 and NaN at the last: a zero
            // P element that is multiplied instead of skipped turns its
            // output NaN.
            for c in 0..l {
                v.set(c, 0, Half::INFINITY);
                v.set(c, dh - 1, Half::NAN);
            }
            let want = fine::naive::fine_spmm_compute(&p, &v);
            in_every_mode(|mode| {
                let got = fine_spmm_compute(&p, &v);
                assert_halves_eq(
                    got.as_slice(),
                    want.as_slice(),
                    &format!("l {l} dh {dh} {mode}"),
                );
            });
        }
    }
}

#[test]
fn fine_spmm_zero_p_contributes_nothing_against_infinite_v() {
    // Every P element is zero except one per row, and every other V row
    // is infinite: a single unskipped zero would poison its output row.
    let l = 24;
    let coords: Vec<(usize, usize)> = (0..l)
        .flat_map(|r| [(r, r), (r, (r + 5) % l), (r, (r + 11) % l)])
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let mut p = Csr::<Half>::from_coords(l, l, &coords).expect("sorted coords");
    for r in 0..l {
        for i in p.row_range(r) {
            let c = p.col_indices()[i];
            p.values_mut()[i] = if c == r {
                Half::from_f32(0.75)
            } else {
                Half::ZERO
            };
        }
    }
    let v = Matrix::<Half>::from_fn(l, 37, |r, c| {
        if r % 2 == 0 {
            Half::from_f32(c as f32 * 0.5)
        } else {
            Half::NEG_INFINITY
        }
    });
    let want = fine::naive::fine_spmm_compute(&p, &v);
    assert!(
        want.as_slice().iter().all(|h| !h.is_nan()),
        "oracle skips zeros"
    );
    in_every_mode(|mode| {
        let got = fine_spmm_compute(&p, &v);
        assert_halves_eq(got.as_slice(), want.as_slice(), mode);
    });
}
