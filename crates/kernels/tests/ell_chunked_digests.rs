//! Digest pins for the Blocked-ELL SpMM and Longformer's sliding-chunk
//! attention. Both run their products on the shared seeded row
//! microkernel; their other tests compare against a dense reference
//! within a tolerance, so these pins hold every output bit instead.
//!
//! The corpus is built to catch a changed accumulation rule: P holds
//! exact zeros (stored ELL zeros; chunked probabilities that round to
//! zero in FP16) against V rows holding ±Inf and NaN, so a zero product
//! that is computed instead of skipped turns its output NaN. The head
//! dims and band widths cover the span, block and tail paths of the
//! microkernel. Every pin must hold at one and four threads and at every
//! dispatch level.

use mg_gpusim::digest::Fnv1a;
use mg_kernels::{ell_spmm_compute, sliding_chunk_attention_compute};
use mg_sparse::{BlockedEll, Bsr};
use mg_tensor::simd::{self, Level};
use mg_tensor::{Half, Matrix};
use rayon::ThreadPoolBuilder;

/// Deterministic LCG (MMIX constants), the idiom of the other corpora.
struct Rng(u64);

impl Rng {
    fn next_u16(&mut self) -> u16 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 48) as u16
    }

    fn one_in(&mut self, n: u16) -> bool {
        self.next_u16().is_multiple_of(n)
    }

    /// A finite value in `[-amp, amp)`.
    fn finite(&mut self, amp: f32) -> Half {
        Half::from_f32((self.next_u16() as f32 / 32768.0 - 1.0) * amp)
    }

    /// A V matrix whose every sixth row (on average) is special: each of
    /// its elements is +Inf, -Inf, NaN (random payload) or finite. The
    /// other rows are finite. Returns the special rows too.
    fn v(&mut self, rows: usize, cols: usize) -> (Matrix<Half>, Vec<bool>) {
        let special: Vec<bool> = (0..rows).map(|_| self.one_in(6)).collect();
        let v = Matrix::from_fn(rows, cols, |r, _| match self.next_u16() % 4 {
            0 if special[r] => Half::INFINITY,
            1 if special[r] => Half::NEG_INFINITY,
            2 if special[r] => Half::from_bits(0x7C01 | (self.next_u16() & 0x83FF)),
            _ => self.finite(2.0),
        });
        (v, special)
    }
}

fn pool(n: usize) -> rayon::ThreadPool {
    ThreadPoolBuilder::new().num_threads(n).build().unwrap()
}

/// The digest of every output bit, and the digest with each NaN
/// replaced by one canonical bit pattern.
fn digests(outputs: &[Matrix<Half>]) -> (u64, u64) {
    let (mut exact, mut canonical) = (Fnv1a::new(), Fnv1a::new());
    for v in outputs.iter().flat_map(|m| m.as_slice()) {
        exact.write(&v.to_bits().to_le_bytes());
        let bits = if v.is_nan() { 0x7E00 } else { v.to_bits() };
        canonical.write(&bits.to_le_bytes());
    }
    (exact.finish(), canonical.finish())
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

/// Runs `outputs` at one and four threads at every supported dispatch
/// level and asserts each run's digests equal `pins` (exact, canonical).
/// The exact pin is checked in debug builds only: optimized builds may
/// commute an add of two NaNs, which changes the payload that survives
/// but no other bit, so they are held to the canonical pin.
fn assert_pinned(pins: (u64, u64), mut outputs: impl FnMut() -> Vec<Matrix<Half>>) {
    for threads in [1, 4] {
        for level in supported_levels() {
            let (exact, canonical) = pool(threads).install(|| {
                simd::set_override(Some(level));
                digests(&outputs())
            });
            let ctx = format!("threads {threads}, {}", level.name());
            assert_eq!(
                canonical, pins.1,
                "{ctx}: canonical digest {canonical:#018x}"
            );
            if cfg!(debug_assertions) {
                assert_eq!(exact, pins.0, "{ctx}: exact digest {exact:#018x}");
            }
        }
    }
    simd::set_override(None);
}

#[test]
fn ell_spmm_outputs_are_pinned() {
    let mut rng = Rng(0xe11_0001);
    // (block rows, block size, head dim): head dims below one register
    // block, between blocks and spans, and past two spans.
    let cases = [(4, 8, 5), (6, 4, 13), (3, 16, 40), (4, 8, 70)];
    let inputs: Vec<(BlockedEll<Half>, Matrix<Half>)> = cases
        .iter()
        .map(|&(nb, b, dh)| {
            // Uneven block rows so the ELL form pads some of them.
            let mut coords = Vec::new();
            for br in 0..nb {
                coords.push((br, br));
                for bc in (0..nb).filter(|&bc| bc != br) {
                    if rng.one_in(2) {
                        coords.push((br, bc));
                    }
                }
            }
            coords.sort_unstable();
            let (v, special) = rng.v(nb * b, dh);
            let mut p = Bsr::<Half>::from_block_coords(nb * b, nb * b, b, &coords).unwrap();
            for i in 0..p.nnz_blocks() {
                let bc = p.block_col_indices()[i];
                for (e, slot) in p.block_mut(i).iter_mut().enumerate() {
                    // Mostly ±0 against special V rows, so most outputs
                    // stay finite only while zeros are skipped.
                    let zero = if special[bc * b + e % b] {
                        !rng.one_in(4)
                    } else {
                        rng.one_in(3)
                    };
                    *slot = if zero {
                        Half::from_bits(rng.next_u16() & 0x8000)
                    } else {
                        rng.finite(1.0)
                    };
                }
            }
            (BlockedEll::from_bsr(&p), v)
        })
        .collect();
    assert_pinned((0x5ac9_2095_24c1_eff6, 0x373d_e706_c1db_3c3c), || {
        inputs.iter().map(|(p, v)| ell_spmm_compute(p, v)).collect()
    });
}

#[test]
fn sliding_chunk_outputs_are_pinned() {
    let mut rng = Rng(0xc4a_0002);
    // (sequence, window, head dim): bands narrower than one register
    // block, between blocks and spans, and wider than two spans.
    let cases = [(24, 4, 8), (48, 16, 13), (72, 24, 40), (128, 64, 70)];
    let inputs: Vec<_> = cases
        .iter()
        .map(|&(l, window, dh)| {
            // Scores spread over a wide range, so many probabilities
            // round to zero in FP16.
            let q = Matrix::from_fn(l, dh, |_, _| rng.finite(3.0));
            let k = Matrix::from_fn(l, dh, |_, _| rng.finite(3.0));
            let (v, _) = rng.v(l, dh);
            (q, k, v, window)
        })
        .collect();
    assert_pinned((0x3242_9a11_e211_014d, 0xc949_4fb1_c8f1_3c18), || {
        inputs
            .iter()
            .map(|(q, k, v, window)| sliding_chunk_attention_compute(q, k, v, *window, 0.9))
            .collect()
    });
}
