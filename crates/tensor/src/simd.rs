//! The explicit SIMD layer under the `NR = 8` microkernels.
//!
//! Every hot kernel in the workspace funnels through two shared
//! microkernels plus the f16↔f32 conversions: the seeded dense row
//! microkernel behind [`crate::accumulate_row_window`] (every product
//! over a contiguous operand), the gathered-column
//! [`crate::dot_rows_block`], [`crate::pack::decode_slice`] (a LUT
//! gather) and [`crate::pack::encode_slice`] (F16C). This module
//! reimplements their inner loops — the row microkernel's span, paired
//! span and block forms, the gathered dot, and the two conversions — on
//! stable `std::arch` x86_64 AVX2 and F16C intrinsics and dispatches to
//! them at runtime; the scalar register-window code stays in place as
//! the fallback and the only path on non-x86_64 targets.
//!
//! ## The no-FMA bit-equality argument
//!
//! The vector kernels use `_mm256_add_ps(_mm256_mul_ps(a, b), acc)` —
//! deliberately **not** `_mm256_fmadd_ps`. A separate IEEE multiply and
//! add per element is the identical operation sequence the scalar
//! `[f32; NR]` register windows perform lane by lane: same rounding at
//! the same points, same accumulation order (ascending `k` from the same
//! seed), no contraction. The lanes of one vector are *independent* sums
//! — vectorizing across them reorders nothing — so every result is
//! bitwise identical to the scalar path, NaN payloads and signed zeros
//! included. Operand *order* in each op is chosen to match the scalar
//! codegen's NaN-payload propagation (x86 keeps the first source's
//! payload when both operands are NaN): the multiply takes the broadcast
//! A element first, and the accumulate takes the fresh product first —
//! the compiled `acc += av * bv` keeps the product's payload, not the
//! accumulator's. The full-bit-space property tests would catch either
//! order being wrong. The f16→f32 decode gathers from the same 65,536-entry LUT
//! that [`crate::Half::to_f32`] indexes, so it is exact by construction.
//! The f32→f16 encode is `vcvtps2ph` under round-to-nearest-even, which
//! equals [`crate::Half::from_f32`] on every one of the 2³² inputs, NaN
//! sign and payload included (an `#[ignore]`d test checks all of them).
//! CI pins all of this over the adversarial `Half` bit-space corpus at
//! `MG_SIMD` {0, 1} × `MG_THREADS` {1, 4}.
//!
//! ## Dispatch rules
//!
//! The first microkernel call reads the `MG_SIMD` environment variable:
//! `MG_SIMD=0` forces the scalar path; anything else (including unset)
//! selects the vector path **iff** the `simd` feature is compiled in,
//! the target is x86_64, and `is_x86_feature_detected!` reports the CPU
//! supports AVX2 and F16C. The decision is cached in an atomic;
//! [`set_override`] flips it programmatically (the perf study's
//! three-way A/B uses this) and `set_override(None)` drops back to the
//! environment-driven decision. Because both paths are bit-identical,
//! the dispatch decision can never change a result — only a timing.
//!
//! ## Unsafe confinement contract
//!
//! This module is the **only** place in the workspace allowed to contain
//! `unsafe` (the intrinsic calls and the raw-pointer loads they need):
//! the crate root is `#![deny(unsafe_code)]` with a module-scoped allow
//! here, every crate above mg-tensor keeps `#![forbid(unsafe_code)]`,
//! and mg-lint's `U1` pass enforces both statically — any `unsafe`
//! outside this file, or a use inside it without a `// SAFETY:` comment,
//! is a deny-level finding. Every safe wrapper below validates the slice
//! geometry *before* entering the intrinsics, so the unsafe surface is a
//! handful of bounds-proved loads and stores.
#![allow(unsafe_code)]

use crate::gemm::NR;
use crate::Half;
use std::sync::atomic::{AtomicU8, Ordering};

/// Width of the dense row microkernel's wide span: four independent
/// `NR`-wide accumulator chains per k-step, enough instruction-level
/// parallelism to cover the vector-add latency that a single 8-lane
/// chain (scalar or vector) is bound by.
pub const SPAN: usize = 4 * NR;

const MODE_UNINIT: u8 = 0;
const MODE_SCALAR: u8 = 1;
const MODE_SIMD: u8 = 2;

/// The cached dispatch decision; 0 means "not decided yet" so the first
/// probe (re)reads `MG_SIMD` and the CPUID feature bits.
static MODE: AtomicU8 = AtomicU8::new(MODE_UNINIT);

/// Whether the vector path exists at all on this build and CPU: the
/// `simd` feature is compiled in, the target is x86_64, and the CPU
/// reports AVX2 and F16C. Independent of the `MG_SIMD` override.
#[inline]
pub fn available() -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("f16c")
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        false
    }
}

#[inline]
fn mode() -> u8 {
    match MODE.load(Ordering::Relaxed) {
        MODE_UNINIT => {
            let m = mode_from_env();
            MODE.store(m, Ordering::Relaxed);
            m
        }
        m => m,
    }
}

fn mode_from_env() -> u8 {
    if !available() {
        return MODE_SCALAR;
    }
    match std::env::var("MG_SIMD") {
        Ok(v) if v == "0" => MODE_SCALAR,
        _ => MODE_SIMD,
    }
}

/// Whether the vector path is the one currently dispatched to. `false`
/// whenever [`available`] is `false`, when `MG_SIMD=0` is set, or after
/// `set_override(Some(false))`.
#[inline]
pub fn active() -> bool {
    mode() == MODE_SIMD
}

/// Programmatically overrides the dispatch: `Some(true)` selects the
/// vector path (when [`available`]; otherwise scalar), `Some(false)`
/// forces the scalar path, and `None` clears the override so the next
/// microkernel call re-reads `MG_SIMD`. Both paths are bit-identical,
/// so flipping this mid-run changes timings, never values.
pub fn set_override(on: Option<bool>) {
    let m = match on {
        Some(true) if available() => MODE_SIMD,
        Some(_) => MODE_SCALAR,
        None => MODE_UNINIT,
    };
    MODE.store(m, Ordering::Relaxed);
}

/// Vector form of the dense row microkernel over a [`SPAN`]-wide window:
/// continues the four independent 8-lane chains the caller seeded in
/// `out`, `out[b*NR + j] += Σ_k a_f[k] * bp[k*n + j0 + b*NR + j]` in
/// ascending `k`. GEMM seeds `+0.0`, the coarse SDDMM `-0.0` (the seed
/// `dot`'s `Sum` fold uses), and the coarse SpMM the running sum of the
/// block row's earlier blocks. With `SKIP_ZEROS`, a zero `a_f[k]` adds
/// nothing: its product is masked to `+0.0` before the add, which leaves
/// any accumulator that is not `-0.0` unchanged, `0 × Inf` included.
/// Returns `false` (leaving `out` untouched) when the vector path is not
/// dispatched or the window does not fit, in which case the caller runs
/// its scalar register windows.
#[inline]
pub fn row_panel_span<const SKIP_ZEROS: bool>(
    a_f: &[f32],
    bp: &[f32],
    n: usize,
    j0: usize,
    out: &mut [f32; SPAN],
) -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if active() && j0 + SPAN <= n && a_f.len().saturating_mul(n) <= bp.len() {
        // SAFETY: AVX2 is present (`active` implies `available`), and the
        // guard proves every SPAN-wide load at `bp[kk*n + j0]` with
        // `kk < a_f.len()` lies inside `bp` (since `j0 + SPAN <= n`).
        unsafe { avx2::row_panel_span::<SKIP_ZEROS>(a_f, bp, n, j0, out) };
        return true;
    }
    let _ = (a_f, bp, n, j0, out);
    false
}

/// Paired-row form of [`row_panel_span`]: continues the same seeded
/// [`SPAN`]-wide window for **two** decoded A rows at once, so each
/// loaded B vector feeds both rows' accumulator chains and the panel is
/// streamed through cache half as often. Per row and per lane the
/// operation sequence is exactly [`row_panel_span`]'s (mul then add,
/// ascending `k`, the caller's seed), so pairing is invisible in the
/// bits. Returns `false` (leaving the outputs untouched) when the vector
/// path is not dispatched, the rows differ in length, or the window does
/// not fit.
#[inline]
pub fn row_panel_span2<const SKIP_ZEROS: bool>(
    a0_f: &[f32],
    a1_f: &[f32],
    bp: &[f32],
    n: usize,
    j0: usize,
    out0: &mut [f32; SPAN],
    out1: &mut [f32; SPAN],
) -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if active()
        && a0_f.len() == a1_f.len()
        && j0 + SPAN <= n
        && a0_f.len().saturating_mul(n) <= bp.len()
    {
        // SAFETY: AVX2 is present, both rows share the verified length,
        // and the guard proves every SPAN-wide load at `bp[kk*n + j0]`
        // with `kk < a0_f.len()` lies inside `bp` (`j0 + SPAN <= n`).
        unsafe { avx2::row_panel_span2::<SKIP_ZEROS>(a0_f, a1_f, bp, n, j0, out0, out1) };
        return true;
    }
    let _ = (a0_f, a1_f, bp, n, j0, out0, out1);
    false
}

/// Vector form of one `NR`-wide block of the dense row microkernel:
/// continues the caller-seeded chains `out[j] += Σ_k a_f[k] *
/// bp[k*n + j0 + j]`, with [`row_panel_span`]'s `SKIP_ZEROS` rule.
/// Returns `false` (leaving `out` untouched) when not dispatched or out
/// of range (caller falls back to the scalar register window).
#[inline]
pub fn row_panel_block<const SKIP_ZEROS: bool>(
    a_f: &[f32],
    bp: &[f32],
    n: usize,
    j0: usize,
    out: &mut [f32; NR],
) -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if active() && j0 + NR <= n && a_f.len().saturating_mul(n) <= bp.len() {
        // SAFETY: AVX2 is present, and the guard proves every NR-wide load
        // at `bp[kk*n + j0]` with `kk < a_f.len()` lies inside `bp`.
        unsafe { avx2::row_panel_block::<SKIP_ZEROS>(a_f, bp, n, j0, out) };
        return true;
    }
    let _ = (a_f, bp, n, j0, out);
    false
}

/// Vector form of [`crate::dot_rows_block`] at full width: dots `a`
/// against all `NR` gathered lanes at once. `None` when not dispatched
/// or any lane's length differs from `a`'s (the scalar path owns the
/// panic semantics).
#[inline]
pub fn dot_rows_block(a: &[f32], lanes: &[&[f32]; NR]) -> Option<[f32; NR]> {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if active() && lanes.iter().all(|lane| lane.len() == a.len()) {
        // SAFETY: AVX2 is present, and every lane was just checked to be
        // exactly `a.len()` long, so each `lanes[j][k]` read is in bounds.
        return Some(unsafe { avx2::dot_rows_block(a, lanes) });
    }
    let _ = (a, lanes);
    None
}

/// Vector form of the f16→f32 decode in [`crate::pack::decode_slice`]:
/// gathers 8 entries per step from the same compile-time LUT that
/// [`crate::Half::to_f32`] indexes. Returns `false` (leaving `dst`
/// untouched) when not dispatched or the lengths differ (the scalar
/// path owns the panic semantics).
#[inline]
pub fn decode_f16(src: &[Half], dst: &mut [f32]) -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if active() && src.len() == dst.len() {
        // SAFETY: AVX2 (and thus the vector gather) is present, the lengths
        // match, and every gather index is a u16 — always inside the
        // 65,536-entry LUT.
        unsafe { avx2::decode_f16(src, dst) };
        return true;
    }
    let _ = (src, dst);
    false
}

/// Vector form of the f32→f16 encode in [`crate::pack::encode_slice`]:
/// converts 8 values per step with the F16C `vcvtps2ph` instruction under
/// round-to-nearest-even. That is [`crate::Half::from_f32`]'s rounding on
/// every input, and the instruction quiets a NaN and keeps the top nine
/// payload bits and the sign exactly as `from_f32` does, so the two are
/// bit-identical over all 2³² inputs (`tests/pack_props.rs`). Returns
/// `false` (leaving `dst` untouched) when not dispatched or the lengths
/// differ (the scalar path owns the panic semantics).
#[inline]
pub fn encode_f16(src: &[f32], dst: &mut [Half]) -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if active() && src.len() == dst.len() {
        // SAFETY: AVX2 and F16C are present (`active` implies `available`)
        // and the lengths match, so every 8-wide load and store is in
        // bounds.
        unsafe { avx2::encode_f16(src, dst) };
        return true;
    }
    let _ = (src, dst);
    false
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod avx2 {
    //! The AVX2 implementations. Everything here runs under
    //! `#[target_feature(enable = "avx2")]` (plus `f16c` for the encode)
    //! and is reached only through the dispatch wrappers above, which
    //! check feature presence and slice geometry first.

    use super::{Half, NR, SPAN};
    use std::arch::x86_64::*;

    /// The product `a × b`, or `+0.0` in every lane where `keep` is clear.
    /// Callers pass an all-ones `keep` unless they skip zero A elements.
    macro_rules! product {
        ($skip:expr, $a:expr, $keep:expr, $b:expr) => {{
            let p = _mm256_mul_ps($a, $b);
            if $skip {
                _mm256_and_ps(p, $keep)
            } else {
                p
            }
        }};
    }

    /// The lane mask `av != 0.0` (true for NaN) when zeros are skipped; an
    /// unused zero otherwise. A masked product is `+0.0`, which adds
    /// nothing to an accumulator that is not `-0.0`.
    macro_rules! keep_mask {
        ($skip:expr, $avv:expr) => {
            if $skip {
                _mm256_cmp_ps::<_CMP_NEQ_UQ>($avv, _mm256_setzero_ps())
            } else {
                _mm256_setzero_ps()
            }
        };
    }

    // SAFETY: callers (the dispatch wrappers) verified AVX2 is available
    // and that `j0 + SPAN <= n` and `a_f.len() * n <= bp.len()`, so every
    // load below is in bounds.
    #[target_feature(enable = "avx2")]
    pub unsafe fn row_panel_span<const SKIP_ZEROS: bool>(
        a_f: &[f32],
        bp: &[f32],
        n: usize,
        j0: usize,
        out: &mut [f32; SPAN],
    ) {
        let op = out.as_mut_ptr();
        // SAFETY: `out` is exactly SPAN = 4*NR floats.
        let (mut acc0, mut acc1, mut acc2, mut acc3) = unsafe {
            (
                _mm256_loadu_ps(op),
                _mm256_loadu_ps(op.add(NR)),
                _mm256_loadu_ps(op.add(2 * NR)),
                _mm256_loadu_ps(op.add(3 * NR)),
            )
        };
        for (kk, &av) in a_f.iter().enumerate() {
            let avv = _mm256_set1_ps(av);
            let keep = keep_mask!(SKIP_ZEROS, avv);
            // SAFETY: `kk*n + j0 + SPAN <= (kk+1)*n <= bp.len()` per the
            // wrapper's guard.
            let p = unsafe { bp.as_ptr().add(kk * n + j0) };
            // SAFETY: the four loads cover `p[0..SPAN]`, in bounds as above.
            unsafe {
                acc0 = _mm256_add_ps(product!(SKIP_ZEROS, avv, keep, _mm256_loadu_ps(p)), acc0);
                acc1 = _mm256_add_ps(
                    product!(SKIP_ZEROS, avv, keep, _mm256_loadu_ps(p.add(NR))),
                    acc1,
                );
                acc2 = _mm256_add_ps(
                    product!(SKIP_ZEROS, avv, keep, _mm256_loadu_ps(p.add(2 * NR))),
                    acc2,
                );
                acc3 = _mm256_add_ps(
                    product!(SKIP_ZEROS, avv, keep, _mm256_loadu_ps(p.add(3 * NR))),
                    acc3,
                );
            }
        }
        // SAFETY: `out` is exactly SPAN = 4*NR floats.
        unsafe {
            _mm256_storeu_ps(op, acc0);
            _mm256_storeu_ps(op.add(NR), acc1);
            _mm256_storeu_ps(op.add(2 * NR), acc2);
            _mm256_storeu_ps(op.add(3 * NR), acc3);
        }
    }

    // SAFETY: callers verified AVX2, `a0_f.len() == a1_f.len()`,
    // `j0 + SPAN <= n`, and `a0_f.len() * n <= bp.len()`, so every load
    // below is in bounds for both rows.
    #[target_feature(enable = "avx2")]
    pub unsafe fn row_panel_span2<const SKIP_ZEROS: bool>(
        a0_f: &[f32],
        a1_f: &[f32],
        bp: &[f32],
        n: usize,
        j0: usize,
        out0: &mut [f32; SPAN],
        out1: &mut [f32; SPAN],
    ) {
        let op0 = out0.as_mut_ptr();
        let op1 = out1.as_mut_ptr();
        // SAFETY: each output is exactly SPAN = 4*NR floats.
        let (mut acc00, mut acc01, mut acc02, mut acc03) = unsafe {
            (
                _mm256_loadu_ps(op0),
                _mm256_loadu_ps(op0.add(NR)),
                _mm256_loadu_ps(op0.add(2 * NR)),
                _mm256_loadu_ps(op0.add(3 * NR)),
            )
        };
        // SAFETY: as above.
        let (mut acc10, mut acc11, mut acc12, mut acc13) = unsafe {
            (
                _mm256_loadu_ps(op1),
                _mm256_loadu_ps(op1.add(NR)),
                _mm256_loadu_ps(op1.add(2 * NR)),
                _mm256_loadu_ps(op1.add(3 * NR)),
            )
        };
        for (kk, (&av0, &av1)) in a0_f.iter().zip(a1_f.iter()).enumerate() {
            let avv0 = _mm256_set1_ps(av0);
            let avv1 = _mm256_set1_ps(av1);
            let keep0 = keep_mask!(SKIP_ZEROS, avv0);
            let keep1 = keep_mask!(SKIP_ZEROS, avv1);
            // SAFETY: `kk*n + j0 + SPAN <= (kk+1)*n <= bp.len()` per the
            // wrapper's guard.
            let p = unsafe { bp.as_ptr().add(kk * n + j0) };
            // SAFETY: the four loads cover `p[0..SPAN]`, in bounds as
            // above; each B vector feeds both rows' chains.
            unsafe {
                let b0 = _mm256_loadu_ps(p);
                let b1 = _mm256_loadu_ps(p.add(NR));
                let b2 = _mm256_loadu_ps(p.add(2 * NR));
                let b3 = _mm256_loadu_ps(p.add(3 * NR));
                acc00 = _mm256_add_ps(product!(SKIP_ZEROS, avv0, keep0, b0), acc00);
                acc01 = _mm256_add_ps(product!(SKIP_ZEROS, avv0, keep0, b1), acc01);
                acc02 = _mm256_add_ps(product!(SKIP_ZEROS, avv0, keep0, b2), acc02);
                acc03 = _mm256_add_ps(product!(SKIP_ZEROS, avv0, keep0, b3), acc03);
                acc10 = _mm256_add_ps(product!(SKIP_ZEROS, avv1, keep1, b0), acc10);
                acc11 = _mm256_add_ps(product!(SKIP_ZEROS, avv1, keep1, b1), acc11);
                acc12 = _mm256_add_ps(product!(SKIP_ZEROS, avv1, keep1, b2), acc12);
                acc13 = _mm256_add_ps(product!(SKIP_ZEROS, avv1, keep1, b3), acc13);
            }
        }
        // SAFETY: each output is exactly SPAN = 4*NR floats.
        unsafe {
            _mm256_storeu_ps(op0, acc00);
            _mm256_storeu_ps(op0.add(NR), acc01);
            _mm256_storeu_ps(op0.add(2 * NR), acc02);
            _mm256_storeu_ps(op0.add(3 * NR), acc03);
            _mm256_storeu_ps(op1, acc10);
            _mm256_storeu_ps(op1.add(NR), acc11);
            _mm256_storeu_ps(op1.add(2 * NR), acc12);
            _mm256_storeu_ps(op1.add(3 * NR), acc13);
        }
    }

    // SAFETY: callers verified AVX2 and `j0 + NR <= n`,
    // `a_f.len() * n <= bp.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn row_panel_block<const SKIP_ZEROS: bool>(
        a_f: &[f32],
        bp: &[f32],
        n: usize,
        j0: usize,
        out: &mut [f32; NR],
    ) {
        // SAFETY: `out` is exactly NR floats.
        let mut acc = unsafe { _mm256_loadu_ps(out.as_ptr()) };
        for (kk, &av) in a_f.iter().enumerate() {
            let avv = _mm256_set1_ps(av);
            let keep = keep_mask!(SKIP_ZEROS, avv);
            // SAFETY: `kk*n + j0 + NR <= (kk+1)*n <= bp.len()` per the
            // wrapper's guard.
            let bv = unsafe { _mm256_loadu_ps(bp.as_ptr().add(kk * n + j0)) };
            acc = _mm256_add_ps(product!(SKIP_ZEROS, avv, keep, bv), acc);
        }
        // SAFETY: `out` is exactly NR floats.
        unsafe { _mm256_storeu_ps(out.as_mut_ptr(), acc) };
    }

    // SAFETY: callers verified AVX2 and that every lane is exactly
    // `a.len()` long.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_rows_block(a: &[f32], lanes: &[&[f32]; NR]) -> [f32; NR] {
        let p: [*const f32; NR] = std::array::from_fn(|j| lanes[j].as_ptr());
        // Seed every lane with -0.0, matching the `Sum` fold `dot` uses.
        let mut acc = _mm256_set1_ps(-0.0);
        for (k, &av) in a.iter().enumerate() {
            let avv = _mm256_set1_ps(av);
            // SAFETY: `k < a.len() == lanes[j].len()` for every lane, so
            // each gathered scalar read is in bounds. (`_mm256_set_ps`
            // takes lanes high-to-low: lane j reads `lanes[j][k]`.)
            let kv = unsafe {
                _mm256_set_ps(
                    *p[7].add(k),
                    *p[6].add(k),
                    *p[5].add(k),
                    *p[4].add(k),
                    *p[3].add(k),
                    *p[2].add(k),
                    *p[1].add(k),
                    *p[0].add(k),
                )
            };
            acc = _mm256_add_ps(_mm256_mul_ps(avv, kv), acc);
        }
        store8(acc)
    }

    // SAFETY: callers verified AVX2 and `src.len() == dst.len()`; gather
    // indices are zero-extended u16s, always inside the 2^16-entry LUT.
    #[target_feature(enable = "avx2")]
    pub unsafe fn decode_f16(src: &[Half], dst: &mut [f32]) {
        let lut = crate::half::f16_lut().as_ptr();
        let n = src.len();
        // `Half` is #[repr(transparent)] over u16, so a slice of Half
        // reinterprets as a slice of u16 bit patterns.
        let sp = src.as_ptr() as *const u16;
        let dp = dst.as_mut_ptr();
        let mut i = 0;
        while i + NR <= n {
            // SAFETY: `i + NR <= n` bounds the 8-element load and store;
            // every gather index is a u16 into the 2^16-entry LUT.
            unsafe {
                let bits = _mm_loadu_si128(sp.add(i) as *const __m128i);
                let idx = _mm256_cvtepu16_epi32(bits);
                let vals = _mm256_i32gather_ps::<4>(lut, idx);
                _mm256_storeu_ps(dp.add(i), vals);
            }
            i += NR;
        }
        for (d, s) in dst[i..].iter_mut().zip(src[i..].iter()) {
            *d = s.to_f32();
        }
    }

    // SAFETY: callers verified AVX2 and F16C and `src.len() == dst.len()`.
    #[target_feature(enable = "avx2,f16c")]
    pub unsafe fn encode_f16(src: &[f32], dst: &mut [Half]) {
        let n = src.len();
        let sp = src.as_ptr();
        // `Half` is #[repr(transparent)] over u16, so 8 Halfs are the 8
        // u16 lanes one `vcvtps2ph` produces.
        let dp = dst.as_mut_ptr() as *mut u16;
        let mut i = 0;
        while i + NR <= n {
            // SAFETY: `i + NR <= n` bounds the 8-element load and store.
            unsafe {
                let bits = _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(_mm256_loadu_ps(sp.add(i)));
                _mm_storeu_si128(dp.add(i) as *mut __m128i, bits);
            }
            i += NR;
        }
        for (d, s) in dst[i..].iter_mut().zip(src[i..].iter()) {
            *d = Half::from_f32(*s);
        }
    }

    // SAFETY: caller must have AVX2 enabled (all callers here do).
    #[target_feature(enable = "avx2")]
    unsafe fn store8(v: __m256) -> [f32; NR] {
        let mut out = [0.0f32; NR];
        // SAFETY: `out` is exactly NR floats.
        unsafe { _mm256_storeu_ps(out.as_mut_ptr(), v) };
        out
    }
}

/// Runs `body` under both forced dispatch modes (scalar, then vector),
/// then clears the override so the environment decides again. The
/// override is process-wide and the test harness runs tests on parallel
/// threads, so every in-crate test that flips it goes through here: one
/// lock, held for the whole run, keeps a dispatch-state assertion inside
/// `body` from seeing another test's mode.
#[cfg(test)]
pub(crate) fn in_both_modes(mut body: impl FnMut(bool)) {
    static OVERRIDE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // A panicking test poisons the lock; the mode it left behind is
    // overwritten below, so the next test may proceed.
    let _guard = OVERRIDE_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    for simd_on in [false, true] {
        set_override(Some(simd_on));
        body(simd_on);
    }
    set_override(None);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{pack, Matrix};

    #[test]
    fn decode_is_bit_identical_over_the_entire_half_bitspace() {
        let src: Vec<Half> = (0..=u16::MAX).map(Half::from_bits).collect();
        let expect: Vec<u32> = src.iter().map(|h| h.to_f32().to_bits()).collect();
        in_both_modes(|_| {
            // Offsets cover the vector body plus every tail length.
            for lo in [0usize, 1, 5, 65_529] {
                let mut dst = vec![0.0f32; src.len() - lo];
                pack::decode_slice(&src[lo..], &mut dst);
                for (i, (d, e)) in dst.iter().zip(expect[lo..].iter()).enumerate() {
                    assert_eq!(d.to_bits(), *e, "bit pattern {}", lo + i);
                }
            }
        });
    }

    #[test]
    fn row_panel_kernels_match_scalar_windows_bitwise() {
        // A panel with non-finite values and signed zeros: the wide-span
        // and single-block kernels must continue the caller's seed exactly
        // like the scalar register window, bit-for-bit (NaN payloads
        // included), with and without zero skipping.
        let k = 13;
        let n = SPAN + NR + 3; // one span, one full block, a ragged tail
        let mut b = Matrix::<f32>::from_fn(k, n, |r, c| ((r * 37 + c * 11) as f32).sin() * 3.0);
        b.set(0, 1, f32::INFINITY);
        b.set(2, SPAN + 1, f32::NAN);
        b.set(3, 4, f32::INFINITY);
        b.set(5, 9, -0.0);
        let bp = pack::Panel::from_matrix(&b);
        let mut a: Vec<f32> = (0..k).map(|i| (i as f32 * 0.61).cos() - 0.3).collect();
        a[3] = 0.0;
        a[7] = f32::NEG_INFINITY;
        let a1: Vec<f32> = a.iter().rev().copied().collect();

        fn seed(t: usize) -> f32 {
            [0.0, -0.0, 1.5, -2.25][t % 4]
        }
        fn bits(v: &[f32]) -> Vec<u32> {
            v.iter().map(|x| x.to_bits()).collect()
        }
        /// The scalar register window over `j0..j0 + jw`, from `seed`.
        fn scalar_ref(
            a: &[f32],
            bp: &[f32],
            n: usize,
            skip: bool,
            j0: usize,
            jw: usize,
        ) -> Vec<u32> {
            let mut regs: Vec<f32> = (0..jw).map(seed).collect();
            for (kk, &av) in a.iter().enumerate() {
                if skip && av == 0.0 {
                    continue;
                }
                for (t, reg) in regs.iter_mut().enumerate() {
                    *reg += av * bp[kk * n + j0 + t];
                }
            }
            bits(&regs)
        }
        fn check<const SKIP: bool>(simd_on: bool, a: &[f32], a1: &[f32], bp: &[f32], n: usize) {
            let on = simd_on && available();
            let want = |a: &[f32], j0: usize, jw: usize| scalar_ref(a, bp, n, SKIP, j0, jw);
            let mut span: [f32; SPAN] = std::array::from_fn(seed);
            assert_eq!(row_panel_span::<SKIP>(a, bp, n, 0, &mut span), on);
            if on {
                assert_eq!(bits(&span), want(a, 0, SPAN), "span, skip {SKIP}");
            }
            let mut s0: [f32; SPAN] = std::array::from_fn(seed);
            let mut s1: [f32; SPAN] = std::array::from_fn(seed);
            assert_eq!(
                row_panel_span2::<SKIP>(a, a1, bp, n, 0, &mut s0, &mut s1),
                on
            );
            if on {
                assert_eq!(bits(&s0), want(a, 0, SPAN), "span2 row 0, skip {SKIP}");
                assert_eq!(bits(&s1), want(a1, 0, SPAN), "span2 row 1, skip {SKIP}");
            }
            let mut blk: [f32; NR] = std::array::from_fn(seed);
            assert_eq!(row_panel_block::<SKIP>(a, bp, n, SPAN, &mut blk), on);
            if on {
                assert_eq!(bits(&blk), want(a, SPAN, NR), "block, skip {SKIP}");
            }
            // Out-of-range windows must decline, never touch memory.
            assert!(!row_panel_span::<SKIP>(a, bp, n, NR + 4, &mut span));
            assert!(!row_panel_span2::<SKIP>(
                a,
                &a1[1..],
                bp,
                n,
                0,
                &mut s0,
                &mut s1
            ));
            assert!(!row_panel_block::<SKIP>(a, bp, n, n - 3, &mut blk));
        }

        in_both_modes(|simd_on| {
            check::<false>(simd_on, &a, &a1, bp.as_slice(), n);
            check::<true>(simd_on, &a, &a1, bp.as_slice(), n);
        });
    }

    #[test]
    fn encode_matches_from_f32_over_special_values_and_every_tail() {
        let mut src = vec![
            0.0f32,
            -0.0,
            1.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7F80_0001), // signalling NaN, payload below the kept bits
            f32::from_bits(0xFFBF_E000), // negative signalling NaN with a kept payload
            65_504.0,
            65_520.0, // rounds to infinity
            5.960_464_5e-8,
            2.980_232_2e-8, // exactly half the smallest subnormal: ties to zero
            f32::MIN_POSITIVE,
        ];
        src.extend((0..27).map(|i| (i as f32 - 13.0) * 0.377));
        let want: Vec<u16> = src.iter().map(|&v| Half::from_f32(v).to_bits()).collect();
        in_both_modes(|simd_on| {
            for lo in 0..NR + 1 {
                let mut dst = vec![Half::ZERO; src.len() - lo];
                pack::encode_slice(&src[lo..], &mut dst);
                let got: Vec<u16> = dst.iter().map(|h| h.to_bits()).collect();
                assert_eq!(got, want[lo..], "offset {lo}, simd {simd_on}");
            }
        });
    }

    #[test]
    fn wrappers_decline_cleanly_when_geometry_does_not_fit() {
        in_both_modes(|_| {
            // Mismatched lane length: the wrapper must decline so the
            // scalar path keeps its panic semantics.
            let a = [1.0f32; 4];
            let short = [1.0f32; 3];
            let lanes: [&[f32]; NR] = [&short; NR];
            assert!(dot_rows_block(&a, &lanes).is_none());
            // Length-mismatched decode and encode decline (the slice
            // helpers assert).
            let src = [Half::ONE; 4];
            let mut dst = [0.0f32; 3];
            assert!(!decode_f16(&src, &mut dst));
            let mut halves = [Half::ZERO; 3];
            assert!(!encode_f16(&[1.0f32; 4], &mut halves));
        });
    }
}
