//! The explicit SIMD layer under the `NR = 8` microkernels.
//!
//! Every hot kernel in the workspace funnels through two shared
//! microkernels plus the f16↔f32 conversions: the seeded dense row
//! microkernel behind [`crate::accumulate_row_window`] and its row-group
//! form [`crate::accumulate_row_windows`] (every product over a
//! contiguous operand), the gathered-column [`crate::dot_rows_block`],
//! [`crate::pack::decode_slice`] (a LUT gather) and
//! [`crate::pack::encode_slice`] (F16C). This module reimplements their
//! inner loops — the row microkernel's span, row-group span and block
//! forms, the gathered dot, and the two conversions — on stable
//! `std::arch` x86_64 intrinsics and dispatches to them at runtime; the
//! scalar register-window code stays in place as the fallback and the
//! only path on non-x86_64 targets.
//!
//! ## Levels
//!
//! [`Level`] orders what the CPU offers: [`Level::Scalar`], then
//! [`Level::Avx2`] (AVX2 and F16C: every vector kernel), then
//! [`Level::Avx512`] (AVX-512F on top of AVX2 and F16C). The 512-bit
//! level changes exactly one kernel, [`row_panel_span_group`]: up to
//! [`GROUP`] A rows run against one [`SPAN`]-wide window in a single
//! pass, two `zmm` accumulators per row, so each loaded panel vector
//! feeds eight rows. At [`Level::Avx2`] the same group runs in pairs.
//! Everything else — the single-row span and block kernels, the gathered
//! dot and the F16C conversions — stays 256-bit at both vector levels:
//! one or two rows of 512-bit chains are bound by the add latency, not
//! by the arithmetic, and gain nothing from the wider registers.
//!
//! ## The no-FMA bit-equality argument
//!
//! The vector kernels use `_mm256_add_ps(_mm256_mul_ps(a, b), acc)` and
//! `_mm512_add_ps(_mm512_mul_ps(a, b), acc)` — deliberately **not** a
//! fused multiply-add. A separate IEEE multiply and add per element is
//! the identical operation sequence the scalar `[f32; NR]` register
//! windows perform lane by lane: same rounding at the same points, same
//! accumulation order (ascending `k` from the same seed), no contraction.
//! The lanes of one vector are *independent* sums, whatever the vector's
//! width — vectorizing across them, 8 or 16 at a time, reorders nothing —
//! so every result is bitwise identical to the scalar path, NaN payloads
//! and signed zeros included. Operand *order* in each op is chosen to
//! match the scalar codegen's NaN-payload propagation (x86 keeps the
//! first source's payload when both operands are NaN): the multiply takes
//! the broadcast A element first, and the accumulate takes the fresh
//! product first — the compiled `acc += av * bv` keeps the product's
//! payload, not the accumulator's. The full-bit-space property tests
//! would catch either order being wrong.
//!
//! With `SKIP_ZEROS`, a zero A element must add nothing, even against an
//! infinite or NaN panel element. The AVX2 kernels AND the product with
//! the lane mask `a != 0.0`; the AVX-512 kernel computes the same
//! product with `_mm512_maskz_mul_ps` under the compare mask `a != 0.0`
//! (unordered, so a NaN A element is kept). Both give `+0.0` where
//! `a == 0`, which leaves any accumulator that is not `-0.0` unchanged.
//!
//! The f16→f32 decode gathers from the same 65,536-entry LUT that
//! [`crate::Half::to_f32`] indexes, so it is exact by construction.
//! The f32→f16 encode is `vcvtps2ph` under round-to-nearest-even, which
//! equals [`crate::Half::from_f32`] on every one of the 2³² inputs, NaN
//! sign and payload included (an `#[ignore]`d test checks all of them).
//! CI pins all of this over the adversarial `Half` bit-space corpus at
//! `MG_SIMD` {0, 1} × `MG_THREADS` {1, 4}, and the property tests force
//! every level the host supports.
//!
//! ## Dispatch rules
//!
//! The first microkernel call reads the `MG_SIMD` environment variable:
//! `MG_SIMD=0` forces [`Level::Scalar`]; anything else (including unset)
//! selects [`best`], the highest level the target and CPU support
//! (`is_x86_feature_detected!`). The decision is cached in an atomic.
//! [`set_override`] picks a level programmatically — the only way to run
//! AVX2 on an AVX-512 host; the tests and the perf study use it — and
//! `set_override(None)` drops back to the environment-driven decision.
//! Because every level is bit-identical, the dispatch decision can never
//! change a result — only a timing.
//!
//! ## Unsafe confinement contract
//!
//! This module is the **only** place in the workspace allowed to contain
//! `unsafe` (the intrinsic calls and the raw-pointer loads they need).
//! The compiler enforces that: the workspace lint table in the root
//! `Cargo.toml` denies `unsafe_code` in every member crate and target,
//! this module alone lifts it with the `expect` below, and every crate
//! root other than mg-tensor's also says `#![forbid(unsafe_code)]`.
//! Clippy's `undocumented_unsafe_blocks` requires a `// SAFETY:` comment
//! on each unsafe block, and `missing_safety_doc` (with
//! `check-private-items` in `clippy.toml`) a `# Safety` section on each
//! `unsafe fn`. Every safe wrapper below validates the slice geometry
//! *before* entering the intrinsics, so the unsafe surface is a handful
//! of bounds-proved loads and stores.
#![cfg_attr(
    target_arch = "x86_64",
    expect(
        unsafe_code,
        reason = "std::arch intrinsics; the workspace denies unsafe_code everywhere else"
    )
)]

use crate::gemm::NR;
use crate::Half;
use std::sync::atomic::{AtomicU8, Ordering};

/// Width of the dense row microkernel's wide span: four independent
/// `NR`-wide accumulator chains per k-step, enough instruction-level
/// parallelism to cover the vector-add latency that a single 8-lane
/// chain (scalar or vector) is bound by.
pub const SPAN: usize = 4 * NR;

/// Most A rows one [`row_panel_span_group`] pass runs: at
/// [`Level::Avx512`], eight rows of two `zmm` accumulators each are
/// sixteen independent chains per loaded panel window.
pub const GROUP: usize = 8;

/// An instruction-set level of the dispatch, lowest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// The scalar register windows; the only level off x86_64.
    Scalar,
    /// AVX2 and F16C: every vector kernel, row groups in pairs.
    Avx2,
    /// AVX-512F on top of AVX2 and F16C: row groups in one pass.
    Avx512,
}

impl Level {
    /// Every level, lowest first.
    pub const ALL: [Level; 3] = [Level::Scalar, Level::Avx2, Level::Avx512];

    /// The level's lower-case name, as tests and reports print it.
    pub fn name(self) -> &'static str {
        match self {
            Level::Scalar => "scalar",
            Level::Avx2 => "avx2",
            Level::Avx512 => "avx512",
        }
    }

    /// Whether this target and CPU can run the level (`self <= best()`).
    pub fn supported(self) -> bool {
        self <= best()
    }
}

/// The highest level this target and CPU support, independent of the
/// `MG_SIMD` override.
#[inline]
pub fn best() -> Level {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::is_x86_feature_detected as has;
        if !(has!("avx2") && has!("f16c")) {
            Level::Scalar
        } else if has!("avx512f") {
            Level::Avx512
        } else {
            Level::Avx2
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Level::Scalar
    }
}

/// The cached dispatch decision, `level as u8 + 1`; 0 means "not decided
/// yet" so the next probe (re)reads `MG_SIMD` and the CPUID feature bits.
static LEVEL: AtomicU8 = AtomicU8::new(0);

fn store(level: Option<Level>) {
    LEVEL.store(level.map_or(0, |l| l as u8 + 1), Ordering::Relaxed);
}

/// The level the microkernels currently dispatch to.
#[inline]
pub fn level() -> Level {
    match LEVEL.load(Ordering::Relaxed) {
        0 => {
            let l = match std::env::var("MG_SIMD") {
                Ok(v) if v == "0" => Level::Scalar,
                _ => best(),
            };
            store(Some(l));
            l
        }
        1 => Level::Scalar,
        2 => Level::Avx2,
        _ => Level::Avx512,
    }
}

/// Whether a vector level is the one currently dispatched to. `false`
/// when the CPU has no vector level, when `MG_SIMD=0` is set, or after
/// `set_override(Some(Level::Scalar))`.
#[inline]
pub fn active() -> bool {
    level() > Level::Scalar
}

/// Programmatically overrides the dispatch: `Some(level)` selects that
/// level, or [`best`] when the CPU lacks it, and `None` clears the
/// override so the next microkernel call re-reads `MG_SIMD`. Every level
/// is bit-identical, so switching mid-run changes timings, never values.
pub fn set_override(level: Option<Level>) {
    store(level.map(|l| l.min(best())));
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
    #[cfg(target_arch = "x86_64")]
    if active() && j0 + SPAN <= n && a_f.len().saturating_mul(n) <= bp.len() {
        // SAFETY: AVX2 is present (every vector level has it), and the
        // guard proves every SPAN-wide load at `bp[kk*n + j0]` with
        // `kk < a_f.len()` lies inside `bp` (since `j0 + SPAN <= n`).
        unsafe { avx2::row_panel_span::<SKIP_ZEROS>(a_f, bp, n, j0, out) };
        return true;
    }
    let _ = (a_f, bp, n, j0, out);
    false
}

/// Row-group form of [`row_panel_span`]: continues the same seeded
/// [`SPAN`]-wide window for `out.len()` decoded A rows (at most
/// [`GROUP`]), stored back to back in `a` with `a.len() / out.len()`
/// elements each. Each loaded panel vector feeds every row's chains, so
/// the panel is streamed through cache once per group rather than once
/// per row. At [`Level::Avx512`] the whole group runs in one pass; at
/// [`Level::Avx2`] it runs in pairs, an odd last row alone. Per row and
/// per lane the operation sequence is exactly [`row_panel_span`]'s (mul
/// then add, ascending `k`, the caller's seed), so grouping is invisible
/// in the bits. Returns `false` (leaving the outputs untouched) when no
/// vector level is dispatched, the group is empty or larger than
/// [`GROUP`], `a` does not split into equal rows, or the window does not
/// fit.
#[inline]
pub fn row_panel_span_group<const SKIP_ZEROS: bool>(
    a: &[f32],
    bp: &[f32],
    n: usize,
    j0: usize,
    out: &mut [[f32; SPAN]],
) -> bool {
    let rows = out.len();
    #[cfg(target_arch = "x86_64")]
    if (1..=GROUP).contains(&rows)
        && a.len().is_multiple_of(rows)
        && j0 + SPAN <= n
        && (a.len() / rows).saturating_mul(n) <= bp.len()
    {
        let k = a.len() / rows;
        match level() {
            Level::Scalar => {}
            Level::Avx2 => {
                for (p, pair) in out.chunks_mut(2).enumerate() {
                    let a0 = &a[2 * p * k..(2 * p + 1) * k];
                    match pair {
                        [out0, out1] => {
                            let a1 = &a[(2 * p + 1) * k..(2 * p + 2) * k];
                            // SAFETY: AVX2 is present (the level is only
                            // chosen when it is), both rows are `k` long,
                            // and the guard proves every SPAN-wide load at
                            // `bp[kk*n + j0]` with `kk < k` lies inside `bp`.
                            unsafe {
                                avx2::row_panel_span2::<SKIP_ZEROS>(a0, a1, bp, n, j0, out0, out1)
                            };
                        }
                        [out0] => {
                            // SAFETY: as above, for the one row.
                            unsafe { avx2::row_panel_span::<SKIP_ZEROS>(a0, bp, n, j0, out0) };
                        }
                        _ => unreachable!("chunks of at most two rows"),
                    }
                }
                return true;
            }
            Level::Avx512 => {
                // SAFETY: AVX-512F is present (the level is only chosen when
                // it is), `a` holds `rows` rows of `k`, `1 <= rows <= GROUP`,
                // and the guard proves every SPAN-wide load at
                // `bp[kk*n + j0]` with `kk < k` lies inside `bp`.
                unsafe { avx512::row_panel_span_group::<SKIP_ZEROS>(a, k, bp, n, j0, out) };
                return true;
            }
        }
    }
    let _ = (a, bp, n, j0, out, rows);
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
    #[cfg(target_arch = "x86_64")]
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
    #[cfg(target_arch = "x86_64")]
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
    #[cfg(target_arch = "x86_64")]
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
    #[cfg(target_arch = "x86_64")]
    if active() && src.len() == dst.len() {
        // SAFETY: AVX2 and F16C are present (every vector level has both)
        // and the lengths match, so every 8-wide load and store is in
        // bounds.
        unsafe { avx2::encode_f16(src, dst) };
        return true;
    }
    let _ = (src, dst);
    false
}

#[cfg(target_arch = "x86_64")]
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

    /// # Safety
    ///
    /// AVX2 must be available, and `j0 + SPAN <= n` and
    /// `a_f.len() * n <= bp.len()` must hold, so every load below is in
    /// bounds. The dispatch wrappers check all three.
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

    /// # Safety
    ///
    /// AVX2 must be available, and `a0_f.len() == a1_f.len()`,
    /// `j0 + SPAN <= n` and `a0_f.len() * n <= bp.len()` must hold, so
    /// every load below is in bounds for both rows.
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

    /// # Safety
    ///
    /// AVX2 must be available, and `j0 + NR <= n` and
    /// `a_f.len() * n <= bp.len()` must hold.
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

    /// # Safety
    ///
    /// AVX2 must be available, and every lane must be exactly `a.len()`
    /// long.
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

    /// # Safety
    ///
    /// AVX2 must be available, and `src.len() == dst.len()` must hold.
    /// The gather indices are zero-extended u16s, always inside the
    /// 2^16-entry LUT.
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

    /// # Safety
    ///
    /// AVX2 and F16C must be available, and `src.len() == dst.len()` must
    /// hold.
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

    /// # Safety
    ///
    /// AVX2 must be available (all callers here run with it enabled).
    #[target_feature(enable = "avx2")]
    unsafe fn store8(v: __m256) -> [f32; NR] {
        let mut out = [0.0f32; NR];
        // SAFETY: `out` is exactly NR floats.
        unsafe { _mm256_storeu_ps(out.as_mut_ptr(), v) };
        out
    }
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    //! The AVX-512 row-group kernel. It runs under
    //! `#[target_feature(enable = "avx512f")]` and is reached only through
    //! [`super::row_panel_span_group`], which checks the level and the
    //! slice geometry first.

    use super::{GROUP, SPAN};
    use std::arch::x86_64::*;

    /// Lanes per `zmm` register: a SPAN-wide window is two of them.
    const LANES: usize = SPAN / 2;

    /// # Safety
    ///
    /// AVX-512F must be available, and `1 <= out.len() <= GROUP`,
    /// `a.len() == out.len() * k`, `j0 + SPAN <= n` and
    /// `k * n <= bp.len()` must hold.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn row_panel_span_group<const SKIP_ZEROS: bool>(
        a: &[f32],
        k: usize,
        bp: &[f32],
        n: usize,
        j0: usize,
        out: &mut [[f32; SPAN]],
    ) {
        debug_assert!(out.len() <= GROUP);
        // SAFETY: the caller's guarantees, with the row count made a
        // constant so the accumulators stay in registers.
        unsafe {
            match out.len() {
                1 => rows::<SKIP_ZEROS, 1>(a, k, bp, n, j0, out),
                2 => rows::<SKIP_ZEROS, 2>(a, k, bp, n, j0, out),
                3 => rows::<SKIP_ZEROS, 3>(a, k, bp, n, j0, out),
                4 => rows::<SKIP_ZEROS, 4>(a, k, bp, n, j0, out),
                5 => rows::<SKIP_ZEROS, 5>(a, k, bp, n, j0, out),
                6 => rows::<SKIP_ZEROS, 6>(a, k, bp, n, j0, out),
                7 => rows::<SKIP_ZEROS, 7>(a, k, bp, n, j0, out),
                _ => rows::<SKIP_ZEROS, GROUP>(a, k, bp, n, j0, out),
            }
        }
    }

    /// # Safety
    ///
    /// As `row_panel_span_group`, with `out.len() == R`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn rows<const SKIP_ZEROS: bool, const R: usize>(
        a: &[f32],
        k: usize,
        bp: &[f32],
        n: usize,
        j0: usize,
        out: &mut [[f32; SPAN]],
    ) {
        let out: &mut [[f32; SPAN]; R] = out.try_into().expect("R output rows");
        let mut acc = [[_mm512_setzero_ps(); 2]; R];
        for (acc_r, out_r) in acc.iter_mut().zip(out.iter()) {
            // SAFETY: each output row is exactly SPAN = 2 * LANES floats.
            unsafe {
                *acc_r = [
                    _mm512_loadu_ps(out_r.as_ptr()),
                    _mm512_loadu_ps(out_r.as_ptr().add(LANES)),
                ];
            }
        }
        let ap = a.as_ptr();
        for kk in 0..k {
            // SAFETY: `kk*n + j0 + SPAN <= (kk+1)*n <= bp.len()` per the
            // wrapper's guard; the two loads cover `p[0..SPAN]`.
            let (b0, b1) = unsafe {
                let p = bp.as_ptr().add(kk * n + j0);
                (_mm512_loadu_ps(p), _mm512_loadu_ps(p.add(LANES)))
            };
            for (r, acc_r) in acc.iter_mut().enumerate() {
                // SAFETY: `r*k + kk < R*k == a.len()`.
                let avv = _mm512_set1_ps(unsafe { *ap.add(r * k + kk) });
                // Mul then add, the product first; with SKIP_ZEROS the
                // product is `+0.0` wherever the A element is zero.
                let (p0, p1) = if SKIP_ZEROS {
                    let keep = _mm512_cmp_ps_mask::<_CMP_NEQ_UQ>(avv, _mm512_setzero_ps());
                    (
                        _mm512_maskz_mul_ps(keep, avv, b0),
                        _mm512_maskz_mul_ps(keep, avv, b1),
                    )
                } else {
                    (_mm512_mul_ps(avv, b0), _mm512_mul_ps(avv, b1))
                };
                acc_r[0] = _mm512_add_ps(p0, acc_r[0]);
                acc_r[1] = _mm512_add_ps(p1, acc_r[1]);
            }
        }
        for (acc_r, out_r) in acc.iter().zip(out.iter_mut()) {
            // SAFETY: each output row is exactly SPAN = 2 * LANES floats.
            unsafe {
                _mm512_storeu_ps(out_r.as_mut_ptr(), acc_r[0]);
                _mm512_storeu_ps(out_r.as_mut_ptr().add(LANES), acc_r[1]);
            }
        }
    }
}

/// Runs `body` at every dispatch level the host supports, lowest first,
/// then clears the override so the environment decides again; a level
/// the host lacks is skipped with a line naming it. The override is
/// process-wide and the test harness runs tests on parallel threads, so
/// every in-crate test that sets it goes through here: one lock, held for
/// the whole run, keeps a dispatch-state assertion inside `body` from
/// seeing another test's level.
#[cfg(test)]
pub(crate) fn in_every_level(mut body: impl FnMut(Level)) {
    static OVERRIDE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // A panicking test poisons the lock; the level it left behind is
    // overwritten below, so the next test may proceed.
    let _guard = OVERRIDE_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    for level in Level::ALL {
        if !level.supported() {
            println!("skipping SIMD level {}: this CPU lacks it", level.name());
            continue;
        }
        set_override(Some(level));
        body(level);
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
        in_every_level(|_| {
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
        // A panel with non-finite values and signed zeros: the wide-span,
        // row-group and single-block kernels must continue the caller's
        // seed exactly
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
        // GROUP rows of k back to back, each with its own zeros. Only
        // rows 0 and 5 hold an infinity: it turns every lane of its row
        // non-finite, and the finite rows must show that each product is
        // rounded on its own (no fused multiply-add).
        let mut a: Vec<f32> = (0..GROUP * k)
            .map(|i| (i as f32 * 0.61).cos() - 0.3)
            .collect();
        for r in 0..GROUP {
            a[r * k + (3 + r) % k] = 0.0;
        }
        a[7] = f32::NEG_INFINITY;
        a[5 * k + 2] = f32::INFINITY;

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
        fn check<const SKIP: bool>(level: Level, a: &[f32], bp: &[f32], n: usize) {
            let on = level > Level::Scalar;
            let k = a.len() / GROUP;
            let want = |a: &[f32], j0: usize, jw: usize| scalar_ref(a, bp, n, SKIP, j0, jw);
            let a0 = &a[..k];
            let mut span: [f32; SPAN] = std::array::from_fn(seed);
            assert_eq!(row_panel_span::<SKIP>(a0, bp, n, 0, &mut span), on);
            if on {
                assert_eq!(bits(&span), want(a0, 0, SPAN), "span, skip {SKIP}");
            }
            // Every group size, so the pair and single-row legs of AVX2
            // and every row count of AVX-512 run.
            for rows in 1..=GROUP {
                let mut outs = [[0.0f32; SPAN]; GROUP];
                for out in &mut outs {
                    *out = std::array::from_fn(seed);
                }
                let group = &mut outs[..rows];
                assert_eq!(
                    row_panel_span_group::<SKIP>(&a[..rows * k], bp, n, 0, group),
                    on
                );
                if on {
                    for (r, out) in group.iter().enumerate() {
                        let a_r = &a[r * k..(r + 1) * k];
                        assert_eq!(
                            bits(out),
                            want(a_r, 0, SPAN),
                            "group of {rows}, row {r}, skip {SKIP}, {}",
                            level.name()
                        );
                    }
                }
            }
            let mut blk: [f32; NR] = std::array::from_fn(seed);
            assert_eq!(row_panel_block::<SKIP>(a0, bp, n, SPAN, &mut blk), on);
            if on {
                assert_eq!(bits(&blk), want(a0, SPAN, NR), "block, skip {SKIP}");
            }
            // Out-of-range windows and ill-shaped groups must decline,
            // never touch memory.
            let mut outs = [[0.0f32; SPAN]; GROUP + 1];
            assert!(!row_panel_span::<SKIP>(a0, bp, n, NR + 4, &mut span));
            assert!(!row_panel_span_group::<SKIP>(
                a0,
                bp,
                n,
                NR + 4,
                &mut outs[..1]
            ));
            assert!(!row_panel_span_group::<SKIP>(
                &a[1..],
                bp,
                n,
                0,
                &mut outs[..2]
            ));
            assert!(!row_panel_span_group::<SKIP>(&[], bp, n, 0, &mut outs[..0]));
            assert!(!row_panel_span_group::<SKIP>(&[], bp, n, 0, &mut outs[..]));
            assert!(!row_panel_block::<SKIP>(a0, bp, n, n - 3, &mut blk));
        }

        in_every_level(|level| {
            check::<false>(level, &a, bp.as_slice(), n);
            check::<true>(level, &a, bp.as_slice(), n);
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
        in_every_level(|level| {
            for lo in 0..NR + 1 {
                let mut dst = vec![Half::ZERO; src.len() - lo];
                pack::encode_slice(&src[lo..], &mut dst);
                let got: Vec<u16> = dst.iter().map(|h| h.to_bits()).collect();
                assert_eq!(got, want[lo..], "offset {lo}, {}", level.name());
            }
        });
    }

    #[test]
    fn wrappers_decline_cleanly_when_geometry_does_not_fit() {
        in_every_level(|_| {
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
