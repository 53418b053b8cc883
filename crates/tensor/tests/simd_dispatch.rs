//! The dispatch contract of `MG_SIMD` and the programmatic override:
//!
//! * `MG_SIMD=0` gives the scalar level;
//! * unset, or `MG_SIMD=1`, gives the best level the CPU has;
//! * the override picks any level the CPU has — AVX2 on an AVX-512 host
//!   included — and falls back to the best one for a level it lacks;
//! * `active()` is true at either vector level.
//!
//! Everything lives in one `#[test]` because the dispatch decision is
//! process-global state — a second concurrent test mutating the
//! environment would race it.

use mg_tensor::simd::{self, Level};

#[test]
fn mg_simd_override_actually_switches_the_dispatch() {
    let best = simd::best();

    // Environment-driven: `set_override(None)` clears the cached decision
    // so the next probe re-reads the environment.
    std::env::set_var("MG_SIMD", "0");
    simd::set_override(None);
    assert_eq!(simd::level(), Level::Scalar, "MG_SIMD=0 must force scalar");
    assert!(!simd::active());

    std::env::set_var("MG_SIMD", "1");
    simd::set_override(None);
    assert_eq!(simd::level(), best, "MG_SIMD=1 must select the best level");

    std::env::remove_var("MG_SIMD");
    simd::set_override(None);
    assert_eq!(
        simd::level(),
        best,
        "unset MG_SIMD must select the best level"
    );

    // Programmatic override: every supported level is honoured exactly
    // (AVX2 on an AVX-512 host included), an unsupported one falls back
    // to the best, and `active()` is true at every vector level.
    for level in Level::ALL {
        simd::set_override(Some(level));
        let want = if level.supported() { level } else { best };
        assert_eq!(simd::level(), want, "override to {}", level.name());
        assert_eq!(
            simd::active(),
            want > Level::Scalar,
            "active() at {}",
            want.name()
        );
    }

    // The override decides timings, never values: the row microkernels
    // driven at every level produce identical bits (spot check; the full
    // corpus lives in pack_props and the kernel property tests). The
    // single-row window spans one SPAN-wide span, one NR block and a
    // ragged tail from an unaligned start, so every path of the row
    // microkernel runs; the row group holds a full GROUP of rows.
    let a: Vec<f32> = (0..64 * simd::GROUP)
        .map(|i| (i as f32 * 0.37).sin())
        .collect();
    let k = mg_tensor::Matrix::<mg_tensor::Half>::random(48, 64, 11);
    let kt = mg_tensor::pack::Panel::from_matrix_transposed(&k);
    let run = |level| {
        simd::set_override(Some(level));
        let mut row = [-0.0f32; simd::SPAN + mg_tensor::NR + 3];
        mg_tensor::accumulate_row_window::<false>(&a[..64], kt.as_slice(), kt.cols(), 4, &mut row);
        let mut group = [[-0.0f32; simd::SPAN]; simd::GROUP];
        mg_tensor::accumulate_row_windows::<false>(
            &a,
            kt.as_slice(),
            kt.cols(),
            8,
            &mut group,
            simd::SPAN,
        );
        let mut bits: Vec<u32> = row.iter().map(|v| v.to_bits()).collect();
        bits.extend(group.iter().flatten().map(|v| v.to_bits()));
        bits
    };
    let scalar = run(Level::Scalar);
    for level in Level::ALL {
        if !level.supported() {
            println!("skipping SIMD level {}: this CPU lacks it", level.name());
            continue;
        }
        assert_eq!(run(level), scalar, "{} vs scalar", level.name());
    }
    simd::set_override(None);
}
