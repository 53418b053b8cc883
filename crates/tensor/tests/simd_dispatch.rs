//! Regression test for the `MG_SIMD` dispatch override: setting the
//! variable (or the programmatic override) must actually switch which
//! path the microkernels take, exactly like `MG_THREADS` switches the
//! parallel layer. Everything lives in one `#[test]` because the
//! dispatch decision is process-global state — a second concurrent test
//! mutating the environment would race it.

use mg_tensor::simd;

#[test]
fn mg_simd_override_actually_switches_the_dispatch() {
    // Programmatic override: scalar always wins when forced off; forced
    // on engages the vector path exactly when the build/CPU has it.
    simd::set_override(Some(false));
    assert!(!simd::active(), "forced-off dispatch must be scalar");
    simd::set_override(Some(true));
    assert_eq!(
        simd::active(),
        simd::available(),
        "forced-on dispatch must follow hardware availability"
    );

    // Environment-driven: MG_SIMD=0 forces scalar even on AVX2 hardware;
    // MG_SIMD=1 (or unset) re-enables the vector path where available.
    // `set_override(None)` clears the cached decision so the next probe
    // re-reads the environment.
    std::env::set_var("MG_SIMD", "0");
    simd::set_override(None);
    assert!(!simd::active(), "MG_SIMD=0 must force the scalar path");

    std::env::set_var("MG_SIMD", "1");
    simd::set_override(None);
    assert_eq!(
        simd::active(),
        simd::available(),
        "MG_SIMD=1 must select the vector path when available"
    );

    std::env::remove_var("MG_SIMD");
    simd::set_override(None);
    assert_eq!(
        simd::active(),
        simd::available(),
        "unset MG_SIMD defaults to the vector path when available"
    );

    // The override decides timings, never values: a microkernel driven
    // through both modes produces identical bits (spot check; the full
    // corpus lives in pack_props/fused_props). The window spans one
    // SPAN-wide span, one NR block and a ragged tail from an unaligned
    // start, so every path of the row microkernel runs.
    let a: Vec<f32> = (0..64).map(|i| (i as f32 * 0.37).sin()).collect();
    let k = mg_tensor::Matrix::<mg_tensor::Half>::random(48, 64, 11);
    let kt = mg_tensor::pack::Panel::from_matrix_transposed(&k);
    let run = |on| {
        simd::set_override(Some(on));
        let mut regs = [-0.0f32; simd::SPAN + mg_tensor::NR + 3];
        mg_tensor::accumulate_row_window::<false>(&a, kt.as_slice(), kt.cols(), 4, &mut regs);
        regs
    };
    let (scalar, vector) = (run(false), run(true));
    simd::set_override(None);
    for (lane, (s, v)) in scalar.iter().zip(vector.iter()).enumerate() {
        assert_eq!(s.to_bits(), v.to_bits(), "lane {lane}");
    }
}
