//! Perf study: naive vs scalar-packed vs SIMD-packed kernel paths over
//! the four workload classes.
//!
//! Every compute kernel in the workspace routes its operands through the
//! packed-panel microkernel layer (`mg_tensor::pack`), and underneath
//! the NR=8 microkernels sits the explicit AVX2 layer
//! (`mg_tensor::simd`), runtime-dispatched and bit-identical to scalar.
//! This study times three legs per kernel:
//!
//! * **naive** — the library's retained pre-packing references
//!   (`naive`, `fine::naive`, `coarse::naive`, `fused::naive`), which
//!   decode per element inside the loops;
//! * **scalar** — the packed production kernels with the SIMD layer
//!   forced off (`simd::set_override(Some(false))`);
//! * **packed** — the production kernels under the ambient `MG_SIMD`
//!   dispatch (the vector path, unless the env or hardware says no).
//!
//! All three legs are asserted bit-identical on every output, the
//! speedups and the scalar→SIMD gain are recorded, and the digest file
//! hashes the production output — so digest files written under
//! `MG_SIMD=0` and `MG_SIMD=1` must be byte-identical, which CI checks
//! with `cmp`. The fused row compares the register-tiled single-pass
//! kernel against the library's retained `fused::naive` scalar path.
//!
//! Usage: `cargo run --release -p mg-bench --bin perf_study --
//!   [--smoke] [--json] [--threads N] [--digest FILE]`
//!
//! * `--smoke`       — short sequence length; seconds, for CI.
//! * `--json`        — also write the results to `BENCH_10.json`,
//!   including production-path GFLOP/s per kernel (useful-work flops
//!   over measured time; multiply-adds count as two).
//! * `--threads N`   — pin the parallel layer to N threads (default:
//!   `MG_THREADS`, then all cores).
//! * `--digest FILE` — write one line per (class, kernel) with an FNV-1a
//!   digest of the production output bits. Timing-free and
//!   dispatch-independent, so two runs at any thread counts and either
//!   `MG_SIMD` setting must produce byte-identical files.

#![expect(
    clippy::disallowed_types,
    reason = "the study times kernel legs on the wall clock; digests hash outputs only"
)]

use mg_bench::cli::{self, StudyArgs};
use mg_bench::runners::{BLOCK, HEAD_DIM, SEED};
use mg_bench::{threads, Table};
use mg_gpusim::digest::Fnv1a;
use mg_gpusim::json::Json;
use mg_kernels::{
    coarse, coarse_sddmm_compute, coarse_spmm_compute, compound_softmax_compute, fine,
    fine_sddmm_compute, fine_spmm_compute, fused, fused_attention_compute,
};
use mg_models::workload;
use mg_patterns::presets;
use mg_serve::RequestClass;
use mg_sparse::Csr;
use mg_tensor::{naive, simd, Half, Matrix};
use std::process::ExitCode;
use std::time::Instant;

// ---------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------

fn digest_matrix(m: &Matrix<Half>) -> u64 {
    digest_slice(m.as_slice())
}

fn digest_slice(values: &[Half]) -> u64 {
    let mut h = Fnv1a::new();
    for v in values {
        h.write(&v.to_bits().to_le_bytes());
    }
    h.finish()
}

/// Total seconds each leg of the fine-SDDMM regression guard runs for.
/// Its legs take about half a millisecond, and on a shared two-core host
/// the parallel legs can lose every rep of a short window to a busy
/// second core while the serial naive leg does not, so the window must
/// be long enough to also catch quiet reps: on a 2-vCPU host, 20 ms
/// still failed 6 of 91 smoke runs and 100 ms 2 of 140; 250 ms passed
/// all 60.
const FINE_GUARD_LEG_S: f64 = 0.250;

/// Interleaved best-of-N timing over the three legs: the production
/// (ambient-dispatch) kernel, the same kernel with the SIMD layer
/// forced off, and the naive reference run alternately, each keeping
/// its minimum wall clock. Interleaving the reps means a scheduler
/// hiccup or frequency drift on a shared box hits every side of the
/// comparison instead of poisoning one of them, and best-of-N discards
/// the reps it still lands on. N is at least five, and reps continue
/// until every leg has run for `min_leg_s` in total, so sub-millisecond
/// legs still get enough reps for a stable minimum. The dispatch
/// override is restored to the ambient (`MG_SIMD`-driven) mode before
/// returning.
fn time_triple<P, N>(
    min_leg_s: f64,
    mut packed: impl FnMut() -> P,
    mut naive: impl FnMut() -> N,
) -> (P, P, N, f64, f64, f64) {
    const MIN_REPS: usize = 5;
    let mut best = [f64::MAX; 3];
    let mut spent = [0.0f64; 3];
    let mut packed_out = None;
    let mut scalar_out = None;
    let mut naive_out = None;
    let mut reps = 0;
    while reps < MIN_REPS || spent.iter().any(|&s| s < min_leg_s) {
        let mut record = |leg: usize, started: Instant| {
            let secs = started.elapsed().as_secs_f64();
            best[leg] = best[leg].min(secs);
            spent[leg] += secs;
        };
        let started = Instant::now();
        packed_out = Some(packed());
        record(0, started);
        simd::set_override(Some(false));
        let started = Instant::now();
        scalar_out = Some(packed());
        record(1, started);
        simd::set_override(None);
        let started = Instant::now();
        naive_out = Some(naive());
        record(2, started);
        reps += 1;
    }
    let [packed_best, scalar_best, naive_best] = best;
    (
        packed_out.expect("at least one rep"),
        scalar_out.expect("at least one rep"),
        naive_out.expect("at least one rep"),
        packed_best,
        scalar_best,
        naive_best,
    )
}

/// One kernel's three-leg measurement, plus a digest of the production
/// output bits (the scalar and naive outputs are asserted bit-equal
/// before this is recorded).
struct KernelResult {
    kernel: &'static str,
    naive_s: f64,
    /// Packed path with the SIMD layer forced off.
    scalar_s: f64,
    /// Production path under the ambient `MG_SIMD` dispatch.
    packed_s: f64,
    /// Useful floating-point work the kernel performs (multiply-adds
    /// counted as two), independent of the path that executes it.
    flops: f64,
    digest: u64,
}

impl KernelResult {
    /// Production-path throughput in GFLOP/s.
    fn gflops(&self) -> f64 {
        self.flops / self.packed_s / 1e9
    }
}

struct ClassResult {
    class: &'static str,
    kernels: Vec<KernelResult>,
}

impl ClassResult {
    fn naive_s(&self) -> f64 {
        self.kernels.iter().map(|k| k.naive_s).sum()
    }
    fn scalar_s(&self) -> f64 {
        self.kernels.iter().map(|k| k.scalar_s).sum()
    }
    fn packed_s(&self) -> f64 {
        self.kernels.iter().map(|k| k.packed_s).sum()
    }
    fn speedup(&self) -> f64 {
        self.naive_s() / self.packed_s()
    }
    /// What the SIMD layer buys over the scalar packed path (≈1.0 when
    /// the dispatch resolved to scalar).
    fn simd_gain(&self) -> f64 {
        self.scalar_s() / self.packed_s()
    }
    fn gflops(&self) -> f64 {
        self.kernels.iter().map(|k| k.flops).sum::<f64>() / self.packed_s() / 1e9
    }
}

fn run_class(class: RequestClass, seq_len: usize, window: usize) -> ClassResult {
    let samples = class.samples(seq_len, 8, SEED);
    let sample = workload::representative(&samples);
    let pattern = presets::longformer(seq_len, window, &sample.special_tokens)
        .with_valid_len(sample.valid_len);
    let csr: Csr<Half> = pattern.to_csr();
    let blocked = pattern.to_blocked(BLOCK).expect("block-aligned seq len");
    let scale = 1.0 / (HEAD_DIM as f32).sqrt();

    let class_seed = SEED + class as u64 * 100;
    let q = Matrix::<Half>::random(seq_len, HEAD_DIM, class_seed + 1);
    let k = Matrix::<Half>::random(seq_len, HEAD_DIM, class_seed + 2);
    let v = Matrix::<Half>::random(seq_len, HEAD_DIM, class_seed + 3);

    let mut kernels = Vec::new();

    // Useful-work flop counts (multiply-add = 2 flops): the dense pair
    // does L·L dot products of length D; the sparse pairs only touch
    // stored entries; the fused path both scores and accumulates every
    // pattern entry (plus the online-softmax bookkeeping, which is O(1)
    // per entry and not counted).
    let l = seq_len as f64;
    let d = HEAD_DIM as f64;
    let dense_flops = 2.0 * l * l * d;
    let fine_flops = 2.0 * csr.values().len() as f64 * d;
    let coarse_flops = 2.0 * blocked.structure.values().len() as f64 * d;
    let fused_flops = 2.0 * fine_flops;

    // Dense pair: S = QKᵀ (gemm_nt), C = S·V (gemm).
    let (s_dense, s_dense_scalar, s_dense_naive, packed_s, scalar_s, naive_s) = time_triple(
        0.0,
        || -> Matrix<Half> { mg_tensor::gemm_nt(&q, &k) },
        || -> Matrix<Half> { naive::gemm_nt(&q, &k) },
    );
    assert_bits_eq(&s_dense, &s_dense_naive, "dense_gemm_nt vs naive");
    assert_bits_eq(&s_dense, &s_dense_scalar, "dense_gemm_nt vs scalar");
    kernels.push(KernelResult {
        kernel: "dense_gemm_nt",
        naive_s,
        scalar_s,
        packed_s,
        flops: dense_flops,
        digest: digest_matrix(&s_dense),
    });

    let (c_dense, c_dense_scalar, c_dense_naive, packed_s, scalar_s, naive_s) = time_triple(
        0.0,
        || -> Matrix<Half> { mg_tensor::gemm(&s_dense, &v) },
        || -> Matrix<Half> { naive::gemm(&s_dense, &v) },
    );
    assert_bits_eq(&c_dense, &c_dense_naive, "dense_gemm vs naive");
    assert_bits_eq(&c_dense, &c_dense_scalar, "dense_gemm vs scalar");
    kernels.push(KernelResult {
        kernel: "dense_gemm",
        naive_s,
        scalar_s,
        packed_s,
        flops: dense_flops,
        digest: digest_matrix(&c_dense),
    });

    // Fine (Sputnik-style) pair over the pattern's CSR rendering; the
    // compound softmax between them is shared code, not part of the
    // naive/packed delta, so it is not timed.
    let (s_fine, s_fine_scalar, s_fine_naive, packed_s, scalar_s, naive_s) = time_triple(
        FINE_GUARD_LEG_S,
        || fine_sddmm_compute(&q, &k, &csr),
        || fine::naive::fine_sddmm_compute(&q, &k, &csr),
    );
    assert_eq!(
        s_fine.values().len(),
        s_fine_naive.values().len(),
        "fine_sddmm nnz"
    );
    assert_values_bits_eq(
        s_fine.values(),
        s_fine_naive.values(),
        "fine_sddmm vs naive",
    );
    assert_values_bits_eq(
        s_fine.values(),
        s_fine_scalar.values(),
        "fine_sddmm vs scalar",
    );
    // The short-row regression guard: the packed path falls back to a
    // direct per-element pass below FINE_SDDMM_DIRECT_NNZ, so the
    // packed kernel must never lose to naive on any class — in either
    // dispatch mode. Its legs get interleaved reps until each has run
    // FINE_GUARD_LEG_S in total.
    for (leg, secs) in [("packed", packed_s), ("scalar", scalar_s)] {
        assert!(
            secs <= naive_s,
            "fine_sddmm regression on class {}: {leg} path {:.6}s slower than naive {:.6}s",
            class.label(),
            secs,
            naive_s,
        );
    }
    kernels.push(KernelResult {
        kernel: "fine_sddmm",
        naive_s,
        scalar_s,
        packed_s,
        flops: fine_flops,
        digest: digest_slice(s_fine.values()),
    });

    let (_, p_fine) = compound_softmax_compute(None, Some(&s_fine), scale);
    let p_fine = p_fine.expect("fine part present");
    let (c_fine, c_fine_scalar, c_fine_naive, packed_s, scalar_s, naive_s) = time_triple(
        0.0,
        || fine_spmm_compute(&p_fine, &v),
        || fine::naive::fine_spmm_compute(&p_fine, &v),
    );
    assert_bits_eq(&c_fine, &c_fine_naive, "fine_spmm vs naive");
    assert_bits_eq(&c_fine, &c_fine_scalar, "fine_spmm vs scalar");
    kernels.push(KernelResult {
        kernel: "fine_spmm",
        naive_s,
        scalar_s,
        packed_s,
        flops: fine_flops,
        digest: digest_matrix(&c_fine),
    });

    // Coarse (Triton-style) pair over the blocked rendering.
    let (s_coarse, s_coarse_scalar, s_coarse_naive, packed_s, scalar_s, naive_s) = time_triple(
        0.0,
        || coarse_sddmm_compute(&q, &k, &blocked.structure),
        || coarse::naive::coarse_sddmm_compute(&q, &k, &blocked.structure),
    );
    assert_values_bits_eq(
        s_coarse.values(),
        s_coarse_naive.values(),
        "coarse_sddmm vs naive",
    );
    assert_values_bits_eq(
        s_coarse.values(),
        s_coarse_scalar.values(),
        "coarse_sddmm vs scalar",
    );
    kernels.push(KernelResult {
        kernel: "coarse_sddmm",
        naive_s,
        scalar_s,
        packed_s,
        flops: coarse_flops,
        digest: digest_slice(s_coarse.values()),
    });

    let (p_coarse, _) = compound_softmax_compute(Some((&s_coarse, &blocked.mask)), None, scale);
    let p_coarse = p_coarse.expect("coarse part present");
    let (c_coarse, c_coarse_scalar, c_coarse_naive, packed_s, scalar_s, naive_s) = time_triple(
        0.0,
        || coarse_spmm_compute(&p_coarse, &v),
        || coarse::naive::coarse_spmm_compute(&p_coarse, &v),
    );
    assert_bits_eq(&c_coarse, &c_coarse_naive, "coarse_spmm vs naive");
    assert_bits_eq(&c_coarse, &c_coarse_scalar, "coarse_spmm vs scalar");
    kernels.push(KernelResult {
        kernel: "coarse_spmm",
        naive_s,
        scalar_s,
        packed_s,
        flops: coarse_flops,
        digest: digest_matrix(&c_coarse),
    });

    // Fused (FlashAttention-style) pair over the compound pattern: the
    // register-tiled single-pass kernel against the library's retained
    // scalar path.
    let (c_fused, c_fused_scalar, c_fused_naive, packed_s, scalar_s, naive_s) = time_triple(
        0.0,
        || fused_attention_compute(&q, &k, &v, &pattern, scale),
        || fused::naive::fused_attention_compute(&q, &k, &v, &pattern, scale),
    );
    assert_bits_eq(&c_fused, &c_fused_naive, "fused vs naive");
    assert_bits_eq(&c_fused, &c_fused_scalar, "fused vs scalar");
    kernels.push(KernelResult {
        kernel: "fused",
        naive_s,
        scalar_s,
        packed_s,
        flops: fused_flops,
        digest: digest_matrix(&c_fused),
    });

    ClassResult {
        class: class.label(),
        kernels,
    }
}

fn assert_bits_eq(production: &Matrix<Half>, reference: &Matrix<Half>, label: &str) {
    assert_eq!(production.rows(), reference.rows(), "{label}: row count");
    assert_values_bits_eq(production.as_slice(), reference.as_slice(), label);
}

fn assert_values_bits_eq(production: &[Half], reference: &[Half], label: &str) {
    for (i, (p, n)) in production.iter().zip(reference.iter()).enumerate() {
        assert_eq!(
            p.to_bits(),
            n.to_bits(),
            "{label}: paths diverge at element {i}"
        );
    }
}

fn json_report(results: &[ClassResult], smoke: bool, seq_len: usize) -> String {
    let classes = results
        .iter()
        .map(|class| {
            let kernels = class
                .kernels
                .iter()
                .map(|k| {
                    Json::obj([
                        ("kernel", k.kernel.into()),
                        ("naive_s", k.naive_s.into()),
                        ("scalar_s", k.scalar_s.into()),
                        ("packed_s", k.packed_s.into()),
                        ("speedup", (k.naive_s / k.packed_s).into()),
                        ("simd_gain", (k.scalar_s / k.packed_s).into()),
                        ("gflops", k.gflops().into()),
                    ])
                })
                .collect();
            Json::obj([
                ("class", class.class.into()),
                ("naive_s", class.naive_s().into()),
                ("scalar_s", class.scalar_s().into()),
                ("packed_s", class.packed_s().into()),
                ("speedup", class.speedup().into()),
                ("simd_gain", class.simd_gain().into()),
                ("gflops", class.gflops().into()),
                ("kernels", Json::Arr(kernels)),
            ])
        })
        .collect();
    Json::obj([
        ("bench", "perf_study".into()),
        ("smoke", smoke.into()),
        ("seq_len", seq_len.into()),
        ("simd_active", simd::active().into()),
        ("threads", threads::effective_threads().into()),
        ("classes", Json::Arr(classes)),
    ])
    .to_pretty()
}

fn digest_report(results: &[ClassResult]) -> String {
    // Bit-level checksums only — no timings — so runs at different
    // thread counts and either MG_SIMD setting must produce
    // byte-identical files (every leg is asserted bit-equal first).
    let mut out = String::new();
    for class in results {
        for k in &class.kernels {
            out.push_str(&format!("{} {} {:016x}\n", class.class, k.kernel, k.digest));
        }
    }
    out
}

fn main() -> ExitCode {
    run().unwrap_or_else(|e| {
        eprintln!("perf_study: {e}");
        ExitCode::from(2)
    })
}

fn run() -> Result<ExitCode, String> {
    let args = StudyArgs::parse(
        std::env::args().skip(1),
        &["--smoke", "--json", "--threads", "--digest"],
    )?;
    threads::init_threads(args.threads);

    // BLOCK-aligned so the coarse rendering exists; the window scales
    // with the length the way the Longformer-style presets do.
    let (seq_len, window) = if args.smoke { (256, 64) } else { (2048, 256) };

    let started = Instant::now();
    let results: Vec<ClassResult> = RequestClass::ALL
        .iter()
        .map(|&class| run_class(class, seq_len, window))
        .collect();
    let elapsed = started.elapsed();

    let mut t = Table::new(
        format!("Perf study — naive vs scalar vs SIMD, seq len {seq_len}, head dim {HEAD_DIM}"),
        &[
            "Class",
            "Naive ms",
            "Scalar ms",
            "Packed ms",
            "Speedup",
            "SIMD gain",
            "GFLOP/s",
            "Best kernel",
        ],
    );
    for class in &results {
        let best = class
            .kernels
            .iter()
            .max_by(|a, b| {
                (a.naive_s / a.packed_s)
                    .partial_cmp(&(b.naive_s / b.packed_s))
                    .expect("finite timings")
            })
            .expect("kernels measured");
        t.push(vec![
            class.class.to_string(),
            format!("{:.2}", class.naive_s() * 1e3),
            format!("{:.2}", class.scalar_s() * 1e3),
            format!("{:.2}", class.packed_s() * 1e3),
            format!("{:.2}x", class.speedup()),
            format!("{:.2}x", class.simd_gain()),
            format!("{:.2}", class.gflops()),
            format!("{} {:.2}x", best.kernel, best.naive_s / best.packed_s),
        ]);
    }
    print!("{}", t.render());
    println!(
        "{} classes in {:.3} s on {} thread(s), SIMD dispatch {}; all three paths bit-identical",
        results.len(),
        elapsed.as_secs_f64(),
        threads::effective_threads(),
        if simd::active() { "vector" } else { "scalar" },
    );

    if args.json {
        let path = "BENCH_10.json";
        cli::write(path, &json_report(&results, args.smoke, seq_len))?;
        println!("wrote {path}");
    }
    if let Some(path) = &args.digest {
        cli::write(path, &digest_report(&results))?;
        println!("wrote {path}");
    }
    Ok(ExitCode::SUCCESS)
}
