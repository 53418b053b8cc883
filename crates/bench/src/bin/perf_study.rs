//! Perf study: naive vs scalar-packed vs SIMD-packed kernel paths over
//! the four workload classes.
//!
//! Every compute kernel in the workspace routes its operands through the
//! packed-panel microkernel layer (`mg_tensor::pack`), and underneath
//! the NR=8 microkernels sits the explicit SIMD layer
//! (`mg_tensor::simd`: AVX2, plus an AVX-512 row-group kernel),
//! runtime-dispatched and bit-identical to scalar. This study times these
//! legs per kernel:
//!
//! * **naive** — the library's retained pre-packing references
//!   (`naive`, `fine::naive`, `coarse::naive`, `fused::naive`), which
//!   decode per element inside the loops;
//! * **scalar** — the packed production kernels forced to the scalar
//!   level (`simd::set_override(Some(Level::Scalar))`);
//! * **packed** — the production kernels under the ambient `MG_SIMD`
//!   dispatch (the best level the CPU has, unless the env says no);
//! * **avx2** — only when the ambient level is AVX-512, and only for the
//!   kernels that run the row-group microkernel (the dense and coarse
//!   pairs): the production kernels forced to AVX2. A second table
//!   reports these kernels per level.
//!
//! All legs are asserted bit-identical on every output, the speedups and
//! the scalar→SIMD gain are recorded, and the digest file hashes the
//! production output — so digest files written under `MG_SIMD=0` and
//! `MG_SIMD=1` must be byte-identical, which CI checks with `cmp`. The
//! fused row compares the register-tiled single-pass kernel against the
//! library's retained `fused::naive` scalar path.
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
use mg_sparse::{Bsr, Csr};
use mg_tensor::simd::{self, Level};
use mg_tensor::{naive, Half, Matrix};
use std::process::ExitCode;
use std::time::Instant;

// ---------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------

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

/// One kernel's timed legs: each leg's last output and its best wall
/// clock.
struct Legs<P> {
    /// The production kernel under the ambient (`MG_SIMD`-driven) level.
    packed: P,
    /// The same kernel at [`Level::Scalar`].
    scalar: P,
    /// Whether the kernel runs the row-group microkernel, whose speed
    /// differs between the vector levels.
    per_level: bool,
    /// The same kernel at [`Level::Avx2`], when `per_level` and the
    /// ambient level is AVX-512.
    avx2: Option<P>,
    /// The naive reference.
    naive: P,
    packed_s: f64,
    scalar_s: f64,
    avx2_s: Option<f64>,
    naive_s: f64,
}

/// Interleaved best-of-N timing over the legs: the production
/// (ambient-level) kernel, the same kernel forced to the scalar level,
/// with `per_level` and an AVX-512 ambient level the same kernel forced
/// to AVX2, and the naive reference, run alternately, each keeping its
/// minimum wall clock. Interleaving the reps means a scheduler hiccup or
/// frequency drift on a shared box hits every side of the comparison
/// instead of poisoning one of them, and best-of-N discards the reps it
/// still lands on. N is at least five, and reps continue until every leg
/// has run for `min_leg_s` in total, so sub-millisecond legs still get
/// enough reps for a stable minimum. The dispatch override is restored
/// to the ambient level before returning.
fn time_legs<P>(
    min_leg_s: f64,
    per_level: bool,
    mut packed: impl FnMut() -> P,
    mut naive: impl FnMut() -> P,
) -> Legs<P> {
    const MIN_REPS: usize = 5;
    let avx2_leg = per_level && simd::level() == Level::Avx512;
    let legs = if avx2_leg { 4 } else { 3 };
    let mut best = [f64::MAX; 4];
    let mut spent = [0.0f64; 4];
    let (mut packed_out, mut scalar_out, mut avx2_out, mut naive_out) = (None, None, None, None);
    let mut reps = 0;
    while reps < MIN_REPS || spent[..legs].iter().any(|&s| s < min_leg_s) {
        let mut record = |leg: usize, started: Instant| {
            let secs = started.elapsed().as_secs_f64();
            best[leg] = best[leg].min(secs);
            spent[leg] += secs;
        };
        let started = Instant::now();
        packed_out = Some(packed());
        record(0, started);
        simd::set_override(Some(Level::Scalar));
        let started = Instant::now();
        scalar_out = Some(packed());
        record(1, started);
        if avx2_leg {
            simd::set_override(Some(Level::Avx2));
            let started = Instant::now();
            avx2_out = Some(packed());
            record(3, started);
        }
        simd::set_override(None);
        let started = Instant::now();
        naive_out = Some(naive());
        record(2, started);
        reps += 1;
    }
    Legs {
        packed: packed_out.expect("at least one rep"),
        scalar: scalar_out.expect("at least one rep"),
        per_level,
        avx2: avx2_out,
        naive: naive_out.expect("at least one rep"),
        packed_s: best[0],
        scalar_s: best[1],
        avx2_s: avx2_leg.then_some(best[3]),
        naive_s: best[2],
    }
}

impl<P> Legs<P> {
    /// Asserts that every leg produced the production output's bits,
    /// then records the timings and the output digest.
    fn verify(
        &self,
        kernel: &'static str,
        flops: f64,
        values: impl Fn(&P) -> &[Half],
    ) -> KernelResult {
        let want = values(&self.packed);
        assert_values_bits_eq(want, values(&self.naive), &format!("{kernel} vs naive"));
        assert_values_bits_eq(want, values(&self.scalar), &format!("{kernel} vs scalar"));
        if let Some(avx2) = &self.avx2 {
            assert_values_bits_eq(want, values(avx2), &format!("{kernel} vs avx2"));
        }
        KernelResult {
            kernel,
            naive_s: self.naive_s,
            scalar_s: self.scalar_s,
            per_level: self.per_level,
            avx2_s: self.avx2_s,
            packed_s: self.packed_s,
            flops,
            digest: digest_slice(want),
        }
    }
}

/// One kernel's leg measurements, plus a digest of the production
/// output bits (the other legs' outputs are asserted bit-equal before
/// this is recorded).
struct KernelResult {
    kernel: &'static str,
    naive_s: f64,
    /// Packed path with the SIMD layer forced off.
    scalar_s: f64,
    /// Whether the kernel runs the row-group microkernel.
    per_level: bool,
    /// Packed path forced to AVX2, when `per_level` and the ambient
    /// level is AVX-512.
    avx2_s: Option<f64>,
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

    // Dense pair: S = QKᵀ (gemm_nt), C = S·V (gemm). These and the
    // coarse pair run the row-group microkernel, so they get the
    // per-level AVX2 leg.
    let legs = time_legs(
        0.0,
        true,
        || -> Matrix<Half> { mg_tensor::gemm_nt(&q, &k) },
        || naive::gemm_nt(&q, &k),
    );
    kernels.push(legs.verify("dense_gemm_nt", dense_flops, Matrix::as_slice));
    let s_dense = legs.packed;

    let legs = time_legs(
        0.0,
        true,
        || -> Matrix<Half> { mg_tensor::gemm(&s_dense, &v) },
        || naive::gemm(&s_dense, &v),
    );
    kernels.push(legs.verify("dense_gemm", dense_flops, Matrix::as_slice));

    // Fine (Sputnik-style) pair over the pattern's CSR rendering; the
    // compound softmax between them is shared code, not part of the
    // naive/packed delta, so it is not timed.
    let legs = time_legs(
        FINE_GUARD_LEG_S,
        false,
        || fine_sddmm_compute(&q, &k, &csr),
        || fine::naive::fine_sddmm_compute(&q, &k, &csr),
    );
    kernels.push(legs.verify("fine_sddmm", fine_flops, Csr::values));
    // The short-row regression guard: the packed path falls back to a
    // direct per-element pass below FINE_SDDMM_DIRECT_NNZ, so the
    // packed kernel must never lose to naive on any class — in either
    // dispatch mode. Its legs get interleaved reps until each has run
    // FINE_GUARD_LEG_S in total.
    for (leg, secs) in [("packed", legs.packed_s), ("scalar", legs.scalar_s)] {
        assert!(
            secs <= legs.naive_s,
            "fine_sddmm regression on class {}: {leg} path {:.6}s slower than naive {:.6}s",
            class.label(),
            secs,
            legs.naive_s,
        );
    }
    let s_fine = legs.packed;

    let (_, p_fine) = compound_softmax_compute(None, Some(&s_fine), scale);
    let p_fine = p_fine.expect("fine part present");
    let legs = time_legs(
        0.0,
        false,
        || fine_spmm_compute(&p_fine, &v),
        || fine::naive::fine_spmm_compute(&p_fine, &v),
    );
    kernels.push(legs.verify("fine_spmm", fine_flops, Matrix::as_slice));

    // Coarse (Triton-style) pair over the blocked rendering.
    let legs = time_legs(
        0.0,
        true,
        || coarse_sddmm_compute(&q, &k, &blocked.structure),
        || coarse::naive::coarse_sddmm_compute(&q, &k, &blocked.structure),
    );
    kernels.push(legs.verify("coarse_sddmm", coarse_flops, Bsr::values));
    let s_coarse = legs.packed;

    let (p_coarse, _) = compound_softmax_compute(Some((&s_coarse, &blocked.mask)), None, scale);
    let p_coarse = p_coarse.expect("coarse part present");
    let legs = time_legs(
        0.0,
        true,
        || coarse_spmm_compute(&p_coarse, &v),
        || coarse::naive::coarse_spmm_compute(&p_coarse, &v),
    );
    kernels.push(legs.verify("coarse_spmm", coarse_flops, Matrix::as_slice));

    // Fused (FlashAttention-style) pair over the compound pattern: the
    // register-tiled single-pass kernel against the library's retained
    // scalar path.
    let legs = time_legs(
        0.0,
        false,
        || fused_attention_compute(&q, &k, &v, &pattern, scale),
        || fused::naive::fused_attention_compute(&q, &k, &v, &pattern, scale),
    );
    kernels.push(legs.verify("fused", fused_flops, Matrix::as_slice));

    ClassResult {
        class: class.label(),
        kernels,
    }
}

fn assert_values_bits_eq(production: &[Half], reference: &[Half], label: &str) {
    assert_eq!(production.len(), reference.len(), "{label}: output length");
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
                        ("avx2_s", k.avx2_s.map_or(Json::Null, Json::from)),
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
        ("simd_level", simd::level().name().into()),
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

/// The row-group kernels' best times at each SIMD level this run timed:
/// the scalar leg, the ambient level's production leg, and the AVX2 leg
/// an AVX-512 ambient level adds. A level not timed prints `-`.
fn per_level_table(results: &[ClassResult]) -> Table {
    let ambient = simd::level();
    let mut t = Table::new(
        format!(
            "Row-group kernels per SIMD level (ambient {})",
            ambient.name()
        ),
        &[
            "Class",
            "Kernel",
            "Scalar ms",
            "AVX2 ms",
            "AVX-512 ms",
            "AVX-512 gain",
        ],
    );
    let ms = |secs: Option<f64>| secs.map_or("-".to_owned(), |s| format!("{:.3}", s * 1e3));
    for class in results {
        for k in class.kernels.iter().filter(|k| k.per_level) {
            let avx2 = match ambient {
                Level::Avx2 => Some(k.packed_s),
                _ => k.avx2_s,
            };
            let avx512 = (ambient == Level::Avx512).then_some(k.packed_s);
            let gain = avx2
                .zip(avx512)
                .map_or("-".to_owned(), |(a, b)| format!("{:.2}x", a / b));
            t.push(vec![
                class.class.to_string(),
                k.kernel.to_string(),
                ms(Some(k.scalar_s)),
                ms(avx2),
                ms(avx512),
                gain,
            ]);
        }
    }
    t
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
    print!("{}", per_level_table(&results).render());
    println!(
        "{} classes in {:.3} s on {} thread(s), SIMD level {}; all paths bit-identical",
        results.len(),
        elapsed.as_secs_f64(),
        threads::effective_threads(),
        simd::level().name(),
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
