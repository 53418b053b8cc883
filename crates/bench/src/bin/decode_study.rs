//! Decode study: autoregressive chat serving with growing KV caches and
//! incremental sparse patterns, against two baselines without them.
//!
//! Chat-style multi-turn sessions (seeded think times, prefix reuse
//! across turns) from each of the four dataset-style workload classes
//! run through three serving disciplines on the same virtual device:
//!
//! * `prefill-only` — no decode layer: every response token re-runs a
//!   full prefill over the grown context (the strawman the decode
//!   subsystem replaces);
//! * `segregated`   — KV caches and incremental decode steps exist, but
//!   scheduling is plain FIFO, so latency-critical decode steps queue
//!   behind long prefills;
//! * `mixed`        — continuous batching with decode priority: every
//!   ready decode step batches into one kernel launch and preempts
//!   queued prefills.
//!
//! The study asserts that mixed batching wins decode p99 against
//! segregated for **every** class without losing prefill makespan, and
//! that the prefix-aware plan cache serves decode steps at a ≥ 90% hit
//! rate (≥ 75% at smoke scale, where length buckets are only a few
//! tokens wide).
//!
//! Usage: `cargo run --release -p mg-bench --bin decode_study --
//!   [--smoke] [--json] [--digest PATH] [--threads N]`
//!
//! * `--smoke`       — tiny model and short sessions; seconds, for CI.
//! * `--json`        — also write the results to `BENCH_8.json`. The
//!   file carries simulated numbers only (no wall clock, no thread
//!   count), so runs at any `MG_THREADS` must produce byte-identical
//!   files — the bit-equality gate CI enforces with `cmp`.
//! * `--digest PATH` — one line per run with the report's FNV-1a
//!   digest; byte-identical across thread counts.
//! * `--threads N`   — pin the parallel layer to N threads.

use mg_bench::cli::{self, StudyArgs};
use mg_bench::{threads, Table};
use mg_decode::{BatchingMode, DecodeConfig, DecodeReport, DecodeSim, DecodeTraffic};
use mg_gpusim::digest::Fnv1a;
use mg_gpusim::json::Json;
use mg_gpusim::DeviceSpec;
use mg_models::ModelConfig;
use mg_serve::RequestClass;
use std::process::ExitCode;
use std::time::Instant;

struct RunResult {
    class: &'static str,
    report: DecodeReport,
}

fn json_report(smoke: bool, model: &ModelConfig, runs: &[RunResult], overall: u64) -> String {
    let runs = runs
        .iter()
        .map(|run| {
            let r = &run.report;
            Json::obj([
                ("class", run.class.into()),
                ("mode", r.mode.label().into()),
                ("sessions", r.sessions.into()),
                ("turns", r.turns.into()),
                ("decode_steps", r.decode_steps.into()),
                ("decode_p50_s", r.decode_p50().into()),
                ("decode_p99_s", r.decode_p99().into()),
                ("prefill_p99_s", r.prefill_p99().into()),
                ("prefill_makespan_s", r.prefill_makespan_s.into()),
                ("makespan_s", r.makespan_s.into()),
                ("mean_decode_batch", r.mean_decode_batch().into()),
                ("decode_hit_rate", r.cache.decode_hit_rate().into()),
                ("prefill_hit_rate", r.cache.prefill_hit_rate().into()),
                ("kv_growth_events", r.kv.growth_events.into()),
                ("kv_bytes_copied", r.kv.bytes_copied.into()),
                ("digest", format!("{:#018x}", r.digest()).into()),
            ])
        })
        .collect();
    Json::obj([
        ("bench", "decode_study".into()),
        ("smoke", smoke.into()),
        ("model", model.name.into()),
        ("runs", Json::Arr(runs)),
        ("digest", format!("{overall:#018x}").into()),
    ])
    .to_pretty()
}

fn main() -> ExitCode {
    run().unwrap_or_else(|e| {
        eprintln!("decode_study: {e}");
        ExitCode::from(2)
    })
}

fn run() -> Result<ExitCode, String> {
    let args = StudyArgs::parse(
        std::env::args().skip(1),
        &["--smoke", "--json", "--digest", "--threads"],
    )?;
    threads::init_threads(args.threads);

    // Session arrivals sit well inside one another's service times so
    // several sessions decode while later ones still prefill — that
    // contention is exactly what separates the disciplines. Think times
    // are a few service times long: turns interleave instead of
    // serializing.
    let (model, sessions, max_turns, rate_rps, mean_think_s, hit_bar) = if args.smoke {
        (ModelConfig::tiny(), 8, 3, 10_000.0, 4e-4, 0.75)
    } else {
        (ModelConfig::qds_base(), 12, 3, 2_000.0, 2e-3, 0.90)
    };
    let device = DeviceSpec::a100();
    let modes = [
        BatchingMode::PrefillOnly,
        BatchingMode::Segregated,
        BatchingMode::Mixed,
    ];

    let started = Instant::now();
    println!(
        "decode_study — {}, {} sessions/class, ≤{} turns",
        model.name, sessions, max_turns
    );

    let mut runs: Vec<RunResult> = Vec::new();
    let mut check_failures = 0usize;
    for class in RequestClass::ALL {
        let traffic = DecodeTraffic {
            class,
            sessions,
            max_turns,
            rate_rps,
            mean_think_s,
            seed: 42,
        };
        for mode in modes {
            let config = DecodeConfig::new(model.clone(), device.clone(), mode);
            let report = DecodeSim::new(config)
                .run(&traffic)
                .expect("patterns are plannable");
            runs.push(RunResult {
                class: class.label(),
                report,
            });
        }
    }

    let mut t = Table::new(
        format!("Decode study — chat sessions, {}", model.name),
        &[
            "Class",
            "Mode",
            "Tokens",
            "dec p50 ms",
            "dec p99 ms",
            "pre p99 ms",
            "pre mksp ms",
            "Batch",
            "dec hit %",
            "KV grow",
        ],
    );
    for run in &runs {
        let r = &run.report;
        t.push(vec![
            run.class.to_string(),
            r.mode.label().to_string(),
            r.decode_steps.to_string(),
            format!("{:.4}", r.decode_p50() * 1e3),
            format!("{:.4}", r.decode_p99() * 1e3),
            format!("{:.4}", r.prefill_p99() * 1e3),
            format!("{:.4}", r.prefill_makespan_s * 1e3),
            format!("{:.2}", r.mean_decode_batch()),
            format!("{:.1}", r.cache.decode_hit_rate() * 100.0),
            r.kv.growth_events.to_string(),
        ]);
    }
    print!("{}", t.render());

    // The headline claims, per class: mixed batching wins the decode
    // tail against FIFO without regressing the prefill makespan, and
    // both incremental modes demolish the re-prefill strawman.
    println!();
    for class in RequestClass::ALL {
        let find = |mode: BatchingMode| {
            runs.iter()
                .find(|r| r.class == class.label() && r.report.mode == mode)
                .map(|r| &r.report)
                .expect("every (class, mode) ran")
        };
        let strawman = find(BatchingMode::PrefillOnly);
        let seg = find(BatchingMode::Segregated);
        let mixed = find(BatchingMode::Mixed);
        println!(
            "  {}: decode p99 {:.4}/{:.4}/{:.4} ms (strawman/segregated/mixed), \
             prefill makespan {:.4}/{:.4} ms (segregated/mixed)",
            class.label(),
            strawman.decode_p99() * 1e3,
            seg.decode_p99() * 1e3,
            mixed.decode_p99() * 1e3,
            seg.prefill_makespan_s * 1e3,
            mixed.prefill_makespan_s * 1e3,
        );
        if mixed.decode_p99() >= seg.decode_p99() {
            eprintln!(
                "FAIL: mixed decode p99 does not beat segregated on {}",
                class.label()
            );
            check_failures += 1;
        }
        // Decode priority delays prefills by at most the decode work it
        // slots in front of them — a few percent, never a regression
        // beyond that.
        if mixed.prefill_makespan_s > seg.prefill_makespan_s * 1.05 {
            eprintln!(
                "FAIL: mixed batching regressed prefill makespan on {} ({:.4} vs {:.4} ms)",
                class.label(),
                mixed.prefill_makespan_s * 1e3,
                seg.prefill_makespan_s * 1e3,
            );
            check_failures += 1;
        }
        if strawman.decode_p50() <= mixed.decode_p50() {
            eprintln!(
                "FAIL: the re-prefill strawman is not slower than incremental decode on {}",
                class.label()
            );
            check_failures += 1;
        }
        for r in [seg, mixed] {
            if r.cache.decode_hit_rate() < hit_bar {
                eprintln!(
                    "FAIL: {} decode hit rate {:.1}% under {:.0}% on {}",
                    r.mode.label(),
                    r.cache.decode_hit_rate() * 100.0,
                    hit_bar * 100.0,
                    class.label()
                );
                check_failures += 1;
            }
        }
    }

    // One digest over every run, for the thread-invariance gate.
    let overall_digest = {
        let mut h = Fnv1a::new();
        for run in &runs {
            h.write_u64(run.report.digest());
        }
        h.finish()
    };
    println!(
        "\n{} runs in {:.3} s on {} thread(s); study digest {overall_digest:#018x}",
        runs.len(),
        started.elapsed().as_secs_f64(),
        threads::effective_threads(),
    );

    if args.json {
        let path = "BENCH_8.json";
        cli::write(
            path,
            &json_report(args.smoke, &model, &runs, overall_digest),
        )?;
        println!("wrote {path}");
    }
    if let Some(path) = &args.digest {
        let mut out = String::new();
        for run in &runs {
            out.push_str(&format!(
                "{} {} {:016x}\n",
                run.class,
                run.report.mode.label(),
                run.report.digest()
            ));
        }
        out.push_str(&format!("study {overall_digest:016x}\n"));
        cli::write(path, &out)?;
        println!("wrote {path}");
    }
    if check_failures > 0 {
        eprintln!("decode_study: {check_failures} check(s) failed");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}
