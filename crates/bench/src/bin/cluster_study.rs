//! Cluster study: tuned-affinity routing over a heterogeneous GPU fleet
//! versus load-only and homogeneous baselines, under injected worker
//! failures.
//!
//! The autotune crossover tables show that A100, RTX 3090, and H100 each
//! prefer different compound-sparse methods per workload — so a cluster
//! that *knows* the tuned per-device service times can route each
//! request to the pool that completes it soonest. For each of the four
//! dataset-style workload classes the study runs the same class-pure
//! trace through three clusters:
//!
//! * `tuned-affinity`    — heterogeneous fleet (A100 + RTX 3090 + H100),
//!   routing by backlog + tuned service time from a shared offline-tuned
//!   [`TuningDb`];
//! * `least-queue-depth` — the same fleet and tuning database, but
//!   routing by queue depth only (device speed invisible);
//! * `homogeneous`       — an all-A100 fleet of the same worker count,
//!   round-robin (the single-device baseline).
//!
//! Every run injects seeded worker failures; the study asserts zero
//! requests are lost (failed batches re-dispatch exactly once) and that
//! tuned-affinity beats both baselines on makespan or p99 for at least
//! one class. Two demo runs exercise SLO-pressure admission control
//! (nonzero shed rate, still zero lost) and queue-depth autoscaling.
//!
//! Usage: `cargo run --release -p mg-bench --bin cluster_study --
//!   [--smoke] [--json] [--trace PATH] [--digest PATH] [--threads N]`
//!
//! * `--smoke`       — tiny model and short traces; seconds, for CI.
//! * `--json`        — also write the results to `BENCH_6.json`. The
//!   file carries simulated numbers only (no wall clock, no thread
//!   count), so runs at any `MG_THREADS` must produce byte-identical
//!   files — the bit-equality gate CI enforces with `cmp`.
//! * `--trace PATH`  — write a Chrome-trace JSON of one representative
//!   tuned run, one process lane per pool worker.
//! * `--digest PATH` — write one line per run with the report's FNV-1a
//!   digest; byte-identical across thread counts.
//! * `--threads N`   — pin the parallel layer to N threads.

use mg_autotune::{tune, ExecPolicy, Strategy, TuneKey, TuningDb};
use mg_bench::cli::{self, StudyArgs};
use mg_bench::{threads, Table};
use mg_cluster::{
    AdmissionConfig, AutoscaleConfig, ClusterConfig, ClusterReport, ClusterSim, FailureConfig,
    PoolConfig, Routing,
};
use mg_gpusim::digest::Fnv1a;
use mg_gpusim::json::Json;
use mg_gpusim::DeviceSpec;
use mg_models::{ModelConfig, SparseTransformer};
use mg_serve::{canonicalize, BatchPolicy, RequestClass, TrafficConfig};
use multigrain::{AttentionProblem, Method};
use std::process::ExitCode;
use std::time::Instant;

/// Offline-tunes every canonical problem the four classes produce for
/// `model`, on every device in `devices` — the database the cluster
/// routes over. Deterministic: samples, canonicalization, and the
/// greedy search are all seeded.
fn warm_db(model: &ModelConfig, devices: &[DeviceSpec], samples_per_class: usize) -> TuningDb {
    let transformer = SparseTransformer::new(model.clone());
    let bucket = (model.max_seq_len / 8).max(1);
    let mut db = TuningDb::new();
    for class in RequestClass::ALL {
        for sample in class.samples(model.max_seq_len, samples_per_class, 7) {
            let canon = canonicalize(&sample, model.max_seq_len, bucket);
            let problem = AttentionProblem::new(
                transformer.pattern_for(&canon),
                model.head_dim,
                1,
                model.heads,
                model.block_size,
            );
            for device in devices {
                let key = TuneKey::for_problem(&problem, bucket, device);
                if db.get(&key).is_some() {
                    continue;
                }
                let entry = tune(
                    device,
                    &problem,
                    Strategy::Greedy {
                        budget: mg_autotune::GREEDY_BUDGET,
                    },
                    None,
                    Some(ExecPolicy::RoleStreams),
                );
                db.insert(key, entry);
            }
        }
    }
    db
}

/// One run's condensed numbers for the table, the JSON report, and the
/// digest file.
struct RunResult {
    class: &'static str,
    mode: &'static str,
    report: ClusterReport,
}

fn class_traffic(class_idx: usize, rate: f64, n: usize, slo_s: f64) -> TrafficConfig {
    let mut mix = [0.0; 4];
    mix[class_idx] = 1.0;
    let mut traffic = TrafficConfig::poisson(rate, n, Method::Multigrain, slo_s, 42);
    traffic.class_mix = mix;
    traffic
}

fn hetero_pools(workers: usize) -> Vec<PoolConfig> {
    vec![
        PoolConfig::new(DeviceSpec::a100(), workers),
        PoolConfig::new(DeviceSpec::rtx3090(), workers),
        PoolConfig::new(DeviceSpec::h100(), workers),
    ]
}

fn json_report(
    smoke: bool,
    model: &ModelConfig,
    runs: &[RunResult],
    admission: &ClusterReport,
    autoscale: &ClusterReport,
    overall_digest: u64,
) -> String {
    let hex = |d: u64| Json::from(format!("{d:#018x}"));
    let runs = runs
        .iter()
        .map(|run| {
            let r = &run.report;
            let pools = r
                .pools
                .iter()
                .enumerate()
                .map(|(p, pool)| {
                    Json::obj([
                        ("device", pool.device.into()),
                        ("completed", pool.completed.into()),
                        ("busy_fraction", r.pool_busy_fraction(p).into()),
                    ])
                })
                .collect();
            Json::obj([
                ("class", run.class.into()),
                ("mode", run.mode.into()),
                ("completed", r.completed().into()),
                ("shed_rate", r.shed_rate().into()),
                ("lost", r.lost.len().into()),
                ("p50_s", r.p50().into()),
                ("p99_s", r.p99().into()),
                ("makespan_s", r.makespan_s.into()),
                ("failures", r.failures.into()),
                ("redispatched", r.redispatched.into()),
                ("digest", hex(r.digest())),
                ("pools", Json::Arr(pools)),
            ])
        })
        .collect();
    Json::obj([
        ("bench", "cluster_study".into()),
        ("smoke", smoke.into()),
        ("model", model.name.into()),
        ("runs", Json::Arr(runs)),
        (
            "admission_demo",
            Json::obj([
                ("completed", admission.completed().into()),
                ("shed_rate", admission.shed_rate().into()),
                ("lost", admission.lost.len().into()),
                ("digest", hex(admission.digest())),
            ]),
        ),
        (
            "autoscale_demo",
            Json::obj([
                ("completed", autoscale.completed().into()),
                ("scale_ups", autoscale.scale_ups.into()),
                ("scale_downs", autoscale.scale_downs.into()),
                ("final_workers", autoscale.pools[0].workers.into()),
                ("digest", hex(autoscale.digest())),
            ]),
        ),
        ("digest", hex(overall_digest)),
    ])
    .to_pretty()
}

fn main() -> ExitCode {
    run().unwrap_or_else(|e| {
        eprintln!("cluster_study: {e}");
        ExitCode::from(2)
    })
}

fn run() -> Result<ExitCode, String> {
    let args = StudyArgs::parse(
        std::env::args().skip(1),
        &["--smoke", "--json", "--trace", "--digest", "--threads"],
    )?;
    threads::init_threads(args.threads);

    // Rates sit past the fleet's aggregate capacity so routing quality
    // shows up in makespan and tail latency, not just queue noise. The
    // failure MTBF is a fraction of the expected makespan: most runs see
    // at least one worker die mid-trace. The batch timeout scales with
    // the arrival rate (a few batch-widths) so partial batches at the
    // tail drain promptly instead of dominating p99.
    let (model, n, rate, slo_s, mtbf_s, warm_samples, workers) = if args.smoke {
        (ModelConfig::tiny(), 60, 2_000_000.0, 0.0005, 0.0002, 8, 1)
    } else {
        (ModelConfig::qds_base(), 96, 50_000.0, 0.020, 0.008, 16, 1)
    };
    let batch_timeout_s = 16.0 / rate;

    let started = Instant::now();
    let devices = [
        DeviceSpec::a100(),
        DeviceSpec::rtx3090(),
        DeviceSpec::h100(),
    ];
    let db = warm_db(&model, &devices, warm_samples);
    println!(
        "cluster_study — {}, {} requests/class, tuning database: {} entries",
        model.name,
        n,
        db.len()
    );

    let failure = FailureConfig { mtbf_s, seed: 1234 };
    let modes: [(&str, Vec<PoolConfig>, Routing); 3] = [
        (
            "tuned-affinity",
            hetero_pools(workers),
            Routing::TunedAffinity,
        ),
        (
            "least-queue-depth",
            hetero_pools(workers),
            Routing::LeastQueueDepth,
        ),
        (
            "homogeneous",
            vec![PoolConfig::new(DeviceSpec::a100(), 3 * workers)],
            Routing::RoundRobin,
        ),
    ];

    let base = |pools: Vec<PoolConfig>| {
        let mut config = ClusterConfig::new(model.clone(), pools).with_tuning_db(db.clone());
        config.batch_policy = BatchPolicy::FifoTimeout {
            max_batch: 4,
            max_wait_s: batch_timeout_s,
        };
        config
    };

    let mut runs: Vec<RunResult> = Vec::new();
    let mut trace_json: Option<String> = None;
    let mut failures_total = 0usize;
    let mut check_failures = 0usize;
    for (class_idx, class) in RequestClass::ALL.iter().enumerate() {
        let traffic = class_traffic(class_idx, rate, n, slo_s);
        for (mode, pools, routing) in &modes {
            let config = base(pools.clone())
                .with_routing(*routing)
                .with_failures(failure);
            let mut sim = ClusterSim::new(config);
            let report = sim.run(&traffic).expect("patterns are plannable");
            if !report.lost.is_empty() {
                eprintln!(
                    "FAIL: {} requests lost under {mode} on {}: {:?}",
                    report.lost.len(),
                    class.label(),
                    report.lost
                );
                check_failures += 1;
            }
            failures_total += report.failures;
            if *mode == "tuned-affinity" && class_idx == 0 && args.trace.is_some() {
                trace_json = sim.chrome_trace().map(str::to_owned);
            }
            runs.push(RunResult {
                class: class.label(),
                mode,
                report,
            });
        }
    }

    let mut t = Table::new(
        format!("Cluster study — heterogeneous fleet, {}", model.name),
        &[
            "Class",
            "Mode",
            "Done",
            "p50 ms",
            "p99 ms",
            "Makespan ms",
            "Fail",
            "Redisp",
            "Pool busy %",
        ],
    );
    for run in &runs {
        let r = &run.report;
        let busy: Vec<String> = (0..r.pools.len())
            .map(|p| format!("{:.0}", r.pool_busy_fraction(p) * 100.0))
            .collect();
        t.push(vec![
            run.class.to_string(),
            run.mode.to_string(),
            r.completed().to_string(),
            format!("{:.3}", r.p50() * 1e3),
            format!("{:.3}", r.p99() * 1e3),
            format!("{:.3}", r.makespan_s * 1e3),
            r.failures.to_string(),
            r.redispatched.to_string(),
            busy.join("/"),
        ]);
    }
    print!("{}", t.render());

    // The headline claim: tuned-affinity routing beats BOTH baselines on
    // makespan or p99 for at least one workload class.
    let mut wins = Vec::new();
    for class in RequestClass::ALL {
        let find = |mode: &str| {
            runs.iter()
                .find(|r| r.class == class.label() && r.mode == mode)
                .map(|r| &r.report)
                .expect("every (class, mode) ran")
        };
        let tuned = find("tuned-affinity");
        let lqd = find("least-queue-depth");
        let homog = find("homogeneous");
        let makespan_win = tuned.makespan_s < lqd.makespan_s && tuned.makespan_s < homog.makespan_s;
        let p99_win = tuned.p99() < lqd.p99() && tuned.p99() < homog.p99();
        if makespan_win || p99_win {
            wins.push(format!(
                "  {}: makespan {:.3}/{:.3}/{:.3} ms, p99 {:.3}/{:.3}/{:.3} ms (tuned/lqd/homog)",
                class.label(),
                tuned.makespan_s * 1e3,
                lqd.makespan_s * 1e3,
                homog.makespan_s * 1e3,
                tuned.p99() * 1e3,
                lqd.p99() * 1e3,
                homog.p99() * 1e3,
            ));
        }
    }
    println!(
        "\ntuned-affinity beats both baselines on {} of {} classes:",
        wins.len(),
        RequestClass::ALL.len()
    );
    for line in &wins {
        println!("{line}");
    }
    if wins.is_empty() {
        eprintln!("FAIL: tuned-affinity routing never beats both baselines");
        check_failures += 1;
    }
    if failures_total == 0 {
        eprintln!("FAIL: the failure injector never fired; zero-loss was not exercised");
        check_failures += 1;
    }

    // Admission-control demo: a tight SLO with pressure shedding refuses
    // the overload instead of queueing it — and shedding is refusal,
    // never loss.
    let admission_report = {
        let config = base(hetero_pools(workers)).with_admission(AdmissionConfig {
            queue_capacity: 12 * workers,
            shed_pressure: 2.0,
        });
        ClusterSim::new(config)
            .run(&class_traffic(0, rate, n, slo_s / 100.0))
            .expect("patterns are plannable")
    };
    println!(
        "\nadmission demo: {} completed, {:.0}% shed, {} lost",
        admission_report.completed(),
        admission_report.shed_rate() * 100.0,
        admission_report.lost.len()
    );
    if admission_report.completed() + admission_report.shed.len() != n
        || !admission_report.lost.is_empty()
    {
        eprintln!("FAIL: admission accounting does not add up");
        check_failures += 1;
    }

    // Autoscale demo: a single-worker H100 pool with headroom grows
    // under the same overload, then parks back down as the queue drains.
    let autoscale_report = {
        let config = base(vec![
            PoolConfig::new(DeviceSpec::h100(), 1).with_scaling(1, 4)
        ])
        .with_autoscale(AutoscaleConfig {
            high_watermark_s: 1e-6,
            low_watermark_s: 1e-9,
            warmup_s: 1e-5,
            cooldown_s: 0.0,
        });
        ClusterSim::new(config)
            .run(&class_traffic(0, rate, n, slo_s))
            .expect("patterns are plannable")
    };
    println!(
        "autoscale demo: {} completed, {} scale-ups, {} scale-downs, {} workers at end",
        autoscale_report.completed(),
        autoscale_report.scale_ups,
        autoscale_report.scale_downs,
        autoscale_report.pools[0].workers
    );
    if autoscale_report.scale_ups == 0 || !autoscale_report.lost.is_empty() {
        eprintln!("FAIL: the autoscaler never scaled up under overload");
        check_failures += 1;
    }

    // One digest over every run, for the thread-invariance gate.
    let overall_digest = {
        let mut h = Fnv1a::new();
        for d in runs
            .iter()
            .map(|r| r.report.digest())
            .chain([admission_report.digest(), autoscale_report.digest()])
        {
            h.write_u64(d);
        }
        h.finish()
    };
    println!(
        "\n{} runs in {:.3} s on {} thread(s); study digest {overall_digest:#018x}",
        runs.len() + 2,
        started.elapsed().as_secs_f64(),
        threads::effective_threads(),
    );

    if args.json {
        let path = "BENCH_6.json";
        cli::write(
            path,
            &json_report(
                args.smoke,
                &model,
                &runs,
                &admission_report,
                &autoscale_report,
                overall_digest,
            ),
        )?;
        println!("wrote {path}");
    }
    if let Some(path) = &args.digest {
        let mut out = String::new();
        for run in &runs {
            out.push_str(&format!(
                "{} {} {:016x}\n",
                run.class,
                run.mode,
                run.report.digest()
            ));
        }
        out.push_str(&format!("admission {:016x}\n", admission_report.digest()));
        out.push_str(&format!("autoscale {:016x}\n", autoscale_report.digest()));
        out.push_str(&format!("study {overall_digest:016x}\n"));
        cli::write(path, &out)?;
        println!("wrote {path}");
    }
    if let Some(path) = &args.trace {
        let json = trace_json.expect("representative tuned run recorded");
        cli::write(path, &json)?;
        println!("chrome trace written to {path}");
    }
    if check_failures > 0 {
        eprintln!("cluster_study: {check_failures} check(s) failed");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}
