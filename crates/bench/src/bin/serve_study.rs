//! Online-serving study: latency–throughput curves for compound sparse
//! attention under continuous batching, swept over arrival rate ×
//! batching policy × device, plus the serial-vs-multi-stream sustainable
//! throughput comparison at a fixed p99 SLO.
//!
//! Usage: `cargo run --release -p mg-bench --bin serve_study -- [--smoke] [--trace <path>] [--digest <path>] [--threads N]`
//!
//! * `--smoke`  — tiny model and short trace; seconds, for CI.
//! * `--trace <path>` — also write a Chrome-trace JSON (open in
//!   `chrome://tracing` or Perfetto) of one representative run, one
//!   process lane per simulated worker.
//! * `--digest <path>` — one line per run with the report's FNV-1a
//!   digest, then a study line; byte-identical across thread counts.
//! * `--threads N` — pin the parallel layer to N threads; reports are
//!   bit-identical at any thread count.

use mg_bench::cli::{self, StudyArgs};
use mg_bench::threads;
use mg_gpusim::digest::Fnv1a;
use mg_gpusim::DeviceSpec;
use mg_models::ModelConfig;
use mg_serve::{BatchPolicy, ServeConfig, ServeReport, ServeSim, StreamPolicy, TrafficConfig};
use multigrain::Method;
use std::process::ExitCode;

fn policies(smoke: bool) -> Vec<BatchPolicy> {
    let max_wait_s = if smoke { 0.0005 } else { 0.020 };
    vec![
        BatchPolicy::FifoTimeout {
            max_batch: 4,
            max_wait_s,
        },
        BatchPolicy::LenBucketed {
            max_batch: 4,
            max_wait_s,
            bucket: 256,
        },
        BatchPolicy::SloAware {
            max_batch: 4,
            max_wait_s,
        },
    ]
}

fn simulate(
    model: &ModelConfig,
    device: &DeviceSpec,
    policy: BatchPolicy,
    stream_policy: StreamPolicy,
    traffic: &TrafficConfig,
) -> (ServeReport, ServeSim) {
    let mut config = ServeConfig::new(model.clone(), device.clone());
    config.batch_policy = policy;
    config.stream_policy = stream_policy;
    let mut sim = ServeSim::new(config);
    let report = sim.run(traffic).expect("patterns are plannable");
    (report, sim)
}

fn main() -> ExitCode {
    run().unwrap_or_else(|e| {
        eprintln!("serve_study: {e}");
        ExitCode::from(2)
    })
}

fn run() -> Result<ExitCode, String> {
    let args = StudyArgs::parse(
        std::env::args().skip(1),
        &["--smoke", "--trace", "--digest", "--threads"],
    )?;
    threads::init_threads(args.threads);

    // Full-mode rates span sub-saturation (wait-budget-dominated) to
    // well past pool capacity, so the curves show both regimes. The SLO
    // is deliberately tighter than the 20 ms FIFO wait budget: plain
    // FIFO then blows the SLO at low rates (batches sit out the full
    // budget) while the SLO-aware policy's earlier release (at
    // 0.5 * SLO) keeps the tail inside it.
    let (model, n, rates, slo_s) = if args.smoke {
        (ModelConfig::tiny(), 80, vec![50_000.0, 500_000.0], 0.002)
    } else {
        (
            ModelConfig::qds_base(),
            160,
            vec![250.0, 1_000.0, 4_000.0, 16_000.0, 64_000.0],
            0.010,
        )
    };

    println!("serve_study — {}, {} requests per point", model.name, n);
    println!(
        "{:<10} {:<13} {:>9} {:>9} {:>9} {:>9} {:>9} {:>7} {:>6} {:>6}",
        "device", "policy", "rate", "p50 ms", "p95 ms", "p99 ms", "req/s", "viol%", "hit%", "busy%"
    );

    let mut trace_json: Option<String> = None;
    // One `<label> <digest>` line per run, in sweep order.
    let mut digests: Vec<(String, u64)> = Vec::new();
    // Largest rate whose p99 met the SLO under FIFO + role streams,
    // per device — reused below against the serial baseline.
    let mut multi_sustained = [0.0f64; 2];
    for (d, device) in [DeviceSpec::a100(), DeviceSpec::rtx3090()]
        .into_iter()
        .enumerate()
    {
        for policy in policies(args.smoke) {
            for &rate in &rates {
                let traffic = TrafficConfig::poisson(rate, n, Method::Multigrain, slo_s, 42);
                let (report, sim) =
                    simulate(&model, &device, policy, StreamPolicy::RoleStreams, &traffic);
                digests.push((
                    format!("{} {} {rate} streams", device.name, policy.label()),
                    report.digest(),
                ));
                println!(
                    "{:<10} {:<13} {:>9.0} {:>9.3} {:>9.3} {:>9.3} {:>9.0} {:>6.1}% {:>5.0}% {:>5.1}%",
                    device.name,
                    policy.label(),
                    rate,
                    report.p50() * 1e3,
                    report.p95() * 1e3,
                    report.p99() * 1e3,
                    report.throughput_rps(),
                    report.slo_violation_rate() * 100.0,
                    report.cache_hit_rate() * 100.0,
                    report.busy_fraction() * 100.0,
                );
                if policy.label() == "fifo" {
                    if report.p99() <= slo_s {
                        multi_sustained[d] = multi_sustained[d].max(report.throughput_rps());
                    }
                    // Keep one representative trace: highest rate, A100.
                    if args.trace.is_some()
                        && device.name == "A100"
                        && rate == *rates.last().unwrap()
                    {
                        trace_json = sim.chrome_trace().map(str::to_owned);
                    }
                }
            }
        }
    }

    // Serial vs multi-stream: largest swept rate whose p99 meets the SLO
    // (the role-stream side was measured in the main sweep above).
    println!("\nsustainable throughput at p99 <= {:.0} ms:", slo_s * 1e3);
    for (d, device) in [DeviceSpec::a100(), DeviceSpec::rtx3090()]
        .into_iter()
        .enumerate()
    {
        let mut serial_sustained = 0.0f64;
        for &rate in &rates {
            let traffic = TrafficConfig::poisson(rate, n, Method::Multigrain, slo_s, 42);
            let policy = policies(args.smoke)[0];
            let (report, _) = simulate(&model, &device, policy, StreamPolicy::Serial, &traffic);
            digests.push((
                format!("{} {} {rate} serial", device.name, policy.label()),
                report.digest(),
            ));
            if report.p99() <= slo_s {
                serial_sustained = serial_sustained.max(report.throughput_rps());
            }
        }
        println!(
            "  {:<10} serial {:>9.0} req/s   multi-stream {:>9.0} req/s   ({:.2}x)",
            device.name,
            serial_sustained,
            multi_sustained[d],
            if serial_sustained > 0.0 {
                multi_sustained[d] / serial_sustained
            } else {
                f64::INFINITY
            },
        );
    }

    if let Some(path) = args.trace {
        let json = trace_json.expect("representative run recorded");
        cli::write(&path, &json)?;
        println!("\nchrome trace written to {path}");
    }
    if let Some(path) = &args.digest {
        let mut study = Fnv1a::new();
        let mut out = String::new();
        for (label, digest) in &digests {
            study.write_u64(*digest);
            out.push_str(&format!("{label} {digest:016x}\n"));
        }
        out.push_str(&format!("study {:016x}\n", study.finish()));
        cli::write(path, &out)?;
        println!("wrote {path}");
    }
    Ok(ExitCode::SUCCESS)
}
