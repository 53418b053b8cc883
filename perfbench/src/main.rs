//! Command-line entry of the benchmark.
//!
//! ```text
//! mg-perfbench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1] [--out <dir>]
//! mg-perfbench --pin <workload> <seed>
//! ```
//!
//! Prints the run environment and every metric by name with its unit,
//! then, as the last line of standard output, one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. The same object
//! plus the environment goes to `<out>/result-<workload>-<seed>-trace<t>.json`
//! and, in a traced run, the spans to `<out>/spans-<workload>-<seed>.jsonl`.
//! Exit codes: 0 when every output was correct, 1 when a call failed or
//! an output differed from its reference, 2 on bad input.

use mg_perfbench::metrics::Metric;
use mg_perfbench::{pin_lines, run, RunConfig, RunResult, Scale, Workload};
use std::fmt::Write as _;
use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Bad input: reported by name, exit code 2.
#[derive(Debug)]
enum InputError {
    UnknownWorkload(String),
    BadSeed(String),
    BadSeconds(String),
    BadTrace(String),
    MissingValue(&'static str),
    MissingArgument(&'static str),
    UnknownArgument(String),
    UnwritableOutput(PathBuf, std::io::Error),
}

impl std::fmt::Display for InputError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InputError::UnknownWorkload(w) => {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                write!(
                    f,
                    "unknown workload '{w}' (expected one of {})",
                    names.join(", ")
                )
            }
            InputError::BadSeed(s) => {
                write!(f, "unparsable seed '{s}' (expected an unsigned integer)")
            }
            InputError::BadSeconds(s) => {
                write!(f, "bad --seconds '{s}' (expected a positive number)")
            }
            InputError::BadTrace(s) => write!(f, "bad --trace '{s}' (expected 0 or 1)"),
            InputError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            InputError::MissingArgument(flag) => write!(f, "missing required {flag}"),
            InputError::UnknownArgument(a) => write!(f, "unknown argument '{a}'"),
            InputError::UnwritableOutput(p, e) => {
                write!(f, "unwritable output path '{}': {e}", p.display())
            }
        }
    }
}

enum Command {
    Run { cfg: RunConfig, out: PathBuf },
    Pin { workload: Workload, seed: u64 },
}

fn parse_seed(s: &str) -> Result<u64, InputError> {
    s.parse().map_err(|_| InputError::BadSeed(s.to_owned()))
}

fn parse_workload(s: &str) -> Result<Workload, InputError> {
    Workload::parse(s).ok_or_else(|| InputError::UnknownWorkload(s.to_owned()))
}

fn parse_args(args: &[String]) -> Result<Command, InputError> {
    let mut it = args.iter();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut out = PathBuf::from(".bench_out");
    while let Some(arg) = it.next() {
        let mut value = |flag: &'static str| it.next().ok_or(InputError::MissingValue(flag));
        match arg.as_str() {
            "--pin" => {
                let w = parse_workload(value("--pin")?)?;
                let s = parse_seed(value("--pin")?)?;
                return Ok(Command::Pin {
                    workload: w,
                    seed: s,
                });
            }
            "--workload" => workload = Some(parse_workload(value("--workload")?)?),
            "--seed" => seed = Some(parse_seed(value("--seed")?)?),
            "--seconds" => {
                let s = value("--seconds")?;
                seconds = s
                    .parse::<f64>()
                    .ok()
                    .filter(|v| v.is_finite() && *v > 0.0)
                    .ok_or_else(|| InputError::BadSeconds(s.clone()))?;
            }
            "--trace" => {
                trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(InputError::BadTrace(other.to_owned())),
                }
            }
            "--out" => out = PathBuf::from(value("--out")?),
            other => return Err(InputError::UnknownArgument(other.to_owned())),
        }
    }
    Ok(Command::Run {
        cfg: RunConfig {
            workload: workload.ok_or(InputError::MissingArgument("--workload"))?,
            seed: seed.ok_or(InputError::MissingArgument("--seed"))?,
            seconds,
            trace,
            scale: Scale::Full,
        },
        out,
    })
}

/// Creates the output files up front, so an unwritable path fails
/// before any measuring.
fn open_outputs(cfg: &RunConfig, out: &Path) -> Result<(File, Option<File>), InputError> {
    let create = |p: PathBuf| File::create(&p).map_err(|e| InputError::UnwritableOutput(p, e));
    std::fs::create_dir_all(out).map_err(|e| InputError::UnwritableOutput(out.to_owned(), e))?;
    let stem = format!("{}-{}", cfg.workload.name(), cfg.seed);
    let result = create(out.join(format!("result-{stem}-trace{}.json", u8::from(cfg.trace))))?;
    let spans = if cfg.trace {
        Some(create(out.join(format!("spans-{stem}.jsonl")))?)
    } else {
        None
    };
    Ok((result, spans))
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(m.name),
                m.value,
                json_string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn result_line(r: &RunResult) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics_json(&r.metrics)
    )
}

fn env_json(cfg: &RunConfig, r: &RunResult) -> String {
    let e = &r.env;
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"threads\": {}, \
         \"simd_active\": {}, \"nproc\": {}, \"cpu_model\": {}, \
         \"pinned_digests\": {}, \
         \"setups\": {}, \"call_ms\": [{}], \"digests\": [{}], \"failures\": [{}]}}",
        json_string(cfg.workload.name()),
        cfg.seed,
        cfg.seconds,
        cfg.trace,
        e.threads,
        e.simd_active,
        e.nproc,
        json_string(&e.cpu_model),
        e.pinned,
        r.setups,
        r.call_ms
            .iter()
            .map(f64::to_string)
            .collect::<Vec<_>>()
            .join(", "),
        r.digests
            .iter()
            .map(|d| d.map_or("null".to_owned(), |d| format!("\"{d:016x}\"")))
            .collect::<Vec<_>>()
            .join(", "),
        r.failures
            .iter()
            .map(|f| json_string(f))
            .collect::<Vec<_>>()
            .join(", "),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("mg-perfbench: error: {e}");
            std::process::exit(2);
        }
    };
    // One thread: at two, repeated runs of one input vary several times
    // more than at one. Outputs are bit-identical at any thread count.
    if let Err(e) = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build_global()
    {
        eprintln!("mg-perfbench: cannot pin the parallel layer to one thread: {e:?}");
        std::process::exit(1);
    }
    let (cfg, out) = match command {
        Command::Pin { workload, seed } => match pin_lines(workload, seed) {
            Ok(line) => {
                println!("{line}");
                return;
            }
            Err(e) => {
                eprintln!("mg-perfbench: pin failed: {e}");
                std::process::exit(1);
            }
        },
        Command::Run { cfg, out } => (cfg, out),
    };
    let (mut result_file, spans_file) = match open_outputs(&cfg, &out) {
        Ok(files) => files,
        Err(e) => {
            eprintln!("mg-perfbench: error: {e}");
            std::process::exit(2);
        }
    };

    let mut r = run(&cfg);
    for m in &r.metrics {
        if !m.value.is_finite() {
            r.failures.push(format!("metric {} is not finite", m.name));
            r.correct = false;
        }
    }
    for m in r.metrics.iter_mut().filter(|m| !m.value.is_finite()) {
        m.value = 0.0;
    }

    let env = env_json(&cfg, &r);
    println!("env {env}");
    for f in &r.failures {
        println!("FAIL {f}");
    }
    for m in &r.metrics {
        println!("{:<36} {:>18.6} {}", m.name, m.value, m.unit);
    }
    let error_rate = r.failed as f64 / r.attempted.max(1) as f64;
    println!(
        "{:<36} {:>18.6} ratio ({} failed of {} attempted, {} timed calls)",
        "error_rate",
        error_rate,
        r.failed,
        r.attempted,
        r.call_ms.len()
    );
    let line = result_line(&r);

    let write_all = || -> std::io::Result<()> {
        writeln!(result_file, "{{\"env\": {env}, \"result\": {line}}}")?;
        result_file.flush()?;
        if let (Some(mut f), Some(spans)) = (spans_file, r.spans.as_ref()) {
            f.write_all(spans.as_bytes())?;
            f.flush()?;
        }
        Ok(())
    };
    if let Err(e) = write_all() {
        eprintln!(
            "mg-perfbench: error: writing results to '{}': {e}",
            out.display()
        );
        std::process::exit(2);
    }
    println!("{line}");
    std::process::exit(if r.correct { 0 } else { 1 });
}
