//! Interactive exploration CLI: time any compound pattern on any device
//! under all methods, with optional ASCII timeline and Chrome-trace
//! export.
//!
//! Usage:
//!   explore [--pattern SPEC] [--seq N] [--heads N] [--batch N]
//!           [--block N] [--device a100|rtx3090] [--timeline]
//!           [--trace FILE.json] [--autotune]
//!
//! Pattern SPEC syntax (see `mg_patterns::parse_pattern`):
//!   L512+S(0..16)+G(0..16)    Longformer-flavoured
//!   LB128+R24@7               BigBird-flavoured

use mg_bench::cli::{self, Flags};
use mg_gpusim::{export_chrome_trace, render_timeline, DeviceSpec, Gpu};
use mg_patterns::parse_pattern;
use multigrain::{autotune_block_size, Attention, AttentionProblem, Method};
use std::process::ExitCode;

struct Args {
    pattern: String,
    seq: usize,
    heads: usize,
    batch: usize,
    block: usize,
    device: DeviceSpec,
    timeline: bool,
    trace: Option<String>,
    autotune: bool,
}

/// `Ok(None)` when `--help` was asked for.
fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        pattern: "L512+S(0..16)+G(0..16)".to_owned(),
        seq: 4096,
        heads: 4,
        batch: 1,
        block: 64,
        device: DeviceSpec::a100(),
        timeline: false,
        trace: None,
        autotune: false,
    };
    let mut flags = Flags::new(std::env::args().skip(1));
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--pattern" => args.pattern = flags.value(&flag)?,
            "--seq" => args.seq = at_least_one(&flag, flags.parse(&flag)?)?,
            "--heads" => args.heads = at_least_one(&flag, flags.parse(&flag)?)?,
            "--batch" => args.batch = at_least_one(&flag, flags.parse(&flag)?)?,
            "--block" => args.block = flags.parse(&flag)?,
            "--device" => {
                args.device = match flags.value(&flag)?.to_lowercase().as_str() {
                    "a100" => DeviceSpec::a100(),
                    "rtx3090" | "3090" => DeviceSpec::rtx3090(),
                    other => return Err(format!("--device: unknown device `{other}`")),
                }
            }
            "--timeline" => args.timeline = true,
            "--trace" => args.trace = Some(flags.output(&flag)?),
            "--autotune" => args.autotune = true,
            "--help" | "-h" => return Ok(None),
            _ => return Err(cli::unknown(&flag)),
        }
    }
    Ok(Some(args))
}

/// A count that sizes the kernel grids: zero would leave no thread
/// blocks to divide the work over (zero tokens is an empty problem).
fn at_least_one(flag: &str, n: usize) -> Result<usize, String> {
    if n == 0 {
        Err(format!("{flag}: must be at least 1"))
    } else {
        Ok(n)
    }
}

fn main() -> ExitCode {
    run().unwrap_or_else(|e| {
        eprintln!("explore: {e}");
        ExitCode::from(2)
    })
}

fn run() -> Result<ExitCode, String> {
    let Some(args) = parse_args().map_err(|e| format!("{e}\nrun with --help for usage"))? else {
        println!("see module docs: explore --pattern 'L512+G(0..16)' --seq 4096 ...");
        return Ok(ExitCode::SUCCESS);
    };
    let pattern = parse_pattern(args.seq, &args.pattern).map_err(|e| format!("--pattern: {e}"))?;
    println!(
        "pattern {} over {} tokens: {} non-zeros ({:.2}% dense), device {}",
        pattern.name(),
        args.seq,
        pattern.nnz(),
        pattern.density() * 100.0,
        args.device.name,
    );

    let mut block = args.block;
    let problem = AttentionProblem::new(pattern.clone(), 64, args.batch, args.heads, block);
    if args.autotune {
        let (best, time) = autotune_block_size(&args.device, &problem);
        println!(
            "autotuned block size: {best} ({:.1} us simulated)",
            time * 1e6
        );
        block = best;
    }

    for method in Method::ALL {
        let problem = AttentionProblem::new(pattern.clone(), 64, args.batch, args.heads, block);
        let attn =
            Attention::plan(method, problem).map_err(|e| format!("{}: {e}", method.name()))?;
        let mut gpu = Gpu::new(args.device.clone());
        let report = attn.run_timed(&mut gpu);
        let mem = attn.plan_memory_bytes();
        println!(
            "\n{:10} total {:9.1} us | sddmm {:7.1} softmax {:7.1} spmm {:7.1} merge {:5.1} | dram {:7.1} MB | plan {:6.0} KB",
            method.name(),
            report.total() * 1e6,
            report.sddmm * 1e6,
            report.softmax * 1e6,
            report.spmm * 1e6,
            report.merge * 1e6,
            report.dram_bytes as f64 / 1e6,
            mem.total() as f64 / 1024.0,
        );
        if args.timeline {
            print!("{}", render_timeline(gpu.records(), 80));
        }
        if let Some(path) = &args.trace {
            let file = format!("{}.{}.json", path.trim_end_matches(".json"), method.name());
            cli::write(&file, &export_chrome_trace(gpu.records()))?;
            println!("chrome trace written to {file}");
        }
    }
    Ok(ExitCode::SUCCESS)
}
