//! Autotune study: the tuned execution configuration versus every
//! fixed-method baseline, over the paper's Fig. 9 pattern suite on the
//! three reference devices (A100, RTX 3090, H100).
//!
//! For each `(pattern, seq len, device)` cell the study runs the
//! pruned-grid search over the full method × block × exec-policy space
//! and compares the winner against planning each [`Method`] at the
//! default block size under role streams — the configuration a
//! non-tuning user would run. It prints per-device crossover tables
//! (the tuned winner shifts between methods as the cell changes, and
//! differently across the devices), reports how many requests each
//! search needs to amortize its own cost, and emits the accumulated
//! tuning database as versioned JSON.
//!
//! Grid cells execute on the deterministic parallel layer and are
//! collected in grid order, so the tables *and the emitted database
//! file* are bit-identical at any thread count.
//!
//! Usage: `cargo run --release -p mg-bench --bin autotune_study --
//! [--smoke] [--threads N] [--db PATH]`
//!
//! * `--smoke`     — short sequence lengths; seconds, for CI.
//! * `--threads N` — pin the parallel layer to N threads (default: the
//!   `MG_THREADS` environment variable, then all cores).
//! * `--db PATH`   — write the tuning database to PATH as JSON.
//!
//! The study exits non-zero if the tuned winner loses to any fixed
//! baseline anywhere, or if no cell selects different winning methods
//! on at least one pair of devices.

use mg_autotune::{
    candidates, evaluate, tune, ExecPolicy, Strategy, TuneConfig, TuneEntry, TuneKey, TuningDb,
};
use mg_bench::cli::StudyArgs;
use mg_bench::runners::{HEADS, HEAD_DIM, SEED};
use mg_bench::{threads, Table};
use mg_gpusim::DeviceSpec;
use mg_patterns::presets;
use mg_tensor::par;
use multigrain::{AttentionProblem, Method};
use std::process::ExitCode;
use std::time::Instant;

const PATTERN_NAMES: [&str; 6] = ["L+S", "L+R", "LB+R", "RB+R", "L+S+G", "LB+S+G"];

/// The default coarse block for a sequence length (what the rest of the
/// suite uses at that scale).
fn default_block(seq_len: usize) -> usize {
    if seq_len <= 256 {
        32
    } else {
        64
    }
}

/// One grid cell's result.
struct Cell {
    device: usize,
    pattern: usize,
    seq_len: usize,
    entry: TuneEntry,
    key: TuneKey,
    /// Fixed-method baseline times, seconds, in [`Method::EXTENDED`]
    /// order (infinite when that method cannot plan the cell).
    baselines: Vec<f64>,
    /// Size of the full candidate space the pruned grid searched.
    space: usize,
}

fn main() -> ExitCode {
    run().unwrap_or_else(|e| {
        eprintln!("autotune_study: {e}");
        ExitCode::from(2)
    })
}

fn run() -> Result<ExitCode, String> {
    let args = StudyArgs::parse(std::env::args().skip(1), &["--smoke", "--threads", "--db"])?;
    threads::init_threads(args.threads);

    let devices = [
        DeviceSpec::a100(),
        DeviceSpec::rtx3090(),
        DeviceSpec::h100(),
    ];
    let seq_lens: Vec<usize> = if args.smoke {
        vec![256, 512]
    } else {
        vec![512, 1024, 2048]
    };

    // device × pattern × seq-len grid; each cell tunes independently.
    let mut grid: Vec<(usize, usize, usize)> = Vec::new();
    for d in 0..devices.len() {
        for p in 0..PATTERN_NAMES.len() {
            for &l in &seq_lens {
                grid.push((d, p, l));
            }
        }
    }
    let started = Instant::now();
    let cells: Vec<Cell> = par::map_indexed(grid.len(), |i| {
        let (device, pattern_idx, seq_len) = grid[i];
        let spec = &devices[device];
        let block = default_block(seq_len);
        let pattern = presets::figure9_patterns(seq_len, block, SEED)
            .into_iter()
            .nth(pattern_idx)
            .expect("pattern index in range");
        let problem = AttentionProblem::new(pattern, HEAD_DIM, 1, HEADS, block);
        let space = candidates(&problem).len();
        let entry = tune(spec, &problem, Strategy::PrunedGrid, None, None);
        let key = TuneKey::for_problem(&problem, block, spec);
        let baselines = Method::EXTENDED
            .iter()
            .map(|&method| {
                let config = TuneConfig {
                    method,
                    block_size: block,
                    exec: ExecPolicy::RoleStreams,
                };
                evaluate(spec, &problem, &config).unwrap_or(f64::INFINITY)
            })
            .collect();
        Cell {
            device,
            pattern: pattern_idx,
            seq_len,
            entry,
            key,
            baselines,
            space,
        }
    });
    let elapsed = started.elapsed();

    // Accumulate the database in grid order: deterministic at any
    // thread count, so the emitted file is bit-identical too.
    let mut db = TuningDb::new();
    for cell in &cells {
        db.insert(cell.key, cell.entry.clone());
    }

    let mut failures = 0usize;
    for (d, device) in devices.iter().enumerate() {
        let mut t = Table::new(
            format!("Autotune study — Fig. 9 patterns, {}", device.name),
            &[
                "Pattern",
                "Seq len",
                "Tuned config",
                "Tuned us",
                "MG us",
                "Triton us",
                "Sputnik us",
                "Fused us",
                "Speedup",
                "Evals",
                "Amortize",
            ],
        );
        for cell in cells.iter().filter(|c| c.device == d) {
            let tuned = cell.entry.time_s;
            let best_fixed = cell.baselines.iter().copied().fold(f64::INFINITY, f64::min);
            if tuned > best_fixed {
                eprintln!(
                    "FAIL: tuned {} ({tuned:.3e} s) loses to a fixed baseline \
                     ({best_fixed:.3e} s) on {} {} seq {}",
                    cell.entry.config.label(),
                    device.name,
                    PATTERN_NAMES[cell.pattern],
                    cell.seq_len,
                );
                failures += 1;
            }
            // Requests until the search pays for itself against the best
            // fixed method (— when tuning merely matches it).
            let gain = best_fixed - tuned;
            let amortize = if gain > 0.0 {
                format!("{:.0} req", (cell.entry.tune_cost_s / gain).ceil())
            } else {
                "—".to_string()
            };
            t.push(vec![
                PATTERN_NAMES[cell.pattern].to_string(),
                cell.seq_len.to_string(),
                cell.entry.config.label(),
                format!("{:.2}", tuned * 1e6),
                format!("{:.2}", cell.baselines[0] * 1e6),
                format!("{:.2}", cell.baselines[1] * 1e6),
                format!("{:.2}", cell.baselines[2] * 1e6),
                format!("{:.2}", cell.baselines[3] * 1e6),
                format!("{:.2}x", best_fixed / tuned),
                format!("{}/{}", cell.entry.evals, cell.space),
                amortize,
            ]);
        }
        print!("{}", t.render());

        // Aggregate view: a deployment must pick ONE fixed method for
        // all traffic; the tuner switches per cell. Sum over the grid.
        let device_cells: Vec<&Cell> = cells.iter().filter(|c| c.device == d).collect();
        let tuned_total: f64 = device_cells.iter().map(|c| c.entry.time_s).sum();
        let fixed: Vec<String> = Method::EXTENDED
            .iter()
            .enumerate()
            .map(|(m, method)| {
                let total: f64 = device_cells.iter().map(|c| c.baselines[m]).sum();
                format!("{} {:.2}x", method.name(), total / tuned_total)
            })
            .collect();
        println!(
            "  tuned vs any single-method deployment on {}: {}",
            device.name,
            fixed.join(", ")
        );
    }

    // The headline claim: the winning *method* crosses over between at
    // least one device pair on at least one (pattern, seq len) cell.
    let mut crossovers: Vec<String> = Vec::new();
    for da in 0..devices.len() {
        for db_idx in da + 1..devices.len() {
            for a in cells.iter().filter(|c| c.device == da) {
                let Some(b) = cells.iter().find(|c| {
                    c.device == db_idx && c.pattern == a.pattern && c.seq_len == a.seq_len
                }) else {
                    continue;
                };
                if a.entry.config.method != b.entry.config.method {
                    crossovers.push(format!(
                        "  {} seq {}: {} on {} vs {} on {}",
                        PATTERN_NAMES[a.pattern],
                        a.seq_len,
                        a.entry.config.label(),
                        devices[da].name,
                        b.entry.config.label(),
                        devices[db_idx].name,
                    ));
                }
            }
        }
    }
    println!(
        "\nMethod crossovers between device pairs: {}",
        crossovers.len()
    );
    for line in &crossovers {
        println!("{line}");
    }
    if crossovers.is_empty() {
        eprintln!("FAIL: no cell selects different winning methods on any device pair");
        failures += 1;
    }

    // The tiled fused kernel must actually earn cells: the single-pass
    // 3S fusion is only worth carrying if the tuner picks it somewhere.
    let fused_wins = cells
        .iter()
        .filter(|c| c.entry.config.method == Method::FusedStyle)
        .count();
    println!("FusedStyle wins {fused_wins} of {} cells", cells.len());
    if fused_wins == 0 {
        eprintln!("FAIL: FusedStyle wins no (workload, device) cell");
        failures += 1;
    }

    if let Some(path) = &args.db {
        db.save(std::path::Path::new(path))?;
        println!("tuning database ({} entries) written to {path}", db.len());
    }
    println!(
        "{} grid cells in {:.3} s on {} thread(s)",
        grid.len(),
        elapsed.as_secs_f64(),
        threads::effective_threads(),
    );
    if failures > 0 {
        eprintln!("autotune_study: {failures} check(s) failed");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}
