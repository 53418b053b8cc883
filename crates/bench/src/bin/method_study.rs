//! Method study: the full method × sequence-length × device grid of the
//! paper's §5.2 setting, with every grid cell (plan + timed run) executed
//! on the parallel layer. Results are collected in grid order, so the
//! printed tables are bit-identical at any thread count.
//!
//! Usage: `cargo run --release -p mg-bench --bin method_study -- [--smoke] [--threads N]`
//!
//! * `--smoke`     — short sequence lengths; seconds, for CI.
//! * `--threads N` — pin the parallel layer to N threads (default: the
//!   `MG_THREADS` environment variable, then all cores).

#![expect(
    clippy::disallowed_types,
    reason = "the footer reports the grid's wall-clock time; no table depends on it"
)]

use mg_bench::cli::StudyArgs;
use mg_bench::runners::{BLOCK, HEADS, HEAD_DIM, SEED};
use mg_bench::{threads, Table};
use mg_gpusim::{DeviceSpec, Gpu};
use mg_patterns::presets;
use mg_tensor::par;
use multigrain::{Attention, AttentionProblem, Method};
use std::process::ExitCode;
use std::time::Instant;

/// One grid cell's result: per-method total attention times, seconds,
/// in [`Method::ALL`] order.
struct Cell {
    device: usize,
    seq_len: usize,
    times: Vec<f64>,
}

fn main() -> ExitCode {
    let args = match StudyArgs::parse(std::env::args().skip(1), &["--smoke", "--threads"]) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("method_study: {e}");
            return ExitCode::from(2);
        }
    };
    threads::init_threads(args.threads);

    let devices = [DeviceSpec::a100(), DeviceSpec::rtx3090()];
    let seq_lens: Vec<usize> = if args.smoke {
        vec![256, 512]
    } else {
        vec![512, 1024, 2048, 4096, 8192]
    };

    // Flatten the device × seq-len grid; each cell plans and times all
    // three methods on the L+S+G pattern, independently of every other
    // cell, so the cells are the parallel unit.
    let grid: Vec<(usize, usize)> = (0..devices.len())
        .flat_map(|d| seq_lens.iter().map(move |&l| (d, l)))
        .collect();
    let started = Instant::now();
    let cells: Vec<Cell> = par::map_indexed(grid.len(), |i| {
        let (device, seq_len) = grid[i];
        let pattern = presets::figure9_patterns(seq_len, BLOCK, SEED)
            .into_iter()
            .nth(4)
            .expect("L+S+G");
        let times = Method::ALL
            .iter()
            .map(|&method| {
                let prob = AttentionProblem::new(pattern.clone(), HEAD_DIM, 1, HEADS, BLOCK);
                let attn = Attention::plan(method, prob).expect("plans");
                let mut gpu = Gpu::new(devices[device].clone());
                attn.run_timed(&mut gpu).total()
            })
            .collect();
        Cell {
            device,
            seq_len,
            times,
        }
    });
    let elapsed = started.elapsed();

    for (d, device) in devices.iter().enumerate() {
        let mut t = Table::new(
            format!(
                "Method study — L+S+G pattern, block {BLOCK}, {}",
                device.name
            ),
            &[
                "Seq len",
                "MG us",
                "Triton us",
                "Sputnik us",
                "vs T",
                "vs S",
            ],
        );
        for cell in cells.iter().filter(|c| c.device == d) {
            t.push(vec![
                cell.seq_len.to_string(),
                format!("{:.1}", cell.times[0] * 1e6),
                format!("{:.1}", cell.times[1] * 1e6),
                format!("{:.1}", cell.times[2] * 1e6),
                format!("{:.2}x", cell.times[1] / cell.times[0]),
                format!("{:.2}x", cell.times[2] / cell.times[0]),
            ]);
        }
        print!("{}", t.render());
    }
    println!(
        "{} grid cells in {:.3} s on {} thread(s)",
        grid.len(),
        elapsed.as_secs_f64(),
        threads::effective_threads(),
    );
    ExitCode::SUCCESS
}
