//! Regenerates the paper's tables and figures, and this repository's
//! extension studies, from one binary.
//!
//! Usage: `cargo run --release -p mg-bench --bin reproduce -- <name> | all | --list`
//!
//! * `<name>`  — print one experiment (`reproduce fig9`);
//! * `all`     — print every experiment in registry order, each under a
//!   `==== <name> ====` banner;
//! * `--list`  — print the experiment names, one per line.
//!
//! Anything else exits 2.

use mg_bench::reproduce::REGISTRY;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [arg] = args.as_slice() else {
        eprintln!("usage: reproduce <name> | all | --list");
        return ExitCode::from(2);
    };
    match arg.as_str() {
        "--list" => {
            for (name, _) in REGISTRY {
                println!("{name}");
            }
        }
        "all" => {
            for (name, run) in REGISTRY {
                println!("==== {name} ====");
                println!("{}", run());
            }
        }
        name => match REGISTRY.iter().find(|(n, _)| *n == name) {
            Some((_, run)) => print!("{}", run()),
            None => {
                eprintln!("reproduce: unknown experiment `{name}` (`reproduce --list` names them)");
                return ExitCode::from(2);
            }
        },
    }
    ExitCode::SUCCESS
}
