//! # mg-bench — experiment harness
//!
//! One runner per table/figure of the paper ([`runners`]), shared by the
//! integration tests and by [`reproduce`], which turns each table and
//! figure into a function returning its text. The `reproduce` binary
//! prints them (`cargo run --release -p mg-bench --bin reproduce -- fig9`);
//! the study binaries (`serve_study`, `method_study`, `autotune_study`,
//! `perf_study`, `cluster_study`, `decode_study`) and the `explore` CLI
//! parse their flags with [`cli`]. The library itself prints nothing.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;
pub mod report;
pub mod reproduce;
pub mod runners;
pub mod threads;

pub use report::{geomean, Band, Table};
