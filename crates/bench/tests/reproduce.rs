//! The `reproduce` binary and its registry.

use mg_bench::reproduce::REGISTRY;
use mg_bench::runners;
use std::collections::BTreeSet;
use std::process::{Command, Output};

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("reproduce runs")
}

#[test]
fn registry_names_are_unique() {
    let names: BTreeSet<&str> = REGISTRY.iter().map(|(name, _)| *name).collect();
    assert_eq!(names.len(), REGISTRY.len());
    assert_eq!(REGISTRY.len(), 26);
}

#[test]
fn list_prints_every_name() {
    let out = reproduce(&["--list"]);
    assert!(out.status.success());
    let listed: Vec<String> = String::from_utf8(out.stdout)
        .expect("UTF-8")
        .lines()
        .map(str::to_owned)
        .collect();
    let names: Vec<&str> = REGISTRY.iter().map(|(name, _)| *name).collect();
    assert_eq!(listed, names);
}

#[test]
fn table1_prints_the_table_and_its_footer() {
    let out = reproduce(&["table1"]);
    assert!(out.status.success());
    let expected = format!(
        "{}\nPaper Table 1: A100 1555 GB/s, 42.3/169 TFLOPS, 192 KB L1, 40 MB L2;\n               \
         RTX3090 936.2 GB/s, 29.3/58 TFLOPS, 128 KB L1, 6 MB L2.\n",
        runners::table1().render()
    );
    assert_eq!(String::from_utf8(out.stdout).expect("UTF-8"), expected);
}

#[test]
fn unknown_names_and_usage_errors_exit_2() {
    for args in [&["fig99"][..], &[], &["--bogus"], &["fig7", "fig8"]] {
        let out = reproduce(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
