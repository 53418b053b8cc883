//! Bad command-line input exits 2 with an error that names the flag or
//! path, on every binary — never a panic (101) or a generic failure (1).

use std::process::Command;

/// Runs `exe` with `args` on one thread; returns (exit code, stderr).
fn run(exe: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(exe)
        .args(args)
        .env("MG_THREADS", "1")
        .output()
        .expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_bad_input(exe: &str, args: &[&str], named: &str) {
    let (code, stderr) = run(exe, args);
    assert_eq!(code, Some(2), "{exe} {args:?}: stderr {stderr}");
    assert!(
        stderr.contains(named),
        "{exe} {args:?}: {stderr:?} does not name {named:?}"
    );
}

#[test]
fn explore_rejects_bad_input_with_exit_2() {
    let exe = env!("CARGO_BIN_EXE_explore");
    assert_bad_input(exe, &["--bogus"], "--bogus");
    assert_bad_input(exe, &["--pattern", "Q9"], "Q9");
    assert_bad_input(exe, &["--seq", "many"], "--seq");
    // Zero heads or batch would divide by zero in the kernel profiles.
    assert_bad_input(exe, &["--heads", "0"], "--heads");
    assert_bad_input(exe, &["--batch", "0"], "--batch");
    assert_bad_input(exe, &["--device", "v100"], "v100");
    assert_bad_input(
        exe,
        &["--trace", "/nonexistent/t.json"],
        "/nonexistent/t.json",
    );
}

#[test]
fn study_bins_reject_bad_flags_and_values() {
    for exe in [
        env!("CARGO_BIN_EXE_serve_study"),
        env!("CARGO_BIN_EXE_method_study"),
        env!("CARGO_BIN_EXE_autotune_study"),
        env!("CARGO_BIN_EXE_perf_study"),
        env!("CARGO_BIN_EXE_cluster_study"),
        env!("CARGO_BIN_EXE_decode_study"),
    ] {
        assert_bad_input(exe, &["--smoke", "--bogus"], "--bogus");
        assert_bad_input(exe, &["--smoke", "--threads", "many"], "many");
        assert_bad_input(exe, &["--smoke", "--threads"], "--threads");
    }
}

#[test]
fn study_bins_reject_unwritable_output_paths() {
    for (exe, flag) in [
        (env!("CARGO_BIN_EXE_serve_study"), "--trace"),
        (env!("CARGO_BIN_EXE_serve_study"), "--digest"),
        (env!("CARGO_BIN_EXE_autotune_study"), "--db"),
        (env!("CARGO_BIN_EXE_perf_study"), "--digest"),
        (env!("CARGO_BIN_EXE_cluster_study"), "--trace"),
        (env!("CARGO_BIN_EXE_cluster_study"), "--digest"),
        (env!("CARGO_BIN_EXE_decode_study"), "--digest"),
    ] {
        assert_bad_input(
            exe,
            &["--smoke", flag, "/nonexistent/out"],
            "/nonexistent/out",
        );
    }
    // method_study writes no files; a flag it does not take is refused.
    assert_bad_input(
        env!("CARGO_BIN_EXE_method_study"),
        &["--smoke", "--trace", "t.json"],
        "--trace",
    );
}

#[test]
fn a_write_that_fails_after_the_run_exits_2() {
    // The directory exists, so the path passes the up-front check, and
    // the write itself fails: the path names a directory.
    let dir = std::env::temp_dir();
    let dir = dir.to_str().expect("UTF-8 temp dir");
    assert_bad_input(
        env!("CARGO_BIN_EXE_decode_study"),
        &["--smoke", "--digest", dir],
        dir,
    );
}
