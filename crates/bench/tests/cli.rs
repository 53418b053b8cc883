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
    // Zero tokens is an empty problem, not a pattern to time.
    assert_bad_input(exe, &["--seq", "0"], "--seq");
    assert_bad_input(exe, &["--device", "v100"], "v100");
    // Sizes past the ceiling, off the block grid, or a zero block.
    assert_bad_input(exe, &["--seq", "16448"], "--seq");
    assert_bad_input(exe, &["--seq", "100"], "--block");
    assert_bad_input(exe, &["--seq", "100", "--autotune"], "autotuned block");
    assert_bad_input(exe, &["--block", "0"], "--block");
    assert_bad_input(
        exe,
        &["--trace", "/nonexistent/t.json"],
        "/nonexistent/t.json",
    );
}

/// Runs `exe` with `args` on one thread and waits at most `deadline_s`
/// for it, polling; a run past the deadline is killed and fails the
/// test. Returns (exit code, stderr).
fn run_with_deadline(exe: &str, args: &[&str], deadline_s: u64) -> (Option<i32>, String) {
    use std::io::Read;
    use std::process::Stdio;
    const POLL_MS: u64 = 50;
    let mut child = Command::new(exe)
        .args(args)
        .env("MG_THREADS", "1")
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary starts");
    for _ in 0..deadline_s * 1000 / POLL_MS {
        if let Some(status) = child.try_wait().expect("child status") {
            let mut stderr = String::new();
            child
                .stderr
                .take()
                .expect("piped stderr")
                .read_to_string(&mut stderr)
                .expect("stderr reads");
            return (status.code(), stderr);
        }
        std::thread::sleep(std::time::Duration::from_millis(POLL_MS));
    }
    child.kill().expect("child killed");
    child.wait().expect("child reaped");
    panic!("{exe} {args:?} ran past its {deadline_s} s deadline");
}

#[test]
fn explore_rejects_a_huge_seq_before_any_work() {
    // Checking the size only when the plan is built came after an O(seq)
    // walk of the pattern, which never ends at this size.
    let exe = env!("CARGO_BIN_EXE_explore");
    let (code, stderr) = run_with_deadline(
        exe,
        &["--pattern", "L8", "--seq", "18446744073709551615"],
        10,
    );
    assert_eq!(code, Some(2), "stderr {stderr}");
    assert!(stderr.contains("--seq"), "{stderr:?} does not name --seq");
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
