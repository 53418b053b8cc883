//! The fixture corpus: one known-bad file per lint code (plus the
//! suppression cases), each asserting the exact diagnostic codes and
//! line numbers, and the check that `CODES.md` documents exactly the
//! codes the analyzer emits.

use mg_lint::{lint_rust, lint_workspace, FileClass, LintCode};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> (PathBuf, String) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src = std::fs::read_to_string(&path).expect("fixture readable");
    (path, src)
}

fn lib_class() -> FileClass {
    FileClass {
        crate_name: "fixture".to_string(),
        is_bin: false,
        is_lib_rs: false,
    }
}

fn lint_fixture(name: &str, class: &FileClass) -> Vec<(LintCode, u32)> {
    let (path, src) = fixture(name);
    lint_rust(&path, &src, class)
        .into_iter()
        .map(|d| (d.code, d.line))
        .collect()
}

#[test]
fn h1_missing_forbid_fires_on_lib_rs() {
    let lib_rs = FileClass {
        is_lib_rs: true,
        ..lib_class()
    };
    assert_eq!(
        lint_fixture("h1_missing_forbid.rs", &lib_rs),
        vec![(LintCode::H1, 1)]
    );
    // The same file as a non-root module is not a finding.
    assert_eq!(lint_fixture("h1_missing_forbid.rs", &lib_class()), vec![]);
}

#[test]
fn h3_prints_fire_in_library_code_only() {
    assert_eq!(
        lint_fixture("h3_println.rs", &lib_class()),
        vec![(LintCode::H3, 4), (LintCode::H3, 5)]
    );
    let bin = FileClass {
        is_bin: true,
        ..lib_class()
    };
    assert_eq!(lint_fixture("h3_println.rs", &bin), vec![]);
}

#[test]
fn a1_bare_unknown_and_unwaivable_allows_fire() {
    assert_eq!(
        lint_fixture("a1_bare_allow.rs", &lib_class()),
        vec![
            (LintCode::A1, 5),
            (LintCode::H3, 6),
            (LintCode::A1, 8),
            (LintCode::A1, 11),
        ]
    );
}

#[test]
fn a2_stale_allow_fires() {
    assert_eq!(
        lint_fixture("a2_unused_allow.rs", &lib_class()),
        vec![(LintCode::A2, 4)]
    );
}

#[test]
fn audited_suppressions_silence_their_line_exactly() {
    assert_eq!(lint_fixture("suppressed_clean.rs", &lib_class()), vec![]);
}

#[test]
fn p1_decode_in_loop_fires_in_kernels_only() {
    let kernels = FileClass {
        crate_name: "mg-kernels".to_string(),
        ..lib_class()
    };
    // Line 4: CSR value decode per non-zero; line 7: V row decode per
    // output element. The one-off decode and the panel-staged loop are
    // clean.
    assert_eq!(
        lint_fixture("p1_decode_in_loop.rs", &kernels),
        vec![(LintCode::P1, 4), (LintCode::P1, 7)]
    );
    // Outside crates/kernels the perf guard does not apply.
    assert_eq!(lint_fixture("p1_decode_in_loop.rs", &lib_class()), vec![]);
}

#[test]
fn d4_thread_derived_chunk_geometry_fires_at_the_traversal() {
    // Line 9: geometry through a `ThreadDerived` binding; line 16: the
    // thread count inlined into the chunk expression. The shape-derived
    // control function stays clean.
    assert_eq!(
        lint_fixture("d4_chunk_combine.rs", &lib_class()),
        vec![(LintCode::D4, 9), (LintCode::D4, 16)]
    );
    // The bench harness measures pool configurations on purpose.
    let bench = FileClass {
        crate_name: "mg-bench".to_string(),
        ..lib_class()
    };
    assert_eq!(lint_fixture("d4_chunk_combine.rs", &bench), vec![]);
}

#[test]
fn d5_panic_sources_fire_direct_and_one_call_deep() {
    // Line 10: `panic!` written in the callback; line 22: an `unwrap()`
    // inside a helper only reachable through the call graph.
    assert_eq!(
        lint_fixture("d5_panic_reachable.rs", &lib_class()),
        vec![(LintCode::D5, 10), (LintCode::D5, 22)]
    );
    let (path, src) = fixture("d5_panic_reachable.rs");
    let deep = lint_rust(&path, &src, &lib_class())
        .into_iter()
        .find(|d| d.line == 22)
        .unwrap();
    assert!(
        deep.message.contains("for_each_chunk_mut"),
        "the graph-walk diagnostic should name the parallel entry: {}",
        deep.message
    );
}

#[test]
fn u1_unsafe_outside_simd_fires_everywhere_even_in_tests() {
    // Line 7: library code with a SAFETY comment (irrelevant outside
    // the sanctioned module); line 16: a `#[cfg(test)]` use — tests
    // get no exemption from confinement.
    assert_eq!(
        lint_fixture("u1_unsafe_outside_simd.rs", &lib_class()),
        vec![(LintCode::U1, 7), (LintCode::U1, 16)]
    );
}

#[test]
fn u1_inside_simd_rs_accepts_safety_comments_and_flags_the_rest() {
    // The same source is judged by the *path*: linted as the sanctioned
    // module, the three justified shapes (trailing comment, comment
    // above, comment block above the target_feature attribute) pass,
    // and the three bare ones fire.
    let (_, src) = fixture("u1_simd_missing_safety.rs");
    let tensor = FileClass {
        crate_name: "mg-tensor".to_string(),
        is_bin: false,
        is_lib_rs: false,
    };
    let as_simd: Vec<(LintCode, u32)> =
        lint_rust(Path::new("crates/tensor/src/simd.rs"), &src, &tensor)
            .into_iter()
            .map(|d| (d.code, d.line))
            .collect();
    assert_eq!(
        as_simd,
        vec![(LintCode::U1, 20), (LintCode::U1, 24), (LintCode::U1, 28)]
    );
    // Linted at any other path, every `unsafe` line fires regardless of
    // its SAFETY comments.
    let elsewhere = lint_fixture("u1_simd_missing_safety.rs", &tensor);
    assert_eq!(
        elsewhere,
        vec![
            (LintCode::U1, 6),
            (LintCode::U1, 11),
            (LintCode::U1, 17),
            (LintCode::U1, 20),
            (LintCode::U1, 24),
            (LintCode::U1, 28),
        ]
    );
}

#[test]
fn h3_development_macros_fire_and_suppress() {
    assert_eq!(
        lint_fixture("h3_development_macros.rs", &lib_class()),
        vec![(LintCode::H3, 5), (LintCode::H3, 7), (LintCode::H3, 14)]
    );
}

#[test]
fn c1_unpaired_kernels_fire_in_the_fixture_workspace() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/c1_ws");
    let findings = lint_workspace(&root).expect("fixture workspace lints");
    let got: Vec<(LintCode, String, u32)> = findings
        .iter()
        .map(|d| (d.code, mg_lint::path_key(&d.file), d.line))
        .collect();
    // Canonical order: (file, line, code). The compute-without-profile
    // fires at line 16, the profile-without-compute at line 21; the
    // paired kernel contributes nothing.
    assert_eq!(
        got,
        vec![
            (LintCode::C1, "crates/kernels/src/lib.rs".to_string(), 16),
            (LintCode::C1, "crates/kernels/src/lib.rs".to_string(), 21),
        ]
    );
    assert!(findings[0].message.contains("fused_scan_compute"));
    assert!(findings[1].message.contains("stale_gather_profile"));
}

#[test]
fn every_bad_fixture_would_fail_a_deny_run() {
    // The --deny contract: each known-bad fixture contributes at least
    // one finding of its advertised code.
    for (name, code) in [
        ("d4_chunk_combine.rs", LintCode::D4),
        ("d5_panic_reachable.rs", LintCode::D5),
        ("h3_println.rs", LintCode::H3),
        ("h3_development_macros.rs", LintCode::H3),
        ("a1_bare_allow.rs", LintCode::A1),
        ("a2_unused_allow.rs", LintCode::A2),
        ("u1_unsafe_outside_simd.rs", LintCode::U1),
        ("u1_simd_missing_safety.rs", LintCode::U1),
    ] {
        let got = lint_fixture(name, &lib_class());
        assert!(
            got.iter().any(|(c, _)| *c == code),
            "{name} should contain {code:?}, got {got:?}"
        );
    }
    // P1 only applies inside crates/kernels, so its fixture is checked
    // under that crate's class.
    let kernels = FileClass {
        crate_name: "mg-kernels".to_string(),
        ..lib_class()
    };
    let got = lint_fixture("p1_decode_in_loop.rs", &kernels);
    assert!(
        got.iter().any(|(c, _)| *c == LintCode::P1),
        "p1_decode_in_loop.rs should contain P1, got {got:?}"
    );
}

/// A lint-code name: one capital letter, then digits (`D4`, `A2`).
fn code_shaped(s: &str) -> bool {
    s.len() >= 2
        && s.starts_with(|c: char| c.is_ascii_uppercase())
        && s[1..].bytes().all(|b| b.is_ascii_digit())
}

#[test]
fn codes_md_documents_exactly_the_live_codes() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("CODES.md");
    let doc = std::fs::read_to_string(&path).expect("CODES.md readable");
    // Code rows are `| `CODE` | ... |`; rows under the "Retired" heading
    // name codes that no longer exist, every other row a live one.
    let mut live = Vec::new();
    let mut retired = Vec::new();
    let mut in_retired = false;
    for line in doc.lines() {
        if let Some(heading) = line.strip_prefix("## ") {
            in_retired = heading.starts_with("Retired");
        } else if let Some(code) = line
            .strip_prefix("| `")
            .and_then(|rest| rest.split_once('`'))
            .map(|(code, _)| code.to_string())
            .filter(|code| code_shaped(code))
        {
            if in_retired {
                retired.push(code);
            } else {
                live.push(code);
            }
        }
    }
    for code in LintCode::ALL {
        assert!(
            live.iter().any(|c| c == code.as_str()),
            "{code} has no row in CODES.md"
        );
    }
    for code in &live {
        assert!(
            LintCode::parse(code).is_some(),
            "CODES.md documents `{code}`, which mg-lint does not emit"
        );
    }
    for code in &retired {
        assert!(
            LintCode::parse(code).is_none(),
            "`{code}` is listed as retired but is still a live code"
        );
    }
    // Every code-shaped name the file mentions (a capital letter and
    // digits in backticks) is live or listed as retired.
    // Fences are dropped first so their triple backticks cannot shift
    // the inline-span pairing.
    for code in doc.replace("```", "").split('`').skip(1).step_by(2) {
        if code_shaped(code) {
            assert!(
                live.iter().chain(&retired).any(|c| c == code),
                "CODES.md mentions `{code}`, which is neither live nor retired"
            );
        }
    }
}
