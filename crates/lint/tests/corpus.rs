//! The fixture corpus: one known-bad file per lint code (plus the
//! suppression cases), each asserting the exact diagnostic codes and
//! line numbers, and the check that `CODES.md` documents exactly the
//! codes the analyzer emits.

use mg_lint::{lint_rust, lint_workspace, LintCode};
use std::path::{Path, PathBuf};

/// The crate P1 and C1 apply to.
const KERNELS: &str = "mg-kernels";

fn fixture(name: &str) -> (PathBuf, String) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src = std::fs::read_to_string(&path).expect("fixture readable");
    (path, src)
}

fn lint_fixture(name: &str, crate_name: &str) -> Vec<(LintCode, u32)> {
    let (path, src) = fixture(name);
    lint_rust(&path, &src, crate_name)
        .into_iter()
        .map(|d| (d.code, d.line))
        .collect()
}

#[test]
fn a1_bare_unknown_and_unwaivable_allows_fire() {
    assert_eq!(
        lint_fixture("a1_bare_allow.rs", KERNELS),
        vec![
            (LintCode::A1, 6),
            (LintCode::P1, 7),
            (LintCode::A1, 10),
            (LintCode::A1, 13),
            (LintCode::A1, 16),
        ]
    );
}

#[test]
fn a2_stale_allow_fires() {
    assert_eq!(
        lint_fixture("a2_unused_allow.rs", KERNELS),
        vec![(LintCode::A2, 4)]
    );
}

#[test]
fn audited_suppressions_silence_their_line_exactly() {
    assert_eq!(lint_fixture("suppressed_clean.rs", KERNELS), vec![]);
}

#[test]
fn p1_decode_in_loop_fires_in_kernels_only() {
    // Line 4: CSR value decode per non-zero; line 7: V row decode per
    // output element. The one-off decode and the panel-staged loop are
    // clean.
    assert_eq!(
        lint_fixture("p1_decode_in_loop.rs", KERNELS),
        vec![(LintCode::P1, 4), (LintCode::P1, 7)]
    );
    // Outside crates/kernels the perf guard does not apply.
    assert_eq!(lint_fixture("p1_decode_in_loop.rs", "fixture"), vec![]);
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
    // one finding of its advertised code. P1 applies only inside
    // crates/kernels, so the fixtures are linted as that crate.
    for (name, code) in [
        ("a1_bare_allow.rs", LintCode::A1),
        ("a2_unused_allow.rs", LintCode::A2),
        ("p1_decode_in_loop.rs", LintCode::P1),
    ] {
        let got = lint_fixture(name, KERNELS);
        assert!(
            got.iter().any(|(c, _)| *c == code),
            "{name} should contain {code:?}, got {got:?}"
        );
    }
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
