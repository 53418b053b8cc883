//! The single-file lint driver and the suppression/audit engine.
//!
//! The rule logic itself lives in [`crate::passes`] (stage two, over
//! the [`crate::ir`] stage-one index); this module keeps what every
//! entry point shares: `apply_suppressions`, which parses
//! `// mg-lint: allow(CODE): reason` directives and audits them
//! (A-codes).
//!
//! [`lint_rust`] lints one file as a one-file workspace: the fixture
//! corpus uses it, and it is exactly what `lint_workspace` does per
//! file minus the crate-wide C1 pairing.

use crate::diag::{parse_directive, Diagnostic, Directive, LintCode};
use crate::lexer::Lexed;
use crate::passes::{self, FileCtx};
use std::path::Path;

/// Lints one Rust source file as part of the crate `crate_name` (the
/// package name, e.g. `mg-kernels`, which decides whether P1 and C1
/// apply). Returns findings with suppressions already applied and the
/// A-code audit of the suppressions appended.
pub fn lint_rust(path: &Path, src: &str, crate_name: &str) -> Vec<Diagnostic> {
    let files = vec![FileCtx::new(path.to_path_buf(), src, crate_name)];
    let mut per_file = passes::run_all(&files);
    apply_suppressions(path, &files[0].lexed, std::mem::take(&mut per_file[0]))
}

/// Parses directives from the comments and applies them: suppressible
/// findings on a directive's target line are removed; malformed
/// directives become A1 findings, unused valid directives A2.
pub(crate) fn apply_suppressions(
    path: &Path,
    lexed: &Lexed,
    findings: Vec<Diagnostic>,
) -> Vec<Diagnostic> {
    let mut valid: Vec<(Directive, bool)> = Vec::new(); // (directive, used)
    let mut audit: Vec<Diagnostic> = Vec::new();
    for c in &lexed.comments {
        let alone = !lexed.line_has_code(c.line);
        let Some(d) = parse_directive(&c.text, c.line, alone) else {
            continue;
        };
        match d.code {
            Some(code) if d.has_reason && code.suppressible() => valid.push((d, false)),
            Some(code) if !code.suppressible() => audit.push(Diagnostic {
                code: LintCode::A1,
                file: path.to_path_buf(),
                line: c.line,
                message: format!(
                    "`allow({code})` is not honored: {code} audits the allows themselves \
                     and cannot be waived"
                ),
            }),
            Some(code) => audit.push(Diagnostic {
                code: LintCode::A1,
                file: path.to_path_buf(),
                line: c.line,
                message: format!(
                    "bare `allow({code})`: a suppression must carry an audited reason \
                     (`// mg-lint: allow({code}): <why this is safe>`)"
                ),
            }),
            None => audit.push(Diagnostic {
                code: LintCode::A1,
                file: path.to_path_buf(),
                line: c.line,
                message: "malformed mg-lint directive: expected \
                          `mg-lint: allow(CODE): <reason>` with a known code"
                    .to_string(),
            }),
        }
    }

    let mut kept: Vec<Diagnostic> = Vec::new();
    for f in findings {
        let mut suppressed = false;
        for (d, used) in valid.iter_mut() {
            if d.target_line == f.line && d.code == Some(f.code) {
                *used = true;
                suppressed = true;
            }
        }
        if !suppressed {
            kept.push(f);
        }
    }
    for (d, used) in valid {
        if !used {
            audit.push(Diagnostic {
                code: LintCode::A2,
                file: path.to_path_buf(),
                line: d.line,
                message: format!(
                    "unused `allow({})`: nothing to suppress on line {}; remove the stale \
                     directive",
                    d.code.map(|c| c.as_str()).unwrap_or("?"),
                    d.target_line
                ),
            });
        }
    }
    kept.extend(audit);
    kept.sort_by_key(|f| (f.line, f.code));
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    const KERNELS: &str = "mg-kernels";

    fn codes(src: &str, crate_name: &str) -> Vec<(LintCode, u32)> {
        lint_rust(&PathBuf::from("x.rs"), src, crate_name)
            .into_iter()
            .map(|d| (d.code, d.line))
            .collect()
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "\
pub fn ok() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        for x in [Half::ONE] {
            let _ = x.to_f32();
        }
    }
}
";
        assert!(codes(src, KERNELS).is_empty());
        // The same body outside the test module fires.
        let outside = "pub fn t() { for x in [Half::ONE] { let _ = x.to_f32(); } }\n";
        assert_eq!(codes(outside, KERNELS), vec![(LintCode::P1, 1)]);
    }

    #[test]
    fn per_element_decode_in_kernel_loop_fires_p1() {
        let src = "\
pub fn f(xs: &[Half], out: &mut [f32]) {
    for (i, x) in xs.iter().enumerate() {
        out[i] = x.to_f32();
    }
}
";
        assert_eq!(codes(src, KERNELS), vec![(LintCode::P1, 3)]);
        // The same decode outside a loop, or in any other crate, is fine.
        let one_off = "pub fn g(x: Half) -> f32 { x.to_f32() }\n";
        assert!(codes(one_off, KERNELS).is_empty());
        assert!(codes(src, "mg-example").is_empty());
    }

    #[test]
    fn p1_is_suppressible_with_a_reason() {
        let src = "\
pub fn f(xs: &[Half]) -> f32 {
    let mut acc = 0.0f32;
    for x in xs {
        // mg-lint: allow(P1): single score decode, not an operand sweep
        acc += x.to_f32();
    }
    acc
}
";
        assert!(codes(src, KERNELS).is_empty());
    }

    #[test]
    fn bare_unknown_and_unused_allows_are_audited() {
        let src = "\
pub fn f() {}
// mg-lint: allow(P1)
// mg-lint: allow(Z9): nonsense
// mg-lint: allow(A2): the audit cannot be waived
// mg-lint: allow(P1): nothing here to suppress
// mg-lint: allow(H3): a retired code is unknown
pub fn g() {}
";
        let got = codes(src, KERNELS);
        assert_eq!(
            got,
            vec![
                (LintCode::A1, 2),
                (LintCode::A1, 3),
                (LintCode::A1, 4),
                (LintCode::A2, 5),
                (LintCode::A1, 6),
            ]
        );
    }

    #[test]
    fn standalone_allow_covers_the_next_line() {
        let src = "\
pub fn f(xs: &[Half], out: &mut [f32]) {
    for (o, x) in out.iter_mut().zip(xs) {
        // mg-lint: allow(P1): the reference loop the panels are checked against
        *o = x.to_f32();
    }
}
";
        assert!(codes(src, KERNELS).is_empty());
        let unsuppressed = src.replace("allow(P1)", "allow(C1)");
        assert_eq!(
            codes(&unsuppressed, KERNELS),
            vec![(LintCode::A2, 3), (LintCode::P1, 4)]
        );
    }
}
