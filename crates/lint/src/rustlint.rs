//! The single-file lint driver and the suppression/audit engine.
//!
//! The rule logic itself lives in [`crate::passes`] (stage two, over
//! the [`crate::ir`] stage-one IR); this module keeps the two pieces
//! every entry point shares: [`FileClass`] — where a file sits in the
//! workspace, which decides what applies to it — and
//! `apply_suppressions`, which parses `// mg-lint: allow(CODE):
//! reason` directives and audits them (A-codes).
//!
//! [`lint_rust`] lints one file as a one-file workspace: the fixture
//! corpus uses it, and it is exactly what `lint_workspace` does per
//! file minus the cross-file context (workspace call graph edges,
//! crate-wide C1 pairing).

use crate::diag::{parse_directive, Diagnostic, Directive, LintCode};
use crate::lexer::Lexed;
use crate::passes::{self, FileCtx};
use std::path::Path;

/// How a file sits inside the workspace — decides which rules apply.
#[derive(Debug, Clone)]
pub struct FileClass {
    /// Package name of the owning crate (e.g. `mg-serve`).
    pub crate_name: String,
    /// Whether the file is a binary target (`src/bin/**` or
    /// `src/main.rs`): exempt from the library-code rule H3.
    pub is_bin: bool,
    /// Whether the file is the crate's `lib.rs` (H1 applies).
    pub is_lib_rs: bool,
}

/// Lints one Rust source file. Returns findings with suppressions
/// already applied and the A-code audit of the suppressions appended.
pub fn lint_rust(path: &Path, src: &str, class: &FileClass) -> Vec<Diagnostic> {
    let files = vec![FileCtx::new(path.to_path_buf(), src, class.clone())];
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
                    "`allow({code})` is not honored: {code} is a structural requirement; \
                     fix the source instead"
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

    fn lib_class() -> FileClass {
        FileClass {
            crate_name: "mg-example".to_string(),
            is_bin: false,
            is_lib_rs: false,
        }
    }

    fn codes(src: &str, class: &FileClass) -> Vec<(LintCode, u32)> {
        lint_rust(&PathBuf::from("x.rs"), src, class)
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
        let x = 1u32;
        println!(\"{x}\");
        dbg!(x);
    }
}
";
        assert!(codes(src, &lib_class()).is_empty());
        // The same body outside the test module fires.
        let outside = "pub fn t() { let x = 1u32; println!(\"{x}\"); dbg!(x); }\n";
        assert_eq!(codes(outside, &lib_class()), vec![(LintCode::H3, 1)]);
    }

    #[test]
    fn wall_clock_and_rng_and_prints_fire_with_lines() {
        // Wall clocks and hash-ordered collections are clippy's
        // `disallowed-types` now, and no RNG in the build draws entropy:
        // only the print is mg-lint's, at its own line.
        let src = "\
use std::time::Instant;
pub fn f() {
    let t = Instant::now();
    let r = rand::thread_rng();
    println!(\"{:?} {:?}\", t, r);
}
";
        let got = codes(src, &lib_class());
        assert_eq!(got, vec![(LintCode::H3, 5)]);
    }

    #[test]
    fn development_macros_fire_h3() {
        let src = "\
pub fn f(x: u32) -> u32 {
    dbg!(x);
    if x > 3 { todo!() } else { x }
}
pub fn g() { unimplemented!() }
";
        let got = codes(src, &lib_class());
        assert_eq!(
            got,
            vec![(LintCode::H3, 2), (LintCode::H3, 3), (LintCode::H3, 5)]
        );
    }

    #[test]
    fn bench_crate_may_use_wall_clock_and_bins_may_print() {
        let bench = FileClass {
            crate_name: "mg-bench".to_string(),
            is_bin: false,
            is_lib_rs: false,
        };
        let src = "use std::time::Instant;\npub fn f() { print!(\"x\"); }\n";
        assert!(codes(src, &bench).is_empty());
        assert_eq!(codes(src, &lib_class()), vec![(LintCode::H3, 2)]);
        let bin = FileClass {
            is_bin: true,
            ..lib_class()
        };
        let src = "fn main() { let m = 1u8; println!(\"{:?}\", m); }\n";
        assert!(codes(src, &bin).is_empty());
        assert_eq!(codes(src, &lib_class()), vec![(LintCode::H3, 1)]);
    }

    #[test]
    fn h1_fires_only_on_lib_rs_without_forbid() {
        let lib = FileClass {
            is_lib_rs: true,
            ..lib_class()
        };
        assert_eq!(codes("pub fn f() {}\n", &lib), vec![(LintCode::H1, 1)]);
        assert!(codes("#![forbid(unsafe_code)]\npub fn f() {}\n", &lib).is_empty());
    }

    #[test]
    fn h1_accepts_deny_unsafe_for_mg_tensor_only() {
        let deny = "#![deny(unsafe_code)]\npub fn f() {}\n";
        // mg-tensor hosts the explicit-SIMD layer, so its lib.rs may
        // weaken forbid to deny (U1 takes over confinement from there).
        let tensor = FileClass {
            crate_name: "mg-tensor".to_string(),
            is_bin: false,
            is_lib_rs: true,
        };
        assert!(codes(deny, &tensor).is_empty());
        // Every other crate must keep the forbid.
        let other = FileClass {
            is_lib_rs: true,
            ..lib_class()
        };
        assert_eq!(codes(deny, &other), vec![(LintCode::H1, 1)]);
    }

    #[test]
    fn u1_fires_on_unsafe_outside_the_simd_module() {
        let src = "\
#![forbid(unsafe_code)]
pub fn f(p: *const u8) -> u8 {
    unsafe { *p }
}
";
        assert_eq!(codes(src, &lib_class()), vec![(LintCode::U1, 3)]);
        // Test code gets no exemption: unsafe in a test belongs in
        // simd.rs too.
        let test_src = "\
pub fn ok() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let x = 1u8;
        let p = &x as *const u8;
        assert_eq!(unsafe { *p }, 1);
    }
}
";
        assert_eq!(codes(test_src, &lib_class()), vec![(LintCode::U1, 8)]);
    }

    #[test]
    fn u1_is_not_suppressible() {
        let src = "\
pub fn f(p: *const u8) -> u8 {
    // mg-lint: allow(U1): trust me
    unsafe { *p }
}
";
        let got = codes(src, &lib_class());
        // The allow is audited as A1 (structural) and the finding stays.
        assert_eq!(got, vec![(LintCode::A1, 2), (LintCode::U1, 3)]);
    }

    #[test]
    fn u1_in_simd_rs_requires_safety_comments() {
        let simd_path = PathBuf::from("crates/tensor/src/simd.rs");
        let tensor = FileClass {
            crate_name: "mg-tensor".to_string(),
            is_bin: false,
            is_lib_rs: false,
        };
        let lint = |src: &str| -> Vec<(LintCode, u32)> {
            lint_rust(&simd_path, src, &tensor)
                .into_iter()
                .map(|d| (d.code, d.line))
                .collect()
        };

        // Justified: trailing comment, comment directly above, and a
        // comment block above an attribute line all count.
        let justified = "\
pub fn f(p: *const u8) -> u8 {
    unsafe { *p } // SAFETY: caller guarantees p is valid
}
// SAFETY: the AVX2 target feature is checked by the dispatcher.
// A second comment line keeps the block contiguous.
#[target_feature(enable = \"avx2\")]
pub unsafe fn g() {}
pub fn h(p: *const u8) -> u8 {
    // SAFETY: p comes from a live slice.
    unsafe { *p }
}
";
        assert_eq!(lint(justified), vec![]);

        // Unjustified: same shapes with the SAFETY comments missing.
        let bare = "\
pub fn f(p: *const u8) -> u8 {
    unsafe { *p }
}
#[target_feature(enable = \"avx2\")]
pub unsafe fn g() {}
";
        assert_eq!(lint(bare), vec![(LintCode::U1, 2), (LintCode::U1, 5)]);

        // A plain comment above is not a justification.
        let wrong_comment = "\
pub fn f(p: *const u8) -> u8 {
    // reads one byte
    unsafe { *p }
}
";
        assert_eq!(lint(wrong_comment), vec![(LintCode::U1, 3)]);
    }

    #[test]
    fn per_element_decode_in_kernel_loop_fires_p1() {
        let kernels = FileClass {
            crate_name: "mg-kernels".to_string(),
            is_bin: false,
            is_lib_rs: false,
        };
        let src = "\
pub fn f(xs: &[Half], out: &mut [f32]) {
    for (i, x) in xs.iter().enumerate() {
        out[i] = x.to_f32();
    }
}
";
        assert_eq!(codes(src, &kernels), vec![(LintCode::P1, 3)]);
        // The same decode outside a loop, or in any other crate, is fine.
        let one_off = "pub fn g(x: Half) -> f32 { x.to_f32() }\n";
        assert!(codes(one_off, &kernels).is_empty());
        assert!(codes(src, &lib_class()).is_empty());
    }

    #[test]
    fn p1_is_suppressible_with_a_reason() {
        let kernels = FileClass {
            crate_name: "mg-kernels".to_string(),
            is_bin: false,
            is_lib_rs: false,
        };
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
        assert!(codes(src, &kernels).is_empty());
    }

    #[test]
    fn bare_unknown_and_unused_allows_are_audited() {
        let src = "\
pub fn f() {}
// mg-lint: allow(H3)
// mg-lint: allow(Z9): nonsense
// mg-lint: allow(H1): structural
// mg-lint: allow(H3): nothing here to suppress
// mg-lint: allow(D1): a retired code is unknown
pub fn g() {}
";
        let got = codes(src, &lib_class());
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
pub fn f() {
    // mg-lint: allow(H3): the caller asked for a console report
    println!(\"report\");
}
";
        assert!(codes(src, &lib_class()).is_empty());
        let unsuppressed = src.replace("allow(H3)", "allow(P1)");
        assert_eq!(
            codes(&unsuppressed, &lib_class()),
            vec![(LintCode::A2, 2), (LintCode::H3, 3)]
        );
    }
}
