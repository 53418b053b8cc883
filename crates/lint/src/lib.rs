//! # mg-lint — the kernel-crate rules no compiler lint expresses
//!
//! Every headline number this workspace produces rests on one promise:
//! **the same inputs produce the same bits, on any machine, at any
//! thread count**. Most of that contract is enforced by the compiler
//! and by tests (see the table below); this crate keeps the two rules
//! that neither can express, both about `crates/kernels`, plus the
//! audit of its own suppressions.
//!
//! The analyzer is built from scratch on a hand-rolled lexer (the build
//! environment has no registry access, so no `syn`). **Stage one**
//! ([`ir`]) indexes every file: its `fn` items and two token masks
//! (test code, loop bodies). **Stage two** ([`passes`]) runs the rules
//! over that index. The analyzer is honest about being an
//! over-approximation: anything it cannot prove fine is a finding, and
//! the escape hatch is an *audited* suppression comment on the
//! offending line (or the line directly above):
//!
//! ```text
//! // mg-lint: allow(P1): single score decode, not an operand sweep
//! ```
//!
//! | Code | Meaning |
//! |------|---------|
//! | P1 | per-element `Half::to_f32` inside a loop in `crates/kernels` |
//! | C1 | unpaired `*_compute` / `*_profile` kernel in `crates/kernels` |
//! | A1 | bare/unknown/non-suppressible `allow` directive |
//! | A2 | `allow` directive that suppressed nothing |
//!
//! P1 and C1 are suppressible with a reasoned `allow`; the A-codes
//! audit the allows themselves and cannot be waived.
//!
//! What enforces the rest of the contract (`CODES.md` lists the
//! retired codes):
//!
//! | Rule | Enforced by |
//! |------|-------------|
//! | no hash-ordered collections, no wall clocks | `clippy.toml` `disallowed-types` |
//! | no thread count in library code | `clippy.toml` `disallowed-methods` |
//! | `unsafe` only in `crates/tensor/src/simd.rs`, each use documented | the workspace lint table (`unsafe_code`, `undocumented_unsafe_blocks`) and `missing_safety_doc` |
//! | no prints or development macros in library code | CI's `cargo clippy --workspace --lib` run |
//! | a worker panic surfaces the lowest index's payload | the `par` panic tests in `mg-tensor` |
//! | partitioned mutation is disjoint and covering | the `dsan` feature of `mg-tensor` |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diag;
pub mod ir;
pub mod lexer;
pub mod manifest;
pub mod passes;
pub mod rustlint;

pub use diag::{Diagnostic, LintCode};
pub use passes::FileCtx;
pub use rustlint::lint_rust;

use manifest::{package_name, workspace_members};
use rustlint::apply_suppressions;
use std::path::{Path, PathBuf};

/// Walks every workspace member crate and returns all findings, sorted
/// by `(file, line, code)` with paths normalized to forward slashes —
/// the canonical order, stable across filesystems, that both the text
/// and `--json` emitters preserve.
///
/// Per crate, the scan reads the package name from `Cargo.toml` and
/// lints every `.rs` file under `src/`. Tests, benches, examples, and
/// fixture corpora live outside `src/` and are exempt by construction;
/// `#[cfg(test)]` regions inside `src/` are exempted by the analyzer
/// itself.
///
/// # Errors
///
/// Returns a message when the root manifest or a member source file
/// cannot be read.
pub fn lint_workspace(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let root_manifest_path = root.join("Cargo.toml");
    let root_manifest = std::fs::read_to_string(&root_manifest_path)
        .map_err(|e| format!("{}: {e}", root_manifest_path.display()))?;
    let members = workspace_members(root, &root_manifest);
    if members.is_empty() {
        return Err(format!(
            "{}: no workspace members found",
            root_manifest_path.display()
        ));
    }

    let mut files: Vec<FileCtx> = Vec::new();
    for dir in &members {
        let manifest_path = dir.join("Cargo.toml");
        let manifest_src = std::fs::read_to_string(&manifest_path)
            .map_err(|e| format!("{}: {e}", manifest_path.display()))?;
        let crate_name = package_name(&manifest_src);

        let src_dir = dir.join("src");
        let mut paths = Vec::new();
        collect_rs_files(&src_dir, &mut paths)?;
        paths.sort();
        for file in paths {
            let src =
                std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
            files.push(FileCtx::new(rel(root, &file), &src, &crate_name));
        }
    }

    let mut per_file = passes::run_all(&files);

    let mut findings: Vec<Diagnostic> = Vec::new();
    for (i, ctx) in files.iter().enumerate() {
        findings.extend(apply_suppressions(
            &ctx.path,
            &ctx.lexed,
            std::mem::take(&mut per_file[i]),
        ));
    }
    findings.sort_by(|a, b| {
        (path_key(&a.file), a.line, a.code).cmp(&(path_key(&b.file), b.line, b.code))
    });
    Ok(findings)
}

/// Recursively collects `.rs` files under `dir`.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Reports paths relative to the workspace root so diagnostics are
/// stable across machines (and CI log lines are clickable).
fn rel(root: &Path, path: &Path) -> PathBuf {
    path.strip_prefix(root).unwrap_or(path).to_path_buf()
}

/// The canonical textual form of a diagnostic path: forward slashes on
/// every platform, so sort order and emitted output never depend on
/// the host filesystem's separator.
pub fn path_key(path: &Path) -> String {
    path.to_string_lossy().replace('\\', "/")
}

/// Renders findings as the hand-rolled JSON the `--json` mode emits:
/// an object with a `findings` array and a `count`. Paths are
/// workspace-relative with forward slashes (see [`path_key`]).
pub fn to_json(findings: &[Diagnostic]) -> String {
    let mut out = String::from("{\n  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {\"file\": \"");
        json_escape(&path_key(&f.file), &mut out);
        out.push_str("\", \"line\": ");
        out.push_str(&f.line.to_string());
        out.push_str(", \"code\": \"");
        out.push_str(f.code.as_str());
        out.push_str("\", \"message\": \"");
        json_escape(&f.message, &mut out);
        out.push_str("\"}");
    }
    if !findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n  \"count\": ");
    out.push_str(&findings.len().to_string());
    out.push_str("\n}\n");
    out
}

fn json_escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping_is_sound_and_paths_are_normalized() {
        let d = Diagnostic {
            code: LintCode::P1,
            file: PathBuf::from("a\\b.rs"),
            line: 3,
            message: "say \"hi\"\n".to_string(),
        };
        let j = to_json(&[d]);
        // The backslash in the path is a Windows separator: it
        // normalizes to `/` rather than being escaped.
        assert!(j.contains("a/b.rs"));
        assert!(j.contains("say \\\"hi\\\"\\n"));
        assert!(j.contains("\"count\": 1"));
        assert_eq!(to_json(&[]), "{\n  \"findings\": [],\n  \"count\": 0\n}\n");
    }

    #[test]
    fn path_key_is_separator_stable() {
        assert_eq!(
            path_key(Path::new("crates/lint/src/lib.rs")),
            "crates/lint/src/lib.rs"
        );
        assert_eq!(
            path_key(Path::new("crates\\lint\\src\\lib.rs")),
            "crates/lint/src/lib.rs"
        );
    }
}
