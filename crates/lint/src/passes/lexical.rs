//! P1, the one token-shape rule: per-element FP16 decode inside a
//! kernel loop.
//!
//! The rules that used to live here moved into the compiler: the type
//! bans are `disallowed-types` in the workspace `clippy.toml`, `unsafe`
//! is denied by the workspace lint table, and library prints and
//! development macros are Clippy lints in CI's `--lib` run.

use crate::diag::{Diagnostic, LintCode};
use crate::lexer::TokKind;
use crate::passes::FileCtx;
use std::collections::BTreeSet;

/// Runs the lexical rule over one file, appending raw findings.
pub fn run(file: &FileCtx, out: &mut Vec<Diagnostic>) {
    if file.crate_name != "mg-kernels" {
        return;
    }
    let toks = &file.lexed.toks;
    let ir = &file.ir;
    let mut lines_flagged: BTreeSet<u32> = BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        // P1: per-element FP16 decode inside a kernel loop — the
        // packed-panel helpers are the sanctioned hot-path route.
        if t.kind == TokKind::Ident
            && t.text == "to_f32"
            && !ir.in_test[i]
            && ir.in_loop[i]
            && i > 0
            && toks[i - 1].text == "."
            && toks.get(i + 1).is_some_and(|n| n.text == "(")
            && lines_flagged.insert(t.line)
        {
            out.push(Diagnostic {
                code: LintCode::P1,
                file: file.path.clone(),
                line: t.line,
                message: "per-element `to_f32` inside a loop: decode the operand once into an \
                          f32 panel (`mg_tensor::pack`) outside the loop, or add \
                          `// mg-lint: allow(P1): <reason>` for an intentional single decode"
                    .to_string(),
            });
        }
    }
}
