//! The per-file token-shape rules: H1, H3, P1.
//!
//! The type bans that used to live here (hash-ordered collections, wall
//! clocks) are `disallowed-types` in the workspace `clippy.toml`, where
//! the compiler resolves paths, aliases and tests that token matching
//! could not.

use crate::diag::{Diagnostic, LintCode};
use crate::lexer::{Tok, TokKind};
use crate::passes::FileCtx;
use std::collections::BTreeSet;

/// Runs the lexical rules over one file, appending raw findings.
pub fn run(file: &FileCtx, out: &mut Vec<Diagnostic>) {
    let toks = &file.lexed.toks;
    let ir = &file.ir;
    let class = &file.class;

    let mut lines_flagged: BTreeSet<(u32, LintCode)> = BTreeSet::new();
    let mut push_once = |out: &mut Vec<Diagnostic>, code, line, message: String| {
        if lines_flagged.insert((line, code)) {
            out.push(Diagnostic {
                code,
                file: file.path.clone(),
                line,
                message,
            });
        }
    };

    let exempt_bench = class.crate_name == "mg-bench";
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || ir.in_test[i] {
            continue;
        }
        match t.text.as_str() {
            // H3: stdout/stderr prints and leftover development macros
            // in library code.
            "print" | "println" | "eprint" | "eprintln" | "dbg" | "todo" | "unimplemented"
                if !class.is_bin
                    && !exempt_bench
                    && toks.get(i + 1).is_some_and(|n| n.text == "!") =>
            {
                let note = match t.text.as_str() {
                    "dbg" => "debugging leftovers do not belong in library code",
                    "todo" | "unimplemented" => {
                        "an unfinished path panics at runtime; finish it or return an error"
                    }
                    _ => "return data or thread a writer; only crates/bench binaries own stdout",
                };
                push_once(
                    out,
                    LintCode::H3,
                    t.line,
                    format!("`{}!` in a library crate: {note}", t.text),
                );
            }
            // P1: per-element FP16 decode inside a kernel loop — the
            // packed-panel helpers are the sanctioned hot-path route.
            "to_f32"
                if class.crate_name == "mg-kernels"
                    && ir.in_loop[i]
                    && i > 0
                    && toks[i - 1].text == "."
                    && toks.get(i + 1).is_some_and(|n| n.text == "(") =>
            {
                push_once(
                    out,
                    LintCode::P1,
                    t.line,
                    "per-element `to_f32` inside a loop: decode the operand once into an \
                     f32 panel (`mg_tensor::pack`) outside the loop, or add \
                     `// mg-lint: allow(P1): <reason>` for an intentional single decode"
                        .to_string(),
                );
            }
            _ => {}
        }
    }

    // H1: lib.rs must forbid unsafe code. The single exception is
    // mg-tensor, which hosts the explicit-SIMD layer: its lib.rs may
    // use `deny(unsafe_code)` instead (so `crates/tensor/src/simd.rs`
    // can lift it with a module-scoped allow), and the U1 pass takes
    // over from there, confining every `unsafe` token to that one
    // module and requiring a `// SAFETY:` justification on each.
    let deny_ok = class.crate_name == "mg-tensor" && has_deny_unsafe(toks);
    if class.is_lib_rs && !has_forbid_unsafe(toks) && !deny_ok {
        out.push(Diagnostic {
            code: LintCode::H1,
            file: file.path.clone(),
            line: 1,
            message: "missing `#![forbid(unsafe_code)]` in lib.rs".to_string(),
        });
    }
}

/// Whether the token stream contains `forbid ( unsafe_code )`.
fn has_forbid_unsafe(toks: &[Tok]) -> bool {
    toks.windows(3)
        .any(|w| w[0].text == "forbid" && w[1].text == "(" && w[2].text == "unsafe_code")
}

/// Whether the token stream contains `deny ( unsafe_code )` — the
/// weaker lint level only `mg-tensor`'s lib.rs is allowed to use.
fn has_deny_unsafe(toks: &[Tok]) -> bool {
    toks.windows(3)
        .any(|w| w[0].text == "deny" && w[1].text == "(" && w[2].text == "unsafe_code")
}
