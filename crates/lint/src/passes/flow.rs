//! The flow-sensitive determinism rules.
//!
//! **D4 — chunk-order float combines.** The vendored rayon layer keeps
//! reductions order-stable *per item*, but nothing stops a caller from
//! chunking a float array by `len / current_num_threads()` and summing
//! per-chunk partials: the partial boundaries — and therefore the
//! rounding — then change with `MG_THREADS`, which is exactly the bug
//! class the bit-equality property tests only catch per test case. D4
//! flags a chunked traversal whose chunk geometry is thread-derived
//! (directly, or through the IR's `ThreadDerived` binding facts)
//! inside a function that both touches floats and combines them.
//!
//! **D5 — panic-reachable parallel regions.** A panic inside one
//! worker of a `par::` callback tears the pool down in
//! thread-count-dependent order, so which items completed becomes
//! nondeterministic. D5 walks the call graph from every `par::`
//! callback argument and flags `unwrap()` / `panic!` / `todo!` /
//! `unimplemented!` in reachable non-test code. `expect` is the
//! sanctioned escape route — it carries a documented invariant, the
//! same trade clippy makes between `unwrap_used` and `expect_used` —
//! and `assert!` guards are precondition checks, not latent panics.

use crate::callgraph::{CallGraph, FnRef};
use crate::diag::{Diagnostic, LintCode};
use crate::ir::{is_thread_source, TypeFact};
use crate::lexer::{Tok, TokKind};
use crate::passes::FileCtx;
use std::collections::BTreeSet;

/// Chunked-traversal entry points whose size/bounds argument decides
/// the combine geometry.
const CHUNKY_CALLS: [&str; 7] = [
    "par_chunks",
    "par_chunks_mut",
    "chunks",
    "chunks_mut",
    "for_each_chunk_mut",
    "for_each_part_mut",
    "for_each_part_mut2",
];

/// `par::` entry points whose callback runs on worker threads.
const PAR_ENTRIES: [&str; 5] = [
    "map_indexed",
    "for_each_chunk_mut",
    "for_each_part_mut",
    "for_each_part_mut2",
    "scope",
];

/// Reduction combinators that re-associate what the chunks produced.
const COMBINES: [&str; 4] = ["sum", "fold", "reduce", "product"];

/// D4 over every file.
pub fn run_d4(files: &[FileCtx], per_file: &mut [Vec<Diagnostic>]) {
    for (idx, file) in files.iter().enumerate() {
        if file.class.crate_name == "mg-bench" {
            continue;
        }
        let toks = &file.lexed.toks;
        for f in &file.ir.fns {
            if f.in_test || f.body.0 == f.body.1 {
                continue;
            }
            let body = &toks[f.body.0..f.body.1.min(toks.len())];
            let touches_floats = body.iter().any(|t| {
                (t.kind == TokKind::Ident && (t.text == "f32" || t.text == "f64"))
                    || (t.kind == TokKind::Literal && crate::ir::is_float_literal(&t.text))
            }) || body.iter().enumerate().any(|(o, t)| {
                t.kind == TokKind::Ident
                    && file.ir.binding_fact(&t.text, f.body.0 + o) == Some(TypeFact::Float)
            });
            let combines = body.windows(2).any(|w| {
                (w[0].kind == TokKind::Ident && COMBINES.contains(&w[0].text.as_str()))
                    || (w[0].text == "+" && w[1].text == "=")
            });
            if !touches_floats || !combines {
                continue;
            }
            for call in &f.calls {
                if !CHUNKY_CALLS.contains(&call.name.as_str()) {
                    continue;
                }
                let Some((open, close)) = arg_span(file, call.tok) else {
                    continue;
                };
                let thread_derived = (open + 1..close).any(|t| {
                    is_thread_source(&toks[t])
                        || (toks[t].kind == TokKind::Ident
                            && file.ir.binding_fact(&toks[t].text, t)
                                == Some(TypeFact::ThreadDerived))
                });
                if thread_derived {
                    per_file[idx].push(Diagnostic {
                        code: LintCode::D4,
                        file: file.path.clone(),
                        line: call.line,
                        message: format!(
                            "`{}` with a thread-count-derived chunk geometry in a \
                             float-combining function: the partial boundaries (and the \
                             rounding) change with MG_THREADS; derive the chunk size from \
                             the problem shape, or add `// mg-lint: allow(D4): <reason>`",
                            call.name
                        ),
                    });
                }
            }
        }
    }
}

/// D5 over the workspace: walk from every `par::` callback.
pub fn run_d5(files: &[FileCtx], graph: &CallGraph, per_file: &mut [Vec<Diagnostic>]) {
    // One finding per (file, line), even when a panic source is
    // reachable from several regions.
    let mut flagged: BTreeSet<(usize, u32)> = BTreeSet::new();
    for (idx, file) in files.iter().enumerate() {
        if file.class.is_bin || file.class.crate_name == "mg-bench" {
            continue;
        }
        let toks = &file.lexed.toks;
        for f in &file.ir.fns {
            if f.in_test {
                continue;
            }
            for call in &f.calls {
                if !PAR_ENTRIES.contains(&call.name.as_str()) {
                    continue;
                }
                let Some((open, close)) = arg_span(file, call.tok) else {
                    continue;
                };
                let entry = format!("{} at {}:{}", call.name, file.path.display(), call.line);
                // Panic sources written directly in the callback.
                for (line, what) in panic_sources(toks, open + 1, close) {
                    if flagged.insert((idx, line)) {
                        per_file[idx].push(d5(file, line, &what, &entry));
                    }
                }
                // ...and ones reachable through calls made in it.
                let mut seeds: Vec<FnRef> = Vec::new();
                for t in open + 1..close {
                    if toks[t].kind == TokKind::Ident
                        && toks.get(t + 1).is_some_and(|n| n.text == "(")
                        && !PAR_ENTRIES.contains(&toks[t].text.as_str())
                    {
                        seeds.extend(graph.resolve(files, idx, &toks[t].text));
                    }
                }
                for (tfi, tni) in graph.reachable(files, seeds) {
                    let target = &files[tfi].ir.fns[tni];
                    if target.in_test || files[tfi].class.crate_name == "mg-bench" {
                        continue;
                    }
                    let ttoks = &files[tfi].lexed.toks;
                    for (line, what) in panic_sources(ttoks, target.body.0, target.body.1) {
                        if flagged.insert((tfi, line)) {
                            per_file[tfi].push(d5(&files[tfi], line, &what, &entry));
                        }
                    }
                }
            }
        }
    }
}

fn d5(file: &FileCtx, line: u32, what: &str, entry: &str) -> Diagnostic {
    Diagnostic {
        code: LintCode::D5,
        file: file.path.clone(),
        line,
        message: format!(
            "`{what}` is reachable from the parallel region entered via `{entry}`: a \
             mid-batch worker panic tears the pool down in thread-count-dependent \
             order; return the error, use `expect(\"<invariant>\")`, or add \
             `// mg-lint: allow(D5): <reason>`"
        ),
    }
}

/// The `(`..`)` token span of the call whose callee name is at `tok`.
fn arg_span(file: &FileCtx, tok: usize) -> Option<(usize, usize)> {
    let open = tok + 1;
    if file.lexed.toks.get(open)?.text != "(" {
        return None;
    }
    let close = *file.ir.close_of.get(&open)?;
    Some((open, close))
}

/// Panic sources in `[start, end)`: `(line, description)` pairs.
fn panic_sources(toks: &[Tok], start: usize, end: usize) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for i in start..end.min(toks.len()) {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let next = toks.get(i + 1).map(|n| n.text.as_str());
        match t.text.as_str() {
            "unwrap" if i > 0 && toks[i - 1].text == "." && next == Some("(") => {
                out.push((t.line, "unwrap()".to_string()));
            }
            "panic" | "todo" | "unimplemented" if next == Some("!") => {
                out.push((t.line, format!("{}!", t.text)));
            }
            _ => {}
        }
    }
    out
}
