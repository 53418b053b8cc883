//! Stage two: the analysis passes, each a module over the shared IR.
//!
//! * [`lexical`] — the per-file token-shape rules (H1, H3, P1);
//! * [`flow`] — the flow-sensitive determinism rules (D4 chunk-order
//!   float combines, D5 panic-reachable parallel regions);
//! * [`coverage`] — C1, the `*_compute` ↔ `*_profile` pairing gate for
//!   `crates/kernels`;
//! * [`unsafety`] — U1, confinement of `unsafe` to the explicit-SIMD
//!   module and the `// SAFETY:` justification requirement inside it.
//!
//! [`run_all`] is the orchestration point shared by the single-file
//! entry (`lint_rust`, used by the fixture corpus) and the workspace
//! walk (`lint_workspace`): findings come back raw, grouped per file,
//! so the caller can apply suppression directives file by file.

pub mod coverage;
pub mod flow;
pub mod lexical;
pub mod unsafety;

use crate::callgraph::CallGraph;
use crate::diag::Diagnostic;
use crate::ir::FileIr;
use crate::lexer::{lex, Lexed};
use crate::rustlint::FileClass;
use std::path::PathBuf;

/// One indexed source file: everything a pass needs to know about it.
#[derive(Debug)]
pub struct FileCtx {
    /// Path as it should appear in diagnostics (workspace-relative).
    pub path: PathBuf,
    /// Workspace position of the file.
    pub class: FileClass,
    /// Token stream and retained comments.
    pub lexed: Lexed,
    /// Stage-one IR.
    pub ir: FileIr,
}

impl FileCtx {
    /// Lexes and indexes one source file.
    pub fn new(path: PathBuf, src: &str, class: FileClass) -> FileCtx {
        let lexed = lex(src);
        let ir = FileIr::build(&lexed.toks);
        FileCtx {
            path,
            class,
            lexed,
            ir,
        }
    }
}

/// Runs every pass over the indexed files. Returns raw findings
/// (suppressions not yet applied) grouped per file, parallel to
/// `files`.
pub fn run_all(files: &[FileCtx]) -> Vec<Vec<Diagnostic>> {
    let graph = CallGraph::build(files);
    let mut per_file: Vec<Vec<Diagnostic>> = (0..files.len()).map(|_| Vec::new()).collect();
    for (idx, file) in files.iter().enumerate() {
        lexical::run(file, &mut per_file[idx]);
        unsafety::run(file, &mut per_file[idx]);
    }
    flow::run_d4(files, &mut per_file);
    flow::run_d5(files, &graph, &mut per_file);
    coverage::run(files, &mut per_file);
    per_file
}
