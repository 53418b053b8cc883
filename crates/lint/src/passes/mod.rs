//! Stage two: the analysis passes, each a module over the shared index.
//!
//! * [`lexical`] — P1, per-element FP16 decode in a `crates/kernels`
//!   loop;
//! * [`coverage`] — C1, the `*_compute` ↔ `*_profile` pairing gate for
//!   `crates/kernels`.
//!
//! [`run_all`] is the orchestration point shared by the single-file
//! entry (`lint_rust`, used by the fixture corpus) and the workspace
//! walk (`lint_workspace`): findings come back raw, grouped per file,
//! so the caller can apply suppression directives file by file.

pub mod coverage;
pub mod lexical;

use crate::diag::Diagnostic;
use crate::ir::FileIr;
use crate::lexer::{lex, Lexed};
use std::path::PathBuf;

/// One indexed source file: everything a pass needs to know about it.
#[derive(Debug)]
pub struct FileCtx {
    /// Path as it should appear in diagnostics (workspace-relative).
    pub path: PathBuf,
    /// Package name of the owning crate (e.g. `mg-kernels`): both
    /// rules apply to one crate only.
    pub crate_name: String,
    /// Token stream and retained comments.
    pub lexed: Lexed,
    /// Stage-one index.
    pub ir: FileIr,
}

impl FileCtx {
    /// Lexes and indexes one source file.
    pub fn new(path: PathBuf, src: &str, crate_name: &str) -> FileCtx {
        let lexed = lex(src);
        let ir = FileIr::build(&lexed.toks);
        FileCtx {
            path,
            crate_name: crate_name.to_string(),
            lexed,
            ir,
        }
    }
}

/// Runs every pass over the indexed files. Returns raw findings
/// (suppressions not yet applied) grouped per file, parallel to
/// `files`.
pub fn run_all(files: &[FileCtx]) -> Vec<Vec<Diagnostic>> {
    let mut per_file: Vec<Vec<Diagnostic>> = (0..files.len()).map(|_| Vec::new()).collect();
    for (idx, file) in files.iter().enumerate() {
        lexical::run(file, &mut per_file[idx]);
    }
    coverage::run(files, &mut per_file);
    per_file
}
