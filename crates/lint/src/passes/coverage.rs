//! C1 — the cost-model coverage gate.
//!
//! mg-kernels' contract is twin-aspect: every kernel ships a
//! `*_compute` function (the numbers) and a `*_profile` sibling (the
//! `KernelRuns` the mg-gpusim timing engine prices). The pairing was
//! once maintained by hand; C1 makes it a gate. For
//! every public, non-test `fn` in the `mg-kernels` crate whose name
//! ends in exactly `_compute` or `_profile`, the sibling with the same
//! stem must exist somewhere in the crate — a kernel cannot ship
//! unpriced, and a profile cannot outlive its kernel.
//!
//! Profile-only entries that price a *family* rather than one kernel
//! (`dense_gemm_profile` backs both dense wrappers) carry an audited
//! `allow(C1)` at their declaration.

use crate::diag::{Diagnostic, LintCode};
use crate::passes::FileCtx;
use std::collections::BTreeMap;

/// The crate the twin-aspect contract applies to.
const KERNELS_CRATE: &str = "mg-kernels";

/// A declaration site: (file index, line).
type Site = (usize, u32);

/// Runs C1 across all files, grouping by crate.
pub fn run(files: &[FileCtx], per_file: &mut [Vec<Diagnostic>]) {
    // stem → (first compute site, first profile site); sites are
    // (file index, line). Duplicate stems (a `mod naive` reference
    // twin) collapse to the first declaration.
    let mut stems: BTreeMap<String, (Option<Site>, Option<Site>)> = BTreeMap::new();
    for (idx, file) in files.iter().enumerate() {
        if file.crate_name != KERNELS_CRATE {
            continue;
        }
        for f in &file.ir.fns {
            if f.in_test || !f.is_pub {
                continue;
            }
            if let Some(stem) = f.name.strip_suffix("_compute") {
                let entry = stems.entry(stem.to_string()).or_default();
                entry.0.get_or_insert((idx, f.line));
            } else if let Some(stem) = f.name.strip_suffix("_profile") {
                let entry = stems.entry(stem.to_string()).or_default();
                entry.1.get_or_insert((idx, f.line));
            }
        }
    }
    for (stem, pair) in stems {
        let (missing, (idx, line), present) = match pair {
            (Some(c), None) => ("profile", c, "compute"),
            (None, Some(p)) => ("compute", p, "profile"),
            _ => continue,
        };
        per_file[idx].push(Diagnostic {
            code: LintCode::C1,
            file: files[idx].path.clone(),
            line,
            message: format!(
                "`{stem}_{present}` has no `{stem}_{missing}` sibling: every kernel \
                 needs both the numbers and the cost model (add the sibling, or \
                 `// mg-lint: allow(C1): <reason>` for a family-shared aspect)"
            ),
        });
    }
}
