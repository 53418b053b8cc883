//! Diagnostic types, lint codes, and the suppression directive.

use std::fmt;
use std::path::PathBuf;

/// Stable lint codes. `D` codes guard the determinism contract the
/// MG_THREADS=1 bit-equality CI gates rely on; `H` codes are hard
/// hygiene requirements of the workspace; `U` codes confine `unsafe`
/// to its one sanctioned module; `A` codes police the suppression
/// mechanism itself. Names are never reused: `H2` and `H4` (checks of
/// a retired `parallel` cargo feature) and `D3` (unseeded RNG, whose
/// names the vendored `rand` cannot resolve) stay unassigned, and `D1`
/// and `D2` (hash-ordered collections, wall clocks) moved to the
/// `disallowed-types` list of the workspace `clippy.toml`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LintCode {
    /// Flow-sensitive float-reduction-order hazard: a chunked traversal
    /// whose chunk geometry derives from the runtime thread count,
    /// inside a function that accumulates floats — the combine order
    /// (and therefore the rounding) changes with `MG_THREADS`.
    D4,
    /// Panic-reachable parallel region: `unwrap()`, `panic!`, `todo!`,
    /// or `unimplemented!` inside (or reachable from) a `par::`
    /// callback — a mid-batch worker panic tears the pool down in
    /// thread-count-dependent order.
    D5,
    /// Missing `#![forbid(unsafe_code)]` in a crate's `lib.rs`.
    H1,
    /// `print!`/`println!`/`eprint!`/`eprintln!` (and `dbg!`, `todo!`,
    /// `unimplemented!`) in library code outside `crates/bench`.
    H3,
    /// Malformed suppression: `mg-lint: allow(...)` without a reason,
    /// or with an unknown code.
    A1,
    /// Suppression that suppressed nothing — stale allows must be
    /// removed, or the audit trail rots.
    A2,
    /// Per-element `Half::to_f32` decode inside a loop in
    /// `crates/kernels`: the packed-panel helpers
    /// (`mg_tensor::pack`) are the sanctioned route for the numeric
    /// hot path. Suppressible for intentional single decodes.
    P1,
    /// Cost-model coverage: a public `*_compute` kernel in
    /// `crates/kernels` without a matching `*_profile` sibling (or
    /// vice versa) — a kernel must never ship unpriced, and a profile
    /// must never price a kernel that no longer exists.
    C1,
    /// Unsafe-confinement violation: an `unsafe` token anywhere
    /// outside `crates/tensor/src/simd.rs` (the one sanctioned unsafe
    /// surface, the explicit-SIMD layer), or an `unsafe` inside
    /// `simd.rs` without a `// SAFETY:` comment justifying it.
    U1,
}

impl LintCode {
    /// All codes, in severity-report order.
    pub const ALL: [LintCode; 9] = [
        LintCode::D4,
        LintCode::D5,
        LintCode::H1,
        LintCode::H3,
        LintCode::U1,
        LintCode::P1,
        LintCode::C1,
        LintCode::A1,
        LintCode::A2,
    ];

    /// Parses a code name (`"D4"`), case-sensitively.
    pub fn parse(s: &str) -> Option<LintCode> {
        LintCode::ALL.into_iter().find(|c| c.as_str() == s)
    }

    /// The stable textual name.
    pub fn as_str(&self) -> &'static str {
        match self {
            LintCode::D4 => "D4",
            LintCode::D5 => "D5",
            LintCode::H1 => "H1",
            LintCode::H3 => "H3",
            LintCode::A1 => "A1",
            LintCode::A2 => "A2",
            LintCode::P1 => "P1",
            LintCode::C1 => "C1",
            LintCode::U1 => "U1",
        }
    }

    /// Whether an `// mg-lint: allow(..)` comment may silence this
    /// code. Structural requirements (H1, U1) and the
    /// allow-audit codes themselves (A1, A2) can only be fixed, not
    /// waived — in particular U1: the unsafe-confinement contract is
    /// precisely the thing a per-line waiver would dissolve.
    pub fn suppressible(&self) -> bool {
        matches!(
            self,
            LintCode::D4 | LintCode::D5 | LintCode::H3 | LintCode::P1 | LintCode::C1
        )
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding: a code anchored to a file and 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which rule fired.
    pub code: LintCode,
    /// File the finding is in.
    pub file: PathBuf,
    /// 1-based line.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file.display(),
            self.line,
            self.code,
            self.message
        )
    }
}

/// A parsed `mg-lint: allow(CODE): reason` directive.
#[derive(Debug, Clone)]
pub struct Directive {
    /// Line the comment is on.
    pub line: u32,
    /// Line the directive applies to: its own line when trailing code,
    /// the next line when the comment stands alone.
    pub target_line: u32,
    /// The parsed code; `None` when unknown.
    pub code: Option<LintCode>,
    /// Whether a non-empty reason followed the code.
    pub has_reason: bool,
}

/// Parses one comment body (leading slashes already stripped) into a
/// directive, or `None` when the comment is not a directive at all.
///
/// Grammar: `mg-lint: allow(CODE): reason text`.
pub fn parse_directive(text: &str, line: u32, alone: bool) -> Option<Directive> {
    let rest = text.trim().strip_prefix("mg-lint:")?.trim_start();
    let target_line = if alone { line + 1 } else { line };
    let Some(rest) = rest.strip_prefix("allow") else {
        // `mg-lint:` followed by anything else is a malformed directive,
        // not a plain comment — surface it rather than silently ignore.
        return Some(Directive {
            line,
            target_line,
            code: None,
            has_reason: false,
        });
    };
    let rest = rest.trim_start();
    let malformed = Directive {
        line,
        target_line,
        code: None,
        has_reason: false,
    };
    let Some(rest) = rest.strip_prefix('(') else {
        return Some(malformed);
    };
    let Some(close) = rest.find(')') else {
        return Some(malformed);
    };
    let code = LintCode::parse(rest[..close].trim());
    let after = rest[close + 1..].trim_start();
    let has_reason = after
        .strip_prefix(':')
        .is_some_and(|reason| !reason.trim().is_empty());
    Some(Directive {
        line,
        target_line,
        code,
        has_reason,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn well_formed_directive_parses() {
        let d = parse_directive("mg-lint: allow(H3): CLI-facing report", 10, false).unwrap();
        assert_eq!(d.code, Some(LintCode::H3));
        assert!(d.has_reason);
        assert_eq!(d.target_line, 10);
    }

    #[test]
    fn standalone_directive_targets_the_next_line() {
        let d = parse_directive("mg-lint: allow(P1): single decode", 4, true).unwrap();
        assert_eq!(d.target_line, 5);
    }

    #[test]
    fn bare_and_unknown_directives_are_flagged_not_ignored() {
        let bare = parse_directive("mg-lint: allow(H3)", 1, false).unwrap();
        assert!(!bare.has_reason);
        let unknown = parse_directive("mg-lint: allow(Z9): whatever", 1, false).unwrap();
        assert_eq!(unknown.code, None);
        // Retired codes parse as unknown: their directives are audited.
        let retired = parse_directive("mg-lint: allow(D1): lookup-only map", 1, false).unwrap();
        assert_eq!(retired.code, None);
        let empty = parse_directive("mg-lint: allow(H3):   ", 1, false).unwrap();
        assert!(!empty.has_reason);
        assert!(parse_directive("just a comment", 1, false).is_none());
    }
}
