//! Diagnostic types, lint codes, and the suppression directive.

use std::fmt;
use std::path::PathBuf;

/// Stable lint codes: `P1` guards the packed-panel hot path, `C1` the
/// twin-aspect kernel contract, and the `A` codes police the
/// suppression mechanism itself. Names are never reused: every retired
/// code (listed in `CODES.md`) stays unassigned, so an old directive
/// naming one is audited as unknown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LintCode {
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
    /// Malformed suppression: `mg-lint: allow(...)` without a reason,
    /// or with an unknown code.
    A1,
    /// Suppression that suppressed nothing — stale allows must be
    /// removed, or the audit trail rots.
    A2,
}

impl LintCode {
    /// All codes, in severity-report order.
    pub const ALL: [LintCode; 4] = [LintCode::P1, LintCode::C1, LintCode::A1, LintCode::A2];

    /// Parses a code name (`"P1"`), case-sensitively.
    pub fn parse(s: &str) -> Option<LintCode> {
        LintCode::ALL.into_iter().find(|c| c.as_str() == s)
    }

    /// The stable textual name.
    pub fn as_str(&self) -> &'static str {
        match self {
            LintCode::P1 => "P1",
            LintCode::C1 => "C1",
            LintCode::A1 => "A1",
            LintCode::A2 => "A2",
        }
    }

    /// Whether an `// mg-lint: allow(..)` comment may silence this
    /// code. The allow-audit codes (A1, A2) can only be fixed, not
    /// waived.
    pub fn suppressible(&self) -> bool {
        matches!(self, LintCode::P1 | LintCode::C1)
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
        let d = parse_directive("mg-lint: allow(C1): family-shared profile", 10, false).unwrap();
        assert_eq!(d.code, Some(LintCode::C1));
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
        let bare = parse_directive("mg-lint: allow(P1)", 1, false).unwrap();
        assert!(!bare.has_reason);
        let unknown = parse_directive("mg-lint: allow(Z9): whatever", 1, false).unwrap();
        assert_eq!(unknown.code, None);
        // Retired codes parse as unknown: their directives are audited.
        for retired in ["D1", "D4", "D5", "H1", "H3", "U1"] {
            let d = parse_directive(&format!("mg-lint: allow({retired}): waived"), 1, false);
            assert_eq!(d.unwrap().code, None, "{retired}");
        }
        let empty = parse_directive("mg-lint: allow(P1):   ", 1, false).unwrap();
        assert!(!empty.has_reason);
        assert!(parse_directive("just a comment", 1, false).is_none());
    }
}
