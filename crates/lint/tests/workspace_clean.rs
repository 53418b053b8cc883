//! The self-gate: the real workspace must lint clean. This is the same
//! check CI runs via `mg-lint --deny`, wired into `cargo test` so a
//! regression is caught even without the CI step.

use mg_lint::lint_workspace;
use std::path::Path;

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels below the workspace root")
}

#[test]
fn the_real_workspace_has_zero_findings() {
    let root = workspace_root();
    let findings = lint_workspace(root).expect("workspace lints");
    assert!(
        findings.is_empty(),
        "the determinism contract is violated:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The type bans live in `clippy.toml` (enforced by the CI Clippy step,
/// not by `cargo test`), so a test pins that the list still names them.
#[test]
fn clippy_toml_bans_hash_order_and_wall_clocks() {
    let path = workspace_root().join("clippy.toml");
    let config = std::fs::read_to_string(&path).expect("clippy.toml readable");
    for banned in [
        "std::collections::HashMap",
        "std::collections::HashSet",
        "std::time::Instant",
        "std::time::SystemTime",
    ] {
        let entry = config
            .lines()
            .find(|l| l.contains(&format!("path = \"{banned}\"")))
            .unwrap_or_else(|| panic!("clippy.toml does not disallow {banned}"));
        assert!(
            entry.contains("reason = "),
            "{banned} is banned without a reason"
        );
    }
}
