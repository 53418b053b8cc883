//! The self-gate: the real workspace must lint clean. This is the same
//! check CI runs via `mg-lint --deny`, wired into `cargo test` so a
//! regression is caught even without the CI step.

use mg_lint::lint_workspace;
use std::path::{Path, PathBuf};

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

/// The `key = value` lines of one `[section]` of a TOML file, with
/// comments and blank lines dropped.
fn toml_section(src: &str, section: &str) -> Vec<(String, String)> {
    let header = format!("[{section}]");
    let mut inside = false;
    let mut out = Vec::new();
    for line in src.lines().map(str::trim) {
        if line.starts_with('[') {
            inside = line == header;
        } else if let Some((key, value)) = line.split_once('=').filter(|_| inside) {
            out.push((key.trim().to_string(), value.trim().to_string()));
        }
    }
    out
}

/// The unsafe-confinement and lint-exemption rules are the root
/// manifest's `[workspace.lints]` table; it only applies to a member
/// whose manifest opts in.
#[test]
fn every_member_opts_into_the_workspace_lint_table() {
    let root = workspace_root();
    let root_manifest =
        std::fs::read_to_string(root.join("Cargo.toml")).expect("root Cargo.toml readable");
    let deny = |section: &str, lint: &str| {
        assert!(
            toml_section(&root_manifest, section)
                .iter()
                .any(|(k, v)| k == lint && v == "\"deny\""),
            "[{section}] does not deny {lint}"
        );
    };
    deny("workspace.lints.rust", "unsafe_code");
    for lint in [
        "undocumented_unsafe_blocks",
        "allow_attributes",
        "allow_attributes_without_reason",
    ] {
        deny("workspace.lints.clippy", lint);
    }

    let members = mg_lint::manifest::workspace_members(root, &root_manifest);
    assert!(members.len() >= 13, "found only {} members", members.len());
    for dir in members {
        let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).expect("manifest readable");
        assert_eq!(
            toml_section(&manifest, "lints"),
            vec![("workspace".to_string(), "true".to_string())],
            "{} must opt into the workspace lints with `[lints] workspace = true`",
            dir.display()
        );
    }
}

/// Library code cannot read the thread count, so no chunk geometry (and
/// no float combine order) can derive from it; `unsafe fn`s document
/// their obligations, private ones included.
#[test]
fn clippy_toml_bans_thread_counts_and_checks_private_safety_docs() {
    let path = workspace_root().join("clippy.toml");
    let config = std::fs::read_to_string(&path).expect("clippy.toml readable");
    let methods = config
        .split_once("disallowed-methods = [")
        .and_then(|(_, rest)| rest.split_once("\n]"))
        .expect("clippy.toml has a disallowed-methods list")
        .0;
    for banned in [
        "rayon::current_num_threads",
        "rayon::ThreadPool::current_num_threads",
        "std::thread::available_parallelism",
    ] {
        let entry = methods
            .lines()
            .find(|l| l.contains(&format!("path = \"{banned}\"")))
            .unwrap_or_else(|| panic!("clippy.toml does not disallow {banned}"));
        assert!(
            entry.contains("reason = "),
            "{banned} is banned without a reason"
        );
    }
    assert!(
        config
            .lines()
            .any(|l| l.replace(' ', "") == "check-private-items=true"),
        "clippy.toml must set check-private-items = true"
    );
}

/// Recursively collects `.rs` files under `dir`, skipping build output
/// and hidden directories.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                rust_files(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// `crates/tensor/src/simd.rs` is the one module that lifts the
/// workspace's `unsafe_code` denial.
#[test]
fn only_the_simd_module_lowers_unsafe_code() {
    let root = workspace_root();
    let mut files = Vec::new();
    rust_files(root, &mut files);
    assert!(files.len() > 100, "found only {} .rs files", files.len());
    let mut lowering = Vec::new();
    for file in files {
        let src = std::fs::read_to_string(&file).expect("source readable");
        let compact: String = src.split_whitespace().collect();
        if ["allow", "expect", "warn"]
            .iter()
            .any(|level| compact.contains(&format!("{level}(unsafe_code")))
        {
            lowering.push(mg_lint::path_key(file.strip_prefix(root).unwrap()));
        }
    }
    assert_eq!(lowering, vec!["crates/tensor/src/simd.rs".to_string()]);
}
