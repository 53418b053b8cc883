//! A small `Cargo.toml` reader: the package name of a member manifest
//! and the member list of the workspace root.
//!
//! Only the TOML subset the workspace actually uses is understood:
//! `[section]` headers, `key = "string"`, and `key = [ multi-line
//! string arrays ]` — no external TOML crate required (the environment
//! is registry-less by design).

use std::path::{Path, PathBuf};

/// The `package.name` of one `Cargo.toml`, or an empty string when the
/// manifest names no package.
pub fn package_name(src: &str) -> String {
    let mut in_package = false;
    for raw in src.lines() {
        let line = strip_toml_comment(raw).trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if !in_package {
            continue;
        }
        if let Some((key, value)) = line.split_once('=') {
            if key.trim() == "name" {
                return value.trim().trim_matches('"').to_string();
            }
        }
    }
    String::new()
}

fn count(s: &str, c: char) -> usize {
    s.chars().filter(|&x| x == c).count()
}

/// Strips a `#` comment that is outside any quoted string.
fn strip_toml_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Reads `workspace.members` globs from the root manifest and expands
/// them to member directories (only `dir/*` globs and literal paths are
/// supported — all this workspace uses).
pub fn workspace_members(root: &Path, root_manifest: &str) -> Vec<PathBuf> {
    let mut members = Vec::new();
    let mut in_workspace = false;
    let mut lines = root_manifest.lines().peekable();
    while let Some(raw) = lines.next() {
        let line = strip_toml_comment(raw).trim().to_string();
        if line.starts_with('[') {
            in_workspace = line == "[workspace]";
            continue;
        }
        if !in_workspace {
            continue;
        }
        if let Some((key, value)) = line.split_once('=') {
            if key.trim() != "members" {
                continue;
            }
            let mut value = value.trim().to_string();
            while count(&value, '[') > count(&value, ']') {
                let Some(next) = lines.next() else { break };
                value.push(' ');
                value.push_str(strip_toml_comment(next).trim());
            }
            for pat in value.split('"').skip(1).step_by(2) {
                if let Some(dir) = pat.strip_suffix("/*") {
                    let Ok(entries) = std::fs::read_dir(root.join(dir)) else {
                        continue;
                    };
                    let mut found: Vec<PathBuf> = entries
                        .flatten()
                        .map(|e| e.path())
                        .filter(|p| p.join("Cargo.toml").is_file())
                        .collect();
                    found.sort();
                    members.extend(found);
                } else {
                    let p = root.join(pat);
                    if p.join("Cargo.toml").is_file() {
                        members.push(p);
                    }
                }
            }
        }
    }
    members
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_the_package_name_only_from_the_package_section() {
        let src = "\
[package]
name = \"b\" # a comment
version = \"0.1.0\"

[dependencies]
name = { path = \"../name\" }
";
        assert_eq!(package_name(src), "b");
        assert_eq!(package_name("[dependencies]\nname = \"x\"\n"), "");
    }
}
