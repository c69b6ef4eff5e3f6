//! `pprox-analysis`: a privacy-flow static analyzer for the PProx
//! workspace.
//!
//! PProx's central claim — User–Interest unlinkability (§4.2) — is an
//! information-flow property: UA-side code must never touch item
//! plaintext, IA-side code must never touch user plaintext, and secret
//! material must never reach `Debug` output, format strings, or
//! variable-time comparisons. The type system enforces some of this
//! (`PlaintextUserId` / `PlaintextItemId` / `SecretBytes`), but types
//! cannot stop a `use` statement or a derive. This crate closes the gap
//! with two passes over every crate in the workspace:
//!
//! * a **per-file pass** (R1–R9 lexical structure, R10 function-scope
//!   secret taint — see [`rules`] and [`taint`]);
//! * a **global pass** (R11 lock-order graph, R12 blocking-on-poll-
//!   thread, R13 panic-free request path — see [`locks`]) that needs the
//!   whole parsed workspace at once.
//!
//! The analyzer is deliberately lexical + structural, not a type
//! checker: it keys on the names of layer-private APIs, which the
//! newtypes make unique and grep-able, and on a brace/scope-aware
//! function parser ([`parser`]). False positives are handled by an
//! explicit, audited escape hatch (`// analysis-allow: <rule> <reason>`)
//! that the report surfaces for review — and whose per-rule counts are
//! capped by the committed suppression budget
//! (`results/ANALYSIS_budget.json`, enforced by `--ratchet`).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod lexer;
pub mod locks;
pub mod parser;
pub mod report;
pub mod rules;
pub mod taint;

use report::Report;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Workspace members deliberately outside the scan, with the reason.
/// Every member must either be scanned or appear here — the
/// `members_are_scanned_or_exempt` test fails otherwise, so a future
/// crate cannot silently escape analysis.
pub const SCAN_EXEMPT: &[(&str, &str)] = &[];

/// Relative path of the audited lock-order declaration consumed by R11.
pub const LOCK_ORDER_DECL: &str = "crates/analysis/lock_order.txt";

/// Parses the workspace `members = [...]` globs out of the root
/// `Cargo.toml` and expands them against the filesystem, so the scan set
/// tracks the build graph instead of a hard-coded directory list.
///
/// # Errors
///
/// I/O errors reading the manifest or expanding globs.
pub fn workspace_members(root: &Path) -> io::Result<Vec<String>> {
    let manifest = fs::read_to_string(root.join("Cargo.toml"))?;
    let mut globs: Vec<String> = Vec::new();
    if let Some(at) = manifest.find("members") {
        if let Some(open) = manifest[at..].find('[') {
            let rest = &manifest[at + open + 1..];
            let end = rest.find(']').unwrap_or(rest.len());
            for part in rest[..end].split(',') {
                let part = part.trim().trim_matches('"');
                if !part.is_empty() {
                    globs.push(part.to_string());
                }
            }
        }
    }
    let mut members = Vec::new();
    for glob in globs {
        if let Some(prefix) = glob.strip_suffix("/*") {
            let dir = root.join(prefix);
            if !dir.is_dir() {
                continue;
            }
            for entry in fs::read_dir(&dir)? {
                let entry = entry?;
                if entry.path().join("Cargo.toml").is_file() {
                    members.push(format!("{prefix}/{}", entry.file_name().to_string_lossy()));
                }
            }
        } else {
            members.push(glob);
        }
    }
    members.sort();
    members.dedup();
    Ok(members)
}

/// The directories the workspace scan walks: every manifest member that
/// is not [`SCAN_EXEMPT`], plus the root facade package's `src/` and
/// `tests/`.
///
/// # Errors
///
/// I/O errors reading the manifest.
pub fn scan_roots(root: &Path) -> io::Result<Vec<String>> {
    let mut roots: Vec<String> = workspace_members(root)?
        .into_iter()
        .filter(|m| !SCAN_EXEMPT.iter().any(|(e, _)| e == m))
        .collect();
    for extra in ["src", "tests"] {
        if root.join(extra).is_dir() {
            roots.push(extra.to_string());
        }
    }
    roots.sort();
    roots.dedup();
    Ok(roots)
}

/// Scans the whole workspace under `root` — per-file rules R1–R10 and
/// the global rules R11–R13 — and returns the aggregated,
/// deterministically sorted report.
///
/// # Errors
///
/// I/O errors reading the tree.
pub fn analyze_workspace(root: &Path) -> io::Result<Report> {
    let mut files: Vec<PathBuf> = Vec::new();
    for top in scan_roots(root)? {
        let dir = root.join(&top);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut files)?;
        }
    }
    files.sort();
    let mut parsed: Vec<parser::ParsedFile> = Vec::with_capacity(files.len());
    let mut out = Report::default();
    for file in files {
        let rel = normalize(root, &file);
        let source = fs::read_to_string(&file)?;
        parsed.push(parser::parse_source(&rel, &source));
    }
    for p in &parsed {
        let file_report = rules::analyze_parsed(p);
        out.findings.extend(file_report.findings);
        out.suppressions.extend(file_report.suppressions);
        out.files_scanned += 1;
    }
    let decl = fs::read_to_string(root.join(LOCK_ORDER_DECL)).ok();
    let global = locks::analyze_global(&parsed, decl.as_deref());
    out.findings.extend(global.report.findings);
    out.findings.extend(locks::unmatched_roots(&parsed));
    out.suppressions.extend(global.report.suppressions);
    out.lock_graph = global.graph;
    out.panics = global.panics;
    out.sort();
    Ok(out)
}

/// Recursively collects `.rs` files, skipping build output and the
/// analyzer's own deliberately-violating fixture corpus.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative path with forward slashes (stable across hosts).
fn normalize(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_uses_forward_slashes() {
        let root = Path::new("/w");
        let file = Path::new("/w/crates/core/src/ua.rs");
        assert_eq!(normalize(root, file), "crates/core/src/ua.rs");
    }
}
