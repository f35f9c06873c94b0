//! # xtask
//!
//! Repo-specific static analysis for the LCRB reproduction, exposed
//! as `cargo xtask lint` (see `.cargo/config.toml`).
//!
//! A generic linter cannot see the properties this reproduction
//! depends on: the greedy approximation guarantee rests on coupled
//! random realizations (so hash-order iteration is a correctness bug,
//! not style), the CSR/workspace kernel keeps its measured speedup
//! only while everything the kernels reach stays allocation-free and
//! snapshot-based, and the shared `Solver` session rests on
//! cross-file invariants (lock acquisition order, epoch-carrying
//! cache keys) no single file shows. Wall-clock reads are left to
//! clippy's `disallowed-methods` (`clippy.toml`).
//!
//! The tool runs in **two phases** over one lexing pass: every
//! non-test, non-bench library source is tokenized and test-stripped
//! once ([`lexer`]), and both phases read those token streams.
//!
//! 1. the per-file rule families ([`rules`]) — `determinism`,
//!    `panic`, `index`, `attributes`, `docexample` — run over each
//!    stream, while the same streams build a **workspace model**
//!    ([`model`]): item tree, call graph, lock-acquisition sites,
//!    cache-family key types;
//! 2. the cross-file rule families ([`wrules`]) run against that
//!    model: `lockorder`, `epochkey`, `hotreach`, `cancelpoint`, and
//!    the `pubapi` baseline diff.
//!
//! Suppression is per-line `// xtask-allow: <rule> -- <justification>`
//! for every family except `pubapi`, whose only escape hatch is
//! regenerating the checked-in baseline with `--bless-api`.
//!
//! The tool is self-contained (no registry dependencies) and fully
//! deterministic: files are walked in sorted order and diagnostics
//! are sorted before printing.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod lexer;
pub mod model;
pub mod rules;
pub mod wrules;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use model::{FileModel, WorkspaceModel};

pub use rules::{classify, Violation, KNOWN_RULES};

/// Workspace-relative location of the public-API baseline.
pub const API_BASELINE_PATH: &str = "docs/api-baseline.txt";

/// Recursively collects workspace `.rs` sources under `root`,
/// returning workspace-relative forward-slash paths in sorted order.
///
/// # Errors
///
/// Returns any I/O error encountered while reading directories.
pub fn collect_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut found = Vec::new();
    for top in ["src", "crates"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut found)?;
        }
    }
    found.sort();
    Ok(found)
}

fn walk(dir: &Path, found: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.') || name == "target" || name == "vendor" {
            continue;
        }
        if path.is_dir() {
            walk(&path, found)?;
        } else if name.ends_with(".rs") {
            found.push(path);
        }
    }
    Ok(())
}

/// Both lint phases over in-memory `(relative path, source)` pairs:
/// per-file raw violations, the workspace model, the model-backed
/// cross-file families (except the baseline-diffing `pubapi`, which
/// needs a workspace root), and the shared `xtask-allow` pragma pass.
/// Returns the surviving diagnostics plus the model so callers can
/// run `pubapi` against it.
#[must_use]
pub fn lint_entries(entries: &[(String, String)]) -> (Vec<Violation>, WorkspaceModel) {
    // Lex and test-strip each file once; both phases read the result.
    let lexed: Vec<lexer::Lexed> = entries.iter().map(|(_, src)| lexer::lex(src)).collect();
    let model = WorkspaceModel::from_files(
        entries
            .iter()
            .zip(&lexed)
            .map(|((rel, _), l)| FileModel {
                path: rel.clone(),
                tokens: rules::strip_test_code(&l.tokens),
            })
            .collect(),
    );

    let mut raw_by_file: BTreeMap<String, Vec<Violation>> = BTreeMap::new();
    for ((rel, source), file) in entries.iter().zip(&model.files) {
        raw_by_file.insert(
            rel.clone(),
            rules::lint_source_raw(rel, source, &file.tokens),
        );
    }
    // Cross-file families go through their file's pragma pass, so
    // line-level `xtask-allow`s apply to them too.
    let workspace_raw = [
        wrules::lockorder(&model),
        wrules::epochkey(&model),
        wrules::hotreach(&model),
        wrules::cancelpoint(&model),
    ];
    for v in workspace_raw.into_iter().flatten() {
        raw_by_file.entry(v.file.clone()).or_default().push(v);
    }

    let mut violations = Vec::new();
    for ((rel, _), lexed) in entries.iter().zip(&lexed) {
        let raw = raw_by_file.remove(rel).unwrap_or_default();
        violations.extend(rules::apply_allows(rel, lexed, raw));
    }
    (violations, model)
}

/// The full two-phase lint of every in-scope source under `root`;
/// returns sorted diagnostics (empty means the workspace is clean).
/// With `bless_api`, `pubapi` regenerates the baseline instead of
/// diffing against it.
///
/// # Errors
///
/// Returns any I/O error encountered while walking or reading files,
/// or while writing the baseline under `--bless-api`.
pub fn lint_workspace(root: &Path, bless_api: bool) -> std::io::Result<Vec<Violation>> {
    let mut entries: Vec<(String, String)> = Vec::new();
    for path in collect_sources(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        if classify(&rel).is_none() {
            continue;
        }
        let source = std::fs::read_to_string(&path)?;
        entries.push((rel, source));
    }

    let (mut violations, model) = lint_entries(&entries);

    // `pubapi` last: baseline diff (or regeneration), never
    // pragma-suppressible.
    let surface = wrules::api_surface(&model);
    let baseline_path = root.join(API_BASELINE_PATH);
    if bless_api {
        if let Some(dir) = baseline_path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut text = String::from(
            "# Public API baseline — one line per unrestricted-`pub` item.\n\
             # Regenerate with `cargo xtask lint --bless-api`; the `pubapi`\n\
             # lint fails on any drift from this file.\n",
        );
        for line in &surface {
            text.push_str(line);
            text.push('\n');
        }
        std::fs::write(&baseline_path, text)?;
    } else {
        let baseline = std::fs::read_to_string(&baseline_path).ok();
        violations.extend(wrules::pubapi_diff(baseline.as_deref(), &surface));
    }

    violations.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    Ok(violations)
}
