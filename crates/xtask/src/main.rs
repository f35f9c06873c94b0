//! `cargo xtask` — repo-specific developer tasks.
//!
//! One subcommand: `lint`, the two-phase static analysis pass
//! described in `xtask`'s crate docs and DESIGN.md §9.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: cargo xtask lint [--root <workspace-root>] [--bless-api]

  lint          run the repo static-analysis pass: the per-file families
                (determinism, panic, index, attributes, docexample) and
                the cross-file families on the workspace model (lockorder,
                epochkey, hotreach, cancelpoint, pubapi)
  --root <dir>  lint this workspace instead of the one xtask was built in
  --bless-api   regenerate docs/api-baseline.txt from the current public
                surface instead of diffing against it";

fn usage_error(message: &str) -> ExitCode {
    eprintln!("{message}\n\n{USAGE}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut lint = false;
    let mut root: Option<PathBuf> = None;
    let mut bless_api = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "lint" if !lint => lint = true,
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage_error("--root expects a directory"),
            },
            "--bless-api" => bless_api = true,
            other => return usage_error(&format!("unexpected argument `{other}`")),
        }
    }
    if !lint {
        return usage_error("missing subcommand `lint`");
    }

    // Default to the workspace this binary was built from: the alias
    // in .cargo/config.toml always runs it in-tree.
    let root = root.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join("..")
    });
    match xtask::lint_workspace(&root, bless_api) {
        Ok(violations) => {
            for v in &violations {
                println!("{v}");
            }
            if violations.is_empty() {
                if bless_api {
                    eprintln!("xtask lint: workspace clean (API baseline blessed)");
                } else {
                    eprintln!("xtask lint: workspace clean");
                }
                ExitCode::SUCCESS
            } else {
                eprintln!("xtask lint: {} violation(s)", violations.len());
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("xtask lint: i/o error: {e}");
            ExitCode::FAILURE
        }
    }
}
