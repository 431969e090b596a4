//! `mummi-lint` binary: `cargo run -p lint [-- --json|--github] [root]`.
//!
//! `--github` renders violations as GitHub Actions `::error` workflow
//! commands, so a CI lint step annotates the offending lines inline on
//! the PR diff.
//!
//! Exit codes: 0 clean, 1 violations found, 2 operational error.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut json = false;
    let mut github = false;
    let mut root: Option<PathBuf> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            "--github" => github = true,
            "--help" | "-h" => {
                eprintln!("usage: lint [--json] [--github] [workspace-root]");
                return ExitCode::SUCCESS;
            }
            other => root = Some(PathBuf::from(other)),
        }
    }
    let root = match root {
        Some(r) => r,
        None => match find_workspace_root() {
            Some(r) => r,
            None => {
                eprintln!("lint: could not locate the workspace root (no Cargo.toml with [workspace] above the current directory)");
                return ExitCode::from(2);
            }
        },
    };

    match lint::lint_workspace(&root) {
        Ok(violations) => {
            if json {
                println!("{}", lint::to_json(&violations));
            } else {
                // --github: annotation commands on stdout (the runner
                // parses them), human diagnostics stay on stderr.
                if github {
                    for v in &violations {
                        println!("{}", v.to_github());
                    }
                }
                for v in &violations {
                    eprintln!("{v}");
                }
                if violations.is_empty() {
                    eprintln!("mummi-lint: workspace clean (L1-L10)");
                } else {
                    eprintln!("mummi-lint: {} violation(s)", violations.len());
                }
            }
            if violations.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("lint: {e}");
            ExitCode::from(2)
        }
    }
}

/// Walks up from the current directory (falling back to the crate's own
/// location under `crates/lint`) to the `Cargo.toml` declaring
/// `[workspace]`.
fn find_workspace_root() -> Option<PathBuf> {
    let start = std::env::current_dir()
        .ok()
        .or_else(|| option_env!("CARGO_MANIFEST_DIR").map(PathBuf::from))?;
    let mut dir = start.as_path();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir.to_path_buf());
            }
        }
        dir = dir.parent()?;
    }
}
