//! The `simlint` binary: lint the workspace, print `file:line`
//! diagnostics, exit nonzero on any unallowlisted violation.
//!
//! Usage: `cargo run -p simlint --release [-- --root <dir>] [--json]
//! [--coupling-report]`. With no `--root` the current directory is used
//! (ci.sh runs from the workspace root).
//!
//! `--json` swaps the human `file:line` lines for one
//! `{"rule","file","line","symbol","reason"}` record per finding —
//! kept findings first, then allowlist-silenced ones marked by a
//! `"silenced by simlint.toml: "` reason prefix — so ci.sh can count
//! and ratchet against `simlint.baseline` without parsing prose. Exit
//! status is unchanged by the flag.
//!
//! `--coupling-report` prints the cross-machine coupling inventory
//! (see `rules::coupling`) and exits 0; it performs no linting.

use std::path::PathBuf;
use std::process::ExitCode;

use simlint::{coupling_report, lint_workspace, Config};

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut json = false;
    let mut coupling = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("simlint: --root needs a directory");
                    return ExitCode::from(2);
                }
            },
            "--json" => json = true,
            "--coupling-report" => coupling = true,
            "--help" | "-h" => {
                eprintln!("usage: simlint [--root <workspace-dir>] [--json] [--coupling-report]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("simlint: unknown argument {other}");
                return ExitCode::from(2);
            }
        }
    }

    if coupling {
        return match coupling_report(&root) {
            Ok(rendered) => {
                print!("{rendered}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("simlint: {e}");
                ExitCode::from(2)
            }
        };
    }

    let cfg = match std::fs::read_to_string(root.join("simlint.toml")) {
        Ok(text) => match Config::parse(&text) {
            Ok(cfg) => cfg,
            Err(e) => {
                eprintln!("simlint: {e}");
                return ExitCode::from(2);
            }
        },
        // No allowlist is fine: everything is then a hard violation.
        Err(_) => Config::default(),
    };

    let filtered = match lint_workspace(&root, &cfg) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("simlint: {e}");
            return ExitCode::from(2);
        }
    };

    if json {
        for d in &filtered.kept {
            println!("{}", d.to_json());
        }
        for d in &filtered.silenced {
            let mut marked = d.clone();
            marked.message = format!("silenced by simlint.toml: {}", d.message);
            println!("{}", marked.to_json());
        }
    } else {
        for d in &filtered.kept {
            println!("{d}");
        }
    }
    // A stale entry is itself a failure: an exemption that matches
    // nothing is either obsolete (delete it) or mis-scoped (in which
    // case it is silently *not* covering what its author thought).
    for a in &filtered.stale {
        eprintln!(
            "simlint: stale simlint.toml entry (line {}): rule {} in {} matched nothing",
            a.line, a.rule, a.path
        );
    }
    if filtered.kept.is_empty() && filtered.stale.is_empty() {
        eprintln!(
            "simlint: clean ({} exemption{} applied)",
            filtered.silenced.len(),
            if filtered.silenced.len() == 1 {
                ""
            } else {
                "s"
            }
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "simlint: {} violation(s), {} stale exemption(s)",
            filtered.kept.len(),
            filtered.stale.len()
        );
        ExitCode::FAILURE
    }
}
