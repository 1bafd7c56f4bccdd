//! `simlint` — the workspace's invariant checker.
//!
//! Clippy knows Rust; it does not know this repo. The reproduction's
//! claims rest on contracts that no compiler checks:
//!
//! * **Determinism.** Two runs of the same scenario must be bit-for-bit
//!   identical — the icache coherence tests compare simulated clocks
//!   directly. Unordered containers and host clocks break this silently.
//! * **Simtime charging.** Every syscall handler must charge simulated
//!   time for its work, or the paper's figures quietly deflate.
//! * **Errno vocabulary.** Failures speak the named 4.2BSD `Errno`
//!   constants from `sysdefs`, never raw integers.
//! * **Magic literals.** The dump magics (0444/0445), `NOFILE` and the
//!   signal numbering live in `sysdefs`/`dumpfmt` only, so the dump
//!   writer and the command-side readers cannot drift apart.
//! * **Wake-poke discipline.** Every wake-condition mutation must
//!   reach a `poke_*`/`wake_queue` insert, or a blocked process whose
//!   condition holds stalls (DESIGN.md §12).
//! * **Snapshot coverage.** Every `World`/`Machine`/`MachineStats`
//!   field is folded into the determinism snapshot or declared
//!   pure-cache in `simlint.toml` with a reason — the Milanés
//!   exemption, made explicit.
//! * **Cross-machine coupling.** Syscall handlers must not index a
//!   foreign machine's state directly; `--coupling-report` inventories
//!   every such seam (world layer included), so growth of the
//!   cross-machine surface shows up in review.
//!
//! The pass hand-rolls a small Rust lexer and item visitor (no `syn`,
//! per the offline vendored-stub policy), runs each rule over the lexed
//! workspace, then filters the findings through the per-rule allowlist
//! in `simlint.toml` — where every entry must carry a justification.
//! `cargo run -p simlint --release` exits nonzero on any unallowlisted
//! diagnostic; ci.sh runs it between clippy and the bench smoke step.

pub mod config;
pub mod diag;
pub mod lexer;
pub mod rules;
pub mod visitor;
pub mod workspace;

use std::path::Path;

pub use config::{Config, Filtered};
pub use diag::Diagnostic;

/// Lints the workspace at `root` with `cfg`, returning the allowlist-
/// filtered result.
pub fn lint_workspace(root: &Path, cfg: &Config) -> Result<Filtered, String> {
    let files = workspace::load_workspace(root)?;
    if files.is_empty() {
        return Err(format!(
            "no .rs files found under {} — wrong --root?",
            root.display()
        ));
    }
    Ok(cfg.apply(rules::run_all(&files)))
}

/// Renders the cross-machine coupling inventory for the workspace at
/// `root` — the JSON `simlint --coupling-report` prints and ci.sh
/// diffs against the checked-in `simlint.coupling.json`.
pub fn coupling_report(root: &Path) -> Result<String, String> {
    let files = workspace::load_workspace(root)?;
    Ok(rules::coupling::render_report(&rules::coupling::report(
        &files,
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The real workspace must lint clean: this is the same invocation
    /// ci.sh performs, kept as a test so `cargo test` alone catches a
    /// violation before CI does.
    #[test]
    fn real_workspace_is_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root")
            .to_path_buf();
        let toml = std::fs::read_to_string(root.join("simlint.toml")).expect("simlint.toml");
        let cfg = Config::parse(&toml).expect("valid simlint.toml");
        let filtered = lint_workspace(&root, &cfg).expect("lint runs");
        assert!(
            filtered.kept.is_empty(),
            "workspace has invariant violations:\n{}",
            filtered
                .kept
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert!(
            filtered.stale.is_empty(),
            "stale simlint.toml entries: {:?}",
            filtered.stale
        );
    }
}
