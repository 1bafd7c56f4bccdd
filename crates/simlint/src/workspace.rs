//! Workspace discovery: which `.rs` files to lint and how to classify
//! them.
//!
//! Linted roots are `crates/`, `tests/` and `examples/`. `target/` is
//! build output. `fixtures/` directories hold simlint's own
//! seeded-violation test trees (`crates/simlint/tests/fixtures/`),
//! which exist to be dirty — linting them would fail the real
//! workspace on purpose-built true positives.

use std::fs;
use std::path::{Path, PathBuf};

use crate::lexer::{lex, Tok};

/// What part of a crate a file belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// `src/`: shipped code.
    Src,
    /// `tests/`: integration tests.
    Test,
    /// `examples/`: examples.
    Example,
}

/// One lexed source file plus its workspace coordinates.
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    /// Owning crate name (`ukernel`, ...); the root package's `tests/`
    /// and `examples/` report `process-migration`.
    pub crate_name: String,
    /// Which tree of the crate the file sits in.
    pub role: Role,
    /// The token stream.
    pub toks: Vec<Tok>,
}

/// Lexes every lintable `.rs` file under `root`.
pub fn load_workspace(root: &Path) -> Result<Vec<SourceFile>, String> {
    let mut paths: Vec<PathBuf> = Vec::new();
    for top in ["crates", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs(&dir, &mut paths)?;
        }
    }
    // Deterministic order (the determinism linter had better be
    // deterministic itself).
    paths.sort();
    let mut files = Vec::new();
    for p in paths {
        let rel = p
            .strip_prefix(root)
            .map_err(|_| "path outside root".to_string())?;
        let rel_path = rel
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let (crate_name, role) = classify(&rel_path);
        let text = fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
        files.push(SourceFile {
            rel_path,
            crate_name,
            role,
            toks: lex(&text),
        });
    }
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Maps a workspace-relative path to (crate, role).
fn classify(rel_path: &str) -> (String, Role) {
    let parts: Vec<&str> = rel_path.split('/').collect();
    let (crate_name, rest): (String, &[&str]) =
        if parts.first() == Some(&"crates") && parts.len() > 2 {
            (parts[1].to_string(), &parts[2..])
        } else {
            // Root-package `tests/` and `examples/`.
            ("process-migration".to_string(), &parts[..])
        };
    let role = match rest.first().copied() {
        Some("tests") => Role::Test,
        Some("examples") => Role::Example,
        _ => Role::Src,
    };
    (crate_name, role)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert_eq!(
            classify("crates/ukernel/src/machine.rs"),
            ("ukernel".to_string(), Role::Src)
        );
        assert_eq!(
            classify("crates/pmig/tests/migration.rs"),
            ("pmig".to_string(), Role::Test)
        );
        assert_eq!(
            classify("tests/determinism.rs"),
            ("process-migration".to_string(), Role::Test)
        );
        assert_eq!(
            classify("examples/quickstart.rs"),
            ("process-migration".to_string(), Role::Example)
        );
    }

    #[test]
    fn fixture_trees_are_not_collected() {
        // The seeded-violation fixtures under crates/simlint/tests/
        // must never reach the real lint run.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root")
            .to_path_buf();
        let files = load_workspace(&root).expect("workspace loads");
        assert!(
            files.iter().all(|f| !f.rel_path.contains("/fixtures/")),
            "fixture files leaked into the lint set"
        );
    }
}
