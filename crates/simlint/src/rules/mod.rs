//! The rule set: this repo's contracts, encoded.
//!
//! Each rule is a workspace-level pass: it sees every lexed source file
//! at once (the charging rule genuinely needs the whole kernel call
//! graph; the others just iterate). Rules emit [`Diagnostic`]s; the
//! allowlist in `simlint.toml` is applied afterwards by the caller, so a
//! rule never needs to know about exemptions.

pub mod charging;
pub mod coupling;
pub mod determinism;
pub mod errno;
pub mod magics;
pub mod snapcov;
pub mod wakepoke;

use crate::diag::Diagnostic;
use crate::workspace::SourceFile;

/// Runs every rule over `files`, returning diagnostics sorted by
/// file, line and rule.
pub fn run_all(files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    out.extend(determinism::check(files));
    out.extend(charging::check(files));
    out.extend(errno::check(files));
    out.extend(magics::check(files));
    out.extend(wakepoke::check(files));
    out.extend(snapcov::check(files));
    out.extend(coupling::check(files));
    out.sort();
    out
}

#[cfg(test)]
pub(crate) mod fixtures {
    //! Helpers for rule unit tests: build a [`SourceFile`] from an
    //! inline snippet at a pretend path.

    use crate::lexer::lex;
    use crate::workspace::{Role, SourceFile};

    /// Lexes `src` as if it lived at `rel_path`.
    pub fn file_at(rel_path: &str, src: &str) -> SourceFile {
        let (crate_name, role) = match rel_path.strip_prefix("crates/") {
            Some(rest) => {
                let name = rest.split('/').next().unwrap_or("").to_string();
                let role = if rest.contains("/tests/") {
                    Role::Test
                } else {
                    Role::Src
                };
                (name, role)
            }
            None => ("process-migration".to_string(), Role::Test),
        };
        SourceFile {
            rel_path: rel_path.to_string(),
            crate_name,
            role,
            toks: lex(src),
        }
    }
}
