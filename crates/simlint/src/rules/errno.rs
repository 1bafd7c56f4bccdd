//! Rule `errno-vocabulary`: syscall failures speak `Errno`, not magic
//! integers.
//!
//! The dump/restore pipeline and the paper's error narrative (`EREMOTE`
//! for NFS mount crossings, `ECHILD` for orphaned waits) depend on every
//! handler using the named 4.2BSD constants from `sysdefs`. A raw
//! integer smuggled through `Err(...)`/`SysRetval::err(...)` bypasses
//! the vocabulary and silently drifts from the paper. The rule scans
//! kernel syscall-handler files for an error constructor applied to an
//! integer literal.

use crate::diag::Diagnostic;
use crate::workspace::SourceFile;

/// Rule id.
pub const RULE: &str = "errno-vocabulary";

/// Is this file part of the kernel's syscall surface?
fn in_scope(rel_path: &str) -> bool {
    rel_path.starts_with("crates/ukernel/src/sys/") || rel_path == "crates/ukernel/src/signal.rs"
}

/// Error constructors whose argument must be an `Errno` path.
const ERROR_CTORS: [&str; 2] = ["Err", "err"];

/// Runs the rule over the workspace.
pub fn check(files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for f in files {
        if !in_scope(&f.rel_path) {
            continue;
        }
        for w in f.toks.windows(3) {
            let [ctor, paren, arg] = w else { continue };
            if ERROR_CTORS.contains(&ctor.text.as_str())
                && ctor.kind == crate::lexer::TokKind::Ident
                && paren.is_punct("(")
                && arg.int_value().is_some()
            {
                out.push(Diagnostic {
                    file: f.rel_path.clone(),
                    line: arg.line,
                    rule: RULE,
                    subject: arg.text.clone(),
                    message: format!(
                        "raw integer {} passed to {}(): syscall errors must use the \
                         named Errno constants from sysdefs",
                        arg.text, ctor.text
                    ),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::fixtures::file_at;

    #[test]
    fn named_errno_constants_pass() {
        let f = file_at(
            "crates/ukernel/src/sys/fsops.rs",
            "fn f() -> SysResult<u32> { Err(Errno::EBADF) }\n\
             fn g() -> SysRetval { SysRetval::err(Errno::ENOENT) }",
        );
        assert!(check(&[f]).is_empty());
    }

    #[test]
    fn raw_integer_errno_is_flagged() {
        let f = file_at(
            "crates/ukernel/src/sys/procops.rs",
            "fn f() -> SysResult<u32> {\n    Err(9)\n}",
        );
        let d = check(&[f]);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 2);
        assert_eq!(d[0].subject, "9");
    }

    #[test]
    fn raw_integer_in_retval_err_is_flagged() {
        let f = file_at(
            "crates/ukernel/src/signal.rs",
            "fn f() -> SysRetval { SysRetval::err(22) }",
        );
        assert_eq!(check(&[f]).len(), 1);
    }

    #[test]
    fn out_of_scope_files_are_ignored() {
        // m68vm's assembler has its own err() helper taking a line
        // number; the errno vocabulary does not apply there.
        let f = file_at("crates/m68vm/src/asm.rs", "fn f() { err(0, \"bad\"); }");
        assert!(check(&[f]).is_empty());
    }

    #[test]
    fn ok_with_integers_passes() {
        let f = file_at(
            "crates/ukernel/src/sys/fsops.rs",
            "fn f() -> SysRetval { SysRetval::ok(0) }",
        );
        assert!(check(&[f]).is_empty());
    }
}
