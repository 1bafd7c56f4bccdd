//! Rule `magic-literals`: the paper's magic numbers have exactly one
//! home.
//!
//! The dump-file magics (octal `0444` for `stackXXXXX`, `0445` for
//! `filesXXXXX`), the descriptor-table size `NOFILE` and the signal
//! numbering are contracts between the kernel's dump writer and the
//! command-side readers (`dumpproc`, `restart`, `undump`). If a second
//! copy of any of them appears outside `sysdefs`/`dumpfmt`, the writer
//! and a reader can drift apart while both still compile. Three
//! sub-checks share the rule id:
//!
//! * the literal magic values (in any base) outside `sysdefs`/`dumpfmt`;
//! * `const` redefinitions of the named limit/magic constants;
//! * signal construction from an integer literal (`from_number(17)`)
//!   outside `sysdefs` — callers must use the named `Signal` constants.
//!
//! `simlint` itself is exempt alongside `sysdefs`/`dumpfmt`: this file
//! necessarily spells the values it polices.

use crate::diag::Diagnostic;
use crate::workspace::SourceFile;

/// Rule id.
pub const RULE: &str = "magic-literals";

/// Crates allowed to spell the contract values.
fn is_definition_crate(name: &str) -> bool {
    matches!(name, "sysdefs" | "dumpfmt" | "simlint")
}

/// The dump magics, by value so `0o444`, `292` and `0x124` all match.
const MAGIC_VALUES: [(u128, &str); 2] = [
    (0o444, "the stackXXXXX dump magic (0444)"),
    (0o445, "the filesXXXXX dump magic (0445)"),
];

/// Constants that must not be redefined outside their home crate.
const PROTECTED_CONSTS: [&str; 5] = [
    "NOFILE",
    "MAXPATHLEN",
    "MAXSYMLINKS",
    "STACK_MAGIC",
    "FILES_MAGIC",
];

/// Runs the rule over the workspace.
pub fn check(files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for f in files {
        if is_definition_crate(&f.crate_name) {
            continue;
        }
        let toks = &f.toks;
        for (i, t) in toks.iter().enumerate() {
            // Magic values in any base.
            if let Some(v) = t.int_value() {
                if let Some((_, what)) = MAGIC_VALUES.iter().find(|(m, _)| *m == v) {
                    out.push(Diagnostic {
                        file: f.rel_path.clone(),
                        line: t.line,
                        rule: RULE,
                        subject: t.text.clone(),
                        message: format!(
                            "literal {} is {what}; use dumpfmt::STACK_MAGIC/FILES_MAGIC \
                             so the writer and readers cannot drift",
                            t.text
                        ),
                    });
                }
            }
            // `const NOFILE ...` redefinitions.
            if t.is_ident("const")
                && toks
                    .get(i + 1)
                    .is_some_and(|n| PROTECTED_CONSTS.contains(&n.text.as_str()))
            {
                let n = &toks[i + 1];
                out.push(Diagnostic {
                    file: f.rel_path.clone(),
                    line: n.line,
                    rule: RULE,
                    subject: n.text.clone(),
                    message: format!(
                        "{} is defined by sysdefs/dumpfmt; redefining it here lets the \
                         kernel and the commands disagree",
                        n.text
                    ),
                });
            }
            // Signal-from-integer-literal outside sysdefs.
            if f.crate_name != "sysdefs"
                && t.is_ident("from_number")
                && toks.get(i + 1).is_some_and(|p| p.is_punct("("))
                && toks.get(i + 2).is_some_and(|a| a.int_value().is_some())
            {
                let a = &toks[i + 2];
                out.push(Diagnostic {
                    file: f.rel_path.clone(),
                    line: a.line,
                    rule: RULE,
                    subject: a.text.clone(),
                    message: format!(
                        "from_number({}) hardcodes a signal/syscall number; use the \
                         named constants from sysdefs",
                        a.text
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
    fn magic_values_flagged_in_any_base_outside_home_crates() {
        let f = file_at(
            "crates/ukernel/src/signal.rs",
            "fn f() { let a = 0o444; let b = 293; }",
        );
        let d = check(&[f]);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].subject, "0o444");
        assert_eq!(d[1].subject, "293");
    }

    #[test]
    fn home_crates_may_define_the_values() {
        let stack = file_at(
            "crates/dumpfmt/src/stack_file.rs",
            "pub const STACK_MAGIC: u16 = 0o444;",
        );
        let limits = file_at(
            "crates/sysdefs/src/limits.rs",
            "pub const NOFILE: usize = 30;",
        );
        assert!(check(&[stack, limits]).is_empty());
    }

    #[test]
    fn const_redefinition_is_flagged() {
        let f = file_at(
            "crates/pmig/src/commands.rs",
            "const NOFILE: usize = 30;\nfn f() {}",
        );
        let d = check(&[f]);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].subject, "NOFILE");
    }

    #[test]
    fn literal_signal_numbers_are_flagged() {
        let f = file_at(
            "crates/apps/src/loadbal.rs",
            "fn f() { let s = Signal::from_number(17); }",
        );
        let d = check(&[f]);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].subject, "17");
    }

    #[test]
    fn runtime_signal_numbers_pass() {
        let f = file_at(
            "crates/ukernel/src/sys/vmabi.rs",
            "fn f(sig: u32) { let s = Signal::from_number(sig); }",
        );
        assert!(check(&[f]).is_empty());
    }
}
