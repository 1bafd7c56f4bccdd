//! Rule `snapshot-coverage`: every sim-state field is in the oracle.
//!
//! The dual-run determinism tests are only an oracle for the state
//! they fold: a `World`/`Machine` field added without a matching line
//! in the snapshot builder is invisible to them, and a divergence in
//! it goes undetected until it leaks into something folded. Yodaiken's
//! argument (PAPERS.md) is that such claims about state must be
//! checked mechanically; this rule does so at the struct level.
//!
//! For each field of `World`, `Machine` and `MachineStats` the rule
//! requires one of:
//!
//! * **folded** — some snapshot builder (a root-tests function whose
//!   name starts with `snapshot`, or any helper it reaches within the
//!   test tree) mentions the field as `.field`; or
//! * **declared pure-cache** — an allowlist entry in `simlint.toml`
//!   scoped to this rule names `Struct::field` with a reason. This is
//!   the Milanés exemption: derived or reconstructible state
//!   (scheduler wait channels, host-side perf counters) may be excluded
//!   from the snapshot, but the exclusion must be a reviewed,
//!   documented decision — never an accident of omission. Stale
//!   entries fail like any other allowlist entry.
//!
//! Coverage is name-based like the rest of simlint: a builder that
//! reads `m.stats.syscalls` covers both `stats` and `syscalls`. That
//! is deliberate — the rule polices *omission*, the cheap-to-make and
//! expensive-to-notice mistake; it does not try to prove the folded
//! value is meaningful.

use std::collections::{BTreeMap, BTreeSet};

use crate::diag::Diagnostic;
use crate::lexer::{Tok, TokKind};
use crate::visitor::{calls_in, dot_mentions, fn_items, match_brace};
use crate::workspace::{Role, SourceFile};

/// Rule id.
pub const RULE: &str = "snapshot-coverage";

/// The structs whose fields constitute the determinism-relevant sim
/// state. `Proc` is covered transitively: builders fold it per-field
/// while iterating `procs`, and new `Proc` fields show up in migration
/// pack/unpack parity long before they could hide.
const STRUCTS: [&str; 3] = ["World", "Machine", "MachineStats"];

/// One parsed struct field.
struct Field {
    file: String,
    line: u32,
    strukt: &'static str,
    name: String,
}

/// Runs the rule over the workspace.
pub fn check(files: &[SourceFile]) -> Vec<Diagnostic> {
    let fields = struct_fields(files);
    if fields.is_empty() {
        return Vec::new();
    }
    let (covered, found_builder) = builder_mentions(files);
    let mut out = Vec::new();
    if !found_builder {
        // Without a builder nothing is folded; one diagnostic per
        // struct beats one per field.
        let mut seen = BTreeSet::new();
        for f in &fields {
            if seen.insert(f.strukt) {
                out.push(Diagnostic {
                    file: f.file.clone(),
                    line: f.line,
                    rule: RULE,
                    subject: format!("{}::<builder>", f.strukt),
                    message: format!(
                        "no snapshot builder found in the root tests: every \
                         {} field is outside the determinism oracle",
                        f.strukt
                    ),
                });
            }
        }
        out.sort();
        return out;
    }
    for f in &fields {
        if covered.contains(&f.name) {
            continue;
        }
        out.push(Diagnostic {
            file: f.file.clone(),
            line: f.line,
            rule: RULE,
            subject: format!("{}::{}", f.strukt, f.name),
            message: format!(
                "{}::{} is neither folded into a determinism snapshot \
                 builder nor declared pure-cache in simlint.toml: a \
                 divergence in it is invisible to the dual-run oracle",
                f.strukt, f.name
            ),
        });
    }
    out.sort();
    out
}

/// Parses the named structs' field lists out of the kernel sources.
fn struct_fields(files: &[SourceFile]) -> Vec<Field> {
    let mut out = Vec::new();
    for f in files {
        if f.crate_name != "ukernel" || f.role != Role::Src {
            continue;
        }
        let toks = &f.toks;
        for i in 0..toks.len() {
            if !toks[i].is_ident("struct") {
                continue;
            }
            let Some(name) = STRUCTS
                .iter()
                .find(|s| toks.get(i + 1).is_some_and(|t| t.is_ident(s)))
            else {
                continue;
            };
            // `struct Name {` — none of ours carry generics. A `;` or
            // `(` next would be a unit/tuple struct: skip.
            let Some(open) = toks.get(i + 2).filter(|t| t.is_punct("{")) else {
                continue;
            };
            let _ = open;
            let body_end = match_brace(toks, i + 2);
            out.extend(fields_in_body(toks, i + 3, body_end - 1, name, &f.rel_path));
        }
    }
    out
}

/// Extracts field names from a struct body: an identifier directly
/// followed by a single `:` at brace depth 0, preceded by `{`, `,` or
/// a visibility (`pub` / the `)` closing `pub(crate)`). The lexer
/// keeps `::` as one token, so path types never look like fields.
fn fields_in_body(
    toks: &[Tok],
    start: usize,
    end: usize,
    strukt: &'static str,
    file: &str,
) -> Vec<Field> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    for i in start..end.min(toks.len()) {
        match () {
            _ if toks[i].is_punct("{") => depth += 1,
            _ if toks[i].is_punct("}") => depth = depth.saturating_sub(1),
            _ => {}
        }
        if depth > 0 || toks[i].kind != TokKind::Ident {
            continue;
        }
        if !toks.get(i + 1).is_some_and(|t| t.is_punct(":")) {
            continue;
        }
        let lead_ok = i == start
            || toks[i - 1].is_punct(",")
            || toks[i - 1].is_punct(")")
            || toks[i - 1].is_ident("pub");
        if lead_ok {
            out.push(Field {
                file: file.to_string(),
                line: toks[i].line,
                strukt,
                name: toks[i].text.clone(),
            });
        }
    }
    out
}

/// Collects every `.field` mention reachable from a snapshot builder:
/// root-tests functions named `snapshot*` plus, transitively, any
/// function in the root test tree they call by name.
fn builder_mentions(files: &[SourceFile]) -> (BTreeSet<String>, bool) {
    struct TestFn {
        mentions: BTreeSet<String>,
        calls: BTreeSet<String>,
        root: bool,
    }
    let mut fns: Vec<TestFn> = Vec::new();
    let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for f in files {
        if f.crate_name != "process-migration" || f.role != Role::Test {
            continue;
        }
        for item in fn_items(&f.toks) {
            let calls = calls_in(&f.toks, item.body_start, item.body_end)
                .into_iter()
                .map(|c| c.name)
                .collect();
            by_name
                .entry(item.name.clone())
                .or_default()
                .push(fns.len());
            fns.push(TestFn {
                mentions: dot_mentions(&f.toks, item.body_start, item.body_end),
                calls,
                root: item.name.starts_with("snapshot"),
            });
        }
    }
    let mut live: Vec<bool> = fns.iter().map(|f| f.root).collect();
    loop {
        let mut changed = false;
        for i in 0..fns.len() {
            if !live[i] {
                continue;
            }
            for callee in fns[i].calls.clone() {
                if let Some(idxs) = by_name.get(&callee) {
                    for &j in idxs {
                        if !live[j] {
                            live[j] = true;
                            changed = true;
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    let mut covered = BTreeSet::new();
    let mut found = false;
    for (i, f) in fns.iter().enumerate() {
        if live[i] {
            covered.extend(f.mentions.iter().cloned());
            found = found || f.root;
        }
    }
    (covered, found)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::fixtures::file_at;

    const STRUCT_SRC: &str = "pub struct Machine {
         pub now: SimTime,
         pub(crate) wait_pending: BTreeSet<Pid>,
         secret: u64,
     }";

    #[test]
    fn unfolded_field_is_flagged() {
        let m = file_at("crates/ukernel/src/machine.rs", STRUCT_SRC);
        let t = file_at(
            "tests/determinism.rs",
            "fn snapshot(w: &World) -> String {
                 format!(\"{} {}\", m.now, m.wait_pending.len())
             }",
        );
        let d = check(&[m, t]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].subject, "Machine::secret");
    }

    #[test]
    fn helper_folding_counts_transitively() {
        let m = file_at("crates/ukernel/src/machine.rs", STRUCT_SRC);
        let t = file_at(
            "tests/determinism.rs",
            "fn snapshot(w: &World) -> String { fold_machine(m) }
             fn fold_machine(m: &Machine) -> String {
                 format!(\"{} {} {}\", m.now, m.wait_pending.len(), m.secret)
             }",
        );
        assert!(check(&[m, t]).is_empty());
    }

    #[test]
    fn mention_outside_builder_closure_does_not_count() {
        let m = file_at("crates/ukernel/src/machine.rs", STRUCT_SRC);
        let t = file_at(
            "tests/determinism.rs",
            "fn snapshot(w: &World) -> String {
                 format!(\"{} {}\", m.now, m.wait_pending.len())
             }
             fn unrelated(m: &Machine) { let _ = m.secret; }",
        );
        let d = check(&[m, t]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].subject, "Machine::secret");
    }

    #[test]
    fn missing_builder_reports_once_per_struct() {
        let m = file_at("crates/ukernel/src/machine.rs", STRUCT_SRC);
        let t = file_at("tests/determinism.rs", "fn run() {}");
        let d = check(&[m, t]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].subject, "Machine::<builder>");
    }

    #[test]
    fn type_paths_and_nested_braces_are_not_fields() {
        // `ExitInfo::Code` must not read as a field, nor idents inside
        // a nested brace (none occur in real defs, but be safe).
        let m = file_at(
            "crates/ukernel/src/world.rs",
            "pub struct World {
                 pub finished: BTreeMap<(MachineId, u32), ExitInfo>,
                 pub config: WorldConfig,
             }",
        );
        let t = file_at(
            "tests/determinism.rs",
            "fn snapshot(w: &World) -> String {
                 format!(\"{:?} {:?}\", w.finished, w.config)
             }",
        );
        assert!(check(&[m, t]).is_empty());
    }

    #[test]
    fn other_structs_are_out_of_scope() {
        let m = file_at(
            "crates/ukernel/src/file.rs",
            "pub struct FileStruct { pub refcount: u32 }",
        );
        let t = file_at(
            "tests/determinism.rs",
            "fn snapshot(w: &World) -> String {}",
        );
        assert!(check(&[m, t]).is_empty());
    }
}
