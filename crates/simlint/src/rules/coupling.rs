//! Rule `coupling`: cross-machine reach-through, flagged and inventoried.
//!
//! Every place one machine's execution context reaches into another
//! machine's state — or into world-shared maps — is a seam: the
//! paper's NFS forwarding, `rsh`, migration dumps. Seams are where a
//! kernel model goes subtly wrong (a handler charging the wrong
//! machine, a wake landing on the wrong clock), so they are kept few
//! and named. This module does two jobs with one scan:
//!
//! * **The lint.** A *syscall handler* (a function in
//!   `ukernel/src/sys/` whose signature takes `SysCtx`) holds exactly
//!   one machine's context (`cx.mid`). If its body indexes a
//!   *different* machine — `machine_mut(dst)`, `proc_mut(other, ..)`,
//!   `machines[peer]` — it has bypassed the `World` routing layer.
//!   Handlers must go through `World` methods (the remote-exec and
//!   signal paths already do). This is a hard rule; sanctioned
//!   exceptions go in `simlint.toml`.
//!
//! * **The report.** `simlint --coupling-report` inventories every
//!   kernel function that indexes a foreign machine or touches a
//!   world-shared structure (`ether`, `finished`, the sleepers, …),
//!   world layer included — there the coupling is *by design*; the
//!   point is to enumerate it. The report is checked in at
//!   `simlint.coupling.json` and `ci.sh` fails when it is stale, so
//!   growth of the seam list shows up in review like any other diff.

use crate::diag::Diagnostic;
use crate::lexer::{Tok, TokKind};
use crate::visitor::{dot_mentions, fn_items, in_ranges, test_mod_ranges};
use crate::workspace::{Role, SourceFile};

/// Rule id.
pub const RULE: &str = "coupling";

/// World-level accessors that take a machine id as their first
/// argument; a non-`mid` first argument is a foreign-machine index.
const INDEXERS: [&str; 5] = [
    "machine",
    "machine_mut",
    "proc_ref",
    "proc_mut",
    "machine_name",
];

/// World-owned structures shared across machines: mutating or reading
/// these from a per-machine step couples that step to every machine.
const SHARED: [&str; 7] = [
    "ether",
    "terminals",
    "finished",
    "overlaid",
    "daemon_waiters",
    "sleepers",
    "wake_queue",
];

/// One row of the coupling inventory. Rows carry no line number, so
/// the inventory moves only when a seam does, not when code around it
/// moves; they sort by file, symbol, kind and detail.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Coupling {
    /// Workspace-relative file.
    pub file: String,
    /// Function name.
    pub symbol: String,
    /// `foreign-index` or `shared-state`.
    pub kind: &'static str,
    /// What was reached: the indexing call or the shared fields.
    pub detail: String,
}

/// The lint: syscall handlers indexing a machine other than their own.
pub fn check(files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for f in files {
        if f.crate_name != "ukernel" || f.role != Role::Src || !f.rel_path.contains("/sys/") {
            continue;
        }
        let test_ranges = test_mod_ranges(&f.toks);
        for item in fn_items(&f.toks) {
            if in_ranges(item.body_start, &test_ranges) {
                continue;
            }
            let sig_has_ctx = f.toks[item.sig_start..item.body_start]
                .iter()
                .any(|t| t.is_ident("SysCtx"));
            if !sig_has_ctx {
                continue;
            }
            for (callee, arg) in foreign_indexes(&f.toks, item.body_start, item.body_end) {
                out.push(Diagnostic {
                    file: f.rel_path.clone(),
                    line: item.line,
                    rule: RULE,
                    subject: item.name.clone(),
                    message: format!(
                        "{} holds one machine's context (SysCtx) but indexes \
                         another machine's state via {callee}({arg}): route \
                         cross-machine effects through a World method so the \
                         parallel step can turn them into messages",
                        item.name
                    ),
                });
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// The inventory: every kernel function that couples machines.
pub fn report(files: &[SourceFile]) -> Vec<Coupling> {
    let mut out = Vec::new();
    for f in files {
        if f.crate_name != "ukernel" || f.role != Role::Src {
            continue;
        }
        let test_ranges = test_mod_ranges(&f.toks);
        for item in fn_items(&f.toks) {
            if in_ranges(item.body_start, &test_ranges) {
                continue;
            }
            let foreign = foreign_indexes(&f.toks, item.body_start, item.body_end);
            if !foreign.is_empty() {
                let mut detail: Vec<String> =
                    foreign.iter().map(|(c, a)| format!("{c}({a})")).collect();
                detail.dedup();
                out.push(Coupling {
                    file: f.rel_path.clone(),
                    symbol: item.name.clone(),
                    kind: "foreign-index",
                    detail: detail.join(" "),
                });
            }
            let mentions = dot_mentions(&f.toks, item.body_start, item.body_end);
            let shared: Vec<&str> = SHARED
                .iter()
                .copied()
                .filter(|s| mentions.contains(*s))
                .collect();
            if !shared.is_empty() {
                out.push(Coupling {
                    file: f.rel_path.clone(),
                    symbol: item.name.clone(),
                    kind: "shared-state",
                    detail: shared.join(" "),
                });
            }
        }
    }
    out.sort();
    out
}

/// Renders the inventory as deterministic JSON lines inside an array,
/// one object per row — diffable, and parseable without a JSON crate.
pub fn render_report(rows: &[Coupling]) -> String {
    let mut s = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "  {{\"file\":\"{}\",\"symbol\":\"{}\",\"kind\":\"{}\",\"detail\":\"{}\"}}{}\n",
            r.file,
            r.symbol,
            r.kind,
            r.detail,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    s.push_str("]\n");
    s
}

/// Every `indexer(arg, ..)` or `machines[arg]` in the range whose
/// machine-id argument is not the context's own `mid`. Returns
/// `(indexer, arg-text)` pairs.
///
/// `proc_ref`/`proc_mut` exist at two levels: the `World` form takes
/// `(mid, pid)`, the `Machine` form takes `(pid)` — same-machine by
/// construction. Only the multi-argument form indexes by machine, so
/// single-argument calls to those two names are skipped.
fn foreign_indexes(toks: &[Tok], start: usize, end: usize) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let end = end.min(toks.len());
    for i in start..end {
        if toks[i].kind != TokKind::Ident {
            continue;
        }
        let name = toks[i].text.as_str();
        let indexed = (INDEXERS.contains(&name)
            && toks.get(i + 1).is_some_and(|t| t.is_punct("(")))
            || (name == "machines" && toks.get(i + 1).is_some_and(|t| t.is_punct("[")));
        if !indexed {
            continue;
        }
        let open = i + 1;
        // First argument (tokens up to a top-level `,` or the closer),
        // plus whether a second argument follows.
        let mut depth = 0usize;
        let mut arg: Vec<&str> = Vec::new();
        let mut multi_arg = false;
        for t in &toks[open + 1..end] {
            if t.is_punct("(") || t.is_punct("[") {
                depth += 1;
            } else if t.is_punct(")") || t.is_punct("]") {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            } else if depth == 0 && t.is_punct(",") {
                multi_arg = true;
                break;
            }
            arg.push(&t.text);
        }
        if matches!(name, "proc_ref" | "proc_mut") && !multi_arg {
            continue;
        }
        // `mid`, `cx.mid`, `self.mid`, … — anything whose final path
        // segment is `mid` is the context's own machine.
        if arg.last().is_some_and(|last| *last == "mid") || arg.is_empty() {
            continue;
        }
        out.push((toks[i].text.clone(), arg.concat()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::fixtures::file_at;

    #[test]
    fn handler_indexing_foreign_machine_is_flagged() {
        let f = file_at(
            "crates/ukernel/src/sys/migrate.rs",
            "pub fn sys_msend(cx: &mut SysCtx<'_>, dst: usize) -> SyscallResult {
                 let peer = cx.w.machine_mut(dst);
                 done(Ok(SysRetval::ok(0)))
             }",
        );
        let d = check(&[f]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].subject, "sys_msend");
        assert!(
            d[0].message.contains("machine_mut(dst)"),
            "{}",
            d[0].message
        );
    }

    #[test]
    fn own_mid_access_is_not_coupling() {
        let f = file_at(
            "crates/ukernel/src/sys/procops.rs",
            "pub fn sys_getpid(cx: &mut SysCtx<'_>) -> SyscallResult {
                 let m = cx.w.machine(cx.mid);
                 let p = cx.w.proc_ref(cx.mid, cx.pid);
                 done(Ok(SysRetval::ok(p.pid.0 as i64)))
             }",
        );
        assert!(check(&[f]).is_empty());
    }

    #[test]
    fn world_layer_is_reported_but_not_linted() {
        let f = file_at(
            "crates/ukernel/src/world.rs",
            "impl World { pub fn wake_one(&mut self, target: usize, pid: Pid) {
                 self.machines[target].make_runnable(pid);
                 self.finished.insert((target, pid.0), info);
             } }",
        );
        assert!(check(std::slice::from_ref(&f)).is_empty());
        let rows = report(&[f]);
        assert_eq!(rows.len(), 2, "{rows:?}");
        assert_eq!(rows[0].kind, "foreign-index");
        assert_eq!(rows[0].detail, "machines(target)");
        assert_eq!(rows[1].kind, "shared-state");
        assert_eq!(rows[1].detail, "finished");
    }

    #[test]
    fn machine_level_proc_accessors_are_not_machine_indexes() {
        // Machine::proc_mut(pid) is pid-indexed on the same machine;
        // only the World form proc_mut(mid, pid) takes a machine id.
        let f = file_at(
            "crates/ukernel/src/machine.rs",
            "impl Machine { pub fn charge_sys(&mut self, pid: Pid, c: Cost) {
                 if let Some(p) = self.proc_mut(pid) { p.stime += c.cpu; }
             } }",
        );
        assert!(report(&[f]).is_empty());
        let w = file_at(
            "crates/ukernel/src/world.rs",
            "impl World { fn reroute(&mut self, dst: usize, pid: Pid) {
                 if let Some(p) = self.proc_mut(dst, pid) { p.sig_pending = 0; }
             } }",
        );
        let rows = report(&[w]);
        assert_eq!(rows.len(), 1, "{rows:?}");
        assert_eq!(rows[0].detail, "proc_mut(dst)");
    }

    #[test]
    fn non_ctx_helpers_in_sys_are_not_linted() {
        let f = file_at(
            "crates/ukernel/src/sys/fsops.rs",
            "fn queue_stats(w: &World, other: usize) -> usize {
                 w.machine(other).pipes.len()
             }",
        );
        assert!(check(std::slice::from_ref(&f)).is_empty());
        assert_eq!(report(&[f]).len(), 1);
    }

    #[test]
    fn report_rendering_is_stable_json() {
        let rows = vec![Coupling {
            file: "crates/ukernel/src/world.rs".into(),
            symbol: "wake_one".into(),
            kind: "foreign-index",
            detail: "machines(target)".into(),
        }];
        let s = render_report(&rows);
        assert!(s.starts_with("[\n"), "{s}");
        assert!(s.contains("\"symbol\":\"wake_one\""), "{s}");
        assert!(!s.contains("\"line\""), "{s}");
        assert!(s.ends_with("]\n"), "{s}");
    }
}
