//! Rule `wake-poke`: every wake-condition mutation reaches a poke.
//!
//! The event scheduler replaced a per-slice sweep of every blocked
//! process with wait channels and a poke discipline. Its correctness rests on one invariant the compiler
//! cannot see: **any state change that can flip a blocked process's
//! wake condition true must be followed by a poke**, or the wakeup
//! stalls forever. Over-poking is harmless (a false condition evaluates
//! to no action); a *missed* poke is the only hazard — exactly the bug
//! class the debug-build wake audit catches dynamically at every pick,
//! checked statically here.
//!
//! The rule computes, per kernel function, the set of wake-condition
//! *writer markers* in its body:
//!
//! * `x.state = ... Runnable/Zombie ...` — a wake-direction `ProcState`
//!   transition (block-direction writes like `Sleeping`/`PipeWait` are
//!   registrations, not wake conditions);
//! * pipe/socket buffer mutations — `.data` through a mutating method,
//!   and `readers`/`writers` endpoint-count writes (EOF/EPIPE flips);
//! * `.sig_pending` writes and calls to the leaf setters that perform
//!   them for callers: `post_signal`, `make_runnable`, `nudge`,
//!   `push_timer` (arming a timer the ready index must learn about).
//!
//! Every function with a marker must **reach a poke sink** through the
//! kernel's call graph (the same may-reach name fixpoint as the
//! charging rule): `poke_proc`, `wakeup` or `enter_run`, or a direct
//! insert into `wake_queue`/`wait_pending`. The wake machinery itself — the
//! evaluators that *consume* pokes and the `Machine`/`Proc` leaf
//! setters that cannot see the `World` — is structurally exempt, like
//! the determinism rule's hostclock quarantine: the exemption is part
//! of the rule, not the allowlist, because moving those functions
//! does not change what they are.
//!
//! In-source `#[cfg(test)]` modules are skipped: unit tests mutate
//! kernel state directly by design and never run under the event
//! scheduler's run loops.

use std::collections::{BTreeMap, BTreeSet};

use crate::diag::Diagnostic;
use crate::lexer::Tok;
use crate::visitor::{calls_in, field_writes, fn_items, in_ranges, test_mod_ranges, FnItem};
use crate::workspace::{Role, SourceFile};

/// Rule id.
pub const RULE: &str = "wake-poke";

/// Leaf setters whose *callers* carry the poke obligation.
const MARKER_CALLS: [&str; 4] = ["post_signal", "make_runnable", "nudge", "push_timer"];

/// Buffer/endpoint fields whose writes flip pipe wake conditions.
const BUFFER_FIELDS: [&str; 3] = ["data", "readers", "writers"];

/// The `World` poke hooks: calling one (transitively) discharges the
/// obligation.
const SINK_CALLS: [&str; 3] = ["poke_proc", "wakeup", "enter_run"];

/// Fields whose insert/extend IS the poke (the hooks' own bodies).
const SINK_FIELDS: [&str; 2] = ["wake_queue", "wait_pending"];

/// The wake machinery: evaluators that consume pokes (calling the leaf
/// setters is their job) and the `Machine`/`Proc` leaf setters
/// themselves, which cannot reach the `World` to poke. Structural, not
/// allowlisted — see the module docs.
const MECHANISM: [(&str, &str); 8] = [
    ("crates/ukernel/src/machine.rs", "make_runnable"),
    ("crates/ukernel/src/machine.rs", "nudge"),
    ("crates/ukernel/src/machine.rs", "push_timer"),
    ("crates/ukernel/src/proc.rs", "post_signal"),
    ("crates/ukernel/src/proc.rs", "take_signal"),
    ("crates/ukernel/src/world/sched.rs", "apply_wake"),
    ("crates/ukernel/src/world/sched.rs", "fire_alarm"),
    ("crates/ukernel/src/world/sched.rs", "service_machine"),
];

/// Runs the rule over the workspace.
pub fn check(files: &[SourceFile]) -> Vec<Diagnostic> {
    struct FnInfo {
        file: String,
        line: u32,
        name: String,
        calls: BTreeSet<String>,
        markers: Vec<String>,
        direct_sink: bool,
        mechanism: bool,
    }

    let mut fns: Vec<FnInfo> = Vec::new();
    let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for f in files {
        if f.crate_name != "ukernel" || f.role != Role::Src {
            continue;
        }
        let test_ranges = test_mod_ranges(&f.toks);
        for item in fn_items(&f.toks) {
            if in_ranges(item.body_start, &test_ranges) {
                continue;
            }
            let calls: BTreeSet<String> = calls_in(&f.toks, item.body_start, item.body_end)
                .into_iter()
                .map(|c| c.name)
                .collect();
            let markers = markers_in(&f.toks, &item, &calls);
            let direct_sink = field_writes(&f.toks, item.body_start, item.body_end)
                .iter()
                .any(|w| {
                    SINK_FIELDS.contains(&w.field.as_str())
                        && matches!(w.via_method.as_deref(), Some("insert" | "extend"))
                });
            let mechanism = MECHANISM
                .iter()
                .any(|&(path, name)| f.rel_path.ends_with(path) && item.name == name);
            by_name
                .entry(item.name.clone())
                .or_default()
                .push(fns.len());
            fns.push(FnInfo {
                file: f.rel_path.clone(),
                line: item.line,
                name: item.name.clone(),
                calls,
                markers,
                direct_sink,
                mechanism,
            });
        }
    }

    // May-reach fixpoint: a function pokes if its body hits a sink
    // directly or calls (by name) any kernel function that pokes.
    let mut pokes: Vec<bool> = fns
        .iter()
        .map(|f| f.direct_sink || f.calls.iter().any(|c| SINK_CALLS.contains(&c.as_str())))
        .collect();
    loop {
        let mut changed = false;
        for (i, info) in fns.iter().enumerate() {
            if pokes[i] {
                continue;
            }
            let reaches = info.calls.iter().any(|callee| {
                by_name
                    .get(callee)
                    .is_some_and(|idxs| idxs.iter().any(|&j| pokes[j]))
            });
            if reaches {
                pokes[i] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let mut out = Vec::new();
    for (i, info) in fns.iter().enumerate() {
        if info.markers.is_empty() || info.mechanism || pokes[i] {
            continue;
        }
        out.push(Diagnostic {
            file: info.file.clone(),
            line: info.line,
            rule: RULE,
            subject: info.name.clone(),
            message: format!(
                "{} mutates a wake condition ({}) but never reaches a poke \
                 (poke_proc/wakeup or a wake_queue/wait_pending insert): \
                 under the event scheduler the wakeup this mutation \
                 enables would stall",
                info.name,
                info.markers.join(", ")
            ),
        });
    }
    out.sort();
    out
}

/// The wake-condition writer markers in one function's body.
fn markers_in(toks: &[Tok], item: &FnItem, calls: &BTreeSet<String>) -> Vec<String> {
    let mut markers = Vec::new();
    for w in field_writes(toks, item.body_start, item.body_end) {
        let hit = match w.field.as_str() {
            // Wake-direction ProcState transitions only: the RHS (up to
            // the `;`) names Runnable or Zombie. Block-direction writes
            // are registrations and carry no poke obligation.
            "state" if w.via_method.is_none() => {
                let rhs_end = (w.idx + 2..toks.len().min(w.idx + 40))
                    .find(|&k| toks[k].is_punct(";"))
                    .unwrap_or(toks.len().min(w.idx + 40));
                toks[w.idx + 2..rhs_end]
                    .iter()
                    .any(|t| t.is_ident("Runnable") || t.is_ident("Zombie"))
            }
            f if BUFFER_FIELDS.contains(&f) => true,
            "sig_pending" => true,
            _ => false,
        };
        if hit {
            markers.push(format!("{}:{}", w.field, w.line));
        }
    }
    for c in calls {
        if MARKER_CALLS.contains(&c.as_str()) {
            markers.push(format!("{c}()"));
        }
    }
    markers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::fixtures::file_at;

    #[test]
    fn unpoked_wake_transition_is_flagged() {
        let f = file_at(
            "crates/ukernel/src/sys/procops.rs",
            "pub fn sys_resume(cx: &mut SysCtx<'_>, pid: u32) -> SyscallResult {
                 if let Some(t) = cx.w.proc_mut(cx.mid, Pid(pid)) {
                     t.state = ProcState::Runnable;
                 }
                 done(Ok(SysRetval::ok(0)))
             }",
        );
        let d = check(&[f]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].subject, "sys_resume");
        assert!(d[0].message.contains("state:"), "{}", d[0].message);
    }

    #[test]
    fn direct_poke_discharges_the_obligation() {
        let f = file_at(
            "crates/ukernel/src/sys/procops.rs",
            "pub fn sys_resume(cx: &mut SysCtx<'_>, pid: u32) -> SyscallResult {
                 if let Some(t) = cx.w.proc_mut(cx.mid, Pid(pid)) {
                     t.state = ProcState::Runnable;
                     t.post_signal(sig);
                 }
                 cx.w.poke_proc(cx.mid, Pid(pid));
                 done(Ok(SysRetval::ok(0)))
             }",
        );
        assert!(check(&[f]).is_empty());
    }

    #[test]
    fn transitive_poke_through_a_helper_passes() {
        let helper = file_at(
            "crates/ukernel/src/world.rs",
            "impl World { pub fn finish(&mut self, mid: usize, pid: Pid) {
                 self.wake_queue.insert(mid);
             } }",
        );
        let writer = file_at(
            "crates/ukernel/src/sys/exec.rs",
            "fn exec_common(cx: &mut SysCtx<'_>) {
                 p.state = ProcState::Runnable;
                 m.make_runnable(pid);
                 cx.w.finish(cx.mid, cx.pid);
             }",
        );
        assert!(check(&[helper, writer]).is_empty());
    }

    #[test]
    fn block_direction_transitions_are_not_writers() {
        let f = file_at(
            "crates/ukernel/src/sys/fsops.rs",
            "fn read_queue(cx: &mut SysCtx<'_>) {
                 p.state = ProcState::PipeWait;
                 cx.w.sleep_on(q.chan(cx.mid), cx.mid, cx.pid);
             }",
        );
        assert!(check(&[f]).is_empty());
    }

    #[test]
    fn buffer_mutation_without_poke_is_flagged() {
        let f = file_at(
            "crates/ukernel/src/sys/fsops.rs",
            "fn write_queue(cx: &mut SysCtx<'_>, bytes: &[u8]) {
                 buf.data.extend(bytes.iter().copied());
             }",
        );
        let d = check(&[f]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].subject, "write_queue");
    }

    #[test]
    fn buffer_mutation_reaching_wakeup_is_clean() {
        let f = file_at(
            "crates/ukernel/src/sys/fsops.rs",
            "fn write_queue(cx: &mut SysCtx<'_>, bytes: &[u8]) {
                 buf.data.extend(bytes.iter().copied());
                 cx.w.wakeup(q.chan(cx.mid));
             }",
        );
        assert!(check(&[f]).is_empty());
    }

    #[test]
    fn timer_arming_without_poke_is_flagged() {
        let f = file_at(
            "crates/ukernel/src/sys/procops.rs",
            "pub fn sys_alarm(cx: &mut SysCtx<'_>) -> SyscallResult {
                 cx.machine_mut().push_timer(pid, t);
                 done(Ok(SysRetval::ok(0)))
             }",
        );
        let d = check(&[f]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("push_timer"), "{}", d[0].message);
    }

    #[test]
    fn mechanism_and_test_modules_are_exempt() {
        let world = file_at(
            "crates/ukernel/src/world/sched.rs",
            "impl World { fn apply_wake(&mut self, mid: usize, pid: Pid) {
                 self.machines[mid].make_runnable(pid);
             } }",
        );
        let leaf = file_at(
            "crates/ukernel/src/proc.rs",
            "impl Proc { pub fn post_signal(&mut self, sig: Signal) {
                 self.sig_pending |= 1 << (sig.number() - 1);
             } }
             #[cfg(test)]
             mod tests {
                 fn t() { p.state = ProcState::Runnable; p.post_signal(s); }
             }",
        );
        assert!(check(&[world, leaf]).is_empty());
    }

    #[test]
    fn non_kernel_crates_are_out_of_scope() {
        let f = file_at(
            "crates/pmig/src/commands.rs",
            "pub fn probe(s: &dyn Sys) { target.state = ProcState::Runnable; }",
        );
        assert!(check(&[f]).is_empty());
    }
}
