//! Rule `simtime-charging`: no syscall handler runs for free.
//!
//! The paper's figures are simulated-time measurements, so a handler
//! that mutates kernel state without charging simulated time silently
//! deflates every number downstream. The kernel has exactly one entry
//! path, through the `SysCtx` context, and this rule pins both halves of
//! that contract structurally:
//!
//! * **Signature.** Every `sys_*` handler in the kernel takes
//!   `&mut SysCtx`. A handler reverting to a raw `&mut World` (plus
//!   loose machine/pid arguments) could charge through primitives the
//!   rule below does not watch.
//! * **Reachability.** Each handler can reach a charge through the
//!   kernel's own call graph. The sinks are the `SysCtx` charging
//!   methods — `charge` and `charge_rpc` — and only those: the
//!   `World` primitives they wrap are named `charge_kernel` /
//!   `charge_kernel_rpc` precisely so a bare `charge(...)` call in
//!   kernel code can only be the context method.
//!
//! The reachability analysis is a may-reach fixpoint over function
//! names: a function charges if its body calls a sink directly, or
//! calls (by name) any kernel function that charges. Matching by bare
//! name over-approximates (two kernel functions sharing a name merge),
//! which can only produce false negatives for *other* functions, never
//! false positives — a flagged handler genuinely has no charging call
//! anywhere in its reachable name set. The dispatcher's per-trap charge
//! in `dispatch()` is deliberately not credited to handlers: the trap
//! prices kernel entry/exit, not the handler's own work.

use std::collections::{BTreeMap, BTreeSet};

use crate::diag::Diagnostic;
use crate::visitor::{calls_in, fn_items};
use crate::workspace::{Role, SourceFile};

/// Rule id.
pub const RULE: &str = "simtime-charging";

/// The `SysCtx` charging methods. `World`'s kernel-internal
/// primitives are spelled `charge_kernel`/`charge_kernel_rpc` so these
/// names are unambiguous in kernel code.
const SINKS: [&str; 2] = ["charge", "charge_rpc"];

/// Runs the rule over the workspace.
pub fn check(files: &[SourceFile]) -> Vec<Diagnostic> {
    struct FnInfo {
        file: String,
        line: u32,
        calls: BTreeSet<String>,
        direct_charge: bool,
    }

    let mut out = Vec::new();

    // Collect every function in the kernel crate's shipped sources.
    let mut fns: Vec<FnInfo> = Vec::new();
    let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for f in files {
        if f.crate_name != "ukernel" || f.role != Role::Src {
            continue;
        }
        for item in fn_items(&f.toks) {
            // Signature half of the contract: handlers take the
            // accounted context, by exclusive reference.
            if item.name.starts_with("sys_") && !takes_mut_sysctx(&f.toks, &item) {
                out.push(Diagnostic {
                    file: f.rel_path.clone(),
                    line: item.line,
                    rule: RULE,
                    subject: item.name.clone(),
                    message: format!(
                        "{} does not take `&mut SysCtx`: syscall handlers must go \
                         through the accounted kernel-entry context, not a raw \
                         World/machine/pid triple",
                        item.name
                    ),
                });
            }
            let calls: BTreeSet<String> = calls_in(&f.toks, item.body_start, item.body_end)
                .into_iter()
                .map(|c| c.name)
                .collect();
            let direct_charge = calls.iter().any(|c| SINKS.contains(&c.as_str()));
            by_name
                .entry(item.name.clone())
                .or_default()
                .push(fns.len());
            fns.push(FnInfo {
                file: f.rel_path.clone(),
                line: item.line,
                calls,
                direct_charge,
            });
        }
    }

    // Fixpoint: propagate "charges" backwards along call edges.
    let mut charges: Vec<bool> = fns.iter().map(|f| f.direct_charge).collect();
    loop {
        let mut changed = false;
        for (i, info) in fns.iter().enumerate() {
            if charges[i] {
                continue;
            }
            let reaches = info.calls.iter().any(|callee| {
                by_name
                    .get(callee)
                    .is_some_and(|idxs| idxs.iter().any(|&j| charges[j]))
            });
            if reaches {
                charges[i] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Handlers are the kernel's syscall entry points: `sys_*` functions.
    for (name, idxs) in &by_name {
        if !name.starts_with("sys_") {
            continue;
        }
        for &i in idxs {
            if !charges[i] {
                out.push(Diagnostic {
                    file: fns[i].file.clone(),
                    line: fns[i].line,
                    rule: RULE,
                    subject: name.clone(),
                    message: format!(
                        "{name} never reaches a charge/cost-model call: every syscall \
                         handler must charge simulated time for its own work \
                         (SysCtx::charge or a helper that does)"
                    ),
                });
            }
        }
    }
    out.sort();
    out
}

/// Does the signature `toks[sig_start..body_start]` contain a
/// `&mut ... SysCtx` parameter? The path between `mut` and `SysCtx` is
/// free (`&mut SysCtx`, `&mut crate::sys::ctx::SysCtx` both match).
fn takes_mut_sysctx(toks: &[crate::lexer::Tok], item: &crate::visitor::FnItem) -> bool {
    let sig = &toks[item.sig_start..item.body_start];
    let Some(k) = sig.iter().position(|t| t.is_ident("SysCtx")) else {
        return false;
    };
    sig[..k]
        .windows(2)
        .any(|w| w[0].is_punct("&") && w[1].is_ident("mut"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::fixtures::file_at;

    const CHARGING_HANDLER: &str = "
        pub fn sys_open(cx: &mut SysCtx<'_>) -> SyscallResult {
            let c = cx.cost().file_struct_op();
            cx.charge(c);
            done(Ok(SysRetval::ok(0)))
        }";

    #[test]
    fn direct_charge_passes() {
        let f = file_at("crates/ukernel/src/sys/fsops.rs", CHARGING_HANDLER);
        assert!(check(&[f]).is_empty());
    }

    #[test]
    fn transitive_charge_through_a_helper_passes() {
        let helper = file_at(
            "crates/ukernel/src/sys/fsops.rs",
            "pub(crate) fn close_common(cx: &mut SysCtx<'_>, fd: usize) -> SysResult<SysRetval> \
             { cx.charge(c); Ok(SysRetval::ok(0)) }",
        );
        let handler = file_at(
            "crates/ukernel/src/sys/procops.rs",
            "pub fn sys_close(cx: &mut SysCtx<'_>, fd: usize) -> SyscallResult \
             { done(close_common(cx, fd)) }",
        );
        assert!(check(&[helper, handler]).is_empty());
    }

    #[test]
    fn zero_cost_handler_is_flagged() {
        let f = file_at(
            "crates/ukernel/src/sys/procops.rs",
            "pub fn sys_getpid(cx: &mut SysCtx<'_>) -> SyscallResult { done(Ok(SysRetval::ok(1))) }",
        );
        let d = check(&[f]);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].subject, "sys_getpid");
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn raw_world_handler_is_flagged_even_if_it_charges() {
        let f = file_at(
            "crates/ukernel/src/sys/fsops.rs",
            "pub fn sys_open(w: &mut World, mid: usize, pid: Pid) -> SyscallResult \
             { w.charge(mid, pid, c); done(Ok(SysRetval::ok(0))) }",
        );
        let d = check(&[f]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].subject, "sys_open");
        assert!(d[0].message.contains("&mut SysCtx"), "{}", d[0].message);
    }

    #[test]
    fn world_kernel_primitives_are_not_sinks() {
        // A handler that only reaches World::charge_kernel (the
        // dispatcher-invisible primitive) has bypassed per-call
        // accounting and is flagged.
        let helper = file_at(
            "crates/ukernel/src/world.rs",
            "impl World { pub fn charge_kernel(&mut self, mid: usize) { self.tick(mid); } }",
        );
        let handler = file_at(
            "crates/ukernel/src/sys/procops.rs",
            "pub fn sys_alarm(cx: &mut SysCtx<'_>) -> SyscallResult \
             { cx.w.charge_kernel(0); done(Ok(SysRetval::ok(0))) }",
        );
        let d = check(&[helper, handler]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].subject, "sys_alarm");
    }

    #[test]
    fn fully_qualified_sysctx_path_matches() {
        let f = file_at(
            "crates/ukernel/src/signal.rs",
            "pub fn sys_sigreturn(cx: &mut crate::sys::ctx::SysCtx<'_>) -> SyscallResult \
             { cx.charge(c); done(Ok(SysRetval::ok(0))) }",
        );
        assert!(check(&[f]).is_empty());
    }

    #[test]
    fn non_kernel_and_test_code_is_out_of_scope() {
        let app = file_at(
            "crates/apps/src/loadbal.rs",
            "pub fn sys_like_but_not_kernel() { nothing(); }",
        );
        let test = file_at(
            "crates/ukernel/tests/kernel.rs",
            "fn sys_fixture() { no_charge_needed(); }",
        );
        assert!(check(&[app, test]).is_empty());
    }
}
