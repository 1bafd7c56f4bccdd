//! Fixture syscall handlers: a seeded coupling violation (`sys_peek`),
//! a seeded wake-poke violation (`sys_revive`), and the traps — own-mid
//! access, the Machine-level pid accessor, and a properly poked twin.

/// Seeded violation (coupling): holds one machine's context but reads
/// a peer machine's state directly instead of going through World.
pub fn sys_peek(cx: &mut SysCtx<'_>, dst: usize) -> SyscallResult {
    let n = cx.w.machine(dst).stats.syscalls;
    done(Ok(SysRetval::ok(n as i64)))
}

/// Trap: indexing by the context's own `mid` is not coupling, and the
/// single-argument `proc_mut(pid)` is the Machine-level pid-indexed
/// accessor — same-machine by construction.
pub fn sys_self(cx: &mut SysCtx<'_>) -> SyscallResult {
    let m = cx.w.machine(cx.mid);
    let p = m.proc_mut(cx.pid);
    done(Ok(SysRetval::ok(p.pid.0 as i64)))
}

/// Seeded violation (wake-poke): makes a process runnable but never
/// tells the scheduler — under the event world this wakeup stalls.
pub fn sys_revive(cx: &mut SysCtx<'_>, pid: u32) -> SyscallResult {
    cx.machine_mut().make_runnable(Pid(pid));
    done(Ok(SysRetval::ok(0)))
}

/// Trap: the same marker, discharged through the poke hook.
pub fn sys_revive_poked(cx: &mut SysCtx<'_>, pid: u32) -> SyscallResult {
    cx.machine_mut().make_runnable(Pid(pid));
    cx.w.poke_proc(cx.mid, Pid(pid));
    done(Ok(SysRetval::ok(0)))
}
