//! System-call dispatch and handlers.
//!
//! [`dispatch`] is the kernel's single entry path: the entry hook
//! charges the trap cost, bumps the statistics and cuts a
//! [`crate::ktrace`] `enter` record; the routing match hands a
//! [`ctx::SysCtx`] to the handler named by the call's
//! [`sysdefs::SyscallMeta`] row; the exit hook folds the attempt's
//! charged simtime into the per-syscall aggregates, cuts the `exit`
//! record and centralises the `Blocked` bookkeeping (saving the
//! pending call and the VM restart pc) that used to be scattered over
//! the scheduler's trap arms.
//!
//! Handlers receive the whole [`crate::world::World`] through the
//! context because calls may cross machines (NFS) or machines' process
//! tables (signals, `wait`).

pub mod args;
pub mod ctx;
pub mod exec;
pub mod fsops;
pub mod procops;
pub mod vmabi;

use crate::ktrace::{KtraceEvent, KtraceResult};
use crate::machine::MachineId;
use crate::proc::Body;
use crate::world::World;
use args::{SysRetval, Syscall, SyscallResult};
use ctx::SysCtx;
use sysdefs::{Pid, SysResult};

/// Executes one system call for `pid` on machine `mid`.
///
/// Returns [`SyscallResult::Blocked`] when the call cannot complete yet;
/// the handler has parked the process, this function has saved the call
/// as `pending_syscall` (and, for VM bodies, the restart pc), and the
/// scheduler re-issues the same call when the process wakes — the
/// kernel's classic sleep/retry pattern. Every attempt, first or retry,
/// pays the trap cost, exactly as a real kernel re-enters through the
/// trap gate after a `sleep`.
pub fn dispatch(w: &mut World, mid: MachineId, pid: Pid, sc: &Syscall) -> SyscallResult {
    let no = sc.sysno();
    let name = no.meta().name;
    let t0 = w.machine(mid).now;

    // Entry hook: trap charge, statistics, trace record. The lookup
    // that charges the trap also reads the trace's retry flag.
    let trap = w.config.cost.syscall_trap();
    let m = w.machine_mut(mid);
    m.stats.syscalls += 1;
    let retry = m
        .charge_sys_to(pid, trap)
        .is_some_and(|p| p.pending_syscall.is_some());
    let at = m.now;
    m.ktrace.push(at, pid, name, KtraceEvent::Enter { retry });

    // Route to the handler through a fresh per-attempt context.
    let mut cx = SysCtx::new(w, mid, pid);
    let result = route(&mut cx, sc);

    // Exit hook: per-syscall aggregates, trace record, Blocked
    // bookkeeping. Charged time is the machine-clock delta across the
    // whole attempt so side charges (teardown in `exit`, remote `rsh`
    // legs) are captured too.
    let m = w.machine_mut(mid);
    let charged_us = m.now.since(t0).as_micros();
    m.stats.per_syscall.note(no, charged_us);
    let at = m.now;
    m.ktrace.push(
        at,
        pid,
        name,
        KtraceEvent::Exit {
            result: summarize(&result),
            charged_us,
        },
    );

    if matches!(result, SyscallResult::Blocked) {
        if let Some(p) = w.proc_mut(mid, pid) {
            p.pending_syscall = Some(sc.clone());
            if let Body::Vm(vm) = &p.body {
                // Re-issue restarts the trap instruction; idempotent on
                // repeated parks since the pc is frozen while parked.
                p.restart_pc = Some(vm.cpu.pc.wrapping_sub(vmabi::TRAP_LEN));
            }
        }
    }
    result
}

/// Condenses a dispatch outcome into its trace form.
fn summarize(r: &SyscallResult) -> KtraceResult {
    match r {
        SyscallResult::Done(ret) => match ret.val {
            Ok(v) => KtraceResult::Ok(v),
            Err(e) => KtraceResult::Err(e),
        },
        SyscallResult::Blocked => KtraceResult::Blocked,
        SyscallResult::Gone => KtraceResult::Gone,
    }
}

/// A handler's result as a finished call: its value, or its errno.
pub(crate) fn done(r: SysResult<SysRetval>) -> SyscallResult {
    SyscallResult::Done(match r {
        Ok(v) => v,
        Err(e) => SysRetval::err(e),
    })
}

/// The routing match: one arm per [`Syscall`] variant, each handing the
/// context to the handler for that trap-table row.
fn route(cx: &mut SysCtx<'_>, sc: &Syscall) -> SyscallResult {
    use Syscall::*;
    match sc {
        Exit { status } => procops::sys_exit(cx, *status),
        Fork => procops::sys_fork(cx),
        Read { fd, len, .. } => fsops::sys_read(cx, *fd, *len),
        Write { fd, bytes } => fsops::sys_write(cx, *fd, bytes),
        Open { path, flags, mode } => fsops::sys_open(cx, path, *flags, *mode, false),
        Creat { path, mode } => fsops::sys_creat(cx, path, *mode),
        Close { fd } => fsops::sys_close(cx, *fd),
        Wait => procops::sys_wait(cx),
        Link { old, new } => fsops::sys_link(cx, old, new),
        Unlink { path } => fsops::sys_unlink(cx, path),
        Chdir { path } => fsops::sys_chdir(cx, path),
        Stat { path } => fsops::sys_stat(cx, path),
        Lseek { fd, offset, whence } => fsops::sys_lseek(cx, *fd, *offset, *whence),
        Getpid => procops::sys_getpid(cx, false),
        Getuid => procops::sys_getuid(cx),
        Kill { pid: target, sig } => procops::sys_kill(cx, *target, *sig),
        Dup { fd } => fsops::sys_dup(cx, *fd),
        Pipe => fsops::sys_pipe(cx, false),
        Socket => fsops::sys_pipe(cx, true),
        Ioctl { fd, req } => fsops::sys_ioctl(cx, *fd, *req),
        Symlink { target, link } => fsops::sys_symlink(cx, target, link),
        Readlink { path, buf_len, .. } => fsops::sys_readlink(cx, path, *buf_len),
        Execve { path } => exec::sys_execve(cx, path),
        Gethostname { buf_len, .. } => procops::sys_gethostname(cx, *buf_len, false),
        Sigvec { sig, disp } => procops::sys_sigvec(cx, *sig, *disp),
        Sigsetmask { mask } => procops::sys_sigsetmask(cx, *mask),
        Alarm { secs } => procops::sys_alarm(cx, *secs),
        Gettimeofday => procops::sys_gettimeofday(cx),
        Setreuid { ruid, euid } => procops::sys_setreuid(cx, *ruid, *euid),
        Mkdir { path, mode } => fsops::sys_mkdir(cx, path, *mode),
        Sigreturn => crate::signal::sys_sigreturn(cx),
        Sleep { micros } => procops::sys_sleep(cx, *micros),
        RestProc {
            aout,
            stack,
            old_pid,
            old_host,
            demand,
        } => exec::sys_rest_proc(cx, aout, stack, *old_pid, old_host.as_deref(), *demand),
        GetpidReal => procops::sys_getpid(cx, true),
        GethostnameReal { buf_len, .. } => procops::sys_gethostname(cx, *buf_len, true),
        Getwd { buf_len, .. } => procops::sys_getwd(cx, *buf_len),
    }
}

#[cfg(test)]
mod tests {
    use super::args::Syscall;
    use sysdefs::{Disposition, Sysno, SYSCALL_TABLE};

    /// Every [`Syscall`] variant must resolve to a distinct trap-table
    /// row, and the table must not carry rows no variant reaches — the
    /// declarative table and the enum are pinned to each other.
    #[test]
    fn trap_table_is_exhaustive_over_the_syscall_enum() {
        let variants: Vec<Syscall> = vec![
            Syscall::Exit { status: 0 },
            Syscall::Fork,
            Syscall::Read {
                fd: 0,
                len: 0,
                buf_addr: None,
            },
            Syscall::Write {
                fd: 0,
                bytes: vec![],
            },
            Syscall::Open {
                path: String::new(),
                flags: 0,
                mode: 0,
            },
            Syscall::Creat {
                path: String::new(),
                mode: 0,
            },
            Syscall::Close { fd: 0 },
            Syscall::Wait,
            Syscall::Link {
                old: String::new(),
                new: String::new(),
            },
            Syscall::Unlink {
                path: String::new(),
            },
            Syscall::Chdir {
                path: String::new(),
            },
            Syscall::Stat {
                path: String::new(),
            },
            Syscall::Lseek {
                fd: 0,
                offset: 0,
                whence: super::args::Whence::Set,
            },
            Syscall::Getpid,
            Syscall::Getuid,
            Syscall::Kill { pid: 0, sig: 0 },
            Syscall::Dup { fd: 0 },
            Syscall::Pipe,
            Syscall::Ioctl {
                fd: 0,
                req: super::args::IoctlReq::Gtty,
            },
            Syscall::Symlink {
                target: String::new(),
                link: String::new(),
            },
            Syscall::Readlink {
                path: String::new(),
                buf_addr: None,
                buf_len: 0,
            },
            Syscall::Execve {
                path: String::new(),
            },
            Syscall::Gethostname {
                buf_addr: None,
                buf_len: 0,
            },
            Syscall::Socket,
            Syscall::Sigvec {
                sig: 1,
                disp: Disposition::Default,
            },
            Syscall::Sigsetmask { mask: 0 },
            Syscall::Alarm { secs: 0 },
            Syscall::Gettimeofday,
            Syscall::Setreuid { ruid: 0, euid: 0 },
            Syscall::Mkdir {
                path: String::new(),
                mode: 0,
            },
            Syscall::Sigreturn,
            Syscall::Sleep { micros: 0 },
            Syscall::RestProc {
                aout: String::new(),
                stack: String::new(),
                old_pid: None,
                old_host: None,
                demand: false,
            },
            Syscall::GetpidReal,
            Syscall::GethostnameReal {
                buf_addr: None,
                buf_len: 0,
            },
            Syscall::Getwd {
                buf_addr: None,
                buf_len: 0,
            },
        ];
        assert_eq!(
            variants.len(),
            SYSCALL_TABLE.len(),
            "one table row per Syscall variant"
        );

        let mut seen = std::collections::BTreeSet::new();
        for sc in &variants {
            let meta = sc.meta();
            assert!(
                seen.insert(meta.no.number()),
                "two variants share trap-table row {}",
                meta.name
            );
            // Round trip: the row the variant names is the row the table
            // holds at that number.
            assert_eq!(Sysno::from_number(meta.no.number()), Ok(meta.no));
        }
    }
}
