//! Process-related system calls: exit, fork, wait, signals, identity.

use simtime::cost::Cost;
use simtime::SimDuration;
use sysdefs::{Disposition, Errno, Pid, Signal};

use crate::proc::{Body, Proc, ProcState};
use crate::sys::args::{SysRetval, SyscallResult};
use crate::sys::ctx::SysCtx;
use crate::sys::done;

/// `exit(2)`.
pub fn sys_exit(cx: &mut SysCtx<'_>, status: u32) -> SyscallResult {
    cx.w.do_exit(cx.mid, cx.pid, status);
    SyscallResult::Gone
}

/// `fork(2)` — VM bodies only; native utilities use `run_local`/`rsh`.
pub fn sys_fork(cx: &mut SysCtx<'_>) -> SyscallResult {
    done((|| {
        let pid = cx.pid;
        let child_pid = cx.machine_mut().alloc_pid();
        let (child_body, image_bytes) = {
            let p = cx.proc_ref().ok_or(Errno::ESRCH)?;
            match &p.body {
                Body::Vm(vm) => {
                    let mut child = vm.clone();
                    // The child sees fork() return 0; the VM dispatcher
                    // will deliver `child_pid` to the parent.
                    child.cpu.d[0] = 0;
                    child.cpu.sr &= !0x01; // Clear carry: success.
                    let bytes = child.mem.data().len()
                        + child.mem.stack_from(child.cpu.sp()).map_or(0, |s| s.len());
                    (Body::Vm(child), bytes)
                }
                _ => return Err(Errno::EINVAL),
            }
        };
        let user = {
            let p = cx.proc_ref().ok_or(Errno::ESRCH)?;
            p.user.clone()
        };
        // Shared file-table entries: bump every referenced entry.
        {
            let m = cx.machine_mut();
            for idx in user.fds.iter().flatten() {
                m.files.incref(*idx);
            }
        }
        let now = cx.machine().now;
        let comm = cx.proc_ref().map(|p| p.comm.clone()).unwrap_or_default();
        let child = Proc::new(
            child_pid,
            pid,
            ProcState::Runnable,
            child_body,
            user,
            now,
            comm,
        );
        let m = cx.machine_mut();
        m.procs.insert(child_pid.as_u32(), child);
        m.stats.forks += 1;
        m.make_runnable(child_pid);
        let mid = cx.mid;
        cx.w.poke_proc(mid, child_pid);
        let c = cx.cost().fork(image_bytes);
        cx.charge(c);
        Ok(SysRetval::ok(child_pid.as_u32()))
    })())
}

/// `wait(2)`: reap a zombie child, or block until one appears.
pub fn sys_wait(cx: &mut SysCtx<'_>) -> SyscallResult {
    // The child-table scan below is kernel work, charged per attempt
    // (a blocked wait re-scans every time it is re-issued).
    let c = cx.cost().quick_call();
    cx.charge(c);
    let mut zombie: Option<(Pid, u32)> = None;
    let mut have_children = false;
    {
        let m = cx.machine();
        for p in m.procs.values() {
            if p.ppid == cx.pid {
                have_children = true;
                if let ProcState::Zombie { status } = p.state {
                    zombie = Some((p.pid, status));
                    break;
                }
            }
        }
    }
    match zombie {
        Some((child, status)) => {
            cx.machine_mut().procs.remove(&child.as_u32());
            done(Ok(SysRetval::with_data(
                child.as_u32(),
                status.to_be_bytes().to_vec(),
            )))
        }
        None if have_children => {
            if let Some(p) = cx.proc_mut() {
                p.state = ProcState::ChildWait;
            }
            SyscallResult::Blocked
        }
        // "When such a process is moved to another machine, it ceases
        // being the parent of what used to be its children, and waiting
        // for them will produce undefined results" — concretely, ECHILD.
        None => done(Err(Errno::ECHILD)),
    }
}

/// `getpid(2)`; with `real`, the §7 `getpid_real()` extension.
pub fn sys_getpid(cx: &mut SysCtx<'_>, real: bool) -> SyscallResult {
    let c = cx.cost().quick_call();
    cx.charge(c);
    done((|| {
        let pid = cx.pid;
        let virtualize = cx.w.config.virtualize_ids;
        let p = cx.proc_ref().ok_or(Errno::ESRCH)?;
        let answer = if !real && virtualize {
            p.user.old_pid.unwrap_or(pid)
        } else {
            pid
        };
        Ok(SysRetval::ok(answer.as_u32()))
    })())
}

/// `getuid(2)`.
pub fn sys_getuid(cx: &mut SysCtx<'_>) -> SyscallResult {
    let c = cx.cost().quick_call();
    cx.charge(c);
    done((|| {
        let p = cx.proc_ref().ok_or(Errno::ESRCH)?;
        Ok(SysRetval::ok(p.user.cred.ruid.as_u32()))
    })())
}

/// `gethostname(2)`; with `real`, the §7 `gethostname_real()` extension.
pub fn sys_gethostname(cx: &mut SysCtx<'_>, buf_len: usize, real: bool) -> SyscallResult {
    let c = cx.cost().quick_call();
    cx.charge(c);
    done({
        let virtualised = if !real && cx.w.config.virtualize_ids {
            cx.proc_ref().and_then(|p| p.user.old_host.clone())
        } else {
            None
        };
        let name = virtualised.unwrap_or_else(|| cx.machine().name.clone());
        let bytes: Vec<u8> = name.into_bytes();
        let n = bytes.len().min(buf_len);
        Ok(SysRetval::with_data(n as u32, bytes[..n].to_vec()))
    })
}

/// `getwd`: the kernel's §5.1 cwd string made visible.
pub fn sys_getwd(cx: &mut SysCtx<'_>, buf_len: usize) -> SyscallResult {
    let c = cx.cost().quick_call();
    cx.charge(c);
    done((|| {
        let p = cx.proc_ref().ok_or(Errno::ESRCH)?;
        let cwd = p.user.cwd_path.clone().ok_or(Errno::EINVAL)?;
        let bytes: Vec<u8> = cwd.into_bytes();
        let n = bytes.len().min(buf_len);
        Ok(SysRetval::with_data(n as u32, bytes[..n].to_vec()))
    })())
}

/// `kill(2)`: post a signal, with the paper's ownership rule.
pub fn sys_kill(cx: &mut SysCtx<'_>, target: u32, sig: u32) -> SyscallResult {
    done((|| {
        let sig = Signal::from_number(sig)?;
        let cred = cx.cred()?;
        let target_pid = Pid(target);
        let (owner, is_vm) = {
            let t = cx.w.proc_ref(cx.mid, target_pid).ok_or(Errno::ESRCH)?;
            if matches!(t.state, ProcState::Zombie { .. }) {
                return Err(Errno::ESRCH);
            }
            (t.owner(), matches!(t.body, Body::Vm(_)))
        };
        // "For security reasons, only the superuser or the owner of the
        // process can kill a process in this way."
        if !cred.may_control(owner) {
            return Err(Errno::EPERM);
        }
        // SIGDUMP needs a process image to dump; only VM bodies have
        // one. (And on an unmodified kernel the signal does not exist.)
        if sig == Signal::SIGDUMP {
            if !cx.w.config.track_names {
                return Err(Errno::EINVAL);
            }
            if !is_vm {
                return Err(Errno::EINVAL);
            }
        }
        let c = cx.cost().signal_delivery();
        cx.charge(c);
        if let Some(t) = cx.w.proc_mut(cx.mid, target_pid) {
            if sig == Signal::SIGCONT && matches!(t.state, ProcState::Stopped) {
                t.state = ProcState::Runnable;
            }
            t.post_signal(sig);
        }
        // A runnable target will take the signal when next scheduled;
        // blocked targets are woken at the next wake pass (which the
        // poke guarantees happens under the event scheduler).
        cx.machine_mut().nudge(target_pid);
        cx.w.poke_proc(cx.mid, target_pid);
        Ok(SysRetval::ok(0))
    })())
}

/// `sigvec(2)` (simplified): set one signal's disposition.
pub fn sys_sigvec(cx: &mut SysCtx<'_>, sig: u32, disp: Disposition) -> SyscallResult {
    let c = cx.cost().quick_call();
    cx.charge(c);
    done((|| {
        let sig = Signal::from_number(sig)?;
        if sig.uncatchable() && disp != Disposition::Default {
            return Err(Errno::EINVAL);
        }
        let p = cx.proc_mut().ok_or(Errno::ESRCH)?;
        let slot = &mut p.user.sigs.dispositions[(sig.number() - 1) as usize];
        let old = std::mem::replace(slot, disp);
        let encoded = match old {
            Disposition::Default => 0,
            Disposition::Ignore => 1,
            Disposition::Handler(a) => a,
        };
        Ok(SysRetval::ok(encoded))
    })())
}

/// `sigsetmask(2)`: replace the blocked mask, returning the old one.
/// `SIGKILL` and `SIGSTOP` cannot be blocked.
pub fn sys_sigsetmask(cx: &mut SysCtx<'_>, mask: u32) -> SyscallResult {
    let c = cx.cost().quick_call();
    cx.charge(c);
    done((|| {
        let unblockable =
            (1u32 << (Signal::SIGKILL.number() - 1)) | (1 << (Signal::SIGSTOP.number() - 1));
        let p = cx.proc_mut().ok_or(Errno::ESRCH)?;
        let old = p.user.sigs.blocked;
        p.user.sigs.blocked = mask & !unblockable;
        Ok(SysRetval::ok(old))
    })())
}

/// `alarm(2)`: schedule a `SIGALRM`, returning the seconds that
/// remained on any previous alarm (0 if none).
pub fn sys_alarm(cx: &mut SysCtx<'_>, secs: u32) -> SyscallResult {
    let c = cx.cost().quick_call();
    cx.charge(c);
    done((|| {
        let pid = cx.pid;
        let now = cx.machine().now;
        let p = cx.proc_mut().ok_or(Errno::ESRCH)?;
        let remaining = p
            .alarm_at
            .map(|t| (t.since(now).as_micros() / 1_000_000) as u32)
            .unwrap_or(0);
        p.alarm_at = if secs == 0 {
            None
        } else {
            Some(now + SimDuration::secs(secs as u64))
        };
        let alarm_at = p.alarm_at;
        if let Some(t) = alarm_at {
            cx.machine_mut().push_timer(pid, t);
            // Re-key the machine's deadline in the ready index: an
            // alarm armed on an otherwise-idle machine must still fire.
            let mid = cx.mid;
            cx.w.poke_proc(mid, pid);
        }
        Ok(SysRetval::ok(remaining))
    })())
}

/// `gettimeofday(2)`: virtual micro-seconds since boot, low half in the
/// value, high half in the data bytes.
pub fn sys_gettimeofday(cx: &mut SysCtx<'_>) -> SyscallResult {
    // Charged before the clock is read, so the returned time includes
    // this call's own CPU — as a real kernel's would.
    let c = cx.cost().quick_call();
    cx.charge(c);
    let us = cx.machine().now.as_micros();
    done(Ok(SysRetval::with_data(
        us as u32,
        ((us >> 32) as u32).to_be_bytes().to_vec(),
    )))
}

/// `setreuid(2)`: `u32::MAX` keeps the current value.
pub fn sys_setreuid(cx: &mut SysCtx<'_>, ruid: u32, euid: u32) -> SyscallResult {
    let c = cx.cost().quick_call();
    cx.charge(c);
    done((|| {
        let p = cx.proc_mut().ok_or(Errno::ESRCH)?;
        let cur = p.user.cred.clone();
        let want_r = if ruid == u32::MAX {
            cur.ruid
        } else {
            sysdefs::Uid(ruid)
        };
        let want_e = if euid == u32::MAX {
            cur.euid
        } else {
            sysdefs::Uid(euid)
        };
        let allowed = cur.euid.is_root()
            || ((want_r == cur.ruid || want_r == cur.euid)
                && (want_e == cur.ruid || want_e == cur.euid));
        if !allowed {
            return Err(Errno::EPERM);
        }
        p.user.cred.ruid = want_r;
        p.user.cred.euid = want_e;
        Ok(SysRetval::ok(0))
    })())
}

/// `sleep`: park until a deadline. The timer entry is the wake-up;
/// the scheduler re-keys the machine after the slice, and services it
/// first when the deadline is already due by then. Only a signal that
/// is already pending needs a poke, since nothing will post it again.
pub fn sys_sleep(cx: &mut SysCtx<'_>, micros: u64) -> SyscallResult {
    if micros == 0 {
        return done(Ok(SysRetval::ok(0)));
    }
    let pid = cx.pid;
    let until = cx.machine().now + SimDuration::micros(micros);
    if let Some(p) = cx.proc_mut() {
        p.state = ProcState::Sleeping { until };
        let signalled = p.signal_pending();
        cx.machine_mut().push_timer(pid, until);
        if signalled {
            let mid = cx.mid;
            cx.w.poke_proc(mid, pid);
        }
    }
    let c = Cost::cpu_us(100); // Timer setup.
    cx.charge(c);
    SyscallResult::Blocked
}
