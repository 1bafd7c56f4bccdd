//! `execve(2)` and the paper's `rest_proc()` system call.
//!
//! §5.2: "the `execve()` system call has been slightly modified, to check
//! a global flag which, if set, indicates that it is called from within
//! `rest_proc()`. In that case, instead of calculating how much initial
//! stack to allocate for the process, based on the command line arguments
//! and the environment, it simply allocates as many bytes as are
//! indicated in another global variable." Those globals are
//! [`crate::machine::Machine::exec_mig_flag`] and
//! [`crate::machine::Machine::exec_mig_stack`].

use std::rc::Rc;

use aout::{parse_executable, Executable};
use dumpfmt::StackFile;
use m68vm::{Cpu, Memory, MemoryLayout};
use simnet::NfsOp;
use sysdefs::{Access, Errno, Pid, SysResult};
use vfs::InodeKind;

use crate::machine::MachineId;
use crate::namei::{namei, FollowLast};
use crate::proc::{Body, ProcState, ResidualSource, VmBody};
use crate::sys::args::SyscallResult;
use crate::sys::ctx::SysCtx;
use crate::sys::done;
use crate::world::WaitChan;

/// Resolves `path` through the namespace and shares out the contents of
/// the regular file it names, charging only the lookup: returns the
/// machine the file lives on, for the caller to charge the transfer
/// from.
fn read_file(
    cx: &mut SysCtx<'_>,
    path: &str,
    want_exec: bool,
) -> SysResult<(MachineId, Rc<Vec<u8>>)> {
    let mid = cx.mid;
    let cred = cx.cred()?;
    let cwd = cx.cwd()?;
    let res = namei(cx.w, mid, &cred, cwd, path, FollowLast::Yes)?;
    let cold = cx.machine_mut().touch_path(&format!("slurp:{mid}:{path}"));
    let c = cx.cost().namei(res.components, cold);
    cx.charge(c);
    let fref = res.fref;
    let node = cx.w.machine(fref.machine).fs.inode(fref.ino)?;
    match &node.kind {
        InodeKind::Regular(bytes) => {
            let access = if want_exec {
                Access::Exec
            } else {
                Access::Read
            };
            if !node.mode.allows(&cred, node.uid, node.gid, access) {
                return Err(Errno::EACCES);
            }
            Ok((fref.machine, Rc::clone(bytes)))
        }
        InodeKind::Directory(_) => Err(Errno::EISDIR),
        _ => Err(Errno::EACCES),
    }
}

/// Charges reading `len` bytes of a file on machine `home`: a disk
/// read locally, 8 KB NFS reads remotely.
fn charge_read(cx: &mut SysCtx<'_>, home: MachineId, len: usize) -> SysResult<()> {
    if home == cx.mid {
        let c = cx.cost().disk_read(len);
        cx.charge(c);
    } else {
        let mut left = len;
        while left > 0 {
            let chunk = left.min(8192);
            cx.charge_rpc(NfsOp::Read(chunk))?;
            left -= chunk;
        }
    }
    Ok(())
}

/// Reads a whole file through the namespace, charging namei plus the
/// image transfer (disk locally, NFS reads remotely). The contents come
/// back shared with the file, not copied.
pub(crate) fn slurp(cx: &mut SysCtx<'_>, path: &str, want_exec: bool) -> SysResult<Rc<Vec<u8>>> {
    let (home, data) = read_file(cx, path, want_exec)?;
    charge_read(cx, home, data.len())?;
    Ok(data)
}

/// The §5.2 modified `execve()`'s initial stack. With the migration
/// flag set, the image gets exactly the dumped stack, rounded up to a
/// page, with `sp` at its lowest byte; otherwise it starts empty. Either
/// way it grows on demand from there.
fn initial_stack(cx: &SysCtx<'_>, mem: &mut Memory, cpu: &mut Cpu) -> SysResult<()> {
    let m = cx.machine();
    if m.exec_mig_flag {
        cpu.a[7] = mem.restore_stack(&m.exec_mig_stack).ok_or(Errno::ENOMEM)?;
    }
    Ok(())
}

/// Parses an a.out image and checks that the calling machine can run
/// it.
fn parse_runnable<'i>(cx: &SysCtx<'_>, image: &'i [u8]) -> SysResult<Executable<'i>> {
    let exe = parse_executable(image).map_err(|_| Errno::ENOEXEC)?;
    // §7: "Processes can be migrated to a similar CPU or to one whose
    // instruction set is a superset of that of the original machine."
    // The loader enforces the same rule for plain execution.
    if !cx.machine().isa.supports(exe.isa()) {
        return Err(Errno::ENOEXEC);
    }
    Ok(exe)
}

/// The tail both overlays share: makes the built image `mem` the
/// caller's new body at `exe`'s entry, with the §5.2 initial stack, and
/// makes the caller runnable. A demand restore passes the dump its
/// absent pages come from as `residual`.
fn install_image(
    cx: &mut SysCtx<'_>,
    exe: &Executable<'_>,
    mut mem: Memory,
    residual: Option<ResidualSource>,
    comm: &str,
) -> SysResult<()> {
    let mut cpu = Cpu::at_entry(exe.header.a_entry);
    initial_stack(cx, &mut mem, &mut cpu)?;
    let c = cx.cost().exec_base();
    cx.charge(c);
    // The overlays are the only places a VM body is born.
    let icache = cx.w.icache(cx.mid, mem.text());
    let pid = cx.pid;
    let p = cx.proc_mut().ok_or(Errno::ESRCH)?;
    p.body = Body::Vm(VmBody {
        cpu,
        mem,
        isa_required: exe.isa(),
        entry: exe.header.a_entry,
        icache,
        residual,
    });
    p.pending_syscall = None;
    p.restart_pc = None;
    p.state = ProcState::Runnable;
    p.comm = comm.to_string();
    let m = cx.machine_mut();
    m.stats.execs += 1;
    m.make_runnable(pid);
    // The overlaid process is runnable with a fresh body: poke so the
    // event scheduler re-keys this machine even when the overlay was
    // driven from a remote-exec daemon rather than a local slice.
    let mid = cx.mid;
    cx.w.poke_proc(mid, pid);
    Ok(())
}

/// The whole-image overlay: the caller has read and charged `image`.
fn overlay(cx: &mut SysCtx<'_>, image: &[u8], comm: &str) -> SysResult<()> {
    let exe = parse_runnable(cx, image)?;
    install_image(cx, &exe, exe.to_memory(), None, comm)
}

/// The demand-restore overlay: read only the a.out header and text
/// through the namespace (charging just that prefix), leave every data
/// page absent, and record the dump as the new body's residual source.
/// The restored process starts running immediately; each data page is
/// fetched from the dump the first time an instruction touches it.
fn overlay_demand(cx: &mut SysCtx<'_>, path: &str, comm: &str) -> SysResult<()> {
    let mid = cx.mid;
    let (home, bytes) = read_file(cx, path, true)?;
    let exe = parse_runnable(cx, &bytes)?;
    // Charge only the header + text prefix; the data stays behind.
    let data_off = aout::AOUT_HEADER_LEN + exe.text.len();
    charge_read(cx, home, data_off)?;
    // The image: real text, a zeroed data segment with every page
    // absent, and the exact migration stack.
    let data_len = exe.header.a_data + exe.header.a_bss;
    let mut mem = Memory::new(exe.text.to_vec(), Vec::new(), data_len);
    let data_base = mem.data_base();
    mem.set_absent(
        (data_base..data_base + data_len)
            .step_by(MemoryLayout::PAGE as usize)
            .map(MemoryLayout::page_of),
    );
    // The residual source is addressed server-locally, so the page
    // fetches keep working even if this machine's mounts change.
    let aout_path = if home == mid {
        path.to_string()
    } else {
        path.strip_prefix("/n/")
            .and_then(|s| s.split_once('/'))
            .map(|(_, rest)| format!("/{rest}"))
            .ok_or(Errno::ENOENT)?
    };
    let residual = ResidualSource {
        server: home,
        aout_path,
        data_off,
        tries: 0,
    };
    install_image(cx, &exe, mem, Some(residual), comm)
}

/// `execve(2)`.
///
/// On success the calling image is destroyed, so the dispatcher sees
/// [`SyscallResult::Gone`]; a native caller's program is dropped with
/// the body it replaced.
pub fn sys_execve(cx: &mut SysCtx<'_>, path: &str) -> SyscallResult {
    let (t0, c0) = call_entry(cx);
    let image = match slurp(cx, path, true) {
        Ok(i) => i,
        Err(e) => return done(Err(e)),
    };
    let comm = path.rsplit('/').next().unwrap_or(path).to_string();
    match overlay(cx, &image, &comm) {
        Ok(()) => {
            let timing = call_exit(cx, t0, c0);
            cx.machine_mut().last_execve = Some(timing);
            SyscallResult::Gone
        }
        Err(e) => done(Err(e)),
    }
}

/// Snapshot of (machine clock, process CPU) at the start of a timed call.
fn call_entry(cx: &SysCtx<'_>) -> (simtime::SimTime, simtime::SimDuration) {
    let now = cx.machine().now;
    let cpu = cx.proc_ref().map(|p| p.cpu_time()).unwrap_or_default();
    (now, cpu)
}

/// The paper's in-kernel timing code: elapsed real and CPU since entry.
fn call_exit(
    cx: &SysCtx<'_>,
    t0: simtime::SimTime,
    c0: simtime::SimDuration,
) -> crate::machine::CallTiming {
    let now = cx.machine().now;
    let cpu = cx.proc_ref().map(|p| p.cpu_time()).unwrap_or_default();
    crate::machine::CallTiming {
        cpu: cpu.saturating_sub(c0),
        real: now.since(t0),
    }
}

/// **`rest_proc(2)`**, the paper's addition, following §5.2 to the
/// letter.
pub fn sys_rest_proc(
    cx: &mut SysCtx<'_>,
    aout_path: &str,
    stack_path: &str,
    old_pid: Option<u32>,
    old_host: Option<&str>,
    demand: bool,
) -> SyscallResult {
    let (t0, c0) = call_entry(cx);
    // What the calling application (restart) spent before reaching the
    // kernel: its whole life so far.
    if let Some(p) = cx.proc_ref() {
        let started = p.start_time;
        let caller = crate::machine::CallTiming {
            cpu: p.cpu_time(),
            real: t0.since(started),
        };
        cx.machine_mut().last_rest_caller = Some(caller);
    }
    // 1. "It opens the stackXXXXX file, checking access permissions and
    //    verifying its format by checking the magic number."
    let stack_bytes = match slurp(cx, stack_path, false) {
        Ok(b) => b,
        Err(e) => return done(Err(e)),
    };
    // 2. "Reads the user credentials and the size of the stack."
    let mut stack_file = match StackFile::decode(&stack_bytes) {
        Ok(s) => s,
        Err(_) => return done(Err(Errno::ENOEXEC)),
    };
    // Only the owner of the dumped process (or the superuser) may
    // restart it; the caller's current credentials gate the a.out read
    // below ("The old credentials were used to execute the a.outXXXXX
    // file, so that only the owner of the process or the superuser is
    // able to do it").
    let caller_cred = match cx.cred() {
        Ok(c) => c,
        Err(e) => return done(Err(e)),
    };
    if !caller_cred.may_control(stack_file.cred.ruid) {
        return done(Err(Errno::EPERM));
    }
    // 3. "Sets the global flag indicating process migration and sets the
    //    variable that indicates the desired stack size."
    {
        let m = cx.machine_mut();
        m.exec_mig_flag = true;
        m.exec_mig_stack = std::mem::take(&mut stack_file.stack);
    }
    // 4. "Calls execve() to execute the a.outXXXXX file, with the
    //    environment set to null."
    let result = (|| -> SysResult<()> {
        let comm = aout_path
            .rsplit('/')
            .next()
            .unwrap_or(aout_path)
            .to_string();
        if demand {
            // Lazy variant: header + text now, data pages on fault.
            overlay_demand(cx, aout_path, &comm)
        } else {
            let image = slurp(cx, aout_path, true)?;
            overlay(cx, &image, &comm)
        }
    })();
    // 5. "Resets the variable indicating process migration, so that
    //    further calls to execve() will work properly."
    {
        let m = cx.machine_mut();
        m.exec_mig_flag = false;
        m.exec_mig_stack = Vec::new();
    }
    if let Err(e) = result {
        return done(Err(e));
    }
    // 6. "Sets the user credentials to those already read."
    // 7. "Reads in the contents of the stack and registers."
    //    (The stack was already laid down by the modified execve; the
    //    registers are restored here.)
    // 8. "Reads in the information on the disposition of signals."
    {
        let virtualize = cx.w.config.virtualize_ids;
        let p = cx.proc_mut().expect("just overlaid");
        p.user.cred = stack_file.cred;
        if let Body::Vm(vm) = &mut p.body {
            vm.cpu = Cpu::from_regs(&stack_file.regs);
        }
        p.user.sigs = stack_file.sigs;
        // §7 extension: remember the old identity when the kernel is
        // built with virtualization.
        if virtualize {
            p.user.old_pid = old_pid.map(Pid);
            p.user.old_host = old_host.map(str::to_string);
        }
    }
    cx.machine_mut().stats.restores += 1;
    let timing = call_exit(cx, t0, c0);
    cx.machine_mut().last_rest_proc = Some(timing);
    let comm = aout_path
        .rsplit('/')
        .next()
        .unwrap_or(aout_path)
        .to_string();
    let at = cx.machine().now;
    cx.w.overlaid.insert((cx.mid, cx.pid.as_u32()), (comm, at));
    // An rsh/run_local waiter treats an overlaid command as complete.
    cx.w.wakeup(WaitChan::Remote(cx.mid, cx.pid.as_u32()));
    // 9. "Returns. At this point, the process running is a copy of the
    //    old process."
    SyscallResult::Gone
}
