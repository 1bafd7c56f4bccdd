//! Signal delivery, including the paper's `SIGDUMP` action.
//!
//! `SIGQUIT` terminates with a `core` file; **`SIGDUMP`** — the kernel
//! addition — terminates after writing the three migration files. "The
//! code is similar to that of ... SIGQUIT, which causes a process to
//! terminate (dumping a subset of the information we dump for our new
//! signal) in a file named core."

use std::borrow::Cow;

use aout::{encode_executable, CoreFile};
use dumpfmt::{dump_file_names, DeltaFile, DeltaPage, FdRecord, FilesFile, StackFile};
use m68vm::MemoryLayout;
use simnet::FaultSite;
use simtime::cost::Cost;
use sysdefs::limits::NOFILE;
use sysdefs::{DefaultAction, Disposition, Errno, FileMode, Pid, Signal, SysResult, TtyFlags};
use vfs::{path as vpath, Ino};

use crate::machine::MachineId;
use crate::proc::{Body, ProcState};
use crate::sys::args::{SysRetval, SyscallResult};
use crate::world::World;

/// Delivers every deliverable pending signal to `pid`.
///
/// Returns `true` if the process is still alive and runnable afterwards.
pub fn deliver_pending(w: &mut World, mid: MachineId, pid: Pid) -> bool {
    loop {
        let sig = match w.proc_mut(mid, pid) {
            Some(p) => match p.take_signal() {
                Some(s) => s,
                None => return true,
            },
            None => return false,
        };
        w.machine_mut(mid).stats.signals += 1;
        let c = w.config.cost.signal_delivery();
        w.charge_kernel(mid, pid, c);

        let disp = {
            let p = w.proc_ref(mid, pid).expect("checked above");
            if sig.uncatchable() {
                Disposition::Default
            } else {
                p.user.sigs.dispositions[(sig.number() - 1) as usize]
            }
        };
        match disp {
            Disposition::Ignore => continue,
            Disposition::Handler(addr) => {
                // A signal caught while blocked in a system call aborts
                // the call with EINTR first (4.2BSD semantics), so the
                // handler's register state is not clobbered by a stale
                // write-back when the call would otherwise be retried.
                let was_blocked = w
                    .proc_ref(mid, pid)
                    .map(|p| p.pending_syscall.is_some())
                    .unwrap_or(false);
                if was_blocked {
                    w.complete_pending(mid, pid, SysRetval::err(Errno::EINTR));
                }
                if !push_handler_frame(w, mid, pid, sig, addr) {
                    // No room for the frame: as 4.2BSD's `sendsig`
                    // does, halt the process with an illegal
                    // instruction — SIGILL at its default action,
                    // unblocked, delivered next round.
                    if let Some(p) = w.proc_mut(mid, pid) {
                        let ill = Signal::SIGILL.number() - 1;
                        p.user.sigs.dispositions[ill as usize] = Disposition::Default;
                        p.user.sigs.blocked &= !(1 << ill);
                        p.post_signal(Signal::SIGILL);
                    }
                }
                continue;
            }
            Disposition::Default => match sig.default_action() {
                DefaultAction::Ignore => continue,
                DefaultAction::Continue => continue,
                DefaultAction::Stop => {
                    if let Some(p) = w.proc_mut(mid, pid) {
                        p.state = ProcState::Stopped;
                    }
                    return false;
                }
                DefaultAction::Terminate => {
                    w.do_exit(mid, pid, 128 + sig.number());
                    return false;
                }
                DefaultAction::CoreDump => {
                    let _ = write_core(w, mid, pid);
                    w.do_exit(mid, pid, 128 + sig.number());
                    return false;
                }
                DefaultAction::MigrationDump => {
                    // The dump happens in the context of the dumped
                    // process — dumpproc must wait for the context
                    // switch, which is Figure 2's real-time story.
                    //
                    // The exit is gated on the dump: a process that
                    // could not be saved (disk full, crash mid-write)
                    // keeps running at the source. Killing it anyway
                    // would leave *no* copy alive anywhere — the
                    // failure-atomicity violation the whole fault layer
                    // exists to catch.
                    match write_migration_dump(w, mid, pid) {
                        Ok(()) => {
                            w.machine_mut(mid).stats.dumps += 1;
                            w.do_exit(mid, pid, 128 + sig.number());
                            return false;
                        }
                        Err(_) => continue,
                    }
                }
            },
        }
    }
}

/// Pushes a signal frame onto a VM process's stack: saved pc, sr and
/// blocked mask, then enters the handler. Native bodies record signals
/// but have no handler text to run, so the signal is dropped. Returns
/// false only when the frame does not fit on the stack.
fn push_handler_frame(w: &mut World, mid: MachineId, pid: Pid, sig: Signal, addr: u32) -> bool {
    let Some(p) = w.proc_mut(mid, pid) else {
        return true;
    };
    let sig_bit = 1u32 << (sig.number() - 1);
    if let Body::Vm(vm) = &mut p.body {
        let old_blocked = p.user.sigs.blocked;
        let sp = vm.cpu.a[7].wrapping_sub(12);
        let ok = vm.mem.write_u32(sp, vm.cpu.pc).is_ok()
            && vm.mem.write_u32(sp + 4, vm.cpu.sr as u32).is_ok()
            && vm.mem.write_u32(sp + 8, old_blocked).is_ok();
        if !ok {
            return false;
        }
        vm.cpu.a[7] = sp;
        vm.cpu.pc = addr;
        // The signal is masked for the duration of the handler.
        p.user.sigs.blocked |= sig_bit;
    }
    true
}

/// `sigreturn(2)`: unwind the frame pushed by the handler entry.
pub fn sys_sigreturn(cx: &mut crate::sys::ctx::SysCtx<'_>) -> SyscallResult {
    let c = cx.cost().quick_call();
    cx.charge(c);
    let r = (|| -> SysResult<SysRetval> {
        let p = cx.proc_mut().ok_or(Errno::ESRCH)?;
        let Body::Vm(vm) = &mut p.body else {
            return Err(Errno::EINVAL);
        };
        let sp = vm.cpu.a[7];
        let pc = vm.mem.read_u32(sp).map_err(|_| Errno::EFAULT)?;
        let sr = vm.mem.read_u32(sp + 4).map_err(|_| Errno::EFAULT)?;
        let blocked = vm.mem.read_u32(sp + 8).map_err(|_| Errno::EFAULT)?;
        vm.cpu.a[7] = sp + 12;
        vm.cpu.pc = pc;
        vm.cpu.sr = sr as u16;
        p.user.sigs.blocked = blocked;
        Ok(SysRetval::ok(0))
    })();
    match r {
        // Successful sigreturn must not clobber the restored d0/carry,
        // so the dispatcher treats it as Gone-like: no write-back.
        Ok(_) => SyscallResult::Gone,
        Err(e) => SyscallResult::Done(SysRetval::err(e)),
    }
}

/// Creates (or truncates) a file at an absolute path on `mid`'s local
/// filesystem as the kernel itself, returning the inode.
fn kernel_create(
    w: &mut World,
    mid: MachineId,
    dir_path: &str,
    name: &str,
    mode: FileMode,
    owner: sysdefs::Credentials,
) -> SysResult<Ino> {
    let m = w.machine_mut(mid);
    let comps = vpath::components(dir_path);
    let dir = match m.fs.walk(m.fs.root(), &comps, None)? {
        vfs::WalkOutcome::Done(ino) => ino,
        _ => return Err(Errno::ENOENT),
    };
    match m.fs.lookup(dir, name) {
        Ok(existing) => {
            m.fs.truncate(existing)?;
            Ok(existing)
        }
        Err(_) => m.fs.create_file(dir, name, mode, &owner),
    }
}

/// Writes `bytes` as a fresh dump/core file, charging the synchronous
/// create + streaming write + sync-close this kind of file costs. The
/// buffer becomes the file's contents without a copy.
#[allow(clippy::too_many_arguments)]
fn kernel_write_file(
    w: &mut World,
    mid: MachineId,
    pid: Pid,
    dir: &str,
    name: &str,
    bytes: Vec<u8>,
    mode: FileMode,
    owner: sysdefs::Credentials,
) -> SysResult<()> {
    let ino = kernel_create(w, mid, dir, name, mode, owner)?;
    let len = bytes.len();
    w.fs_mut(mid).write(ino, 0, bytes)?;
    let c = w
        .config
        .cost
        .disk_create()
        .plus(w.config.cost.disk_write(len))
        .plus(w.config.cost.disk_sync_close());
    w.charge_kernel(mid, pid, c);
    Ok(())
}

/// `SIGQUIT`'s core dump: registers, data and stack into `./core`
/// (written to `/usr/tmp` like the dump files, to keep the simulated
/// kernel path simple — the content is what matters for `undump`).
pub fn write_core(w: &mut World, mid: MachineId, pid: Pid) -> SysResult<()> {
    let (core, owner) = {
        let p = w.proc_ref(mid, pid).ok_or(Errno::ESRCH)?;
        let Body::Vm(vm) = &p.body else {
            return Err(Errno::EINVAL);
        };
        (
            CoreFile {
                regs: vm.cpu.to_regs(),
                data: vm.mem.data().to_vec(),
                stack: vm
                    .mem
                    .stack_from(vm.cpu.sp())
                    .map(Cow::into_owned)
                    .unwrap_or_default(),
            },
            p.user.cred.clone(),
        )
    };
    let name = format!("core{:05}", pid.as_u32());
    kernel_write_file(
        w,
        mid,
        pid,
        sysdefs::limits::DUMP_DIR,
        &name,
        core.encode(),
        FileMode(0o600),
        owner,
    )
}

/// **The `SIGDUMP` action**: write `a.outXXXXX`, `filesXXXXX` and
/// `stackXXXXX` into `/usr/tmp` — or, for a process frozen at the end
/// of a pre-copy migration ([`crate::proc::Proc::dump_delta`]),
/// `deltaXXXXX` with only the still-dirty pages in place of the full
/// `a.outXXXXX`.
///
/// Fails without killing the caller: on any error (including injected
/// ENOSPC or a crash torn mid-write) the process's pc is restored so it
/// can keep running at the source.
pub fn write_migration_dump(w: &mut World, mid: MachineId, pid: Pid) -> SysResult<()> {
    if !w.config.track_names {
        return Err(Errno::EINVAL);
    }
    // If the process is blocked inside a system call, back the pc up to
    // the trap instruction so the restarted image re-issues the call
    // (old-Unix syscall restart semantics). The paper's test program is
    // dumped exactly like this: "killed after its first prompt for
    // input". Remember the original pc: a failed dump must leave the
    // survivor exactly as it was.
    let orig_pc = {
        let p = w.proc_mut(mid, pid).ok_or(Errno::ESRCH)?;
        let mut orig = None;
        if let (Some(rpc), Body::Vm(vm)) = (p.restart_pc, &mut p.body) {
            orig = Some(vm.cpu.pc);
            vm.cpu.pc = rpc;
        }
        orig
    };
    let r = dump_files(w, mid, pid);
    if r.is_err() {
        if let (Some(orig), Some(p)) = (orig_pc, w.proc_mut(mid, pid)) {
            if let Body::Vm(vm) = &mut p.body {
                vm.cpu.pc = orig;
            }
        }
    }
    r
}

/// Gathers and writes the three dump files (the fallible middle of
/// [`write_migration_dump`]).
fn dump_files(w: &mut World, mid: MachineId, pid: Pid) -> SysResult<()> {
    let (image_bytes, delta_mode, files_file, stack_file, owner) = {
        let p = w.proc_ref(mid, pid).ok_or(Errno::ESRCH)?;
        let Body::Vm(vm) = &p.body else {
            return Err(Errno::EINVAL);
        };
        // A demand-restored image that still lacks pages has no complete
        // copy *anywhere but the source dump*; dumping the holes would
        // mint a second, wrong "recoverable copy". Refuse — the caller
        // keeps running and keeps faulting pages in.
        if vm.mem.has_absent() {
            return Err(Errno::EFAULT);
        }
        let delta_mode = p.dump_delta;
        let image_bytes = if delta_mode {
            // deltaXXXXX: geometry + only the data pages written since
            // the last pre-copy round. Stack pages may be dirty too but
            // travel in stackXXXXX regardless, so only data pages go
            // here. The dirty set is read, not drained: a failed dump
            // must leave the survivor re-dumpable.
            let data_base = vm.mem.data_base();
            let data_end = data_base + vm.mem.data().len() as u32;
            let pages = vm
                .mem
                .dirty_pages()
                .into_iter()
                .filter(|&pg| {
                    let a = MemoryLayout::page_addr(pg);
                    a >= data_base && a < data_end
                })
                .map(|pg| DeltaPage {
                    page: pg,
                    bytes: vm.mem.page_slice(pg).expect("resident data page").to_vec(),
                })
                .collect();
            let delta = DeltaFile {
                entry: vm.entry,
                machtype: match vm.isa_required {
                    m68vm::IsaLevel::Isa1 => aout::MID_ISA1,
                    m68vm::IsaLevel::Isa2 => aout::MID_ISA2,
                },
                data_base,
                data_len: vm.mem.data().len() as u32,
                pages,
            };
            delta.encode().map_err(|_| Errno::EINVAL)?
        } else {
            // a.outXXXXX: header + text + *current* data (bss folded in,
            // so static variables keep their dumped values).
            encode_executable(
                vm.mem.text(),
                vm.mem.data(),
                0,
                // Entry stays the original one so the file runs standalone
                // ("can be executed as an ordinary program").
                vm.entry,
                vm.isa_required,
            )
        };
        // filesXXXXX: host, cwd, the fixed-size fd table, tty flags.
        let mut fds = vec![FdRecord::Unused; NOFILE];
        for (i, slot) in p.user.fds.iter().enumerate() {
            let Some(idx) = slot else { continue };
            let Some(f) = w.machine(mid).files.get(*idx) else {
                continue;
            };
            fds[i] = if f.kind.dumps_as_socket() {
                FdRecord::Socket
            } else {
                match &f.path {
                    Some(path) => FdRecord::File {
                        path: path.clone(),
                        flags: f.flags,
                        offset: f.offset,
                    },
                    // No recorded name (shouldn't happen on a tracking
                    // kernel): treat like an unusable slot.
                    None => FdRecord::Unused,
                }
            };
        }
        let tty_flags = p
            .user
            .tty
            .map(|t| w.terminal(t).with(|term| term.gtty()))
            .unwrap_or_else(TtyFlags::cooked);
        let files_file = FilesFile {
            host: w.machine(mid).name.clone(),
            cwd: p.user.cwd_path.clone().unwrap_or_else(|| "/".to_string()),
            fds,
            tty_flags,
        };
        // stackXXXXX: credentials, stack, registers, signal state.
        let stack_file = StackFile {
            cred: p.user.cred.clone(),
            stack: vm
                .mem
                .stack_from(vm.cpu.sp())
                .map(Cow::into_owned)
                .unwrap_or_default(),
            regs: vm.cpu.to_regs(),
            sigs: p.user.sigs.clone(),
        };
        (
            image_bytes,
            delta_mode,
            files_file,
            stack_file,
            p.user.cred.clone(),
        )
    };

    // Gathering cost: the kernel walks the fd table copying names.
    let gather_bytes: usize = files_file
        .fds
        .iter()
        .map(|r| match r {
            FdRecord::File { path, .. } => path.len() + 16,
            _ => 4,
        })
        .sum();
    let c = w
        .config
        .cost
        .copy_bytes(gather_bytes)
        .plus(Cost::cpu_us(500));
    w.charge_kernel(mid, pid, c);

    let names = dump_file_names(pid);
    let dir = sysdefs::limits::DUMP_DIR;
    let base = |p: &str| p.rsplit('/').next().unwrap_or(p).to_string();
    let files_bytes = files_file.encode().map_err(|_| Errno::EINVAL)?;
    let stack_bytes = stack_file.encode().map_err(|_| Errno::EINVAL)?;
    // The a.out dump "can be executed as an ordinary program": 0700. A
    // delta is not executable by itself, so it gets plain 0600 — and
    // replaces the a.out in the triple (the name tells restart which).
    let (image_name, image_mode) = if delta_mode {
        (base(&names.delta), FileMode(0o600))
    } else {
        (base(&names.a_out), FileMode(0o700))
    };
    let dumps: [(String, FileMode); 3] = [
        (image_name, image_mode),
        (base(&names.files), FileMode(0o600)),
        (base(&names.stack), FileMode(0o600)),
    ];

    // Consult the fault plan before touching the disk. `/usr/tmp` full:
    // the write at a plan-chosen point fails ENOSPC and the kernel
    // unlinks what it already wrote — a clean, reported failure. Crash
    // mid-dump: writing stops abruptly at a plan-chosen byte of a
    // plan-chosen file, leaving complete earlier files plus one torn
    // one on disk — nobody is left running to clean up, which is what
    // the reaper sweep is for.
    let enospc_roll = w.fault_fire(FaultSite::DumpEnospc, mid, pid, Errno::ENOSPC);
    let crash_roll = if enospc_roll.is_none() {
        w.fault_fire(FaultSite::MidDumpCrash, mid, pid, Errno::EIO)
    } else {
        None
    };
    let broken_at = enospc_roll.or(crash_roll).map(|roll| (roll % 3) as usize);

    // Each encoded buffer moves into its file.
    let contents = [image_bytes, files_bytes, stack_bytes];
    for (i, mut bytes) in contents.into_iter().enumerate() {
        let (name, mode) = &dumps[i];
        if broken_at == Some(i) {
            if enospc_roll.is_some() {
                // The failing create/write is still a disk round trip.
                let c = w.config.cost.disk_create();
                w.charge_kernel(mid, pid, c);
                for (done, _) in &dumps[..i] {
                    kernel_unlink(w, mid, dir, done);
                }
                return Err(Errno::ENOSPC);
            }
            // Torn write: the crash cuts the file mid-byte-stream.
            let roll = crash_roll.expect("crash branch");
            let cut = if bytes.is_empty() {
                0
            } else {
                ((roll / 3) % bytes.len() as u64) as usize
            };
            bytes.truncate(cut);
            kernel_write_file(w, mid, pid, dir, name, bytes, *mode, owner.clone())?;
            return Err(Errno::EIO);
        }
        kernel_write_file(w, mid, pid, dir, name, bytes, *mode, owner.clone())?;
    }
    Ok(())
}

/// Removes a kernel-written file, ignoring errors (cleanup path).
fn kernel_unlink(w: &mut World, mid: MachineId, dir_path: &str, name: &str) {
    let m = w.machine_mut(mid);
    let comps = vpath::components(dir_path);
    let Ok(vfs::WalkOutcome::Done(dir)) = m.fs.walk(m.fs.root(), &comps, None) else {
        return;
    };
    let _ = m.fs.unlink(dir, name, &sysdefs::Credentials::root());
}
