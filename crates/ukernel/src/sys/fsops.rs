//! File-related system calls: open/creat/close/read/write/lseek/dup,
//! directories, links, pipes and terminal ioctls.
//!
//! The paper's §5.1 bookkeeping lives in [`sys_open`] (name recorded into
//! the file structure via the kernel allocator), [`sys_close`] (name
//! released) and [`sys_chdir`] (the `user`-structure cwd string), each
//! charging the extra work so that Figure 1's overhead emerges.

use simnet::NfsOp;
use simtime::cost::Cost;
use sysdefs::{Access, Errno, FileMode, OpenFlags, Signal, SysResult};
use vfs::{path as vpath, DeviceId, InodeKind};

use crate::file::{FileKind, FileStruct};
use crate::machine::{MachineId, QueueId};
use crate::namei::{namei, FollowLast, Resolved};
use crate::proc::ProcState;
use crate::sys::args::{IoctlReq, SysRetval, SyscallResult, Whence};
use crate::sys::ctx::SysCtx;
use crate::sys::done;
use crate::user::FileRef;
use crate::world::WaitChan;

/// Splits a raw path argument into (parent-path, final-name) without
/// resolving anything, for creation calls.
fn split_parent(arg: &str) -> (String, String) {
    match arg.rfind('/') {
        None => (".".to_string(), arg.to_string()),
        Some(0) => ("/".to_string(), arg[1..].to_string()),
        Some(i) => (arg[..i].to_string(), arg[i + 1..].to_string()),
    }
}

/// Charges a resolution: CPU per component, disk for cold paths, one RPC
/// per remote lookup.
fn charge_namei(cx: &mut SysCtx<'_>, res: &Resolved, cache_key: &str) -> SysResult<()> {
    let cold = cx.machine_mut().touch_path(cache_key);
    let c = cx.cost().namei(res.components, cold);
    cx.charge(c);
    for _ in 0..res.remote_lookups {
        cx.charge_rpc(NfsOp::Lookup)?;
    }
    Ok(())
}

/// The §5.1 open-file name bookkeeping: allocate, combine and copy.
fn record_file_name(cx: &mut SysCtx<'_>, idx: usize, arg: &str) {
    if !cx.w.config.track_names {
        return;
    }
    let abs = cx.abs_guess(arg);
    let mut cost = cx.cost().kernel_malloc();
    if !vpath::is_absolute(arg) {
        cost = cost.plus(cx.cost().path_combine());
    }
    if let Some(abs) = abs {
        cost = cost.plus(cx.cost().copy_bytes(abs.len() + 1));
        let fixed = cx.w.config.fixed_name_strings;
        let m = cx.machine_mut();
        if let Some(f) = m.files.get_mut(idx) {
            f.path = Some(abs);
        }
        m.note_name_bytes(fixed);
    }
    cx.charge(cost);
}

/// `open(2)` / the open half of `creat(2)`.
pub fn sys_open(
    cx: &mut SysCtx<'_>,
    arg: &str,
    flags_bits: u16,
    mode: u16,
    force_creat: bool,
) -> SyscallResult {
    let flags = match OpenFlags::from_bits(flags_bits) {
        Ok(f) => {
            if force_creat {
                OpenFlags::WRONLY.with(OpenFlags::CREAT | OpenFlags::TRUNC)
            } else {
                f
            }
        }
        Err(e) => return done(Err(e)),
    };
    done(open_common(cx, arg, flags, mode))
}

/// `creat(2)`: "simply calls the same internal routine that open()
/// calls, with slightly different arguments".
pub fn sys_creat(cx: &mut SysCtx<'_>, arg: &str, mode: u16) -> SyscallResult {
    sys_open(cx, arg, 0, mode, true)
}

fn open_common(
    cx: &mut SysCtx<'_>,
    arg: &str,
    flags: OpenFlags,
    mode: u16,
) -> SysResult<SysRetval> {
    let mid = cx.mid;
    let cred = cx.cred()?;
    let cwd = cx.cwd()?;
    let abs_guess = cx.abs_guess(arg);
    let cache_key = format!("{mid}:{}:{}:{arg}", cwd.machine, cwd.ino);

    // "/dev/tty" names the controlling terminal, whichever it is — the
    // rewrite target dumpproc uses for terminal files.
    if abs_guess.as_deref() == Some("/dev/tty") || arg == "/dev/tty" {
        let tty = cx.proc_ref().and_then(|p| p.user.tty).ok_or(Errno::ENXIO)?;
        let idx = cx
            .machine_mut()
            .files
            .insert(FileStruct::new(FileKind::Device(DeviceId::Tty(tty)), flags));
        let fd = install_fd(cx, idx)?;
        let c = cx.cost().file_struct_op();
        cx.charge(c);
        record_file_name(cx, idx, "/dev/tty");
        return Ok(SysRetval::ok(fd as u32));
    }

    let resolved = namei(cx.w, mid, &cred, cwd, arg, FollowLast::Yes);
    let (fref, created) = match resolved {
        Ok(res) => {
            charge_namei(cx, &res, &cache_key)?;
            if flags.creat() && flags.excl() {
                return Err(Errno::EEXIST);
            }
            (res.fref, false)
        }
        Err(Errno::ENOENT) if flags.creat() => {
            let (parent_arg, name) = split_parent(arg);
            let parent = namei(cx.w, mid, &cred, cwd, &parent_arg, FollowLast::Yes)?;
            charge_namei(cx, &parent, &format!("{cache_key}#parent"))?;
            let ino = cx.w.fs_mut(parent.fref.machine).create_file(
                parent.fref.ino,
                &name,
                FileMode(mode),
                &cred,
            )?;
            let c = cx.cost().disk_create();
            cx.charge(c);
            if parent.fref.machine != mid {
                cx.charge_rpc(NfsOp::Create)?;
            }
            (
                FileRef {
                    machine: parent.fref.machine,
                    ino,
                },
                true,
            )
        }
        Err(e) => return Err(e),
    };

    // Kind and permission checks on the resolved inode.
    let kind = {
        let fs = &cx.w.machine(fref.machine).fs;
        let node = fs.inode(fref.ino)?;
        match &node.kind {
            InodeKind::Directory(_) => return Err(Errno::EISDIR),
            InodeKind::Regular(_) => {
                if !created {
                    let want = if flags.readable() && flags.writable() {
                        Access::ReadWrite
                    } else if flags.writable() {
                        Access::Write
                    } else {
                        Access::Read
                    };
                    if !node.mode.allows(&cred, node.uid, node.gid, want) {
                        return Err(Errno::EACCES);
                    }
                }
                if fref.machine == mid {
                    FileKind::Local(fref.ino)
                } else {
                    FileKind::Remote {
                        host: fref.machine,
                        ino: fref.ino,
                    }
                }
            }
            InodeKind::Device(dev) => FileKind::Device(*dev),
            InodeKind::Symlink(_) => return Err(Errno::ELOOP),
        }
    };

    if flags.trunc() && !created {
        if let FileKind::Local(ino) | FileKind::Remote { ino, .. } = kind {
            cx.w.fs_mut(fref.machine).truncate(ino)?;
            if fref.machine != mid {
                cx.charge_rpc(NfsOp::Setattr)?;
            }
        }
    }

    let idx = cx.machine_mut().files.insert(FileStruct::new(kind, flags));
    let fd = match install_fd(cx, idx) {
        Ok(fd) => fd,
        Err(e) => {
            cx.machine_mut().files.decref(idx);
            return Err(e);
        }
    };
    let c = cx.cost().file_struct_op();
    cx.charge(c);
    record_file_name(cx, idx, arg);
    Ok(SysRetval::ok(fd as u32))
}

/// Puts a file-table index into the lowest free descriptor.
fn install_fd(cx: &mut SysCtx<'_>, idx: usize) -> SysResult<usize> {
    let p = cx.proc_mut().ok_or(Errno::ESRCH)?;
    let fd = p.user.lowest_free_fd().ok_or(Errno::EMFILE)?;
    p.user.fds[fd] = Some(idx);
    Ok(fd)
}

/// `close(2)`: releases the descriptor and, per §5.1, frees the name
/// string through the kernel allocator on the last reference.
pub fn sys_close(cx: &mut SysCtx<'_>, fd: usize) -> SyscallResult {
    done(close_common(cx, fd))
}

pub(crate) fn close_common(cx: &mut SysCtx<'_>, fd: usize) -> SysResult<SysRetval> {
    let idx = {
        let p = cx.proc_mut().ok_or(Errno::ESRCH)?;
        let slot = p.user.fds.get_mut(fd).ok_or(Errno::EBADF)?;
        slot.take().ok_or(Errno::EBADF)?
    };
    let mut cost = cx.cost().file_struct_op();
    let freed = cx.machine_mut().files.decref(idx);
    if let Some(f) = freed {
        if f.path.is_some() {
            cost = cost.plus(cx.cost().kernel_free());
        }
        if f.flags.writable() && matches!(f.kind, FileKind::Local(_) | FileKind::Remote { .. }) {
            cost = cost.plus(cx.cost().disk_sync_close());
        }
        release_kind(cx, &f.kind);
    }
    cx.charge(cost);
    Ok(SysRetval::ok(0))
}

/// Drops pipe/socket end references when the last descriptor closes.
fn release_kind(cx: &mut SysCtx<'_>, kind: &FileKind) {
    let m = cx.machine_mut();
    match kind {
        FileKind::Pipe { id, write_end } => {
            if let Some(Some(p)) = m.pipes.get_mut(*id) {
                if *write_end {
                    p.writers = p.writers.saturating_sub(1);
                } else {
                    p.readers = p.readers.saturating_sub(1);
                }
                if p.readers == 0 && p.writers == 0 {
                    m.pipes[*id] = None;
                }
            }
        }
        FileKind::Socket { id, side } => {
            if let Some(Some(s)) = m.sockets.get_mut(*id) {
                // Closing a side removes its reader+writer roles.
                s.bufs[*side].writers = 0;
                s.bufs[1 - *side].readers = 0;
                if s.bufs.iter().all(|b| b.readers == 0 && b.writers == 0) {
                    m.sockets[*id] = None;
                }
            }
        }
        _ => {}
    }
    // A dropped end flips EOF/EPIPE conditions for the other side.
    let q = match kind {
        FileKind::Pipe { id, .. } => QueueId::Pipe(*id),
        FileKind::Socket { id, .. } => QueueId::Socket(*id),
        _ => return,
    };
    cx.w.wakeup(WaitChan::Queue(cx.mid, q));
}

/// `read(2)`, with terminal and pipe blocking.
pub fn sys_read(cx: &mut SysCtx<'_>, fd: usize, len: usize) -> SyscallResult {
    let idx = match cx.file_idx(fd) {
        Ok(i) => i,
        Err(e) => return done(Err(e)),
    };
    let (kind, flags, offset) = {
        let f = cx.machine().files.get(idx).expect("live file");
        (f.kind.clone(), f.flags, f.offset)
    };
    if !flags.readable() {
        return done(Err(Errno::EBADF));
    }
    match kind {
        FileKind::Device(DeviceId::Null) => done(Ok(SysRetval::with_data(0, Vec::new()))),
        FileKind::Device(DeviceId::Tty(tty)) => {
            let got = cx.w.terminal(tty).with(|t| t.process_read(len));
            match got {
                Some(bytes) => {
                    let c = cx.cost().copy_bytes(bytes.len());
                    cx.charge(c);
                    done(Ok(SysRetval::with_data(bytes.len() as u32, bytes)))
                }
                None => {
                    if let Some(p) = cx.proc_mut() {
                        p.state = ProcState::TtyWait { tty };
                    }
                    cx.w.sleep_on(WaitChan::Tty(tty), cx.mid, cx.pid);
                    SyscallResult::Blocked
                }
            }
        }
        FileKind::Local(ino) => {
            let data = match cx.machine().fs.read(ino, offset, len) {
                Ok(d) => d,
                Err(e) => return done(Err(e)),
            };
            let first = !std::mem::replace(
                &mut cx.machine_mut().files.get_mut(idx).expect("live").touched,
                true,
            );
            let mut cost = Cost::cpu_us((data.len() / 8) as u64);
            if first {
                cost = cost.plus(cx.cost().disk_read(data.len().max(512)));
            }
            cx.charge(cost);
            cx.machine_mut().files.get_mut(idx).expect("live").offset += data.len() as u64;
            done(Ok(SysRetval::with_data(data.len() as u32, data)))
        }
        FileKind::Remote { host, ino } => {
            let data = match cx.w.machine(host).fs.read(ino, offset, len) {
                Ok(d) => d,
                Err(e) => return done(Err(e)),
            };
            // A dropped RPC loses the reply: the client sees ETIMEDOUT
            // and the offset does not advance.
            if let Err(e) = cx.charge_rpc(NfsOp::Read(data.len())) {
                return done(Err(e));
            }
            cx.machine_mut().files.get_mut(idx).expect("live").offset += data.len() as u64;
            done(Ok(SysRetval::with_data(data.len() as u32, data)))
        }
        FileKind::Pipe { id, write_end } => {
            if write_end {
                return done(Err(Errno::EBADF));
            }
            read_queue(cx, len, QueueRef::Pipe(id))
        }
        FileKind::Socket { id, side } => read_queue(cx, len, QueueRef::Socket(id, side)),
    }
}

enum QueueRef {
    Pipe(usize),
    /// Socket pair id and *our* side: we read the buffer written by the
    /// peer (`bufs[1 - side]`).
    Socket(usize, usize),
}

impl QueueRef {
    /// The wait channel of this queue on `mid`. Sockets share one
    /// channel for both sides: a wakeup may over-wake the opposite
    /// side, which is safe (its condition re-evaluates to no action).
    fn chan(&self, mid: MachineId) -> WaitChan {
        WaitChan::Queue(
            mid,
            match self {
                QueueRef::Pipe(id) => QueueId::Pipe(*id),
                QueueRef::Socket(id, _) => QueueId::Socket(*id),
            },
        )
    }
}

fn read_queue(cx: &mut SysCtx<'_>, len: usize, q: QueueRef) -> SyscallResult {
    let m = cx.machine_mut();
    let buf = match &q {
        QueueRef::Pipe(id) => m.pipes.get_mut(*id).and_then(|p| p.as_mut()),
        QueueRef::Socket(id, side) => m
            .sockets
            .get_mut(*id)
            .and_then(|s| s.as_mut())
            .map(|s| &mut s.bufs[1 - *side]),
    };
    let Some(buf) = buf else {
        return done(Err(Errno::EBADF));
    };
    if buf.data.is_empty() {
        if buf.writers == 0 {
            return done(Ok(SysRetval::with_data(0, Vec::new()))); // EOF.
        }
        if let Some(p) = cx.proc_mut() {
            p.state = ProcState::PipeWait;
        }
        cx.w.sleep_on(q.chan(cx.mid), cx.mid, cx.pid);
        return SyscallResult::Blocked;
    }
    let n = len.min(buf.data.len());
    let bytes: Vec<u8> = buf.data.drain(..n).collect();
    let c = cx.cost().copy_bytes(n);
    cx.charge(c);
    // Draining made room: writers blocked on a full buffer can retry.
    cx.w.wakeup(q.chan(cx.mid));
    done(Ok(SysRetval::with_data(n as u32, bytes)))
}

/// `write(2)`.
pub fn sys_write(cx: &mut SysCtx<'_>, fd: usize, bytes: &[u8]) -> SyscallResult {
    let idx = match cx.file_idx(fd) {
        Ok(i) => i,
        Err(e) => return done(Err(e)),
    };
    let (kind, flags, offset) = {
        let f = cx.machine().files.get(idx).expect("live file");
        (f.kind.clone(), f.flags, f.offset)
    };
    if !flags.writable() {
        return done(Err(Errno::EBADF));
    }
    match kind {
        FileKind::Device(DeviceId::Null) => done(Ok(SysRetval::ok(bytes.len() as u32))),
        FileKind::Device(DeviceId::Tty(tty)) => {
            let n = cx.w.terminal(tty).with(|t| t.process_write(bytes));
            let c = cx.cost().copy_bytes(n);
            cx.charge(c);
            done(Ok(SysRetval::ok(n as u32)))
        }
        FileKind::Local(ino) => {
            let off = if flags.append() {
                cx.machine().fs.file_len(ino).unwrap_or(offset)
            } else {
                offset
            };
            match cx.w.fs_mut(cx.mid).write(ino, off, bytes) {
                Ok(n) => {
                    // Buffered write: copy CPU plus streaming disk time,
                    // no per-call seek (the sync happens at close).
                    let c = Cost {
                        cpu: simtime::SimDuration::micros((n / 8) as u64),
                        wait: simtime::SimDuration::micros(
                            cx.cost().disk_write_per_byte_us * n as u64,
                        ),
                    };
                    cx.charge(c);
                    cx.machine_mut().files.get_mut(idx).expect("live").offset = off + n as u64;
                    done(Ok(SysRetval::ok(n as u32)))
                }
                Err(e) => done(Err(e)),
            }
        }
        FileKind::Remote { host, ino } => {
            let off = if flags.append() {
                cx.w.machine(host).fs.file_len(ino).unwrap_or(offset)
            } else {
                offset
            };
            match cx.w.fs_mut(host).write(ino, off, bytes) {
                Ok(n) => {
                    // A dropped reply after the server applied the write:
                    // the data landed but the client sees ETIMEDOUT and
                    // the offset does not advance — NFS's at-least-once
                    // ambiguity, preserved on purpose.
                    if let Err(e) = cx.charge_rpc(NfsOp::Write(n)) {
                        return done(Err(e));
                    }
                    cx.machine_mut().files.get_mut(idx).expect("live").offset = off + n as u64;
                    done(Ok(SysRetval::ok(n as u32)))
                }
                Err(e) => done(Err(e)),
            }
        }
        FileKind::Pipe { id, write_end } => {
            if !write_end {
                return done(Err(Errno::EBADF));
            }
            write_queue(cx, bytes, QueueRef::Pipe(id))
        }
        FileKind::Socket { id, side } => write_queue(cx, bytes, QueueRef::Socket(id, side)),
    }
}

fn write_queue(cx: &mut SysCtx<'_>, bytes: &[u8], q: QueueRef) -> SyscallResult {
    let m = cx.machine_mut();
    let buf = match &q {
        QueueRef::Pipe(id) => m.pipes.get_mut(*id).and_then(|p| p.as_mut()),
        // We *write* our own out-buffer: bufs[side].
        QueueRef::Socket(id, side) => m
            .sockets
            .get_mut(*id)
            .and_then(|s| s.as_mut())
            .map(|s| &mut s.bufs[*side]),
    };
    let Some(buf) = buf else {
        return done(Err(Errno::EBADF));
    };
    if buf.readers == 0 {
        if let Some(p) = cx.proc_mut() {
            p.post_signal(Signal::SIGPIPE);
        }
        return done(Err(Errno::EPIPE));
    }
    let Some(n) = buf.write_room(bytes.len()) else {
        if let Some(p) = cx.proc_mut() {
            p.state = ProcState::PipeWait;
        }
        cx.w.sleep_on(q.chan(cx.mid), cx.mid, cx.pid);
        return SyscallResult::Blocked;
    };
    buf.data.extend(bytes[..n].iter().copied());
    let c = cx.cost().copy_bytes(n);
    cx.charge(c);
    // New data: readers blocked on an empty buffer can complete.
    cx.w.wakeup(q.chan(cx.mid));
    done(Ok(SysRetval::ok(n as u32)))
}

/// `lseek(2)`.
pub fn sys_lseek(cx: &mut SysCtx<'_>, fd: usize, offset: i64, whence: Whence) -> SyscallResult {
    let c = cx.cost().quick_call();
    cx.charge(c);
    done((|| {
        let idx = cx.file_idx(fd)?;
        let (kind, cur) = {
            let f = cx.machine().files.get(idx).expect("live file");
            (f.kind.clone(), f.offset)
        };
        let size = match kind {
            FileKind::Local(ino) => cx.machine().fs.file_len(ino)?,
            FileKind::Remote { host, ino } => cx.w.machine(host).fs.file_len(ino)?,
            FileKind::Device(_) => 0,
            FileKind::Pipe { .. } | FileKind::Socket { .. } => return Err(Errno::ESPIPE),
        };
        let base = match whence {
            Whence::Set => 0i64,
            Whence::Cur => cur as i64,
            Whence::End => size as i64,
        };
        // 4.2BSD's `off_t` is 32 bits and comes back in d0: an offset
        // outside 0..=i32::MAX is not representable.
        let new = base
            .checked_add(offset)
            .and_then(|n| i32::try_from(n).ok())
            .filter(|&n| n >= 0)
            .ok_or(Errno::EINVAL)?;
        cx.machine_mut().files.get_mut(idx).expect("live").offset = new as u64;
        Ok(SysRetval::ok(new as u32))
    })())
}

/// `dup(2)`.
pub fn sys_dup(cx: &mut SysCtx<'_>, fd: usize) -> SyscallResult {
    done((|| {
        let idx = cx.file_idx(fd)?;
        cx.machine_mut().files.incref(idx);
        match install_fd(cx, idx) {
            Ok(new_fd) => {
                let c = cx.cost().file_struct_op();
                cx.charge(c);
                Ok(SysRetval::ok(new_fd as u32))
            }
            Err(e) => {
                cx.machine_mut().files.decref(idx);
                Err(e)
            }
        }
    })())
}

/// `pipe(2)` — and, with `as_socket`, our minimal `socketpair`.
///
/// Returns the read (or side-0) descriptor in the low half of the value
/// and the write (or side-1) descriptor in the high half.
pub fn sys_pipe(cx: &mut SysCtx<'_>, as_socket: bool) -> SyscallResult {
    done((|| {
        let (kind0, kind1) = if as_socket {
            let m = cx.machine_mut();
            let id = m.sockets.len();
            let mut pair = crate::machine::SocketPair::default();
            for b in &mut pair.bufs {
                b.readers = 1;
                b.writers = 1;
            }
            m.sockets.push(Some(pair));
            (
                FileKind::Socket { id, side: 0 },
                FileKind::Socket { id, side: 1 },
            )
        } else {
            let m = cx.machine_mut();
            let id = m.pipes.len();
            m.pipes.push(Some(crate::machine::PipeBuf {
                data: Default::default(),
                readers: 1,
                writers: 1,
            }));
            (
                FileKind::Pipe {
                    id,
                    write_end: false,
                },
                FileKind::Pipe {
                    id,
                    write_end: true,
                },
            )
        };
        let flags0 = if as_socket {
            OpenFlags::RDWR
        } else {
            OpenFlags::RDONLY
        };
        let flags1 = if as_socket {
            OpenFlags::RDWR
        } else {
            OpenFlags::WRONLY
        };
        let idx0 = cx
            .machine_mut()
            .files
            .insert(FileStruct::new(kind0, flags0));
        let idx1 = cx
            .machine_mut()
            .files
            .insert(FileStruct::new(kind1, flags1));
        let fd0 = install_fd(cx, idx0)?;
        let fd1 = match install_fd(cx, idx1) {
            Ok(f) => f,
            Err(e) => {
                if let Some(p) = cx.proc_mut() {
                    p.user.fds[fd0] = None;
                }
                // Drop the ends through release_kind, or the just-built
                // pipe/socket slot keeps its endpoint counts forever.
                for idx in [idx0, idx1] {
                    if let Some(f) = cx.machine_mut().files.decref(idx) {
                        release_kind(cx, &f.kind);
                    }
                }
                return Err(e);
            }
        };
        let c = cx.cost().file_struct_op().plus(cx.cost().file_struct_op());
        cx.charge(c);
        Ok(SysRetval::ok((fd0 as u32) | ((fd1 as u32) << 16)))
    })())
}

/// `ioctl(2)`: terminal mode get/set.
pub fn sys_ioctl(cx: &mut SysCtx<'_>, fd: usize, req: IoctlReq) -> SyscallResult {
    done((|| {
        let idx = cx.file_idx(fd)?;
        let kind = cx.machine().files.get(idx).expect("live").kind.clone();
        let FileKind::Device(DeviceId::Tty(tty)) = kind else {
            return Err(Errno::ENOTTY);
        };
        let c = Cost::cpu_us(200);
        cx.charge(c);
        match req {
            IoctlReq::Gtty => {
                let flags = cx.w.terminal(tty).with(|t| t.gtty());
                Ok(SysRetval::ok(flags.bits() as u32))
            }
            IoctlReq::Stty(flags) => {
                cx.w.terminal(tty).with(|t| t.stty(flags));
                // A mode change (raw vs cooked) can make buffered input
                // readable for blocked readers.
                cx.w.wakeup(WaitChan::Tty(tty));
                Ok(SysRetval::ok(0))
            }
        }
    })())
}

/// `chdir(2)`, carrying the paper's cwd-string maintenance.
pub fn sys_chdir(cx: &mut SysCtx<'_>, arg: &str) -> SyscallResult {
    done((|| {
        let mid = cx.mid;
        let cred = cx.cred()?;
        let cwd = cx.cwd()?;
        let cache_key = format!("{mid}:{}:{}:{arg}", cwd.machine, cwd.ino);
        let res = namei(cx.w, mid, &cred, cwd, arg, FollowLast::Yes)?;
        if !cx
            .w
            .machine(res.fref.machine)
            .fs
            .inode(res.fref.ino)?
            .is_dir()
        {
            return Err(Errno::ENOTDIR);
        }
        charge_namei(cx, &res, &cache_key)?;

        // §5.1: "After each successful call to chdir() ... if the
        // argument ... is an absolute path name, it is simply copied to
        // the user structure; if it is a relative path name, it is
        // combined with the value of the old current working directory
        // ... with the updating procedure being skipped if the field has
        // not been yet initialised."
        if cx.w.config.track_names {
            let p = cx.proc_mut().ok_or(Errno::ESRCH)?;
            let new_path = if vpath::is_absolute(arg) {
                Some(vpath::normalize(arg))
            } else {
                p.user
                    .cwd_path
                    .as_deref()
                    .map(|old| vpath::combine(old, arg))
            };
            let mut cost = Cost::ZERO;
            if let Some(np) = new_path {
                cost = cost
                    .plus(cx.cost().path_combine())
                    .plus(cx.cost().copy_bytes(np.len() + 1));
                if let Some(p) = cx.proc_mut() {
                    p.user.cwd_path = Some(np);
                }
            }
            cx.charge(cost);
        }
        if let Some(p) = cx.proc_mut() {
            p.user.cwd = res.fref;
        }
        Ok(SysRetval::ok(0))
    })())
}

/// `stat(2)`, reduced to the size query the utilities need.
pub fn sys_stat(cx: &mut SysCtx<'_>, arg: &str) -> SyscallResult {
    done((|| {
        let mid = cx.mid;
        let cred = cx.cred()?;
        let cwd = cx.cwd()?;
        let cache_key = format!("{mid}:{}:{}:{arg}", cwd.machine, cwd.ino);
        let res = namei(cx.w, mid, &cred, cwd, arg, FollowLast::Yes)?;
        charge_namei(cx, &res, &cache_key)?;
        if res.fref.machine != mid {
            cx.charge_rpc(NfsOp::Getattr)?;
        }
        let size = cx.w.machine(res.fref.machine).fs.file_len(res.fref.ino)?;
        Ok(SysRetval::ok(size as u32))
    })())
}

/// `unlink(2)`.
pub fn sys_unlink(cx: &mut SysCtx<'_>, arg: &str) -> SyscallResult {
    done((|| {
        let mid = cx.mid;
        let cred = cx.cred()?;
        let cwd = cx.cwd()?;
        let (parent_arg, name) = split_parent(arg);
        let parent = namei(cx.w, mid, &cred, cwd, &parent_arg, FollowLast::Yes)?;
        let cache_key = format!("{mid}:{}:{}:{arg}#unlink", cwd.machine, cwd.ino);
        charge_namei(cx, &parent, &cache_key)?;
        cx.w.fs_mut(parent.fref.machine)
            .unlink(parent.fref.ino, &name, &cred)?;
        let c = cx.cost().disk_create(); // Directory update, same class.
        cx.charge(c);
        if parent.fref.machine != mid {
            cx.charge_rpc(NfsOp::Remove)?;
        }
        Ok(SysRetval::ok(0))
    })())
}

/// `link(2)` (same machine only, as on the original system).
pub fn sys_link(cx: &mut SysCtx<'_>, old: &str, new: &str) -> SyscallResult {
    done((|| {
        let mid = cx.mid;
        let cred = cx.cred()?;
        let cwd = cx.cwd()?;
        let target = namei(cx.w, mid, &cred, cwd, old, FollowLast::Yes)?;
        let (parent_arg, name) = split_parent(new);
        let parent = namei(cx.w, mid, &cred, cwd, &parent_arg, FollowLast::Yes)?;
        if target.fref.machine != parent.fref.machine {
            return Err(Errno::EXDEV);
        }
        charge_namei(cx, &target, &format!("{mid}:link:{old}"))?;
        cx.w.fs_mut(parent.fref.machine)
            .link(parent.fref.ino, &name, target.fref.ino, &cred)?;
        let c = cx.cost().disk_create();
        cx.charge(c);
        Ok(SysRetval::ok(0))
    })())
}

/// `symlink(2)`.
pub fn sys_symlink(cx: &mut SysCtx<'_>, target: &str, link: &str) -> SyscallResult {
    done((|| {
        let mid = cx.mid;
        let cred = cx.cred()?;
        let cwd = cx.cwd()?;
        let (parent_arg, name) = split_parent(link);
        let parent = namei(cx.w, mid, &cred, cwd, &parent_arg, FollowLast::Yes)?;
        charge_namei(cx, &parent, &format!("{mid}:symlink:{link}"))?;
        cx.w.fs_mut(parent.fref.machine)
            .symlink(parent.fref.ino, &name, target, &cred)?;
        let c = cx.cost().disk_create();
        cx.charge(c);
        Ok(SysRetval::ok(0))
    })())
}

/// `readlink(2)`: "can be used iteratively to resolve all symbolic links
/// in a pathname" — the tool `dumpproc` relies on.
pub fn sys_readlink(cx: &mut SysCtx<'_>, arg: &str, buf_len: usize) -> SyscallResult {
    done((|| {
        let mid = cx.mid;
        let cred = cx.cred()?;
        let cwd = cx.cwd()?;
        let cache_key = format!("{mid}:{}:{}:{arg}#rl", cwd.machine, cwd.ino);
        let res = namei(cx.w, mid, &cred, cwd, arg, FollowLast::No)?;
        charge_namei(cx, &res, &cache_key)?;
        let target = cx.w.machine(res.fref.machine).fs.readlink(res.fref.ino)?;
        if res.fref.machine != mid {
            cx.charge_rpc(NfsOp::Readlink)?;
        }
        let bytes: Vec<u8> = target.into_bytes();
        let n = bytes.len().min(buf_len);
        Ok(SysRetval::with_data(n as u32, bytes[..n].to_vec()))
    })())
}

/// `mkdir(2)`.
pub fn sys_mkdir(cx: &mut SysCtx<'_>, arg: &str, mode: u16) -> SyscallResult {
    done((|| {
        let mid = cx.mid;
        let cred = cx.cred()?;
        let cwd = cx.cwd()?;
        let (parent_arg, name) = split_parent(arg);
        let parent = namei(cx.w, mid, &cred, cwd, &parent_arg, FollowLast::Yes)?;
        charge_namei(cx, &parent, &format!("{mid}:mkdir:{arg}"))?;
        cx.w.fs_mut(parent.fref.machine)
            .mkdir(parent.fref.ino, &name, FileMode(mode), &cred)?;
        let c = cx.cost().disk_create();
        cx.charge(c);
        if parent.fref.machine != mid {
            cx.charge_rpc(NfsOp::Create)?;
        }
        Ok(SysRetval::ok(0))
    })())
}
