//! Native processes: Rust utilities running under the simulated kernel.
//!
//! The paper's user-level programs (`dumpproc`, `restart`, `migrate`,
//! daemons) are ordinary sequential code that makes system calls. Each
//! one here is an `async` body — a state machine the compiler builds —
//! that the kernel polls on the world's own thread:
//!
//! 1. the program awaits a [`Sys`] method, which parks one [`Request`]
//!    in the process's mailbox and yields;
//! 2. when the scheduler runs the process, the kernel polls the program
//!    until it yields, takes the request, executes it, charges its
//!    simulated cost, and stores the reply in the mailbox — at once, or
//!    when a blocked call completes;
//! 3. the next poll resumes the program with that reply.
//!
//! Nothing runs concurrently, so execution is deterministic. A program
//! that returns exits with its status; one that panics exits with 255.
//! Killing the process or overlaying it with a new image (a successful
//! `rest_proc()` or `execve()`) replaces its body, which drops the
//! program where it is parked: no further program code runs, so "there
//! is no return from this system call", exactly as §4.3 specifies.

use std::cell::Cell;
use std::future::{poll_fn, Future};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use sysdefs::{Disposition, Errno, Pid, Signal, SysResult, TtyFlags};

use crate::sys::args::{IoctlReq, SysRetval, Syscall, Whence};

/// A running native program: the future of its exit status.
pub type Program = Pin<Box<dyn Future<Output = u32>>>;

/// A native program not yet started: takes its [`Sys`] handle and
/// returns the running [`Program`].
pub type NativeProgram = Box<dyn FnOnce(Sys) -> Program>;

/// Boxes a `move |sys| async move { … }` program.
pub(crate) fn boxed<F: Future<Output = u32> + 'static>(
    prog: impl FnOnce(Sys) -> F + 'static,
) -> NativeProgram {
    Box::new(move |sys| Box::pin(prog(sys)))
}

/// What a native program asks of the kernel.
pub enum Request {
    /// An ordinary system call.
    Syscall(Syscall),
    /// Run a command on another machine through `rsh`, blocking until it
    /// exits; the reply value is the remote exit status.
    Rsh {
        /// Destination host name.
        host: String,
        /// The remote command body.
        prog: NativeProgram,
        /// Remote command name for diagnostics.
        comm: String,
    },
    /// Spawn a child native process on the *local* machine, blocking
    /// until it exits (how `migrate` runs `dumpproc`/`restart` locally
    /// without the cost of `rsh`). Reply value is the exit status.
    RunLocal {
        /// The command body.
        prog: NativeProgram,
        /// Command name for diagnostics.
        comm: String,
    },
    /// Charge `units` of user-mode CPU (models the program's own
    /// computation between system calls).
    Compute {
        /// Simple-instruction units.
        units: u64,
    },
    /// Ask the migration daemon on another machine to run a command —
    /// the §6.4 proposal: "instead of using rsh to start processes
    /// remotely, applications will simply send messages to the daemon,
    /// who will start the processes on their behalf." One network
    /// message instead of a whole `rsh` session.
    Daemon {
        /// Destination host name.
        host: String,
        /// The remote command body.
        prog: NativeProgram,
        /// Remote command name for diagnostics.
        comm: String,
    },
}

/// The one-slot exchange between a program and the kernel.
#[derive(Default)]
struct Mailbox {
    /// The request the program is parked on, until the kernel takes it.
    request: Cell<Option<Request>>,
    /// The kernel's reply, until the program resumes and takes it.
    reply: Cell<Option<SysRetval>>,
}

/// The kernel's side of a native process: the program, parked at its
/// last `.await`, and the mailbox it talks through.
pub struct NativeBody {
    program: Program,
    mailbox: Rc<Mailbox>,
}

impl std::fmt::Debug for NativeBody {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NativeBody").finish_non_exhaustive()
    }
}

impl NativeBody {
    /// Gives `prog` its mailbox and [`Sys`] handle. No program code runs
    /// before the first poll.
    pub(crate) fn new(prog: NativeProgram) -> NativeBody {
        let mailbox = Rc::new(Mailbox::default());
        let program = prog(Sys {
            mailbox: Rc::clone(&mailbox),
        });
        NativeBody { program, mailbox }
    }

    /// Polls the program until it parks its next request. A program that
    /// returns asks to exit with its status. One that panics asks to exit
    /// with 255, so tests see the failure rather than a hang — as does
    /// one that yields without a request, since nothing could wake it.
    pub(crate) fn next_request(&mut self) -> Request {
        let mut cx = Context::from_waker(Waker::noop());
        let status = match catch_unwind(AssertUnwindSafe(|| self.program.as_mut().poll(&mut cx))) {
            Ok(Poll::Ready(status)) => status,
            Ok(Poll::Pending) => match self.mailbox.request.take() {
                Some(req) => return req,
                None => 255,
            },
            Err(_) => 255,
        };
        Request::Syscall(Syscall::Exit { status })
    }

    /// Stores the kernel's reply to the parked request; the next poll
    /// resumes the program with it.
    pub(crate) fn reply(&self, ret: SysRetval) {
        self.mailbox.reply.set(Some(ret));
    }
}

/// The program's system-call interface.
pub struct Sys {
    mailbox: Rc<Mailbox>,
}

/// Decodes a big-endian `u32` carried in a reply's data, if present.
fn data_u32(ret: &SysRetval) -> Option<u32> {
    let bytes: [u8; 4] = ret.data.as_slice().try_into().ok()?;
    Some(u32::from_be_bytes(bytes))
}

impl Sys {
    /// Parks `req` for the kernel and resolves on its reply.
    async fn roundtrip(&self, req: Request) -> SysRetval {
        self.mailbox.request.set(Some(req));
        poll_fn(|_| match self.mailbox.reply.take() {
            Some(ret) => Poll::Ready(ret),
            None => Poll::Pending,
        })
        .await
    }

    async fn call(&self, sc: Syscall) -> SysRetval {
        self.roundtrip(Request::Syscall(sc)).await
    }

    async fn val(&self, sc: Syscall) -> SysResult<u32> {
        self.call(sc).await.val
    }

    /// A call whose only result is success or its errno.
    async fn unit(&self, sc: Syscall) -> SysResult<()> {
        self.val(sc).await.map(|_| ())
    }

    /// A call returning a descriptor or a byte count.
    async fn count(&self, sc: Syscall) -> SysResult<usize> {
        self.val(sc).await.map(|v| v as usize)
    }

    /// A buffer-filling call's bytes, or its errno.
    async fn data(&self, sc: Syscall) -> SysResult<Vec<u8>> {
        let ret = self.call(sc).await;
        ret.val.map(|_| ret.data)
    }

    /// A string-returning call's text, or its errno.
    async fn text(&self, sc: Syscall) -> SysResult<String> {
        let bytes = self.data(sc).await?;
        Ok(String::from_utf8_lossy(&bytes).into_owned())
    }

    /// Opens a file; returns the descriptor. `mode` gives the
    /// permission bits of a `CREAT` open and is ignored otherwise.
    pub async fn open(&self, path: &str, flags: u16, mode: u16) -> SysResult<usize> {
        let path = path.into();
        self.count(Syscall::Open { path, flags, mode }).await
    }

    /// Creates (truncating) and opens a file for writing.
    pub async fn creat(&self, path: &str, mode: u16) -> SysResult<usize> {
        let path = path.into();
        self.count(Syscall::Creat { path, mode }).await
    }

    /// Reads up to `len` bytes.
    pub async fn read(&self, fd: usize, len: usize) -> SysResult<Vec<u8>> {
        let buf_addr = None;
        self.data(Syscall::Read { fd, len, buf_addr }).await
    }

    /// Reads the whole remainder of a file.
    pub async fn read_all(&self, fd: usize) -> SysResult<Vec<u8>> {
        Ok(self.read_through(fd, usize::MAX).await?.0)
    }

    /// Reads the whole remainder of a file, in the same 8 KB reads as
    /// [`Sys::read_all`], but keeps only its first `keep` bytes: returns
    /// those and the number of bytes read in all. The kept chunks are
    /// joined once at the end; a single chunk comes back as it was read.
    pub async fn read_through(&self, fd: usize, keep: usize) -> SysResult<(Vec<u8>, usize)> {
        let mut chunks = Vec::new();
        let mut len = 0;
        loop {
            let mut chunk = self.read(fd, 8192).await?;
            if chunk.is_empty() {
                break;
            }
            let room = keep.saturating_sub(len);
            len += chunk.len();
            if room > 0 {
                chunk.truncate(room);
                chunks.push(chunk);
            }
        }
        let kept = match chunks.len() {
            1 => chunks.pop().expect("one chunk"),
            _ => chunks.concat(),
        };
        Ok((kept, len))
    }

    /// Writes bytes; returns the count written.
    pub async fn write(&self, fd: usize, bytes: &[u8]) -> SysResult<usize> {
        let bytes = bytes.to_vec();
        self.count(Syscall::Write { fd, bytes }).await
    }

    /// Closes a descriptor.
    pub async fn close(&self, fd: usize) -> SysResult<()> {
        self.unit(Syscall::Close { fd }).await
    }

    /// Repositions a descriptor.
    pub async fn lseek(&self, fd: usize, offset: i64, whence: Whence) -> SysResult<u64> {
        let sc = Syscall::Lseek { fd, offset, whence };
        self.val(sc).await.map(u64::from)
    }

    /// Changes the working directory.
    pub async fn chdir(&self, path: &str) -> SysResult<()> {
        self.unit(Syscall::Chdir { path: path.into() }).await
    }

    /// Returns a file's size, or the error.
    pub async fn stat_size(&self, path: &str) -> SysResult<u64> {
        let sc = Syscall::Stat { path: path.into() };
        self.val(sc).await.map(u64::from)
    }

    /// Removes a name.
    pub async fn unlink(&self, path: &str) -> SysResult<()> {
        self.unit(Syscall::Unlink { path: path.into() }).await
    }

    /// Hard-links `old` to `new`.
    pub async fn link(&self, old: &str, new: &str) -> SysResult<()> {
        let (old, new) = (old.into(), new.into());
        self.unit(Syscall::Link { old, new }).await
    }

    /// Creates a symbolic link.
    pub async fn symlink(&self, target: &str, link: &str) -> SysResult<()> {
        let (target, link) = (target.into(), link.into());
        self.unit(Syscall::Symlink { target, link }).await
    }

    /// Reads a symbolic link's target.
    pub async fn readlink(&self, path: &str) -> SysResult<String> {
        let (path, buf_addr, buf_len) = (path.into(), None, sysdefs::MAXPATHLEN);
        self.text(Syscall::Readlink {
            path,
            buf_addr,
            buf_len,
        })
        .await
    }

    /// Makes a directory.
    pub async fn mkdir(&self, path: &str, mode: u16) -> SysResult<()> {
        let path = path.into();
        self.unit(Syscall::Mkdir { path, mode }).await
    }

    /// The (possibly virtualised) process id.
    pub async fn getpid(&self) -> SysResult<Pid> {
        self.val(Syscall::Getpid).await.map(Pid)
    }

    /// The real uid.
    pub async fn getuid(&self) -> SysResult<u32> {
        self.val(Syscall::Getuid).await
    }

    /// Sends a signal.
    pub async fn kill(&self, pid: Pid, sig: Signal) -> SysResult<()> {
        let (pid, sig) = (pid.as_u32(), sig.number());
        self.unit(Syscall::Kill { pid, sig }).await
    }

    /// Duplicates a descriptor.
    pub async fn dup(&self, fd: usize) -> SysResult<usize> {
        self.count(Syscall::Dup { fd }).await
    }

    /// Sets real and effective uids (`u32::MAX` keeps a value).
    pub async fn setreuid(&self, ruid: u32, euid: u32) -> SysResult<()> {
        self.unit(Syscall::Setreuid { ruid, euid }).await
    }

    /// The (possibly virtualised) hostname.
    pub async fn gethostname(&self) -> SysResult<String> {
        let (buf_addr, buf_len) = (None, sysdefs::limits::MAXHOSTNAMELEN);
        self.text(Syscall::Gethostname { buf_addr, buf_len }).await
    }

    /// §7 extension: the true pid.
    pub async fn getpid_real(&self) -> SysResult<Pid> {
        self.val(Syscall::GetpidReal).await.map(Pid)
    }

    /// §7 extension: the true hostname.
    pub async fn gethostname_real(&self) -> SysResult<String> {
        let (buf_addr, buf_len) = (None, sysdefs::limits::MAXHOSTNAMELEN);
        self.text(Syscall::GethostnameReal { buf_addr, buf_len })
            .await
    }

    /// The kernel's current-working-directory string.
    pub async fn getwd(&self) -> SysResult<String> {
        let (buf_addr, buf_len) = (None, sysdefs::MAXPATHLEN);
        self.text(Syscall::Getwd { buf_addr, buf_len }).await
    }

    /// Terminal mode query on a descriptor.
    pub async fn gtty(&self, fd: usize) -> SysResult<TtyFlags> {
        let req = IoctlReq::Gtty;
        let bits = self.val(Syscall::Ioctl { fd, req }).await?;
        Ok(TtyFlags::from_bits(bits as u16))
    }

    /// Terminal mode set on a descriptor.
    pub async fn stty(&self, fd: usize, flags: TtyFlags) -> SysResult<()> {
        let req = IoctlReq::Stty(flags);
        self.unit(Syscall::Ioctl { fd, req }).await
    }

    /// Sets a signal disposition.
    pub async fn sigvec(&self, sig: Signal, disp: Disposition) -> SysResult<()> {
        let sig = sig.number();
        self.unit(Syscall::Sigvec { sig, disp }).await
    }

    /// Replaces the blocked-signal mask, returning the old one.
    pub async fn sigsetmask(&self, mask: u32) -> SysResult<u32> {
        self.val(Syscall::Sigsetmask { mask }).await
    }

    /// Schedules a `SIGALRM` after `secs` seconds (0 cancels).
    pub async fn alarm(&self, secs: u32) -> SysResult<u32> {
        self.val(Syscall::Alarm { secs }).await
    }

    /// Virtual micro-seconds since world boot.
    pub async fn gettimeofday(&self) -> SysResult<u64> {
        // The value is split low/high across val/data to keep u64 range.
        let ret = self.call(Syscall::Gettimeofday).await;
        let lo = ret.val? as u64;
        let hi = data_u32(&ret).unwrap_or(0) as u64;
        Ok((hi << 32) | lo)
    }

    /// Sleeps for `micros` of simulated time.
    pub async fn sleep_us(&self, micros: u64) -> SysResult<()> {
        self.unit(Syscall::Sleep { micros }).await
    }

    /// Waits for any child; returns `(pid, status)`.
    pub async fn wait(&self) -> SysResult<(Pid, u32)> {
        let ret = self.call(Syscall::Wait).await;
        let pid = ret.val?;
        Ok((Pid(pid), data_u32(&ret).unwrap_or(0)))
    }

    /// `execve(2)`: overlays the caller with a fresh program. On
    /// success the calling program ends like [`Sys::rest_proc`]; the
    /// returned value is the failure errno otherwise.
    pub async fn execve(&self, path: &str) -> Errno {
        let sc = Syscall::Execve { path: path.into() };
        self.val(sc).await.err().unwrap_or(Errno::EIO)
    }

    /// **The paper's new system call.** Overlays the caller with the
    /// dumped image named by the `a.outXXXXX` and `stackXXXXX` paths.
    ///
    /// On success this call does not return — the calling program ends
    /// and the process continues as the restored program. The returned
    /// value is therefore always the failure errno: "if the system call
    /// does return, this means that either the system didn't have enough
    /// resources ... or that something was wrong with the two files".
    pub async fn rest_proc(
        &self,
        aout: &str,
        stack: &str,
        old_pid: Option<Pid>,
        old_host: Option<&str>,
    ) -> Errno {
        self.rest_proc_mode(aout, stack, old_pid, old_host, false)
            .await
    }

    /// [`Sys::rest_proc`] with an explicit restore mode: `demand` true
    /// restores only registers + stack + text now and faults the data
    /// pages over from the dump as they are touched.
    pub async fn rest_proc_mode(
        &self,
        aout: &str,
        stack: &str,
        old_pid: Option<Pid>,
        old_host: Option<&str>,
        demand: bool,
    ) -> Errno {
        let sc = Syscall::RestProc {
            aout: aout.into(),
            stack: stack.into(),
            old_pid: old_pid.map(|p| p.as_u32()),
            old_host: old_host.map(str::to_string),
            demand,
        };
        // A success reply never arrives (the program is dropped); treat
        // one as IO weirdness rather than panicking inside a program.
        self.val(sc).await.err().unwrap_or(Errno::EIO)
    }

    /// Sends a spawning request; returns the command's exit status and
    /// its pid.
    async fn remote(&self, req: Request) -> SysResult<(u32, Option<Pid>)> {
        let ret = self.roundtrip(req).await;
        Ok((ret.val?, data_u32(&ret).map(Pid)))
    }

    /// Runs `prog` on `host` through `rsh`, blocking until it finishes;
    /// returns its exit status. All of `rsh`'s connection-establishment
    /// cost is charged to the caller's real time.
    pub async fn rsh<F: Future<Output = u32> + 'static>(
        &self,
        host: &str,
        comm: &str,
        prog: impl FnOnce(Sys) -> F + 'static,
    ) -> SysResult<u32> {
        let req = Request::Rsh {
            host: host.into(),
            prog: boxed(prog),
            comm: comm.into(),
        };
        Ok(self.remote(req).await?.0)
    }

    /// Runs `prog` as a child process on the local machine, blocking
    /// until it finishes; returns its exit status.
    pub async fn run_local<F: Future<Output = u32> + 'static>(
        &self,
        comm: &str,
        prog: impl FnOnce(Sys) -> F + 'static,
    ) -> SysResult<u32> {
        Ok(self.run_local_pid(comm, prog).await?.0)
    }

    /// Like [`Sys::run_local`], also returning the child's pid.
    pub async fn run_local_pid<F: Future<Output = u32> + 'static>(
        &self,
        comm: &str,
        prog: impl FnOnce(Sys) -> F + 'static,
    ) -> SysResult<(u32, Option<Pid>)> {
        self.remote(Request::RunLocal {
            prog: boxed(prog),
            comm: comm.into(),
        })
        .await
    }

    /// Runs `prog` on `host` through the migration daemon (the §6.4
    /// improvement over `rsh`): one message to a well-known port instead
    /// of a connection-per-command session. Returns its exit status.
    pub async fn daemon_spawn<F: Future<Output = u32> + 'static>(
        &self,
        host: &str,
        comm: &str,
        prog: impl FnOnce(Sys) -> F + 'static,
    ) -> SysResult<u32> {
        let req = Request::Daemon {
            host: host.into(),
            prog: boxed(prog),
            comm: comm.into(),
        };
        Ok(self.remote(req).await?.0)
    }

    /// Charges `units` simple-instruction units of user CPU time,
    /// modelling computation the program does between system calls.
    pub async fn compute(&self, units: u64) -> SysResult<()> {
        self.roundtrip(Request::Compute { units })
            .await
            .val
            .map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ktrace::KtraceEvent;
    use crate::{Body, KernelConfig, MachineId, World};
    use m68vm::{assemble, IsaLevel};
    use sysdefs::Credentials;

    fn one_machine() -> (World, MachineId) {
        let mut w = World::new(KernelConfig::paper());
        let m = w.add_machine("brick", IsaLevel::Isa1);
        (w, m)
    }

    /// The dispatch-entry names `pid` issued, in trace order.
    fn calls(w: &World, m: MachineId, pid: Pid) -> Vec<&'static str> {
        w.machine(m)
            .ktrace
            .records()
            .filter(|r| r.pid == pid && matches!(r.ev, KtraceEvent::Enter { retry: false }))
            .map(|r| r.name)
            .collect()
    }

    #[test]
    fn requests_arrive_in_program_order_and_errnos_propagate() {
        let (mut w, m) = one_machine();
        let pid = w.spawn_native_proc(m, "order", None, Credentials::root(), |sys| async move {
            if sys.open("/missing", 0, 0).await != Err(Errno::ENOENT) {
                return 1;
            }
            let fd = sys.creat("/tmp/x", 0o644).await.unwrap();
            sys.write(fd, b"abc").await.unwrap();
            sys.close(fd).await.unwrap();
            42
        });
        let info = w.run_until_exit(m, pid, 10_000).expect("exits");
        assert_eq!(info.status, 42);
        assert_eq!(
            calls(&w, m, pid),
            ["open", "creat", "write", "close", "exit"]
        );
        assert_eq!(*w.host_read_file(m, "/tmp/x").unwrap(), b"abc");
    }

    #[test]
    fn panicking_or_stuck_program_exits_255_while_others_keep_running() {
        let (mut w, m) = one_machine();
        let bad = w.spawn_native_proc(m, "bad", None, Credentials::root(), |sys| async move {
            sys.sleep_us(1_000).await.unwrap();
            panic!("program bug");
        });
        // Awaiting anything but a system call can never be woken.
        let stuck = w.spawn_native_proc(m, "stuck", None, Credentials::root(), |_| async move {
            std::future::pending::<()>().await;
            0
        });
        let good = w.spawn_native_proc(m, "good", None, Credentials::root(), |sys| async move {
            for _ in 0..3 {
                sys.sleep_us(1_000).await.unwrap();
            }
            7
        });
        assert_eq!(
            w.run_until_exit(m, bad, 10_000).expect("bad exits").status,
            255
        );
        assert_eq!(
            w.run_until_exit(m, stuck, 10_000)
                .expect("stuck exits")
                .status,
            255
        );
        assert_eq!(
            w.run_until_exit(m, good, 10_000)
                .expect("good exits")
                .status,
            7
        );
        assert_eq!(calls(&w, m, bad), ["sleep", "exit"]);
        assert_eq!(calls(&w, m, good), ["sleep", "sleep", "sleep", "exit"]);
    }

    #[test]
    fn sigkill_while_parked_runs_no_further_program_code() {
        let (mut w, m) = one_machine();
        let woke = Rc::new(Cell::new(false));
        let flag = Rc::clone(&woke);
        let pid = w.spawn_native_proc(m, "sleeper", None, Credentials::root(), |sys| async move {
            let _ = sys.sleep_us(10_000_000).await;
            flag.set(true);
            sys.write(1, b"after the sleep").await.ok();
            0
        });
        w.run_slices(1);
        assert!(w.proc_ref(m, pid).unwrap().state.is_blocked());
        w.host_post_signal(m, pid, Signal::SIGKILL);
        let info = w.run_until_exit(m, pid, 10_000).expect("killed");
        assert_eq!(info.status, 128 + Signal::SIGKILL.number());
        w.run_slices(1_000);
        assert!(!woke.get(), "no program code may run after SIGKILL");
        assert_eq!(calls(&w, m, pid), ["sleep"]);
    }

    #[test]
    fn successful_rest_proc_leaves_the_image_running() {
        let (mut w, m) = one_machine();
        let spin = assemble("start: bra start\n").unwrap();
        w.install_program(m, "/bin/spin", &spin).unwrap();
        let victim = w
            .spawn_vm_proc(m, "/bin/spin", None, Credentials::root())
            .unwrap();
        w.host_post_signal(m, victim, Signal::SIGDUMP);
        w.run_until_exit(m, victim, 10_000).expect("dumped");

        let names = dumpfmt::dump_file_names(victim);
        let returned = Rc::new(Cell::new(false));
        let flag = Rc::clone(&returned);
        let pid = w.spawn_native_proc(m, "restart", None, Credentials::root(), |sys| async move {
            let e = sys.rest_proc(&names.a_out, &names.stack, None, None).await;
            flag.set(true);
            e.as_u16() as u32
        });
        w.run_slices(1_000);
        let p = w.proc_ref(m, pid).expect("restored process lives");
        assert!(matches!(p.body, Body::Vm(_)) && p.state.is_runnable());
        assert!(!returned.get(), "rest_proc must not return on success");
        assert_eq!(calls(&w, m, pid), ["rest_proc"]);
    }
}
