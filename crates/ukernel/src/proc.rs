//! Processes: VM guests, native utilities, and their lifecycle.

use m68vm::{Cpu, IsaLevel, Memory};
use simtime::{SimDuration, SimTime};
use sysdefs::{Pid, Uid};

use crate::native::NativeBody;
use crate::sys::args::Syscall;
use crate::user::UserArea;

/// What a process is currently doing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProcState {
    /// Ready to run.
    Runnable,
    /// Blocked until a timer fires (`sleep`).
    Sleeping {
        /// Absolute wake-up time.
        until: SimTime,
    },
    /// Blocked in `read(2)` on a terminal with no data ready.
    TtyWait {
        /// World terminal id being read.
        tty: u32,
    },
    /// Blocked in `read(2)` on an empty pipe or socket (or `write(2)` on
    /// a full one).
    PipeWait,
    /// Blocked in `wait(2)` for a child to exit.
    ChildWait,
    /// Blocked in `rsh`, waiting for a remote command to finish.
    RemoteWait {
        /// The machine running the remote command.
        server: usize,
        /// The remote command's pid there.
        pid: Pid,
    },
    /// Parked on an absent page of a demand-restored image, waiting for
    /// the residual-page fetch from the source dump to land.
    PageWait {
        /// When the fetch (or its soft-mount timeout) completes.
        until: SimTime,
        /// The faulting address; the page is `addr / PAGE`.
        addr: u32,
    },
    /// Stopped by `SIGSTOP`/`SIGTSTP`.
    Stopped,
    /// Dead, waiting to be reaped by the parent.
    Zombie {
        /// Exit status.
        status: u32,
    },
}

impl ProcState {
    /// Is the process eligible for CPU time right now?
    pub fn is_runnable(&self) -> bool {
        matches!(self, ProcState::Runnable)
    }

    /// Is the process blocked but alive?
    pub fn is_blocked(&self) -> bool {
        !matches!(self, ProcState::Runnable | ProcState::Zombie { .. })
    }
}

/// The executable body of a process.
// Nearly every live entry is the large `Vm` variant (Native bodies are
// short-lived utilities, Idle is init), so boxing it would buy nothing
// and cost an indirection on the interpreter's hottest path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Body {
    /// A guest program interpreted by the VM.
    Vm(VmBody),
    /// A native utility: an `async` program the kernel polls on the
    /// world's thread, one system call per `.await`.
    Native(NativeBody),
    /// `init` and other placeholder processes that never run.
    Idle,
}

/// The machine state of a VM process.
#[derive(Clone, Debug)]
pub struct VmBody {
    /// CPU registers.
    pub cpu: Cpu,
    /// The memory image.
    pub mem: Memory,
    /// Predecoded text segment, taken at overlay time (execve or
    /// rest_proc) from the world's pool for the hosting machine's ISA
    /// level; `None` when the kernel is configured without the cache.
    /// Every body running the same text at that level — forked
    /// children, neighbours, restored copies — shares this `Arc`; text
    /// is write-protected, so the cache never goes stale. Purely a
    /// host-side accelerator: simulated charging is identical with or
    /// without it.
    pub icache: Option<std::sync::Arc<m68vm::ICache>>,
    /// The ISA level the loaded executable requires (from its a.out
    /// machine id) — checked against the machine at `execve` time and
    /// dumped so a migration target can check it again.
    pub isa_required: IsaLevel,
    /// The original entry point from the a.out header, re-recorded in
    /// dumped images so they stay runnable as ordinary programs.
    pub entry: u32,
    /// Where a demand-restored image fetches its absent pages from;
    /// `None` once every page is resident (or for ordinary processes).
    pub residual: Option<ResidualSource>,
}

/// The residual dependency of a demand-restored process: the source
/// dump its absent pages are fetched from, page by page, on fault.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResidualSource {
    /// The machine still holding the dump.
    pub server: usize,
    /// The dump's `a.outXXXXX` path on that machine.
    pub aout_path: String,
    /// Byte offset of the data segment image inside that file.
    pub data_off: usize,
    /// Consecutive timed-out fetches (reset on success); the kernel
    /// declares the dependency dead after three strikes.
    pub tries: u32,
}

/// A process-table entry (4.2BSD `struct proc` + our accounting).
#[derive(Debug)]
pub struct Proc {
    /// Process id.
    pub pid: Pid,
    /// Parent process id.
    pub ppid: Pid,
    /// Scheduler state.
    pub state: ProcState,
    /// The running body.
    pub body: Body,
    /// The swappable user area.
    pub user: UserArea,
    /// Pending (posted, undelivered) signals as a bit mask
    /// (bit *n*-1 = signal *n*).
    pub sig_pending: u32,
    /// User-mode CPU time consumed.
    pub utime: SimDuration,
    /// System (kernel) CPU time consumed.
    pub stime: SimDuration,
    /// When the process was created (for the load balancer's age-based
    /// candidate selection).
    pub start_time: SimTime,
    /// A blocked system call to re-attempt when the process is next
    /// scheduled (the kernel's "sleep and retry the operation" pattern).
    pub pending_syscall: Option<Syscall>,
    /// For a VM process blocked in a system call: the pc of the `trap`
    /// instruction itself, so that a `SIGDUMP` arriving mid-syscall
    /// backs up and lets the restarted process re-issue the call.
    pub restart_pc: Option<u32>,
    /// Command name for diagnostics (`ps`-style).
    pub comm: String,
    /// Pending `alarm(2)` deadline; `SIGALRM` is posted when the
    /// machine clock passes it.
    pub alarm_at: Option<SimTime>,
    /// Pre-copy freeze mode: the next `SIGDUMP` writes a `deltaXXXXX`
    /// of the still-dirty pages instead of the full `a.outXXXXX`. Set
    /// by the migration engine once the bulk of the image has been
    /// streamed; cleared with the process (never inherited — `fork`
    /// children are whole processes, not half-sent images).
    pub dump_delta: bool,
}

impl Proc {
    /// A new process-table entry with no signals pending, no CPU time
    /// used, no call parked and no alarm set.
    pub(crate) fn new(
        pid: Pid,
        ppid: Pid,
        state: ProcState,
        body: Body,
        user: UserArea,
        start_time: SimTime,
        comm: String,
    ) -> Proc {
        Proc {
            pid,
            ppid,
            state,
            body,
            user,
            sig_pending: 0,
            utime: SimDuration::ZERO,
            stime: SimDuration::ZERO,
            start_time,
            pending_syscall: None,
            restart_pc: None,
            comm,
            alarm_at: None,
            dump_delta: false,
        }
    }

    /// The owning (real) uid, used for kill/dump permission checks.
    pub fn owner(&self) -> Uid {
        self.user.cred.ruid
    }

    /// Total CPU time (user + system).
    pub fn cpu_time(&self) -> SimDuration {
        self.utime + self.stime
    }

    /// Is a given signal pending?
    pub fn signal_pending(&self) -> bool {
        self.sig_pending & !self.user.sigs.blocked != 0
    }

    /// Posts a signal (sets its pending bit).
    pub fn post_signal(&mut self, sig: sysdefs::Signal) {
        self.sig_pending |= 1 << (sig.number() - 1);
    }

    /// Takes (clears and returns) the lowest-numbered deliverable
    /// pending signal.
    pub fn take_signal(&mut self) -> Option<sysdefs::Signal> {
        let deliverable = self.sig_pending & !self.user.sigs.blocked;
        if deliverable == 0 {
            return None;
        }
        let n = deliverable.trailing_zeros() + 1;
        self.sig_pending &= !(1 << (n - 1));
        sysdefs::Signal::from_number(n).ok()
    }
}

/// Final accounting for an exited process, kept by the world so that
/// measurements survive reaping.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExitInfo {
    /// Exit status (or 128+signal for signal deaths).
    pub status: u32,
    /// User CPU time.
    pub utime: SimDuration,
    /// System CPU time.
    pub stime: SimDuration,
    /// Creation time.
    pub started: SimTime,
    /// Exit time.
    pub ended: SimTime,
}

impl ExitInfo {
    /// Total CPU time.
    pub fn cpu(&self) -> SimDuration {
        self.utime + self.stime
    }

    /// Wall-clock lifetime.
    pub fn real(&self) -> SimDuration {
        self.ended.since(self.started)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sysdefs::Signal;

    fn proc_fixture() -> Proc {
        Proc::new(
            Pid(2),
            Pid(1),
            ProcState::Runnable,
            Body::Idle,
            UserArea::new(
                sysdefs::Credentials::user(Uid(5), sysdefs::Gid(5)),
                crate::user::FileRef { machine: 0, ino: 0 },
            ),
            SimTime::BOOT,
            "test".into(),
        )
    }

    #[test]
    fn signal_post_and_take_in_order() {
        let mut p = proc_fixture();
        p.post_signal(Signal::SIGTERM);
        p.post_signal(Signal::SIGHUP);
        assert!(p.signal_pending());
        assert_eq!(p.take_signal(), Some(Signal::SIGHUP));
        assert_eq!(p.take_signal(), Some(Signal::SIGTERM));
        assert_eq!(p.take_signal(), None);
    }

    #[test]
    fn blocked_signals_not_deliverable() {
        let mut p = proc_fixture();
        p.user.sigs.blocked = 1 << (Signal::SIGTERM.number() - 1);
        p.post_signal(Signal::SIGTERM);
        assert!(!p.signal_pending());
        assert_eq!(p.take_signal(), None);
        p.user.sigs.blocked = 0;
        assert_eq!(p.take_signal(), Some(Signal::SIGTERM));
    }

    #[test]
    fn state_predicates() {
        assert!(ProcState::Runnable.is_runnable());
        assert!(ProcState::ChildWait.is_blocked());
        assert!(!ProcState::Zombie { status: 0 }.is_blocked());
        assert!(!ProcState::Zombie { status: 0 }.is_runnable());
    }

    #[test]
    fn exit_info_arithmetic() {
        let e = ExitInfo {
            status: 0,
            utime: SimDuration::millis(10),
            stime: SimDuration::millis(5),
            started: SimTime(1_000),
            ended: SimTime(500_000),
        };
        assert_eq!(e.cpu(), SimDuration::micros(15_000));
        assert_eq!(e.real(), SimDuration::micros(499_000));
    }
}
