//! The kernel-entry context handed to every system-call handler.
//!
//! A [`SysCtx`] bundles the world, the calling machine and process, and
//! the call's accounting. Handlers charge simulated time exclusively
//! through [`SysCtx::charge`] / [`SysCtx::charge_rpc`]; the lint
//! workspace checker enforces structurally that every `sys_*` handler
//! takes a context and that its charges flow through it — the invariant
//! PR 2 could only police syntactically is now carried by the types.

use simnet::NfsOp;
use simtime::cost::{Cost, CostModel};
use sysdefs::{Credentials, Errno, Pid, SysResult};

use crate::machine::{Machine, MachineId};
use crate::proc::Proc;
use crate::user::FileRef;
use crate::world::World;

/// Per-call accounting accumulated while a handler runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SysAccounting {
    /// Simtime charged through this context.
    pub charged: Cost,
    /// Bytes copied from user space into the kernel.
    pub bytes_in: usize,
    /// Bytes copied from the kernel out to user space.
    pub bytes_out: usize,
    /// True when this attempt re-issues a parked call (the classic
    /// sleep/retry pattern; each retry is a fresh context, so this is a
    /// flag rather than a counter).
    pub retry: bool,
}

/// The kernel-entry context: one per dispatch attempt.
pub struct SysCtx<'w> {
    /// The whole installation — handlers may cross machines (NFS) and
    /// process tables (signals, `wait`).
    pub w: &'w mut World,
    /// The calling machine.
    pub mid: MachineId,
    /// The calling process.
    pub pid: Pid,
    /// This attempt's accounting.
    pub acct: SysAccounting,
}

impl<'w> SysCtx<'w> {
    /// A fresh context for one dispatch attempt.
    pub fn new(w: &'w mut World, mid: MachineId, pid: Pid) -> SysCtx<'w> {
        let retry = w
            .proc_ref(mid, pid)
            .map(|p| p.pending_syscall.is_some())
            .unwrap_or(false);
        SysCtx::attempt(w, mid, pid, retry)
    }

    /// A context for a dispatch attempt whose retry flag the caller
    /// already knows.
    pub(crate) fn attempt(w: &'w mut World, mid: MachineId, pid: Pid, retry: bool) -> SysCtx<'w> {
        SysCtx {
            w,
            mid,
            pid,
            acct: SysAccounting {
                retry,
                ..SysAccounting::default()
            },
        }
    }

    /// The kernel build's cost model.
    pub fn cost(&self) -> &CostModel {
        &self.w.config.cost
    }

    /// Charges a cost to the calling machine and process, accumulating
    /// it into the call's accounting. This is the only charge path a
    /// handler should use.
    pub fn charge(&mut self, cost: Cost) {
        self.acct.charged = self.acct.charged.plus(cost);
        self.w.charge_kernel(self.mid, self.pid, cost);
    }

    /// Charges one NFS RPC to the caller as client. Fails with
    /// `ETIMEDOUT` when the fault plan drops the RPC — the charged cost
    /// (including the soft-mount timeout wait) still lands in the call's
    /// accounting either way.
    pub fn charge_rpc(&mut self, op: NfsOp) -> SysResult<()> {
        let (cost, res) = self.w.charge_kernel_rpc(self.mid, self.pid, op);
        self.acct.charged = self.acct.charged.plus(cost);
        res
    }

    /// Notes `n` bytes copied in from user space.
    pub fn copied_in(&mut self, n: usize) {
        self.acct.bytes_in += n;
    }

    /// Notes `n` bytes copied out to user space.
    pub fn copied_out(&mut self, n: usize) {
        self.acct.bytes_out += n;
    }

    /// The calling machine.
    pub fn machine(&self) -> &Machine {
        self.w.machine(self.mid)
    }

    /// The calling machine, mutably.
    pub fn machine_mut(&mut self) -> &mut Machine {
        self.w.machine_mut(self.mid)
    }

    /// The calling process.
    pub fn proc_ref(&self) -> Option<&Proc> {
        self.w.proc_ref(self.mid, self.pid)
    }

    /// The calling process, mutably.
    pub fn proc_mut(&mut self) -> Option<&mut Proc> {
        self.w.proc_mut(self.mid, self.pid)
    }

    /// The caller's credentials.
    pub fn cred(&self) -> SysResult<Credentials> {
        self.w.cred_of(self.mid, self.pid)
    }

    /// The caller's working directory.
    pub fn cwd(&self) -> SysResult<FileRef> {
        self.w.cwd_of(self.mid, self.pid)
    }

    /// Resolves one of the caller's descriptors to a file-table index.
    pub fn file_idx(&self, fd: usize) -> SysResult<usize> {
        self.w.file_idx(self.mid, self.pid, fd)
    }

    /// The caller's best-effort absolute form of a path argument.
    pub fn abs_guess(&self, arg: &str) -> Option<String> {
        self.w.abs_guess(self.mid, self.pid, arg)
    }
}

impl std::fmt::Debug for SysCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SysCtx")
            .field("mid", &self.mid)
            .field("pid", &self.pid)
            .field("acct", &self.acct)
            .finish()
    }
}

/// The `ESRCH` every handler returns for a vanished caller.
pub const GONE: Errno = Errno::ESRCH;
