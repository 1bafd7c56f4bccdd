//! The kernel-entry context handed to every system-call handler.
//!
//! A [`SysCtx`] bundles the world and the calling machine and process.
//! Handlers charge simulated time exclusively through [`SysCtx::charge`]
//! / [`SysCtx::charge_rpc`]; the workspace lint checker enforces that
//! every `sys_*` handler takes a context and that its charges flow
//! through it.

use simnet::NfsOp;
use simtime::cost::{Cost, CostModel};
use sysdefs::{Credentials, Errno, Pid, SysResult};

use crate::machine::{Machine, MachineId};
use crate::proc::Proc;
use crate::user::FileRef;
use crate::world::World;

/// The kernel-entry context: one per dispatch attempt.
pub struct SysCtx<'w> {
    /// The whole installation — handlers may cross machines (NFS) and
    /// process tables (signals, `wait`).
    pub w: &'w mut World,
    /// The calling machine.
    pub mid: MachineId,
    /// The calling process.
    pub pid: Pid,
}

impl<'w> SysCtx<'w> {
    /// A fresh context for one dispatch attempt.
    pub fn new(w: &'w mut World, mid: MachineId, pid: Pid) -> SysCtx<'w> {
        SysCtx { w, mid, pid }
    }

    /// The kernel build's cost model.
    pub fn cost(&self) -> &CostModel {
        &self.w.config.cost
    }

    /// Charges a cost to the calling machine and process. This is the
    /// only charge path a handler should use.
    pub fn charge(&mut self, cost: Cost) {
        self.w.charge_kernel(self.mid, self.pid, cost);
    }

    /// Charges one NFS RPC to the caller as client. Fails with
    /// `ETIMEDOUT` when the fault plan drops the RPC; the cost
    /// (including the soft-mount timeout wait) is charged either way.
    pub fn charge_rpc(&mut self, op: NfsOp) -> SysResult<()> {
        self.w.charge_kernel_rpc(self.mid, self.pid, op)
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
            .finish()
    }
}

/// The `ESRCH` every handler returns for a vanished caller.
pub const GONE: Errno = Errno::ESRCH;
