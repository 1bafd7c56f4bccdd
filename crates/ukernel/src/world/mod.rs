//! The world: machines, terminals and the Ethernet. The scheduler
//! that runs them is in `sched.rs`.

mod ready;
mod sched;

pub use sched::RunOutcome;
pub(crate) use sched::WaitChan;

use std::borrow::Cow;
use std::rc::Rc;

use m68vm::{IsaLevel, StepEvent};
use simnet::{Ethernet, FaultPlan, FaultSite, NfsOp, RshPhase, NFS_SOFT_TIMEOUT_US};
use simtime::cost::Cost;
use simtime::{SimDuration, SimTime};
use sysdefs::{Credentials, Errno, Pid, Signal, SysResult};
use tty::{Terminal, TtyHandle};
use vfs::{path as vpath, DeviceId, Filesystem, WalkOutcome};

use crate::config::KernelConfig;
use crate::file::{FileKind, FileStruct};
use crate::machine::{Machine, MachineId};
use crate::native::{boxed, NativeBody, NativeProgram, Request, Sys};
use crate::proc::{Body, ExitInfo, Proc, ProcState};
use crate::sys::args::{SysRetval, SyscallResult};
use crate::sys::ctx::SysCtx;
use crate::sys::{dispatch, vmabi};
use crate::user::{FileRef, UserArea};

/// Where `page` of a VM image's data segment starts, as an offset into
/// the segment, and how many of its bytes the segment holds (the last
/// page may be short).
fn residual_page_span(vm: &crate::proc::VmBody, page: u32) -> (usize, usize) {
    let page_off = (m68vm::MemoryLayout::page_addr(page) - vm.mem.data_base()) as usize;
    let len = (m68vm::MemoryLayout::PAGE as usize).min(vm.mem.data().len() - page_off);
    (page_off, len)
}

/// Walks an absolute path on `fs` to its inode, following no symlink:
/// the host verbs' lookup.
fn host_walk(fs: &Filesystem, path: &str) -> SysResult<vfs::Ino> {
    match fs.walk(fs.root(), &vpath::components(path), None)? {
        WalkOutcome::Done(ino) => Ok(ino),
        _ => Err(Errno::ENOENT),
    }
}

/// The fixed part of a VM image a pre-copy target stages before any
/// data page arrives: everything the reassembled `a.outXXXXX` needs
/// besides the page contents themselves.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ImageGeometry {
    /// The (immutable, never dirty) text segment.
    pub text: Vec<u8>,
    /// The original entry point.
    pub entry: u32,
    /// The a.out machine id (`a_machtype`) of the required ISA.
    pub machtype: u16,
    /// Base guest address of the data segment.
    pub data_base: u32,
    /// Data segment length in bytes (data + bss).
    pub data_len: u32,
}

/// The whole simulated installation.
pub struct World {
    /// Kernel build configuration (all machines run the same build, as
    /// in the paper's installation).
    pub config: KernelConfig,
    /// Every machine, indexed by [`MachineId`].
    machines: Vec<Machine>,
    /// The shared 10 Mbit segment.
    pub ether: Ethernet,
    terminals: Vec<TtyHandle>,
    /// Exit records, kept forever for measurement:
    /// `(machine, pid) -> info`.
    pub finished: std::collections::BTreeMap<(MachineId, u32), ExitInfo>,
    /// Processes successfully overlaid by `rest_proc()`, mapped to the
    /// image name they became and their machine's clock at the overlay.
    /// An `rsh` or `run_local` waiter treats an overlaid command as
    /// complete (status 0): the restored program keeps running, but the
    /// session detaches — the practical reading of `restart`'s "there
    /// is no return from this system call".
    pub overlaid: std::collections::BTreeMap<(MachineId, u32), (String, SimTime)>,
    /// Waiters whose remote command was started through the migration
    /// daemon rather than `rsh` (no teardown cost on completion).
    daemon_waiters: std::collections::BTreeSet<(MachineId, u32)>,
    /// The armed fault-injection plan (empty by default: nothing fires).
    pub faults: FaultPlan,
    /// The host clock: the world clock as of the last return from a run
    /// call, or `SimTime::BOOT` before the first. A host spawn is an
    /// event at this time, so [`World::spawn_vm_proc`] starts an idle
    /// machine here rather than at its own stale clock. Simulated
    /// state: it steers the trajectory.
    host_clock: SimTime,
    /// Scheduler work list: machines with pending wake candidates to
    /// service before the next pick. Mid-ordered so the drain visits
    /// machines in a fixed order.
    wake_queue: std::collections::BTreeSet<MachineId>,
    /// Scheduler ready index: a winner tree over machine ids whose root
    /// is the `(local clock at enrolment, machine)` minimum. Each
    /// machine has one leaf, so re-keying leaves nothing stale behind.
    /// A key goes stale when the clock advances after enrolment (clocks
    /// only move forward, so it is always an underestimate);
    /// [`World::next_ready`] re-keys it when it reaches the root. The
    /// `MachineId` tie-break keeps dual runs bit-identical.
    ready: ready::ReadyTree,
    /// The wait-channel index: each channel to the `(machine, pid)`
    /// processes asleep on it. Registrations are evicted lazily, by
    /// [`World::wakeup`].
    sleepers: std::collections::BTreeMap<WaitChan, std::collections::BTreeSet<(MachineId, u32)>>,
    /// Scratch pid buffer reused by every wake pass so the steady state
    /// allocates nothing per slice.
    wake_scratch: Vec<u32>,
    /// Scheduling slices executed across all run loops. Host-side
    /// observability for the cluster benchmark — never part of
    /// simulated state or the determinism snapshot.
    pub slices: u64,
    /// Predecoded texts shared by every process, keyed by ISA level and
    /// text bytes: the loader takes each new body's icache from here.
    /// Pure cache — a translation is a function of its key alone.
    icaches: m68vm::ICachePool,
}

impl World {
    /// An empty world.
    pub fn new(config: KernelConfig) -> World {
        World {
            config,
            machines: Vec::new(),
            ether: Ethernet::new(),
            terminals: Vec::new(),
            finished: std::collections::BTreeMap::new(),
            overlaid: std::collections::BTreeMap::new(),
            daemon_waiters: std::collections::BTreeSet::new(),
            faults: FaultPlan::none(),
            host_clock: SimTime::BOOT,
            wake_queue: std::collections::BTreeSet::new(),
            ready: ready::ReadyTree::default(),
            sleepers: std::collections::BTreeMap::new(),
            wake_scratch: Vec::new(),
            slices: 0,
            icaches: m68vm::ICachePool::default(),
        }
    }

    // ------------------------------------------------------------------
    // Topology.
    // ------------------------------------------------------------------

    /// Boots a machine and NFS-cross-mounts it with every existing one
    /// (the paper's convention "of mounting the root directory of a
    /// machine to the /n subdirectory of the root directory of all other
    /// machines").
    pub fn add_machine(&mut self, name: &str, isa: IsaLevel) -> MachineId {
        let id = self.machines.len();
        let mut m = Machine::boot(id, name, isa);
        for other in self.machines.iter_mut() {
            other.mounts.insert(name.to_string(), id);
            m.mounts.insert(other.name.clone(), other.id);
        }
        // A machine also reaches itself as /n/<self>, so names rewritten
        // by dumpproc keep working when the restart happens locally.
        m.mounts.insert(name.to_string(), id);
        // init: pid 1, never scheduled, the reparenting target. Its cwd
        // string is initialised by the boot-time absolute chdir("/").
        let mut user = UserArea::new(
            Credentials::root(),
            FileRef {
                machine: id,
                ino: m.fs.root(),
            },
        );
        if self.config.track_names {
            user.cwd_path = Some("/".to_string());
        }
        let init = Proc::new(
            Pid::INIT,
            Pid::INIT,
            ProcState::Stopped,
            Body::Idle,
            user,
            SimTime::BOOT,
            "init".into(),
        );
        m.procs.insert(Pid::INIT.as_u32(), init);
        self.machines.push(m);
        id
    }

    /// Finds a machine by host name.
    pub fn find_machine(&self, name: &str) -> Option<MachineId> {
        self.machines.iter().position(|m| m.name == name)
    }

    /// Borrows a machine.
    pub fn machine(&self, mid: MachineId) -> &Machine {
        &self.machines[mid]
    }

    /// Mutably borrows a machine.
    pub fn machine_mut(&mut self, mid: MachineId) -> &mut Machine {
        &mut self.machines[mid]
    }

    /// Number of machines.
    pub fn machine_count(&self) -> usize {
        self.machines.len()
    }

    /// The world clock: the furthest-ahead machine's clock
    /// (`SimTime::BOOT` with no machines). The scheduler always steps
    /// the laggard with work, so this is the coherent "wall time" to
    /// difference across machines.
    pub fn clock(&self) -> SimTime {
        self.machines
            .iter()
            .map(|m| m.now)
            .max()
            .unwrap_or(SimTime::BOOT)
    }

    /// The host clock: the world clock as of the last return from
    /// [`World::run_slices`], [`World::run_until_exit`] or
    /// [`World::run_until_time`], or `SimTime::BOOT` before the first.
    pub fn host_clock(&self) -> SimTime {
        self.host_clock
    }

    /// Mutably borrows a machine's filesystem (possibly a *remote* one
    /// from the caller's point of view — the RPC cost is charged
    /// separately).
    pub fn fs_mut(&mut self, mid: MachineId) -> &mut Filesystem {
        &mut self.machines[mid].fs
    }

    /// Creates a terminal attached to `mid` (a `/dev/ttyN` node appears
    /// there) and returns its world id and host-side handle.
    pub fn add_terminal(&mut self, mid: MachineId) -> (u32, TtyHandle) {
        let id = self.terminals.len() as u32;
        let handle = TtyHandle::new(Terminal::new());
        self.terminals.push(handle.clone());
        let m = &mut self.machines[mid];
        let name = format!("tty{id}");
        m.fs.mknod(m.dev_dir, &name, DeviceId::Tty(id), &Credentials::root())
            .expect("mknod tty");
        (id, handle)
    }

    /// Creates a degraded rsh-pipe endpoint (no device node; reachable
    /// only as a controlling terminal).
    pub fn add_remote_pipe(&mut self) -> (u32, TtyHandle) {
        let id = self.terminals.len() as u32;
        let handle = TtyHandle::new(Terminal::remote_pipe());
        self.terminals.push(handle.clone());
        (id, handle)
    }

    /// A terminal handle by id.
    ///
    /// # Panics
    ///
    /// Panics on an unknown id — terminal ids are world-assigned and
    /// never reclaimed.
    pub fn terminal(&self, id: u32) -> TtyHandle {
        self.terminals[id as usize].clone()
    }

    /// Every terminal in id order, for the determinism snapshot: the
    /// transcripts are simulated output and must be bit-identical
    /// across runs like any other state.
    pub fn terminals(&self) -> &[TtyHandle] {
        &self.terminals
    }

    /// The daemon-started remote-command waiters, for the determinism
    /// snapshot.
    pub fn daemon_waiters(&self) -> &std::collections::BTreeSet<(MachineId, u32)> {
        &self.daemon_waiters
    }

    /// The predecoded `text` for a new body on `mid`, or `None` when
    /// the kernel runs without the cache. Text is write-protected, so
    /// it is decoded once per text and machine model rather than on
    /// every interpreted step, and every body running it there shares
    /// the translation. The key is `mid`'s ISA level — the level the
    /// live decoder would enforce — not the executable's requirement.
    pub(crate) fn icache(
        &mut self,
        mid: MachineId,
        text: &[u8],
    ) -> Option<std::sync::Arc<m68vm::ICache>> {
        let level = self.machines[mid].isa;
        self.config
            .use_icache
            .then(|| self.icaches.get(text, level))
    }

    // ------------------------------------------------------------------
    // Small accessors used by the syscall handlers.
    // ------------------------------------------------------------------

    /// Borrows a process.
    pub fn proc_ref(&self, mid: MachineId, pid: Pid) -> Option<&Proc> {
        self.machines[mid].proc_ref(pid)
    }

    /// Mutably borrows a process.
    pub fn proc_mut(&mut self, mid: MachineId, pid: Pid) -> Option<&mut Proc> {
        self.machines[mid].proc_mut(pid)
    }

    /// The credentials of a process.
    pub fn cred_of(&self, mid: MachineId, pid: Pid) -> SysResult<Credentials> {
        self.proc_ref(mid, pid)
            .map(|p| p.user.cred.clone())
            .ok_or(Errno::ESRCH)
    }

    /// The working directory of a process.
    pub fn cwd_of(&self, mid: MachineId, pid: Pid) -> SysResult<FileRef> {
        self.proc_ref(mid, pid)
            .map(|p| p.user.cwd)
            .ok_or(Errno::ESRCH)
    }

    /// Best-effort absolute form of a path argument (used for the name
    /// bookkeeping and the buffer-cache key).
    pub fn abs_guess(&self, mid: MachineId, pid: Pid, arg: &str) -> Option<String> {
        if vpath::is_absolute(arg) {
            return Some(vpath::normalize(arg));
        }
        self.proc_ref(mid, pid)
            .and_then(|p| p.user.cwd_path.as_deref())
            .map(|cwd| vpath::combine(cwd, arg))
    }

    /// Resolves a descriptor to its file-table index.
    pub fn file_idx(&self, mid: MachineId, pid: Pid, fd: usize) -> SysResult<usize> {
        self.proc_ref(mid, pid)
            .ok_or(Errno::ESRCH)?
            .user
            .fds
            .get(fd)
            .copied()
            .flatten()
            .ok_or(Errno::EBADF)
    }

    /// Charges a cost to a machine and process. Kernel-internal paths
    /// (teardown, signal frames, dump writing) call this directly;
    /// system-call handlers must charge through their
    /// [`crate::sys::ctx::SysCtx`] instead so the cost lands in the
    /// call's accounting.
    pub fn charge_kernel(&mut self, mid: MachineId, pid: Pid, cost: Cost) {
        self.machines[mid].charge_sys(Some(pid), cost);
    }

    /// Consults the fault plan for one eligible event at `site` on
    /// `mid`. When a rule fires: bumps the machine's injection counter,
    /// cuts a ktrace `Fault` record (part of the determinism snapshot),
    /// and returns the hit's secondary roll.
    pub fn fault_fire(
        &mut self,
        site: FaultSite,
        mid: MachineId,
        pid: Pid,
        err: Errno,
    ) -> Option<u64> {
        if self.faults.is_empty() {
            return None;
        }
        let now_us = self.machines[mid].now.as_micros();
        let hit = self.faults.fire(site, mid, now_us)?;
        let m = &mut self.machines[mid];
        m.stats.faults_injected += 1;
        m.ktrace.push(
            m.now,
            pid,
            "fault",
            crate::ktrace::KtraceEvent::Fault {
                site: site.name(),
                err,
            },
        );
        Some(hit.roll)
    }

    /// Sweeps `/usr/tmp` on `mid` for dump files no live migration owns
    /// — the `a.outXXXXX`/`filesXXXXX`/`stackXXXXX` triples (and the
    /// pre-copy `deltaXXXXX` files) a source-machine crash strands — and
    /// unlinks them. Returns the names removed, sorted (the directory
    /// lists in name order), so callers can report (and tests assert)
    /// exactly what was reaped. The directory is the only record: a name
    /// made by `creat`, `link` or `symlink` is swept alike.
    pub fn host_reap_orphan_dumps(&mut self, mid: MachineId) -> Vec<String> {
        let m = &mut self.machines[mid];
        let dir = m.dump_dir;
        let root = sysdefs::Credentials::root();
        let mut names = m.fs.readdir(dir).unwrap_or_default();
        names.retain(|name| {
            crate::machine::dump_artifact_pid(name).is_some()
                && m.fs.unlink(dir, name, &root).is_ok()
        });
        names
    }

    /// Charges one NFS RPC to the client; returns whether the RPC
    /// survived the fault plan. Same contract as
    /// [`World::charge_kernel`]: handlers go through
    /// `SysCtx::charge_rpc`, kernel paths may call this directly.
    ///
    /// When the fault plan drops this RPC the client still pays the op's
    /// cost *plus* the soft-mount retransmission window, and the call
    /// surfaces `ETIMEDOUT`. The server-side mutation may have landed
    /// anyway — exactly the at-least-once ambiguity a dropped NFS reply
    /// gives a real client — so callers must treat `ETIMEDOUT` as
    /// "unknown", not "not done".
    pub fn charge_kernel_rpc(&mut self, mid: MachineId, pid: Pid, op: NfsOp) -> SysResult<()> {
        let cost = op.cost(&self.config.cost, &mut self.ether);
        let m = &mut self.machines[mid];
        m.stats.nfs_rpcs += 1;
        m.charge_sys(Some(pid), cost);
        if self
            .fault_fire(FaultSite::NfsOp, mid, pid, Errno::ETIMEDOUT)
            .is_some()
        {
            let wait = Cost::wait_us(NFS_SOFT_TIMEOUT_US);
            self.machines[mid].charge_sys(Some(pid), wait);
            return Err(Errno::ETIMEDOUT);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Host-level filesystem helpers (no simulated cost): test fixtures,
    // program installation, result inspection.
    // ------------------------------------------------------------------

    /// Creates every missing directory along `path` (absolute) on `mid`.
    pub fn host_mkdir_p(&mut self, mid: MachineId, path: &str) -> SysResult<()> {
        let cred = Credentials::root();
        let m = &mut self.machines[mid];
        let mut dir = m.fs.root();
        for comp in vpath::components(path) {
            dir = match m.fs.lookup(dir, &comp) {
                Ok(ino) => ino,
                Err(_) => m.fs.mkdir(dir, &comp, sysdefs::FileMode(0o777), &cred)?,
            };
        }
        Ok(())
    }

    /// Writes a file at an absolute local path on `mid`, creating parent
    /// directories as needed. An owned buffer becomes the file's
    /// contents without a copy.
    pub fn host_write_file<'b>(
        &mut self,
        mid: MachineId,
        path: &str,
        bytes: impl Into<Cow<'b, [u8]>>,
    ) -> SysResult<()> {
        let dir_path = vpath::dirname(path);
        self.host_mkdir_p(mid, &dir_path)?;
        let cred = Credentials::root();
        let m = &mut self.machines[mid];
        let dir = host_walk(&m.fs, &dir_path)?;
        let name = vpath::basename(path);
        let ino = match m.fs.lookup(dir, name) {
            Ok(ino) => {
                m.fs.truncate(ino)?;
                ino
            }
            Err(_) => {
                m.fs.create_file(dir, name, sysdefs::FileMode(0o755), &cred)?
            }
        };
        m.fs.write(ino, 0, bytes)?;
        Ok(())
    }

    /// Reads a file at an absolute local path on `mid` (no symlink
    /// following). The contents come back shared with the file, not
    /// copied; a later write to the file leaves them as they were.
    pub fn host_read_file(&self, mid: MachineId, path: &str) -> SysResult<Rc<Vec<u8>>> {
        let fs = &self.machines[mid].fs;
        fs.contents(host_walk(fs, path)?)
    }

    /// Installs an assembled program as an executable a.out file.
    pub fn install_program(
        &mut self,
        mid: MachineId,
        path: &str,
        obj: &m68vm::Object,
    ) -> SysResult<()> {
        self.host_write_file(mid, path, aout::encode_object(obj))
    }

    // ------------------------------------------------------------------
    // Pre-copy migration hooks: the protocol engine watches and drains a
    // running VM process's pages through these. Host-side state flips
    // carry no simulated cost — the engine charges every transferred
    // byte through `charge_kernel_rpc` itself.
    // ------------------------------------------------------------------

    /// Arms (or disarms) page-granular dirty tracking on a VM process.
    /// Arming starts with every page dirty — the first pre-copy round
    /// sends the whole image. Returns false for missing or non-VM pids.
    pub fn host_set_dirty_tracking(&mut self, mid: MachineId, pid: Pid, on: bool) -> bool {
        match self.proc_mut(mid, pid) {
            Some(p) => match &mut p.body {
                Body::Vm(vm) => {
                    if on {
                        vm.mem.enable_dirty_tracking();
                    } else {
                        vm.mem.disable_dirty_tracking();
                    }
                    true
                }
                _ => false,
            },
            None => false,
        }
    }

    /// Flips the freeze-mode flag: with it set, the next `SIGDUMP`
    /// writes a `deltaXXXXX` of the still-dirty pages instead of the
    /// full `a.outXXXXX`. Returns false for missing pids.
    pub fn host_set_dump_delta(&mut self, mid: MachineId, pid: Pid, on: bool) -> bool {
        match self.proc_mut(mid, pid) {
            Some(p) => {
                p.dump_delta = on;
                true
            }
            None => false,
        }
    }

    /// The fixed image geometry a pre-copy target needs before any page
    /// arrives: text bytes, entry point, machine id, and the data
    /// segment's placement. `None` for missing or non-VM pids.
    pub fn host_image_geometry(&self, mid: MachineId, pid: Pid) -> Option<ImageGeometry> {
        let p = self.proc_ref(mid, pid)?;
        let Body::Vm(vm) = &p.body else {
            return None;
        };
        Some(ImageGeometry {
            text: vm.mem.text().to_vec(),
            entry: vm.entry,
            machtype: match vm.isa_required {
                m68vm::IsaLevel::Isa1 => aout::MID_ISA1,
                m68vm::IsaLevel::Isa2 => aout::MID_ISA2,
            },
            data_base: vm.mem.data_base(),
            data_len: vm.mem.data().len() as u32,
        })
    }

    /// How many pages the process has dirtied since the last drain
    /// (0 when tracking is off or the pid is gone).
    pub fn host_dirty_count(&self, mid: MachineId, pid: Pid) -> usize {
        self.proc_ref(mid, pid)
            .and_then(|p| match &p.body {
                Body::Vm(vm) => Some(vm.mem.dirty_count()),
                _ => None,
            })
            .unwrap_or(0)
    }

    /// Drains one pre-copy round: takes the dirty set and returns each
    /// page's current bytes, bumping the source's `pages_precopied`.
    /// Tracking stays armed, so writes from here on dirty the next
    /// round's set.
    pub fn host_take_dirty_pages(&mut self, mid: MachineId, pid: Pid) -> Vec<(u32, Vec<u8>)> {
        let Some(p) = self.proc_mut(mid, pid) else {
            return Vec::new();
        };
        let Body::Vm(vm) = &mut p.body else {
            return Vec::new();
        };
        let pages: Vec<(u32, Vec<u8>)> = vm
            .mem
            .take_dirty()
            .into_iter()
            .filter_map(|pg| Some((pg, vm.mem.page_slice(pg)?.to_vec())))
            .collect();
        self.machines[mid].stats.pages_precopied += pages.len() as u64;
        pages
    }

    /// Fetches one absent page of a demand-restored process from the
    /// host side — the migration engine's residual drain, which pulls
    /// the pages the process has not happened to touch yet so the
    /// source dump can eventually be released. Charges a fault-consulted
    /// NFS read like the fault path does. Returns `None` when nothing is
    /// absent (or the pid is gone/non-VM), `Some(Ok(page))` on success,
    /// `Some(Err(e))` on a dropped RPC or an unreadable source dump.
    pub fn host_prefetch_absent_page(
        &mut self,
        mid: MachineId,
        pid: Pid,
    ) -> Option<SysResult<u32>> {
        let (page, len) = self.proc_ref(mid, pid).and_then(|p| match &p.body {
            Body::Vm(vm) if vm.residual.is_some() => {
                let page = vm.mem.first_absent_page()?;
                Some((page, residual_page_span(vm, page).1))
            }
            _ => None,
        })?;
        let rpc = self.charge_kernel_rpc(mid, pid, NfsOp::Read(len));
        let fetched = rpc.and_then(|()| self.fetch_residual_page(mid, pid, page));
        Some(fetched.map(|()| page))
    }

    /// Copies absent `page` of demand-restored `pid` from its source
    /// dump into the image: locates the page in the dump's data segment,
    /// bounds-checks it (`EIO` when the dump ends first), installs it
    /// straight from the dump's shared contents, and drops the residual
    /// dependency once no page is absent. Charges nothing; callers pay
    /// for the RPC their own way.
    fn fetch_residual_page(&mut self, mid: MachineId, pid: Pid, page: u32) -> SysResult<()> {
        let (dump, span) = {
            let Some(Body::Vm(vm)) = self.proc_ref(mid, pid).map(|p| &p.body) else {
                return Err(Errno::ESRCH);
            };
            let residual = vm.residual.as_ref().ok_or(Errno::ESRCH)?;
            let (page_off, len) = residual_page_span(vm, page);
            let off = residual.data_off + page_off;
            let fs = &self.machines[residual.server].fs;
            let dump = fs.contents(host_walk(fs, &residual.aout_path)?)?;
            if dump.len() < off + len {
                return Err(Errno::EIO);
            }
            (dump, off..off + len)
        };
        let m = &mut self.machines[mid];
        m.stats.pages_fetched += 1;
        if let Some(Body::Vm(vm)) = m.proc_mut(pid).map(|p| &mut p.body) {
            vm.mem.install_page(page, &dump[span]);
            if !vm.mem.has_absent() {
                vm.residual = None;
            }
        }
        Ok(())
    }

    /// True while `pid` on `mid` is a demand-restored image still
    /// missing pages.
    pub fn host_has_absent_pages(&self, mid: MachineId, pid: Pid) -> bool {
        self.proc_ref(mid, pid)
            .map(|p| match &p.body {
                Body::Vm(vm) => vm.mem.has_absent(),
                _ => false,
            })
            .unwrap_or(false)
    }

    // ------------------------------------------------------------------
    // Spawning.
    // ------------------------------------------------------------------

    fn fresh_user(&self, mid: MachineId, cred: Credentials, tty: Option<u32>) -> UserArea {
        let mut user = UserArea::new(
            cred,
            FileRef {
                machine: mid,
                ino: self.machines[mid].fs.root(),
            },
        );
        if self.config.track_names {
            // Inherited from init, whose boot-time chdir("/") initialised
            // the field.
            user.cwd_path = Some("/".to_string());
        }
        user.tty = tty;
        user
    }

    fn attach_stdio(&mut self, mid: MachineId, user: &mut UserArea, tty: Option<u32>) {
        let Some(tty) = tty else { return };
        let m = &mut self.machines[mid];
        let mut f = FileStruct::new(
            FileKind::Device(DeviceId::Tty(tty)),
            sysdefs::OpenFlags::RDWR,
        );
        if self.config.track_names {
            f.path = Some(format!("/dev/tty{tty}"));
        }
        let idx = m.files.insert(f);
        m.files.incref(idx);
        m.files.incref(idx);
        user.fds[0] = Some(idx);
        user.fds[1] = Some(idx);
        user.fds[2] = Some(idx);
    }

    fn insert_proc(
        &mut self,
        mid: MachineId,
        body: Body,
        user: UserArea,
        ppid: Pid,
        comm: &str,
    ) -> Pid {
        let pid = self.machines[mid].alloc_pid();
        let now = self.machines[mid].now;
        let proc = Proc::new(
            pid,
            ppid,
            ProcState::Runnable,
            body,
            user,
            now,
            comm.to_string(),
        );
        self.machines[mid].procs.insert(pid.as_u32(), proc);
        self.machines[mid].make_runnable(pid);
        // The machine gained work — enroll it in the ready index even
        // when the spawn comes from outside a scheduling slice.
        self.wake_queue.insert(mid);
        pid
    }

    /// Spawns a native (Rust) program, `move |sys| async move { … }`,
    /// as a process on `mid`.
    pub fn spawn_native_proc<F: std::future::Future<Output = u32> + 'static>(
        &mut self,
        mid: MachineId,
        comm: &str,
        tty: Option<u32>,
        cred: Credentials,
        prog: impl FnOnce(Sys) -> F + 'static,
    ) -> Pid {
        self.spawn_program(mid, comm, tty, cred, boxed(prog))
    }

    fn spawn_program(
        &mut self,
        mid: MachineId,
        comm: &str,
        tty: Option<u32>,
        cred: Credentials,
        prog: NativeProgram,
    ) -> Pid {
        let mut user = self.fresh_user(mid, cred, tty);
        self.attach_stdio(mid, &mut user, tty);
        let body = Body::Native(NativeBody::new(prog));
        self.insert_proc(mid, body, user, Pid::INIT, comm)
    }

    /// Spawns a VM program from an executable file on `mid`'s namespace.
    /// An idle `mid` first raises its clock to [`World::host_clock()`].
    pub fn spawn_vm_proc(
        &mut self,
        mid: MachineId,
        exe_path: &str,
        tty: Option<u32>,
        cred: Credentials,
    ) -> SysResult<Pid> {
        // The spawn happens at the host clock. An idle machine has no
        // event tying it to its own older clock, so it catches up first
        // and the process is born when the host last looked; a busy
        // machine keeps its clock, since its work still has to run.
        let m = &mut self.machines[mid];
        if !m.has_work() {
            m.now = m.now.max(self.host_clock);
        }
        let mut user = self.fresh_user(mid, cred, tty);
        self.attach_stdio(mid, &mut user, tty);
        let comm = exe_path.rsplit('/').next().unwrap_or(exe_path).to_string();
        let pid = self.insert_proc(mid, Body::Idle, user, Pid::INIT, &comm);
        // Boot-time load, not a trap: no entry hook, so no trap charge
        // or trace record — only the handler's own costs, as before.
        let mut cx = SysCtx::new(self, mid, pid);
        match crate::sys::exec::sys_execve(&mut cx, exe_path) {
            SyscallResult::Gone => Ok(pid),
            SyscallResult::Done(ret) => {
                let e = ret.val.err().unwrap_or(Errno::ENOEXEC);
                self.do_exit(mid, pid, 127);
                Err(e)
            }
            SyscallResult::Blocked => unreachable!("execve never blocks"),
        }
    }

    // ------------------------------------------------------------------
    // Exit.
    // ------------------------------------------------------------------

    /// Terminates a process: closes descriptors, records accounting,
    /// reparents children, wakes the parent.
    pub fn do_exit(&mut self, mid: MachineId, pid: Pid, status: u32) {
        // Close every descriptor (charging the owning process).
        let fds: Vec<usize> = match self.proc_ref(mid, pid) {
            Some(p) => p
                .user
                .fds
                .iter()
                .enumerate()
                .filter_map(|(i, s)| s.map(|_| i))
                .collect(),
            None => return,
        };
        {
            let mut cx = SysCtx::new(self, mid, pid);
            for fd in fds {
                let _ = crate::sys::fsops::close_common(&mut cx, fd);
            }
        }
        let c = self.config.cost.proc_teardown();
        self.charge_kernel(mid, pid, c);

        let (ppid, info) = {
            let m = &mut self.machines[mid];
            let now = m.now;
            let p = m.proc_mut(pid).expect("exiting process exists");
            p.state = ProcState::Zombie { status };
            // Dropping the body releases VM memory or drops the native
            // program where it is parked, so none of its code runs again.
            p.body = Body::Idle;
            p.pending_syscall = None;
            // A zombie keeps no timer, as 4.2BSD's exit() untimeouts
            // the real-time alarm: the heap entry goes stale.
            p.alarm_at = None;
            (
                p.ppid,
                ExitInfo {
                    status,
                    utime: p.utime,
                    stime: p.stime,
                    started: p.start_time,
                    ended: now,
                },
            )
        };
        self.finished.insert((mid, pid.as_u32()), info);
        // Anyone in RemoteWait on this process can now complete.
        self.wakeup(WaitChan::Remote(mid, pid.as_u32()));
        {
            let m = &mut self.machines[mid];
            m.run_queue.retain(|&q| q != pid);
            if m.last_run == Some(pid) {
                m.last_run = None;
            }
            // Reparent children to init.
            let child_pids: Vec<u32> = m
                .procs
                .values()
                .filter(|p| p.ppid == pid && p.pid != pid)
                .map(|p| p.pid.as_u32())
                .collect();
            for cp in child_pids {
                if let Some(c) = m.procs.get_mut(&cp) {
                    c.ppid = Pid::INIT;
                    // Zombie orphans are reaped by init immediately.
                    if matches!(c.state, ProcState::Zombie { .. }) {
                        m.procs.remove(&cp);
                    }
                }
            }
        }
        // Wake a waiting parent and post SIGCHLD.
        if ppid != Pid::INIT {
            let wake = {
                let m = &self.machines[mid];
                m.proc_ref(ppid)
                    .map(|p| matches!(p.state, ProcState::ChildWait))
                    .unwrap_or(false)
            };
            if let Some(parent) = self.proc_mut(mid, ppid) {
                parent.post_signal(Signal::SIGCHLD);
            }
            if wake {
                self.machines[mid].make_runnable(ppid);
            }
            // Parents waiting with signals blocked, or racing into
            // ChildWait, are caught by the poke at the next service.
            self.poke_proc(mid, ppid);
        } else {
            // Children of init: reap immediately.
            self.machines[mid].procs.remove(&pid.as_u32());
        }
        // An exit can change the machine's work state (last runnable
        // process gone) even outside a scheduling slice.
        self.wake_queue.insert(mid);
    }

    /// Parks a VM process that faulted on an absent page of its
    /// demand-restored image: the residual-page fetch is in flight, and
    /// the process sleeps out the RPC's latency on the timer heap (the
    /// same lazy-deletion discipline as `sleep`). The pc sits on the
    /// faulting instruction — or on the trap whose argument spans the
    /// page — so the wake replays it.
    pub(crate) fn park_page_fetch(&mut self, mid: MachineId, pid: Pid, addr: u32) {
        let page = m68vm::MemoryLayout::page_of(addr);
        let len = self
            .proc_ref(mid, pid)
            .and_then(|p| match &p.body {
                Body::Vm(vm) => Some(residual_page_span(vm, page).1),
                _ => None,
            })
            .unwrap_or(m68vm::MemoryLayout::PAGE as usize);
        let cost = NfsOp::Read(len).cost(&self.config.cost, &mut self.ether);
        let m = &mut self.machines[mid];
        let until = m.now + cost.cpu + cost.wait;
        if let Some(p) = m.proc_mut(pid) {
            p.state = ProcState::PageWait { until, addr };
        }
        m.push_timer(pid, until);
        self.wake_queue.insert(mid);
    }

    /// Completes (or retries, or abandons) a parked residual-page
    /// fetch: the page travels from the source machine's dump file into
    /// the waiting image. A fault-plan drop at the `page-fetch` site
    /// costs the soft-mount window and retries; three consecutive drops
    /// — or a vanished/torn dump — declare the residual dependency dead
    /// and kill the process, leaving the source dump as the single
    /// recoverable copy (the migration engine restarts from it).
    fn complete_page_fetch(&mut self, mid: MachineId, pid: Pid, addr: u32) {
        /// Consecutive timed-out fetches before the kernel gives up on
        /// the source (matches the migration engine's transient-retry
        /// budget).
        const PAGE_FETCH_TRIES: u32 = 3;

        let page = m68vm::MemoryLayout::page_of(addr);
        // The page may have landed while we were parked (the migration
        // engine's drain prefetches absent pages from the host side);
        // nothing left to fetch, just resume.
        let already_resident = self
            .proc_ref(mid, pid)
            .map(|p| match &p.body {
                Body::Vm(vm) => !vm.mem.is_absent(page),
                _ => false,
            })
            .unwrap_or(false);
        if already_resident {
            self.machines[mid].make_runnable(pid);
            return;
        }
        let tries = self.proc_ref(mid, pid).and_then(|p| match &p.body {
            Body::Vm(vm) => vm.residual.as_ref().map(|r| r.tries),
            _ => None,
        });
        let Some(tries) = tries else {
            self.kill_residual(mid, pid);
            return;
        };
        if self
            .fault_fire(FaultSite::PageFetch, mid, pid, Errno::ETIMEDOUT)
            .is_some()
        {
            let until = self.machines[mid].now + SimDuration::micros(simnet::NFS_SOFT_TIMEOUT_US);
            let give_up = tries + 1 >= PAGE_FETCH_TRIES;
            if let Some(p) = self.proc_mut(mid, pid) {
                if let Body::Vm(vm) = &mut p.body {
                    if let Some(r) = &mut vm.residual {
                        r.tries += 1;
                    }
                }
            }
            if give_up {
                self.kill_residual(mid, pid);
            } else {
                let m = &mut self.machines[mid];
                if let Some(p) = m.proc_mut(pid) {
                    p.state = ProcState::PageWait { until, addr };
                }
                m.push_timer(pid, until);
            }
            return;
        }
        if self.fetch_residual_page(mid, pid, page).is_err() {
            self.kill_residual(mid, pid);
            return;
        }
        let m = &mut self.machines[mid];
        m.stats.nfs_rpcs += 1;
        if let Some(Body::Vm(vm)) = m.proc_mut(pid).map(|p| &mut p.body) {
            if let Some(r) = &mut vm.residual {
                r.tries = 0;
            }
        }
        m.make_runnable(pid);
    }

    /// Kills a demand-restored process whose residual dependency
    /// failed: without its source dump the copy on this machine cannot
    /// make progress, and the dump remains the one recoverable copy.
    /// The kill is recorded in `Machine::residual_kills`, which is how
    /// the migration engine tells it from any other end of the copy.
    fn kill_residual(&mut self, mid: MachineId, pid: Pid) {
        if let Some(p) = self.proc_mut(mid, pid) {
            p.post_signal(Signal::SIGKILL);
        }
        self.machines[mid].residual_kills.insert(pid.as_u32());
        self.machines[mid].make_runnable(pid);
        self.poke_proc(mid, pid);
    }

    /// Interprets VM instructions for up to one quantum and returns the
    /// user time it ran, for the caller to charge.
    ///
    /// The body is borrowed in place, its CPU, memory image and
    /// predecoded instruction cache as three disjoint borrows, so the
    /// interpreter's inner loop touches nothing else — no per-step
    /// process lookup, no signal poll — and no process state is copied
    /// out of the table or back. The process table is re-entered only at
    /// trap and fault boundaries. The world is single-threaded, so
    /// nothing can post a signal while the interpreter runs: only a
    /// syscall dispatched *from this loop* can, and every such path
    /// returns to the top of `'quantum`, which checks for pending
    /// signals before it borrows the body again.
    ///
    /// Kept out of line: inlined into `step_machine`, the quantum loop
    /// compiled differently and `protocols`, where interpretation is
    /// most of the host time, lost 2–6% of `ops_per_ref_s`.
    #[inline(never)]
    fn run_vm_quantum(&mut self, mid: MachineId, pid: Pid) -> SimDuration {
        let isa = self.machines[mid].isa;
        let quantum_units = self.config.cost.quantum_us / self.config.cost.instr_us.max(1);
        let use_superblocks = self.config.use_superblocks;
        let mut spent: u64 = 0;
        // Units retired through the superblock engine this quantum
        // (host observability; folded into stats once at the end).
        let mut sb_retired: u64 = 0;

        enum Pause {
            Quantum,
            Event(StepEvent),
        }

        'quantum: while let Some(p) = self.machines[mid].proc_mut(pid) {
            // Check for pending signals exactly where the per-step loop
            // used to.
            if p.signal_pending() {
                break;
            }
            let Body::Vm(crate::proc::VmBody {
                cpu, mem, icache, ..
            }) = &mut p.body
            else {
                break;
            };
            let icache = icache.as_deref();
            // Superblocks need the icache; a demand-restored image runs
            // on them like any other, because every tier faults on an
            // absent page precisely (the CPU is left as it was before
            // the instruction).
            let pause = match icache {
                Some(ic) if use_superblocks => {
                    // Run whole fused blocks up to the quantum's end. The
                    // engine retires a block only when it fits the
                    // remaining budget and single-steps otherwise, so the
                    // pause lands on exactly the instruction the slot
                    // loop would pause on — simtime and ktrace
                    // bit-identical.
                    let budget = quantum_units.saturating_sub(spent);
                    let (used, exit) = cpu.step_superblock(mem, ic, budget);
                    spent += used;
                    sb_retired += used;
                    match exit {
                        m68vm::SbExit::Paused => Pause::Quantum,
                        // Block totals already include the trap's units
                        // (counted in `used`), so the event carries 0.
                        m68vm::SbExit::Trap { vector } => {
                            Pause::Event(StepEvent::Trap { vector, units: 0 })
                        }
                        m68vm::SbExit::Faulted(f) => Pause::Event(StepEvent::Faulted(f)),
                    }
                }
                _ => loop {
                    let ev = match icache {
                        Some(ic) => cpu.step_cached(mem, ic),
                        None => cpu.step(mem, isa),
                    };
                    match ev {
                        StepEvent::Executed { units } => {
                            spent += units as u64;
                            if spent >= quantum_units {
                                break Pause::Quantum;
                            }
                        }
                        other => break Pause::Event(other),
                    }
                },
            };
            match pause {
                Pause::Quantum => break 'quantum,
                Pause::Event(StepEvent::Trap { vector: 0, units }) => {
                    spent += units as u64;
                    if let Some(addr) = vmabi::absent_arg(cpu, mem) {
                        // An argument lies in a page still at the
                        // source: back up over the trap and fault
                        // the page in, so the call re-runs (and is
                        // charged again) once the page is resident.
                        cpu.pc = cpu.pc.wrapping_sub(vmabi::TRAP_LEN);
                        self.park_page_fetch(mid, pid, addr);
                        break 'quantum;
                    }
                    match vmabi::decode_trap(cpu, mem) {
                        Err(e) => vmabi::write_errno(cpu, e),
                        Ok(sc) => match dispatch(self, mid, pid, &sc) {
                            SyscallResult::Done(ret) => {
                                let body = self.machines[mid].proc_mut(pid).map(|p| &mut p.body);
                                if let Some(Body::Vm(vm)) = body {
                                    vmabi::writeback(&mut vm.cpu, &mut vm.mem, &sc, &ret);
                                }
                            }
                            // dispatch() saved the pending call and the
                            // restart pc.
                            SyscallResult::Blocked => break 'quantum,
                            SyscallResult::Gone => break 'quantum,
                        },
                    }
                    if spent >= quantum_units {
                        break 'quantum;
                    }
                }
                Pause::Event(StepEvent::Trap { units, .. }) => {
                    // Unknown trap vector: SIGSYS.
                    spent += units as u64;
                    p.post_signal(Signal::SIGSYS);
                    break 'quantum;
                }
                Pause::Event(StepEvent::Faulted(m68vm::Fault::PageAbsent { addr })) => {
                    // Not an error: park for the residual-page fetch.
                    // The fault left the CPU at the faulting
                    // instruction, unexecuted, so the wake replays it.
                    self.park_page_fetch(mid, pid, addr);
                    break 'quantum;
                }
                Pause::Event(StepEvent::Faulted(f)) => {
                    let sig = match f {
                        m68vm::Fault::Unmapped { .. } | m68vm::Fault::StackOverflow { .. } => {
                            Signal::SIGSEGV
                        }
                        m68vm::Fault::WriteToText { .. } => Signal::SIGBUS,
                        m68vm::Fault::IllegalInstruction { .. }
                        | m68vm::Fault::IsaViolation { .. } => Signal::SIGILL,
                        m68vm::Fault::DivZero { .. } => Signal::SIGFPE,
                        m68vm::Fault::PageAbsent { .. } => {
                            unreachable!("PageAbsent is handled above")
                        }
                    };
                    p.post_signal(sig);
                    break 'quantum;
                }
                Pause::Event(StepEvent::Executed { .. }) => {
                    unreachable!("Executed is handled in the slot loop")
                }
            }
        }
        if sb_retired > 0 {
            self.machines[mid].stats.sb_retired += sb_retired;
        }
        SimDuration::micros(spent * self.config.cost.instr_us)
    }

    /// Services native requests for one scheduling slice: polls the
    /// program on this thread up to 64 times, each poll running it to its
    /// next request.
    fn run_native_quantum(&mut self, mid: MachineId, pid: Pid) {
        for _ in 0..64 {
            let Some(Body::Native(native)) = self.proc_mut(mid, pid).map(|p| &mut p.body) else {
                return;
            };
            let req = native.next_request();
            let via_daemon = matches!(req, Request::Daemon { .. });
            // A little user-level CPU per call (libc and argument
            // marshalling).
            self.machines[mid].charge_user(pid, SimDuration::micros(50));
            let ret = match req {
                Request::Syscall(sc) => match dispatch(self, mid, pid, &sc) {
                    SyscallResult::Done(ret) => ret,
                    // dispatch() saved the pending call; complete_pending
                    // stores the reply when it finishes.
                    SyscallResult::Blocked => return,
                    // exit, or an execve/rest_proc overlay: the body was
                    // replaced, and the program dropped with it.
                    SyscallResult::Gone => return,
                },
                Request::Compute { units } => {
                    let cpu = SimDuration::micros(units * self.config.cost.instr_us);
                    self.machines[mid].charge_user(pid, cpu);
                    SysRetval::ok(0)
                }
                Request::RunLocal { prog, comm } => {
                    self.spawn_and_wait(mid, pid, None, &comm, prog);
                    return;
                }
                Request::Rsh { host, prog, comm } | Request::Daemon { host, prog, comm } => {
                    match self.connect_remote(mid, pid, &host, via_daemon) {
                        Ok(server) => {
                            self.spawn_and_wait(mid, pid, Some((server, via_daemon)), &comm, prog);
                            return;
                        }
                        Err(e) => SysRetval::err(e),
                    }
                }
            };
            self.native_reply(mid, pid, ret);
        }
    }

    /// Sets up a remote start for native caller `pid` on `mid`, charged
    /// to the caller: one message to the migration daemon's well-known
    /// port plus its fork/exec of the command, or the four phases of an
    /// `rsh` session. Any step can fail under the fault plan (daemon
    /// port dead, rshd unreachable, `.rhosts` refusal, remote fork
    /// failure); the caller pays for every step up to the one that died.
    fn connect_remote(
        &mut self,
        mid: MachineId,
        pid: Pid,
        host: &str,
        via_daemon: bool,
    ) -> SysResult<MachineId> {
        let server = self.find_machine(host).ok_or(Errno::EHOSTUNREACH)?;
        let step = |w: &mut World, cost: Cost| {
            w.machines[mid].charge_sys(Some(pid), cost);
            match w.fault_fire(FaultSite::Rsh, mid, pid, Errno::EHOSTDOWN) {
                Some(_) => Err(Errno::EHOSTDOWN),
                None => Ok(()),
            }
        };
        if via_daemon {
            let msg = self.ether.send(&self.config.cost, 256);
            step(self, msg)?;
            let fork_exec = Cost::cpu_us(20_000).plus(Cost::wait_us(100_000));
            self.machines[mid].charge_sys(Some(pid), fork_exec);
        } else {
            for phase in [
                RshPhase::NameLookup,
                RshPhase::Connect,
                RshPhase::Auth,
                RshPhase::Spawn,
            ] {
                step(self, phase.cost(&self.config.cost))?;
            }
        }
        Ok(server)
    }

    /// Starts native command `prog` for caller `pid` on `mid` and parks
    /// the caller in `RemoteWait` until it exits or is overlaid. A local
    /// start (`remote` is `None`) shares the caller's terminal. A remote
    /// start on `(server, via_daemon)` begins no earlier than the
    /// caller's clock, and the command gets a degraded pipe terminal, as
    /// rshd gives it: the reason `migrate` cannot preserve terminal
    /// modes remotely.
    fn spawn_and_wait(
        &mut self,
        mid: MachineId,
        pid: Pid,
        remote: Option<(MachineId, bool)>,
        comm: &str,
        prog: NativeProgram,
    ) {
        let (server, tty) = match remote {
            None => (mid, self.proc_ref(mid, pid).and_then(|p| p.user.tty)),
            Some((server, _)) => {
                let client_now = self.machines[mid].now;
                let s = &mut self.machines[server];
                s.now = s.now.max(client_now);
                (server, Some(self.add_remote_pipe().0))
            }
        };
        let cred = self
            .cred_of(mid, pid)
            .unwrap_or_else(|_| Credentials::root());
        let child = self.spawn_program(server, comm, tty, cred, prog);
        if let Some((_, true)) = remote {
            self.daemon_waiters.insert((mid, pid.as_u32()));
        }
        if let Some(p) = self.proc_mut(mid, pid) {
            p.state = ProcState::RemoteWait { server, pid: child };
        }
        self.sleep_on(WaitChan::Remote(server, child.as_u32()), mid, pid);
    }

    /// Stores a reply in a native process's mailbox.
    fn native_reply(&mut self, mid: MachineId, pid: Pid, ret: SysRetval) {
        if let Some(Body::Native(native)) = self.proc_mut(mid, pid).map(|p| &mut p.body) {
            native.reply(ret);
        }
    }

    /// Reaps a zombie from outside (tests and the figure harness).
    pub fn host_reap(&mut self, mid: MachineId, pid: Pid) {
        let ppid = self.proc_ref(mid, pid).map(|p| p.ppid);
        self.machines[mid].procs.remove(&pid.as_u32());
        // Losing a child can wake a ChildWait parent (the
        // no-children-left arm of the wake condition).
        if let Some(ppid) = ppid {
            self.poke_proc(mid, ppid);
        }
    }

    /// A `ps`-style listing of a machine's processes, for diagnostics,
    /// examples and the interactive driver.
    pub fn ps(&self, mid: MachineId) -> String {
        let m = &self.machines[mid];
        let mut out = format!(
            "{:<6} {:<6} {:<10} {:>10} {:>10} {:<12} COMM\n",
            "PID", "PPID", "STATE", "UTIME", "STIME", "TTY"
        );
        for p in m.procs.values() {
            let state = match &p.state {
                ProcState::Runnable => "run".to_string(),
                ProcState::Sleeping { .. } => "sleep".to_string(),
                ProcState::TtyWait { .. } => "ttyin".to_string(),
                ProcState::PipeWait => "pipe".to_string(),
                ProcState::ChildWait => "wait".to_string(),
                ProcState::RemoteWait { .. } => "remote".to_string(),
                ProcState::PageWait { .. } => "pagein".to_string(),
                ProcState::Stopped => "stopped".to_string(),
                ProcState::Zombie { status } => format!("zombie({status})"),
            };
            let tty = p
                .user
                .tty
                .map(|t| format!("tty{t}"))
                .unwrap_or_else(|| "-".to_string());
            out.push_str(&format!(
                "{:<6} {:<6} {:<10} {:>10} {:>10} {:<12} {}\n",
                p.pid.as_u32(),
                p.ppid.as_u32(),
                state,
                p.utime.to_string(),
                p.stime.to_string(),
                tty,
                p.comm
            ));
        }
        out
    }

    /// Posts a signal from outside the simulation (tests and the figure
    /// harness), bypassing credential checks like a console operator.
    pub fn host_post_signal(&mut self, mid: MachineId, pid: Pid, sig: Signal) {
        if let Some(p) = self.proc_mut(mid, pid) {
            if sig == Signal::SIGCONT && matches!(p.state, ProcState::Stopped) {
                p.state = ProcState::Runnable;
            }
            p.post_signal(sig);
        }
        self.machines[mid].nudge(pid);
        self.poke_proc(mid, pid);
    }

    /// Per-host run-queue depth, served straight from the scheduler's
    /// own queues (no process-table walk) — the `simsh load` view.
    pub fn run_queue_depths(&self) -> Vec<usize> {
        self.machines.iter().map(|m| m.run_queue_depth()).collect()
    }
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("machines", &self.machines.len())
            .field("terminals", &self.terminals.len())
            .field("finished", &self.finished.len())
            .finish()
    }
}
