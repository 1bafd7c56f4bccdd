//! One workstation: filesystem, process table, open-file table, clock.

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};

use m68vm::IsaLevel;
use simtime::cost::Cost;
use simtime::{SimDuration, SimTime};
use sysdefs::{Credentials, FileMode, Pid, Sysno, SYSCALL_ROWS_BY_NAME, SYSCALL_TABLE};
use vfs::{DeviceId, Filesystem, Ino};

use crate::file::FileTable;
use crate::proc::Proc;
use crate::proctable::ProcTable;

fn cred_key(cred: &Credentials) -> (u32, u32, u32, u32) {
    (
        cred.ruid.as_u32(),
        cred.euid.as_u32(),
        cred.rgid.as_u32(),
        cred.egid.as_u32(),
    )
}

/// One cached `namei` root-walk: the resolution of the client-side
/// `/n` component every NFS path starts with. Valid only while the
/// filesystem generation and the resolving credentials both match; the
/// cache elides the host-side directory walk but the caller still
/// charges the component exactly as an uncached resolution would, so
/// simulated time is unaffected (a pure host-cost cache).
#[derive(Clone, Copy, Debug)]
pub(crate) struct NameiCache {
    /// [`vfs::Filesystem::generation`] at fill time.
    pub gen: u64,
    /// Raw (ruid, euid, rgid, egid) of the credentials that walked.
    pub cred: (u32, u32, u32, u32),
    /// The resolved inode of `/n`.
    pub ino: Ino,
}

/// Index of a machine within the world.
pub type MachineId = usize;

/// Identity of a byte queue a `PipeWait` process can park on, within a
/// machine: the scheduler's `Queue` wait channel names one. Sleepers
/// are indexed per *object*, not per direction: a wakeup re-evaluates
/// both readers and writers of the queue, which the wake check then
/// filters precisely.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum QueueId {
    /// A pipe, by slot in [`Machine::pipes`].
    Pipe(usize),
    /// A socket pair, by slot in [`Machine::sockets`].
    Socket(usize),
}

/// A byte queue shared by pipe/socket endpoints.
#[derive(Clone, Debug, Default)]
pub struct PipeBuf {
    /// Buffered bytes.
    pub data: VecDeque<u8>,
    /// Live read-side references.
    pub readers: u32,
    /// Live write-side references.
    pub writers: u32,
}

impl PipeBuf {
    /// Buffer capacity, as in 4.2BSD.
    const CAPACITY: usize = 4096;

    /// How many bytes of a `len`-byte write the buffer takes now, or
    /// `None` while the writer must wait. A write of up to
    /// [`PipeBuf::CAPACITY`] bytes goes in whole or not at all; a larger
    /// one takes what fits and waits only while the buffer is full.
    pub(crate) fn write_room(&self, len: usize) -> Option<usize> {
        let free = Self::CAPACITY.saturating_sub(self.data.len());
        if len <= free {
            Some(len)
        } else if len > Self::CAPACITY && free > 0 {
            Some(free)
        } else {
            None
        }
    }
}

/// A connected socket pair: two one-directional byte queues.
#[derive(Clone, Debug, Default)]
pub struct SocketPair {
    /// `bufs[0]` carries side-0-to-side-1 traffic; `bufs[1]` the reverse.
    pub bufs: [PipeBuf; 2],
}

/// Per-syscall aggregate, maintained by the dispatcher's exit hook.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SyscallAgg {
    /// Dispatch attempts (blocked retries count, like `syscalls`).
    pub count: u64,
    /// Total simtime charged across attempts, micro-seconds.
    pub total_us: u64,
    /// The single most expensive attempt, micro-seconds.
    pub max_us: u64,
}

impl SyscallAgg {
    /// Folds one dispatch attempt's charge into the aggregate.
    pub fn note(&mut self, charged_us: u64) {
        self.count += 1;
        self.total_us += charged_us;
        self.max_us = self.max_us.max(charged_us);
    }
}

/// Per-machine event counters.
#[derive(Clone, Debug, Default)]
pub struct MachineStats {
    /// System calls executed.
    pub syscalls: u64,
    /// Context switches performed.
    pub ctx_switches: u64,
    /// Signals delivered.
    pub signals: u64,
    /// NFS RPCs issued as a client.
    pub nfs_rpcs: u64,
    /// Forks.
    pub forks: u64,
    /// Successful `execve`s (including from `rest_proc`).
    pub execs: u64,
    /// `SIGDUMP` dumps written.
    pub dumps: u64,
    /// `rest_proc` restores completed.
    pub restores: u64,
    /// Faults injected by the world's [`simnet::FaultPlan`].
    pub faults_injected: u64,
    /// Pages shipped by pre-copy migration rounds while this machine was
    /// the source (final frozen delta included).
    pub pages_precopied: u64,
    /// Residual pages fetched on demand-restore page faults while this
    /// machine was the target.
    pub pages_fetched: u64,
    /// Instruction units retired through the superblock engine (fused
    /// blocks plus its slot-by-slot fallback steps). Host-side
    /// observability only: the count exists solely when
    /// [`crate::KernelConfig::use_superblocks`] is on, which must not
    /// change the trajectory, so this field is excluded from
    /// determinism snapshots (pure cache, like `m68vm`'s icache).
    pub sb_retired: u64,
    /// Kernel-side per-syscall aggregates (count, total and max charged
    /// simtime), one per trap-table row, read by name.
    pub per_syscall: SyscallStats,
}

/// The per-syscall aggregates, one slot per [`SYSCALL_TABLE`] row, so
/// the dispatcher's exit hook folds an attempt in by row index. They
/// read as a name-keyed map: [`SyscallStats::get`] and `stats["name"]`
/// look a call up by trap-table name, and iteration yields
/// `(name, aggregate)` in name order over the calls made at least
/// once, the order the figures JSON and the determinism snapshot
/// print.
#[derive(Clone, PartialEq, Eq)]
pub struct SyscallStats {
    rows: [SyscallAgg; SYSCALL_TABLE.len()],
}

impl Default for SyscallStats {
    fn default() -> SyscallStats {
        SyscallStats {
            rows: [SyscallAgg::default(); SYSCALL_TABLE.len()],
        }
    }
}

impl SyscallStats {
    /// Folds one dispatch attempt of call `no` into its row.
    pub(crate) fn note(&mut self, no: Sysno, charged_us: u64) {
        self.rows[no.row()].note(charged_us);
    }

    /// The aggregate of the call named `name`, or `None` when it was
    /// never made (or no trap-table row carries that name).
    pub fn get(&self, name: &str) -> Option<&SyscallAgg> {
        let row = SYSCALL_TABLE.iter().position(|m| m.name == name)?;
        Some(&self.rows[row]).filter(|agg| agg.count > 0)
    }

    /// `(name, aggregate)` in name order over the calls made at least
    /// once.
    pub fn iter(&self) -> SyscallStatsIter<'_> {
        SyscallStatsIter {
            stats: self,
            next: 0,
        }
    }
}

impl std::ops::Index<&str> for SyscallStats {
    type Output = SyscallAgg;

    /// # Panics
    ///
    /// Panics for a call that was never made.
    fn index(&self, name: &str) -> &SyscallAgg {
        self.get(name)
            .unwrap_or_else(|| panic!("no syscall named {name:?} was made"))
    }
}

impl<'a> IntoIterator for &'a SyscallStats {
    type Item = (&'static str, &'a SyscallAgg);
    type IntoIter = SyscallStatsIter<'a>;

    fn into_iter(self) -> SyscallStatsIter<'a> {
        self.iter()
    }
}

impl std::fmt::Debug for SyscallStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// [`SyscallStats::iter`]: walks [`SYSCALL_ROWS_BY_NAME`], skipping
/// calls never made.
#[derive(Clone, Debug)]
pub struct SyscallStatsIter<'a> {
    stats: &'a SyscallStats,
    /// The next position in [`SYSCALL_ROWS_BY_NAME`].
    next: usize,
}

impl<'a> Iterator for SyscallStatsIter<'a> {
    type Item = (&'static str, &'a SyscallAgg);

    fn next(&mut self) -> Option<Self::Item> {
        while let Some(&row) = SYSCALL_ROWS_BY_NAME.get(self.next) {
            self.next += 1;
            let agg = &self.stats.rows[row];
            if agg.count > 0 {
                return Some((SYSCALL_TABLE[row].name, agg));
            }
        }
        None
    }
}

/// Kernel-side timing of one system call (the paper's Fig. 3 is
/// measured "by adding timing code inside the kernel, as these system
/// calls destroy the process that invoked them").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CallTiming {
    /// CPU time charged during the call.
    pub cpu: SimDuration,
    /// Elapsed real time of the call.
    pub real: SimDuration,
}

/// One workstation.
#[derive(Debug)]
pub struct Machine {
    /// Index within the world.
    pub id: MachineId,
    /// Host name.
    pub name: String,
    /// CPU generation: programs requiring a superset ISA fault here.
    pub isa: IsaLevel,
    /// The local filesystem.
    pub fs: Filesystem,
    /// Process table, keyed by pid and found by hashing it.
    pub procs: ProcTable,
    /// Run queue (round robin).
    pub run_queue: VecDeque<Pid>,
    /// The machine-wide open-file table.
    pub files: FileTable,
    /// NFS mounts: host name to machine id, realised under `/n/<host>`.
    pub mounts: BTreeMap<String, MachineId>,
    /// This machine's local clock.
    pub now: SimTime,
    /// Cumulative CPU-busy time (for load statistics).
    pub busy: SimDuration,
    /// The last process that held the CPU (context-switch accounting).
    pub last_run: Option<Pid>,
    /// Pipe buffers.
    pub pipes: Vec<Option<PipeBuf>>,
    /// Socket pairs.
    pub sockets: Vec<Option<SocketPair>>,
    /// §5.2: the global flag `execve()` checks — "if set, indicates that
    /// it is called from within `rest_proc()`".
    pub exec_mig_flag: bool,
    /// §5.2: the companion global holding the exact initial stack to
    /// allocate ("as many bytes as are indicated in another global
    /// variable").
    pub exec_mig_stack: Vec<u8>,
    /// Paths whose inodes are in the buffer cache (namei warm set).
    /// Ordered on purpose: a hash set's iteration order varies run to
    /// run, and nothing in the hottest kernel structure may be a
    /// determinism hazard (enforced by simlint's determinism rule).
    pub warm_paths: BTreeSet<String>,
    /// Event counters.
    pub stats: MachineStats,
    /// The deterministic syscall trace ring (see [`crate::ktrace`]).
    pub ktrace: crate::ktrace::Ktrace,
    /// Peak kernel memory held by file-name strings (§5.1 memory
    /// argument / A3 ablation).
    pub name_bytes_peak: usize,
    /// Kernel timing of the last successful `execve` (Fig. 3).
    pub last_execve: Option<CallTiming>,
    /// Kernel timing of the last successful `rest_proc` (Fig. 3).
    pub last_rest_proc: Option<CallTiming>,
    /// User-level time the last `rest_proc` caller had consumed before
    /// entering the call (the `restart` application's own share).
    pub last_rest_caller: Option<CallTiming>,
    /// Pending sleep/alarm deadlines as a min-heap of `(when, pid)`.
    /// Entries are never removed eagerly — a wake, an `alarm(0)` reset
    /// or an exit just leaves a stale entry behind, which
    /// [`Machine::next_deadline`] discards when it surfaces (lazy
    /// deletion). This replaces a full process-table scan on every
    /// idle-clock jump.
    timers: BinaryHeap<Reverse<(SimTime, u32)>>,
    /// Blocked pids whose wait condition may have changed since the
    /// machine was last serviced. Pid-ordered so the wake pass evaluates
    /// candidates in a fixed order, the process table's.
    pub(crate) wait_pending: BTreeSet<u32>,
    /// Pids the kernel killed because their demand-restored image could
    /// not be completed (three page-fetch strikes, or a vanished or torn
    /// source dump). Only these send the migration engine back to the
    /// source dump; any other end of a target copy completes the
    /// migration.
    pub residual_kills: BTreeSet<u32>,
    /// Single-entry root-walk cache for `namei` (host cost only).
    pub(crate) namei_cache: Cell<Option<NameiCache>>,
    /// The inode of `/n`, where remote mounts attach.
    pub n_dir: Ino,
    /// The inode of `/dev`.
    pub dev_dir: Ino,
    /// The inode of `/usr/tmp`, where migration dumps land.
    pub dump_dir: Ino,
    next_pid: u32,
}

/// The name prefixes a `SIGDUMP` artifact can carry in `/usr/tmp`.
const DUMP_ARTIFACT_PREFIXES: [&str; 4] = ["a.out", "files", "stack", "delta"];

/// Parses `a.outXXXXX`/`filesXXXXX`/`stackXXXXX`/`deltaXXXXX` into the
/// pid the artifact belongs to; anything else is `None`. The suffix must
/// be one `{pid:05}` writes: five digits, or more without a leading zero
/// once the pid passes 99,999, so the pid names the artifact back.
pub(crate) fn dump_artifact_pid(name: &str) -> Option<u32> {
    let suffix = DUMP_ARTIFACT_PREFIXES
        .iter()
        .find_map(|p| name.strip_prefix(p))?;
    let width_ok = suffix.len() == 5 || (suffix.len() > 5 && !suffix.starts_with('0'));
    if width_ok && suffix.bytes().all(|b| b.is_ascii_digit()) {
        suffix.parse().ok()
    } else {
        None
    }
}

impl Machine {
    /// Boots a machine: builds the filesystem skeleton (`/dev`, `/usr`,
    /// `/usr/tmp`, `/etc`, `/bin`, `/u`, `/tmp`, `/n`) and devices.
    pub fn boot(id: MachineId, name: &str, isa: IsaLevel) -> Machine {
        let mut fs = Filesystem::new();
        let root_cred = Credentials::root();
        let root = fs.root();
        let dev_dir = fs
            .mkdir(root, "dev", FileMode::DIR_DEFAULT, &root_cred)
            .expect("mkdir /dev");
        fs.mknod(dev_dir, "null", DeviceId::Null, &root_cred)
            .expect("mknod /dev/null");
        let usr = fs
            .mkdir(root, "usr", FileMode::DIR_DEFAULT, &root_cred)
            .expect("mkdir /usr");
        let dump_dir = fs
            .mkdir(usr, "tmp", FileMode(0o777), &root_cred)
            .expect("mkdir /usr/tmp");
        fs.mkdir(root, "etc", FileMode::DIR_DEFAULT, &root_cred)
            .expect("mkdir /etc");
        fs.mkdir(root, "bin", FileMode::DIR_DEFAULT, &root_cred)
            .expect("mkdir /bin");
        fs.mkdir(root, "u", FileMode(0o777), &root_cred)
            .expect("mkdir /u");
        fs.mkdir(root, "tmp", FileMode(0o777), &root_cred)
            .expect("mkdir /tmp");
        let n_dir = fs
            .mkdir(root, "n", FileMode::DIR_DEFAULT, &root_cred)
            .expect("mkdir /n");
        Machine {
            id,
            name: name.to_string(),
            isa,
            fs,
            procs: ProcTable::new(),
            run_queue: VecDeque::new(),
            files: FileTable::new(),
            mounts: BTreeMap::new(),
            now: SimTime::BOOT,
            busy: SimDuration::ZERO,
            last_run: None,
            pipes: Vec::new(),
            sockets: Vec::new(),
            exec_mig_flag: false,
            exec_mig_stack: Vec::new(),
            warm_paths: BTreeSet::new(),
            stats: MachineStats::default(),
            ktrace: crate::ktrace::Ktrace::default(),
            name_bytes_peak: 0,
            last_execve: None,
            last_rest_proc: None,
            last_rest_caller: None,
            timers: BinaryHeap::new(),
            wait_pending: BTreeSet::new(),
            residual_kills: BTreeSet::new(),
            namei_cache: Cell::new(None),
            n_dir,
            dev_dir,
            dump_dir,
            next_pid: 2, // 1 is init.
        }
    }

    /// Whether the scheduler has anything to do here: a runnable process
    /// or a pending sleep/alarm deadline.
    pub(crate) fn has_work(&mut self) -> bool {
        !self.run_queue.is_empty() || self.next_deadline().is_some()
    }

    /// The cached root → `/n` resolution, if still valid for this
    /// filesystem generation and these credentials.
    pub(crate) fn namei_cache_get(&self, cred: &Credentials) -> Option<Ino> {
        let c = self.namei_cache.get()?;
        (c.gen == self.fs.generation() && c.cred == cred_key(cred)).then_some(c.ino)
    }

    /// Records the root → `/n` resolution for `cred` at the current
    /// filesystem generation.
    pub(crate) fn namei_cache_fill(&self, cred: &Credentials, ino: Ino) {
        self.namei_cache.set(Some(NameiCache {
            gen: self.fs.generation(),
            cred: cred_key(cred),
            ino,
        }));
    }

    /// Allocates the next pid.
    pub fn alloc_pid(&mut self) -> Pid {
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        pid
    }

    /// The next pid the allocator will hand out, for the determinism
    /// snapshot.
    pub fn next_pid(&self) -> u32 {
        self.next_pid
    }

    /// Borrows a process.
    pub fn proc_ref(&self, pid: Pid) -> Option<&Proc> {
        self.procs.get(&pid.as_u32())
    }

    /// Mutably borrows a process.
    pub fn proc_mut(&mut self, pid: Pid) -> Option<&mut Proc> {
        self.procs.get_mut(&pid.as_u32())
    }

    /// Charges a cost: CPU time to the clock, the busy counter and (when
    /// `pid` names a live process) the process's system time; wait time
    /// advances the clock only.
    pub fn charge_sys(&mut self, pid: Option<Pid>, cost: Cost) {
        match pid {
            Some(pid) => {
                self.charge_sys_to(pid, cost);
            }
            None => {
                self.now += cost.cpu;
                self.now += cost.wait;
                self.busy += cost.cpu;
            }
        }
    }

    /// [`Machine::charge_sys`] to `pid`, handing back the process, if it
    /// lives, so the caller reads or updates it on the same lookup.
    pub(crate) fn charge_sys_to(&mut self, pid: Pid, cost: Cost) -> Option<&mut Proc> {
        self.now += cost.cpu;
        self.now += cost.wait;
        self.busy += cost.cpu;
        let p = self.proc_mut(pid)?;
        p.stime += cost.cpu;
        Some(p)
    }

    /// Charges user-mode CPU time.
    pub fn charge_user(&mut self, pid: Pid, cpu: SimDuration) {
        self.charge_user_to(pid, cpu);
    }

    /// [`Machine::charge_user`], handing back the process, if it lives,
    /// so the caller reads or updates it on the same lookup.
    pub(crate) fn charge_user_to(&mut self, pid: Pid, cpu: SimDuration) -> Option<&mut Proc> {
        self.now += cpu;
        self.busy += cpu;
        let p = self.proc_mut(pid)?;
        p.utime += cpu;
        Some(p)
    }

    /// Records a timer deadline for `pid` (a `sleep` wake-up or an
    /// `alarm` expiry). Superseded deadlines need no cancellation: they
    /// become stale heap entries that [`Machine::next_deadline`] skips.
    pub fn push_timer(&mut self, pid: Pid, when: SimTime) {
        self.timers.push(Reverse((when, pid.as_u32())));
    }

    /// The earliest live timer (sleep or alarm) deadline, popping stale
    /// entries off the heap as they surface.
    pub fn next_deadline(&mut self) -> Option<SimTime> {
        while let Some(&Reverse((t, pid))) = self.timers.peek() {
            if self.timer_live(t, pid) {
                return Some(t);
            }
            self.timers.pop();
        }
        None
    }

    /// Whether heap entry `(t, pid)` is still a deadline its process
    /// waits on: a sleep, a page fetch or an alarm due at `t`.
    fn timer_live(&self, t: SimTime, pid: u32) -> bool {
        self.procs.get(&pid).is_some_and(|p| {
            matches!(p.state, crate::proc::ProcState::Sleeping { until } if until == t)
                || matches!(p.state, crate::proc::ProcState::PageWait { until, .. } if until == t)
                || p.alarm_at == Some(t)
        })
    }

    /// Whether the timer heap holds an entry for `pid` at `when` (the
    /// debug-build wake audit's deadline check).
    #[cfg(debug_assertions)]
    pub(crate) fn has_timer(&self, pid: Pid, when: SimTime) -> bool {
        self.timers
            .iter()
            .any(|&Reverse(e)| e == (when, pid.as_u32()))
    }

    /// [`Machine::next_deadline`]'s existence test without its lazy
    /// pruning, so the debug-build wake audit can take `&self`.
    #[cfg(debug_assertions)]
    pub(crate) fn has_live_timer(&self) -> bool {
        self.timers
            .iter()
            .any(|&Reverse((t, pid))| self.timer_live(t, pid))
    }

    /// Pops every timer entry due at the machine's current clock onto
    /// `into`, unordered and possibly repeating a pid; the wake pass
    /// sorts and deduplicates. Stale lazy-deletion entries are popped
    /// too: the wake pass re-checks each pid's actual state, so
    /// surfacing a dead deadline is harmless.
    pub(crate) fn take_due_timers(&mut self, into: &mut Vec<u32>) {
        while let Some(&Reverse((t, pid))) = self.timers.peek() {
            if t > self.now {
                break;
            }
            self.timers.pop();
            into.push(pid);
        }
    }

    /// Whether a wake pass here has anything to look at: a poked pid or
    /// a timer entry due at the current clock.
    pub(crate) fn wake_due(&self) -> bool {
        !self.wait_pending.is_empty()
            || self
                .timers
                .peek()
                .is_some_and(|&Reverse((t, _))| t <= self.now)
    }

    /// Run-queue depth — the load metric the policy layer and `simsh
    /// load` read. Served straight from the scheduler's queue rather
    /// than a process-table scan.
    pub fn run_queue_depth(&self) -> usize {
        self.run_queue.len()
    }

    /// Marks a path's inodes as cached, returning whether it was cold.
    pub fn touch_path(&mut self, path: &str) -> bool {
        self.warm_paths.insert(path.to_string())
    }

    /// Updates the name-memory peak statistic.
    pub fn note_name_bytes(&mut self, fixed: bool) {
        let cur = self.files.name_bytes(fixed);
        if cur > self.name_bytes_peak {
            self.name_bytes_peak = cur;
        }
    }

    /// Enqueues a process at the back of the run queue if not present.
    pub fn make_runnable(&mut self, pid: Pid) {
        if let Some(p) = self.proc_mut(pid) {
            p.state = crate::proc::ProcState::Runnable;
        }
        if !self.run_queue.contains(&pid) {
            self.run_queue.push_back(pid);
        }
    }

    /// Ensures an already-runnable process is queued (used after posting
    /// a signal so delivery happens promptly).
    pub fn nudge(&mut self, pid: Pid) {
        let runnable = self
            .proc_ref(pid)
            .map(|p| p.state.is_runnable())
            .unwrap_or(false);
        if runnable && !self.run_queue.contains(&pid) {
            self.run_queue.push_back(pid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfs::WalkOutcome;

    #[test]
    fn boot_builds_the_skeleton() {
        let m = Machine::boot(0, "brick", IsaLevel::Isa1);
        for path in ["dev", "usr", "etc", "bin", "u", "tmp", "n"] {
            assert!(m.fs.lookup(m.fs.root(), path).is_ok(), "missing /{path}");
        }
        let out =
            m.fs.walk(m.fs.root(), &["usr".into(), "tmp".into()], None)
                .unwrap();
        assert!(matches!(out, WalkOutcome::Done(_)));
        let dev_null =
            m.fs.walk(m.fs.root(), &["dev".into(), "null".into()], None)
                .unwrap();
        assert!(matches!(dev_null, WalkOutcome::Done(_)));
    }

    #[test]
    fn pid_allocation_monotonic() {
        let mut m = Machine::boot(0, "brick", IsaLevel::Isa1);
        let a = m.alloc_pid();
        let b = m.alloc_pid();
        assert!(b > a);
        assert!(a > Pid::INIT);
    }

    #[test]
    fn charging_advances_clock_and_accounting() {
        let mut m = Machine::boot(0, "brick", IsaLevel::Isa1);
        m.charge_sys(None, Cost::cpu_us(100).plus(Cost::wait_us(900)));
        assert_eq!(m.now.as_micros(), 1_000);
        assert_eq!(m.busy.as_micros(), 100);
    }

    #[test]
    fn per_syscall_reads_like_the_name_keyed_map() {
        let mut stats = SyscallStats::default();
        assert_eq!(stats.iter().count(), 0, "no call made, nothing listed");
        stats.note(Sysno::Sleep, 100);
        stats.note(Sysno::Read, 30);
        stats.note(Sysno::Sleep, 250);
        stats.note(Sysno::Close, 5);
        let listed: Vec<(&str, SyscallAgg)> = stats.iter().map(|(n, a)| (n, *a)).collect();
        let agg = |count, total_us, max_us| SyscallAgg {
            count,
            total_us,
            max_us,
        };
        assert_eq!(
            listed,
            [
                ("close", agg(1, 5, 5)),
                ("read", agg(1, 30, 30)),
                ("sleep", agg(2, 350, 250)),
            ],
            "name order over the calls made"
        );
        assert_eq!((&stats).into_iter().count(), 3);
        assert_eq!(stats.get("sleep"), Some(&agg(2, 350, 250)));
        assert_eq!(stats["read"], agg(1, 30, 30));
        assert_eq!(stats.get("open"), None, "a call never made");
        assert_eq!(stats.get("no_such_call"), None);
        assert_eq!(
            format!("{stats:?}"),
            format!(
                "{:?}",
                listed.into_iter().collect::<BTreeMap<&str, SyscallAgg>>()
            ),
            "Debug renders the map"
        );
    }

    #[test]
    #[should_panic(expected = "no syscall named \"open\" was made")]
    fn per_syscall_index_panics_for_a_call_never_made() {
        let mut stats = SyscallStats::default();
        stats.note(Sysno::Read, 30);
        let _ = stats["open"];
    }

    #[test]
    fn dump_artifact_names_parse_back_to_their_pid() {
        for pid in [2, 1_234, 99_999, 100_000, 1_234_567, u32::MAX] {
            let names = dumpfmt::dump_file_names(Pid(pid));
            for path in [names.a_out, names.files, names.stack, names.delta] {
                let name = path.rsplit('/').next().expect("a file name");
                assert_eq!(dump_artifact_pid(name), Some(pid), "{name}");
            }
        }
    }

    #[test]
    fn dump_artifact_names_refuse_what_no_pid_writes() {
        for name in [
            "a.out1234",
            "a.out012345",
            "a.out+1234",
            "a.out1234x",
            "core12345",
            "stack",
            "files4294967296",
        ] {
            assert_eq!(dump_artifact_pid(name), None, "{name}");
        }
    }

    #[test]
    fn warm_path_cache() {
        let mut m = Machine::boot(0, "brick", IsaLevel::Isa1);
        assert!(m.touch_path("/usr/tmp/x"), "first touch is cold");
        assert!(!m.touch_path("/usr/tmp/x"), "second touch is warm");
    }
}
