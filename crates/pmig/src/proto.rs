//! The live-migration protocol engine: eager, pre-copy, demand-restore.
//!
//! The paper's `migrate` freezes the victim for the whole dump + restart,
//! so *downtime* (how long the process is unavailable) is most of the
//! *total migration time*. Later work (Zarrabi, PAPERS.md) separates the
//! two with protocols that overlap copying with execution. This module
//! runs three of them, each failure-atomic: any failure leaves **exactly
//! one live copy** and no stranded dump files:
//!
//! * [`Protocol::Eager`] — the paper's command itself: the §7 daemon
//!   `migrate` ([`crate::commands::migrate_with`]) issued from the
//!   target, as `apps::PolicyEngine` issues it.
//! * [`Protocol::PreCopy`] — arm page-granular dirty tracking
//!   (`m68vm::Memory`), stream the image page by page while the source
//!   keeps running, re-send the pages each round re-dirtied, and freeze
//!   only for the final *delta* dump (`deltaXXXXX`) + registers. The
//!   engine reassembles an ordinary `a.outXXXXX` from the streamed pages
//!   and the delta, so `restart`/`rest_proc()` are unchanged.
//! * [`Protocol::Demand`] — full dump, then restart *immediately* with
//!   only header + text resident (`restart -d`): data pages are marked
//!   absent and fetched from the source dump over NFS on first touch
//!   (the kernel's `page-fetch` fault path), while the engine drains the
//!   untouched residue in the background so the dump can be released.
//!
//! Pre-copy and demand run the command's own phases — freeze, restart
//! with retries, recovery at the source — and its cleanup as native
//! steps on the machine that holds the files, so every protocol dumps,
//! verifies, retries and recovers on one schedule. The engine keeps only
//! what is specific to a protocol: the rounds, the delta reassembly and
//! the drain.
//!
//! Downtime runs from the freeze to the instant `rest_proc()` overlays
//! the restart on the target, as the kernel stamps it on the overlay
//! record; total time runs from engine start to the last step's exit,
//! so it also covers pre-copy rounds, the residual drain and eager's
//! cleanup. The engine's own instants are read on the world clock (the
//! maximum of the per-machine clocks, which the event scheduler keeps
//! coherent by always stepping the laggard).

use std::collections::BTreeMap;
use std::future::Future;

use aout::{AoutHeader, AOUT_HEADER_LEN};
use dumpfmt::{dump_file_names, DeltaFile};
use m68vm::MemoryLayout;
use simnet::NfsOp;
use simtime::SimDuration;
use sysdefs::{Credentials, Errno, Pid, Signal, SysResult};
use ukernel::{ImageGeometry, MachineId, Sys, World};

use crate::api::{restarted_since, MigrationError, MIGRATE_SLICES};
use crate::commands::{
    cleanup_dumps, freeze, migrate, recover_at_source, restart_with_retry, Freeze, RemoteRunner,
    RestartArgs, Route, Survivor, MIGRATE_TRIES,
};

/// Pre-copy rounds before the engine freezes regardless of how much is
/// still dirty (round 1 streams the whole image; later rounds stream
/// deltas). Bounds total migration time for workloads that dirty pages
/// faster than the network drains them.
pub const PRECOPY_MAX_ROUNDS: u32 = 4;

/// Freeze as soon as a round leaves no more than this many dirty pages:
/// the remaining delta is small enough that sending it frozen costs
/// less than another live round.
pub const PRECOPY_DIRTY_THRESHOLD: usize = 2;

/// How long the source runs between pre-copy rounds, so the workload's
/// write rate — not the engine's polling — decides the next delta.
const PRECOPY_ROUND_GAP_US: u64 = 100_000;

/// Scheduling-slice budget granted between residual-drain prefetches,
/// letting the demand-restored process run (and fault pages in itself)
/// while the engine pulls the rest.
const DRAIN_INTERLEAVE_SLICES: u64 = 2;

/// Hard cap on drain iterations — a backstop against a wedged target,
/// far above what any real image (data segment / page size) needs.
const DRAIN_MAX_STEPS: u32 = 100_000;

/// The three selectable migration protocols.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Protocol {
    /// Freeze, dump everything, restart: downtime ≈ total.
    Eager,
    /// Stream pages while running, freeze only for the final delta.
    PreCopy,
    /// Restart from registers + stack at once, fetch pages on demand.
    Demand,
}

impl Protocol {
    /// Parses the `--proto` flag spelling.
    pub fn parse(s: &str) -> Option<Protocol> {
        match s {
            "eager" => Some(Protocol::Eager),
            "precopy" => Some(Protocol::PreCopy),
            "demand" => Some(Protocol::Demand),
            _ => None,
        }
    }

    /// The flag spelling back.
    pub fn name(self) -> &'static str {
        match self {
            Protocol::Eager => "eager",
            Protocol::PreCopy => "precopy",
            Protocol::Demand => "demand",
        }
    }

    /// All protocols, in presentation order.
    pub const ALL: [Protocol; 3] = [Protocol::Eager, Protocol::PreCopy, Protocol::Demand];
}

/// What a protocol run did and what it cost.
#[derive(Clone, Debug)]
pub struct MigrationReport {
    /// Which protocol ran.
    pub protocol: Protocol,
    /// 0 = migrated to the target; otherwise the errno of the step that
    /// decided the outcome.
    pub status: u32,
    /// Which side holds the live copy now.
    pub survivor: Survivor,
    /// The live copy's pid (on the target for [`Survivor::Target`], on
    /// the source for a recovery restart); `None` when the original
    /// process simply kept running or the copy was lost.
    pub new_pid: Option<Pid>,
    /// Freeze-to-runnable: how long no copy of the process could run.
    pub downtime_us: u64,
    /// Engine start to engine finish, including pre-copy rounds and the
    /// residual drain.
    pub total_us: u64,
    /// Pre-copy rounds run (0 for the other protocols).
    pub rounds: u32,
    /// Pages streamed live before the freeze.
    pub pages_precopied: u64,
    /// Residual pages pulled after the restart (kernel page faults not
    /// included — those are in `MachineStats::pages_fetched`).
    pub pages_fetched: u64,
    /// Bytes of page payload moved outside the dump files.
    pub bytes_sent: u64,
}

impl MigrationReport {
    /// True when the process now runs on the target.
    pub fn migrated(&self) -> bool {
        self.survivor == Survivor::Target
    }
}

/// Parks every idle machine's clock at the world clock and returns it.
/// Phase boundaries must sync: the cost a phase adds on a machine whose
/// clock lags the leader would otherwise vanish inside the skew — a
/// restart on an idle target looked *free* until the target caught up.
fn sync_clocks(world: &mut World) -> u64 {
    world.run_until_time(world.clock(), 2_000_000);
    world.clock().as_micros()
}

/// True while `pid` exists on `mid` and has not exited.
fn alive(world: &World, mid: MachineId, pid: Pid) -> bool {
    world.proc_ref(mid, pid).is_some() && !world.finished.contains_key(&(mid, pid.as_u32()))
}

/// Charges one engine-driven NFS transfer to `mid`'s clock, retrying
/// dropped RPCs on the `migrate` schedule. The charged pid need not
/// exist on `mid` (`charge_sys` skips `stime` for foreign pids), so the
/// target side can pay for pulls of a dead source pid's files.
fn charge_transfer(world: &mut World, mid: MachineId, pid: Pid, op: NfsOp) -> bool {
    for _ in 0..MIGRATE_TRIES {
        if world.charge_kernel_rpc(mid, pid, op).is_ok() {
            return true;
        }
    }
    false
}

/// Runs command `cmd` on `mid` to its exit and returns its status.
fn run_to_exit(world: &mut World, mid: MachineId, cmd: Pid) -> Result<u32, MigrationError> {
    let info = world.run_until_exit(mid, cmd, MIGRATE_SLICES);
    info.map(|i| i.status).ok_or(MigrationError::CommandHung)
}

/// Migrates `victim` from `from` to `to` under `proto`, returning the
/// full accounting report. Failures that leave a live copy somewhere
/// come back as `Ok` with the survivor recorded; only a wedged command
/// process is an `Err`.
pub fn migrate_proto(
    world: &mut World,
    victim: Pid,
    from: MachineId,
    to: MachineId,
    proto: Protocol,
    cred: Credentials,
) -> Result<MigrationReport, MigrationError> {
    let t_start = sync_clocks(world);
    let mut run = Engine {
        victim,
        from,
        to,
        cred,
        from_host: world.machine(from).name.clone(),
        floor: world.machine(from).next_pid(),
        t_freeze: t_start,
        report: MigrationReport {
            protocol: proto,
            status: 0,
            survivor: Survivor::Source,
            new_pid: None,
            downtime_us: 0,
            total_us: 0,
            rounds: 0,
            pages_precopied: 0,
            pages_fetched: 0,
            bytes_sent: 0,
        },
    };
    match proto {
        Protocol::Eager => run.eager(world)?,
        Protocol::PreCopy => run.precopy(world)?,
        Protocol::Demand => run.demand(world)?,
    }
    run.report.total_us = world.clock().as_micros().saturating_sub(t_start);
    Ok(run.report)
}

/// One engine run: what moves where, and the report it fills in.
struct Engine {
    victim: Pid,
    from: MachineId,
    to: MachineId,
    /// The credentials every step runs with.
    cred: Credentials,
    from_host: String,
    /// The source's next pid when the engine started: a restart
    /// overlaid there at or above it is this migration's recovery.
    floor: u32,
    /// When the victim froze; downtime runs from here.
    t_freeze: u64,
    report: MigrationReport,
}

impl Engine {
    /// Spawns one step of the migration on `mid`: a native command that
    /// runs `body` on the victim's `Route` as seen from `mid`, and
    /// exits with `body`'s status or the errno that stopped it. Every
    /// step runs on the machine that holds its files, so the route's
    /// runner (the daemon, as eager's command has it) is never used.
    fn spawn_step<F: Future<Output = SysResult<u32>> + 'static>(
        &self,
        world: &mut World,
        mid: MachineId,
        body: impl FnOnce(Sys, Route) -> F + 'static,
    ) -> Pid {
        let (pid, from_host, cred) = (self.victim, self.from_host.clone(), self.cred.clone());
        world.spawn_native_proc(mid, "migrate", None, cred, move |sys| async move {
            let status = match Route::new(&sys, pid, &from_host, RemoteRunner::Daemon).await {
                Ok(route) => body(sys, route).await,
                Err(e) => Err(e),
            };
            status.unwrap_or_else(|e| e.as_u16() as u32)
        })
    }

    /// Sweeps the victim's dump names from `mid`'s own `/usr/tmp`.
    fn run_cleanup(&self, world: &mut World, mid: MachineId) -> Result<(), MigrationError> {
        let pid = self.victim;
        let cred = self.cred.clone();
        let cmd = world.spawn_native_proc(mid, "cleanup", None, cred, move |sys| async move {
            cleanup_dumps(&sys, "", pid).await;
            0
        });
        run_to_exit(world, mid, cmd).map(drop)
    }

    /// Runs command `cmd` on the target to its exit and records its
    /// status. When `rest_proc()` overlaid a restart the command started
    /// there, downtime ended at that overlay, and the report names the
    /// new pid. Returns whether the command succeeded.
    fn run_restarting(&mut self, world: &mut World, cmd: Pid) -> Result<bool, MigrationError> {
        self.report.status = run_to_exit(world, self.to, cmd)?;
        if let Some((pid, at)) = restarted_since(world, self.to, self.victim, cmd.as_u32()) {
            self.report.downtime_us = at.as_micros().saturating_sub(self.t_freeze);
            self.report.new_pid = Some(pid);
        }
        Ok(self.report.status == 0)
    }

    /// Records where the process lives once a step has ended the
    /// migration with the report's status: on the target when it
    /// succeeded, else in a restart overlaid back on the source, else in
    /// the original still running there, else nowhere.
    fn settle(&mut self, world: &World) {
        let recovered = restarted_since(world, self.from, self.victim, self.floor).map(|(p, _)| p);
        let r = &mut self.report;
        (r.survivor, r.new_pid) = if r.status == 0 {
            (Survivor::Target, r.new_pid)
        } else if recovered.is_some() {
            (Survivor::Source, recovered)
        } else if alive(world, self.from, self.victim) {
            (Survivor::Source, None)
        } else {
            (Survivor::Lost, None)
        };
    }

    /// The paper's protocol: the §7 daemon `migrate` issued from the
    /// target. Downtime ends at the overlay of its restart there; the
    /// total runs on to the command's exit, past its cleanup.
    fn eager(&mut self, world: &mut World) -> Result<(), MigrationError> {
        let (victim, cred) = (self.victim, self.cred.clone());
        let (from_host, to_host) = (self.from_host.clone(), world.machine(self.to).name.clone());
        let cmd = world.spawn_native_proc(self.to, "migrate", None, cred, move |sys| async move {
            let r = migrate(&sys, victim, &from_host, &to_host, RemoteRunner::Daemon).await;
            r.unwrap_or_else(|e| e.as_u16() as u32)
        });
        self.run_restarting(world, cmd)?;
        self.settle(world);
        Ok(())
    }

    /// Runs the command's freeze phase as a step at the source, keeps
    /// its status in the report, and reads off the world how it ended.
    /// A victim left running needs no more bookkeeping: the report
    /// already names the source as survivor, with no new pid.
    fn freeze_at_source(&mut self, world: &mut World) -> Result<Freeze, MigrationError> {
        let cmd = self.spawn_step(world, self.from, |sys, route| async move {
            Ok(match freeze(&sys, &route).await? {
                Freeze::Dumped => 0,
                Freeze::Running(status) | Freeze::Dead(status) => status,
            })
        });
        self.report.status = run_to_exit(world, self.from, cmd)?;
        Ok(match self.report.status {
            0 => Freeze::Dumped,
            s if alive(world, self.from, self.victim) => Freeze::Running(s),
            s => Freeze::Dead(s),
        })
    }

    /// Runs `restart` with the command's retries as a step on the
    /// target: `-d` against the source's dump for demand, or against the
    /// files pre-copy planted there. Returns whether the process now
    /// runs there; if not, the report holds the status that sends it
    /// back to the source.
    fn restart_on_target(
        &mut self,
        world: &mut World,
        demand: bool,
    ) -> Result<bool, MigrationError> {
        let to_host = world.machine(self.to).name.clone();
        let args = RestartArgs {
            pid: self.victim,
            dump_host: demand.then(|| self.from_host.clone()),
            demand,
        };
        sync_clocks(world);
        let cmd = self.spawn_step(world, self.to, move |sys, route| async move {
            restart_with_retry(&sys, &route, &to_host, args).await
        });
        self.run_restarting(world, cmd)
    }

    /// Runs the command's recovery as a step at the source: restart from
    /// the dumps there, then sweep them. The report keeps the status
    /// that sent the process back.
    fn recover(&mut self, world: &mut World) -> Result<(), MigrationError> {
        let status = self.report.status;
        let cmd = self.spawn_step(world, self.from, move |sys, route| async move {
            Ok(recover_at_source(&sys, &route, status).await?.status)
        });
        run_to_exit(world, self.from, cmd)?;
        self.settle(world);
        Ok(())
    }

    /// Demand-restore: freeze with a full dump, then restart on the
    /// target with only header + text resident and drain the absent
    /// pages while the process runs.
    fn demand(&mut self, world: &mut World) -> Result<(), MigrationError> {
        match self.freeze_at_source(world)? {
            Freeze::Dumped => {}
            Freeze::Running(_) => return Ok(()),
            Freeze::Dead(_) => return self.recover(world),
        }
        if !self.restart_on_target(world, true)? {
            return self.recover(world);
        }
        let new_pid = self.report.new_pid.ok_or(MigrationError::NotRestarted)?;
        if let Some(err) = self.drain(world, new_pid) {
            // Kill the copy that can never be completed and let the kill
            // land before a second copy starts from the dump, which still
            // holds a full image.
            world.host_post_signal(self.to, new_pid, Signal::SIGKILL);
            let _ = world.run_until_exit(self.to, new_pid, 10_000);
            self.report.status = err.as_u16() as u32;
            return self.recover(world);
        }
        self.run_cleanup(world, self.from)?;
        self.settle(world);
        Ok(())
    }

    /// Demand-restore's residual drain. The dumps must outlive the last
    /// absent page, so nothing is cleaned until the image is whole. The
    /// kernel fetches pages the process touches (the page-fetch fault
    /// path); the engine pulls the untouched rest so the dump can be
    /// released. Returns the errno that dooms the target copy when it
    /// cannot be completed.
    fn drain(&mut self, world: &mut World, new_pid: Pid) -> Option<Errno> {
        let to = self.to;
        let mut strikes = 0u32;
        for _ in 0..DRAIN_MAX_STEPS {
            if !world.host_has_absent_pages(to, new_pid) {
                break;
            }
            match world.host_prefetch_absent_page(to, new_pid) {
                Some(Ok(_)) => {
                    strikes = 0;
                    self.report.pages_fetched += 1;
                    self.report.bytes_sent += MemoryLayout::PAGE as u64;
                }
                Some(Err(_)) => {
                    strikes += 1;
                    if strikes >= MIGRATE_TRIES {
                        // The residual source is unreachable.
                        return Some(Errno::ETIMEDOUT);
                    }
                }
                None => {}
            }
            world.run_slices(DRAIN_INTERLEAVE_SLICES);
        }
        // The target image is whole, or the copy there has ended. Only
        // the kernel's residual kill (three page-fetch strikes, or a
        // vanished dump) leaves the dump as the one good copy; an exit
        // with any status, or a kill from anyone else, is the process's
        // own history and completes the migration. A drain that never
        // converged (wedged target) dooms the copy too.
        let doomed = world.host_has_absent_pages(to, new_pid)
            || world.machine(to).residual_kills.contains(&new_pid.as_u32());
        doomed.then_some(Errno::EIO)
    }

    /// The pre-copy protocol: stream live, freeze for the delta,
    /// reassemble an ordinary `a.outXXXXX` on the target, restart
    /// locally there.
    fn precopy(&mut self, world: &mut World) -> Result<(), MigrationError> {
        let (from, victim) = (self.from, self.victim);
        let geom = world.host_image_geometry(from, victim);
        let Some(geom) = geom.filter(|_| world.host_set_dirty_tracking(from, victim, true)) else {
            // Not a VM process (or already gone): nothing to track, so
            // the protocol degenerates to eager.
            return self.eager(world);
        };

        // Live rounds: round 1 streams the whole image (arming marks
        // every page dirty), later rounds stream what the workload
        // re-dirtied.
        let mut staged: BTreeMap<u32, Vec<u8>> = BTreeMap::new();
        loop {
            self.report.rounds += 1;
            for (page, bytes) in world.host_take_dirty_pages(from, victim) {
                if !charge_transfer(world, from, victim, NfsOp::Write(bytes.len())) {
                    // The stream is down and the victim never stopped
                    // running: call the migration off, leave it
                    // untouched.
                    return self.abort_precopy(world, Errno::ETIMEDOUT.as_u16().into());
                }
                self.report.pages_precopied += 1;
                self.report.bytes_sent += bytes.len() as u64;
                staged.insert(page, bytes);
            }
            if !alive(world, from, victim) {
                // The workload finished by itself mid-stream; there is
                // nothing left to migrate.
                return self.abort_precopy(world, Errno::ESRCH.as_u16().into());
            }
            if self.report.rounds >= PRECOPY_MAX_ROUNDS {
                break;
            }
            // Let the workload run (and dirty its working set) before
            // deciding: checking the dirty count right after draining
            // it would always see an empty set and freeze after one
            // round.
            let gap = world.machine(from).now + SimDuration::micros(PRECOPY_ROUND_GAP_US);
            world.run_until_time(gap, 2_000_000);
            if !alive(world, from, victim) {
                return self.abort_precopy(world, Errno::ESRCH.as_u16().into());
            }
            if world.host_dirty_count(from, victim) <= PRECOPY_DIRTY_THRESHOLD {
                break;
            }
        }

        // Freeze: the next SIGDUMP writes deltaXXXXX instead of a full
        // a.outXXXXX. The dirty set is read non-destructively at dump
        // time, so a torn freeze stays retryable.
        self.t_freeze = sync_clocks(world);
        world.host_set_dump_delta(from, victim, true);
        match self.freeze_at_source(world)? {
            Freeze::Dumped => {}
            Freeze::Running(status) => return self.abort_precopy(world, status),
            Freeze::Dead(_) => return self.reassemble_and_recover(world, &geom, &staged),
        }
        let restored = match self.pull_and_plant(world, &geom, &staged) {
            Ok(()) => self.restart_on_target(world, false)?,
            Err(status) => {
                self.report.status = status;
                false
            }
        };
        self.run_cleanup(world, self.to)?;
        if !restored {
            return self.reassemble_and_recover(world, &geom, &staged);
        }
        self.run_cleanup(world, from)?;
        self.settle(world);
        Ok(())
    }

    /// Pre-copy after a verified freeze: pull the freeze triple to the
    /// target, reassemble the ordinary `a.outXXXXX` there and plant all
    /// three files in the target's `/usr/tmp`, so restart runs against
    /// local files — which is where pre-copy's downtime win over eager's
    /// cross-mount restart comes from. Returns the status that sends the
    /// process back to the source.
    fn pull_and_plant(
        &mut self,
        world: &mut World,
        geom: &ImageGeometry,
        staged: &BTreeMap<u32, Vec<u8>>,
    ) -> Result<(), u32> {
        let (victim, from, to) = (self.victim, self.from, self.to);
        let errno = |e: Errno| e.as_u16() as u32;
        // Pull the freeze triple. The charge lands on the target's clock
        // — it is the puller — against the (dead) victim pid.
        sync_clocks(world);
        let names = dump_file_names(victim);
        // Local files that verified a moment ago cannot be read: treat
        // it as a torn freeze.
        let read = |world: &World, name: &str| {
            world
                .host_read_file(from, name)
                .map_err(|_| errno(Errno::EIO))
        };
        let delta_bytes = read(world, &names.delta)?;
        let files_bytes = read(world, &names.files)?;
        let stack_bytes = read(world, &names.stack)?;
        let delta = DeltaFile::decode(&delta_bytes).map_err(|_| errno(Errno::EINVAL))?;
        for p in &delta.pages {
            self.report.bytes_sent += p.bytes.len() as u64;
        }
        let pulled = delta_bytes.len() + files_bytes.len() + stack_bytes.len();
        if !charge_transfer(world, to, victim, NfsOp::Read(pulled)) {
            // The target cannot pull; the source still holds everything
            // needed to bring the process back locally.
            return Err(errno(Errno::ETIMEDOUT));
        }
        // The reassembled image moves into its file; the two small files
        // are copied out of the pulled ones, which the source still holds.
        let image = reassemble(geom, staged, &delta);
        let planted = world.host_write_file(to, &names.a_out, image).is_ok()
            && world
                .host_write_file(to, &names.files, files_bytes.as_slice())
                .is_ok()
            && world
                .host_write_file(to, &names.stack, stack_bytes.as_slice())
                .is_ok();
        if !planted {
            return Err(errno(Errno::ENOSPC));
        }
        Ok(())
    }

    /// Calls a pre-copy off with `status` before anything irreversible
    /// happened: the victim runs on at the source, untracked.
    fn abort_precopy(&mut self, world: &mut World, status: u32) -> Result<(), MigrationError> {
        world.host_set_dirty_tracking(self.from, self.victim, false);
        world.host_set_dump_delta(self.from, self.victim, false);
        self.report.status = status;
        Ok(())
    }

    /// Pre-copy's recovery path: the victim is dead, and its freeze did
    /// not verify or the target did not take the process. Rebuild the
    /// full image from the staged pages and the freeze delta *at the
    /// source*, then recover there; the restart vouches for the rest.
    fn reassemble_and_recover(
        &mut self,
        world: &mut World,
        geom: &ImageGeometry,
        staged: &BTreeMap<u32, Vec<u8>>,
    ) -> Result<(), MigrationError> {
        let names = dump_file_names(self.victim);
        let delta = world.host_read_file(self.from, &names.delta);
        if let Some(delta) = delta.ok().and_then(|b| DeltaFile::decode(&b).ok()) {
            let image = reassemble(geom, staged, &delta);
            // Without the a.out the recovery's restart fails: `Lost`.
            let _ = world.host_write_file(self.from, &names.a_out, image);
        }
        self.recover(world)
    }
}

/// Rebuilds the ordinary executable `rest_proc()` expects: header and
/// text, then the data segment assembled in place from the staged
/// pre-copy pages overlaid with the freeze delta. Stack pages in the
/// stream are skipped — the `stackXXXXX` file carries the authoritative
/// stack.
fn reassemble(geom: &ImageGeometry, staged: &BTreeMap<u32, Vec<u8>>, delta: &DeltaFile) -> Vec<u8> {
    let isa = if delta.machtype == aout::MID_ISA2 {
        m68vm::IsaLevel::Isa2
    } else {
        m68vm::IsaLevel::Isa1
    };
    let header = AoutHeader::new(geom.text.len() as u32, delta.data_len, 0, delta.entry, isa);
    let data_off = AOUT_HEADER_LEN + geom.text.len();
    let image_len = data_off + delta.data_len as usize;
    let mut image = Vec::with_capacity(image_len);
    image.extend_from_slice(&header.encode());
    image.extend_from_slice(&geom.text);
    // Each page lands at its offset in the data segment: the gap before
    // it is zeroed, bytes an earlier page laid there are overwritten and
    // the rest appended, so only the gaps are ever zero-filled. The
    // delta goes on after the staged pages, so its pages win.
    let mut lay = |page: u32, bytes: &[u8]| {
        let base = MemoryLayout::page_addr(page);
        if base < delta.data_base || base >= delta.data_base + delta.data_len {
            return;
        }
        let o = data_off + (base - delta.data_base) as usize;
        let end = (o + bytes.len()).min(image_len);
        if image.len() < o {
            image.resize(o, 0);
        }
        let laid = image.len().min(end);
        image[o..laid].copy_from_slice(&bytes[..laid - o]);
        image.extend_from_slice(&bytes[laid - o..end - o]);
    };
    for (page, bytes) in staged {
        lay(*page, bytes);
    }
    for p in &delta.pages {
        lay(p.page, &p.bytes);
    }
    image.resize(image_len, 0);
    image
}

#[cfg(test)]
mod tests {
    use super::*;
    use dumpfmt::DeltaPage;
    use simtime::rng::SplitMix64;

    /// The fill-then-overlay form `reassemble` replaced: zero the whole
    /// data segment, then copy the staged pages and the delta over it.
    fn overlay_oracle(
        geom: &ImageGeometry,
        staged: &BTreeMap<u32, Vec<u8>>,
        delta: &DeltaFile,
    ) -> Vec<u8> {
        let isa = if delta.machtype == aout::MID_ISA2 {
            m68vm::IsaLevel::Isa2
        } else {
            m68vm::IsaLevel::Isa1
        };
        let header = AoutHeader::new(geom.text.len() as u32, delta.data_len, 0, delta.entry, isa);
        let data_off = AOUT_HEADER_LEN + geom.text.len();
        let mut image = header.encode().to_vec();
        image.extend_from_slice(&geom.text);
        image.resize(data_off + delta.data_len as usize, 0);
        let data = &mut image[data_off..];
        let mut place = |page: u32, bytes: &[u8]| {
            let base = MemoryLayout::page_addr(page);
            if base < delta.data_base || base >= delta.data_base + delta.data_len {
                return;
            }
            let o = (base - delta.data_base) as usize;
            let end = (o + bytes.len()).min(data.len());
            data[o..end].copy_from_slice(&bytes[..end - o]);
        };
        for (page, bytes) in staged {
            place(*page, bytes);
        }
        for p in &delta.pages {
            place(p.page, &p.bytes);
        }
        image
    }

    #[test]
    fn reassembly_matches_the_fill_then_overlay_form() {
        const PAGE: usize = MemoryLayout::PAGE as usize;
        // Which cases the seeds reached: a page below the data segment,
        // one past its end, a last page cut by `data_len`, and a delta
        // page overriding a staged one.
        let mut reached = [false; 4];
        for seed in 0..150 {
            let mut rng = SplitMix64::new(seed);
            let first = 2 + rng.below(3) as u32;
            let data_len = rng.below(6 * PAGE as u64) as u32;
            let data_pages = (data_len as usize).div_ceil(PAGE) as u32;
            let geom = ImageGeometry {
                text: rng.bytes(0..64),
                entry: MemoryLayout::TEXT_BASE,
                machtype: aout::MID_ISA1,
                data_base: MemoryLayout::page_addr(first),
                data_len,
            };
            // Each page is filled with its own nonzero byte, mostly a
            // whole page long, sometimes short of one or spilling into
            // the next.
            let mut fill = 0u8;
            let mut page_bytes = |rng: &mut SplitMix64| {
                fill = fill % 254 + 1;
                let len = match rng.below(6) {
                    0 => rng.below(PAGE as u64) as usize,
                    1 => PAGE + rng.below(PAGE as u64) as usize,
                    _ => PAGE,
                };
                vec![fill; len]
            };
            let candidates = first.saturating_sub(2)..first + data_pages + 2;
            let mut staged = BTreeMap::new();
            let mut pages = Vec::new();
            for page in candidates {
                if rng.below(3) != 0 {
                    staged.insert(page, page_bytes(&mut rng));
                }
                if rng.below(3) == 0 {
                    pages.push(DeltaPage {
                        page,
                        bytes: page_bytes(&mut rng),
                    });
                }
            }
            let delta = DeltaFile {
                entry: geom.entry,
                machtype: geom.machtype,
                data_base: geom.data_base,
                data_len,
                pages,
            };
            let laid = staged.keys().chain(delta.pages.iter().map(|p| &p.page));
            for &page in laid {
                reached[0] |= page < first;
                reached[1] |= page >= first + data_pages;
            }
            reached[2] |= !(data_len as usize).is_multiple_of(PAGE)
                && staged.contains_key(&(first + data_pages - 1));
            reached[3] |= delta.pages.iter().any(|p| {
                p.page >= first && p.page < first + data_pages && staged.contains_key(&p.page)
            });
            assert_eq!(
                reassemble(&geom, &staged, &delta),
                overlay_oracle(&geom, &staged, &delta),
                "seed {seed}"
            );
        }
        assert_eq!(reached, [true; 4], "every case was reached");
    }
}
