//! The live-migration protocol engine: eager, pre-copy, demand-restore.
//!
//! The paper's `migrate` freezes the victim for the whole dump + restart,
//! so *downtime* (how long the process is unavailable) equals *total
//! migration time*. Later work (Zarrabi, PAPERS.md) separates the two
//! with protocols that overlap copying with execution. This module
//! implements three of them behind one state machine, each holding the
//! PR-4 invariant — any failure leaves **exactly one live copy** and no
//! stranded dump files:
//!
//! * [`Protocol::Eager`] — the paper's protocol, driven from the host so
//!   its downtime and totals are measured the same way as the others:
//!   `SIGDUMP` freeze, full three-file dump, verified restart on the
//!   target, recovery restart at the source when the target refuses.
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
//! Downtime is measured from the freeze that kills the source copy to
//! the instant the target copy is runnable; total time additionally
//! covers pre-copy rounds before the freeze and residual draining after
//! the restart. Both are reported on the world clock (the maximum of
//! the per-machine clocks, which the event scheduler keeps coherent by
//! always stepping the laggard).

use std::collections::BTreeMap;

use aout::encode_executable;
use dumpfmt::{dump_file_names, DeltaFile, FilesFile, StackFile};
use m68vm::MemoryLayout;
use simnet::NfsOp;
use simtime::SimDuration;
use sysdefs::{Credentials, Errno, Pid, Signal};
use ukernel::{ImageGeometry, MachineId, World};

use crate::api::{run_dumpproc, run_restart, MigrationError};
use crate::commands::{cleanup_dumps, transient, RestartArgs, Survivor, MIGRATE_TRIES};

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

/// What one engine run moves: the victim, its source and target, and
/// the credentials every command the engine spawns runs with.
struct Move {
    victim: Pid,
    from: MachineId,
    to: MachineId,
    cred: Credentials,
}

/// True while `pid` exists on `mid` and has not exited.
fn alive(world: &World, mid: MachineId, pid: Pid) -> bool {
    world.proc_ref(mid, pid).is_some() && !world.finished.contains_key(&(mid, pid.as_u32()))
}

/// Runs the existing `cleanup` of the victim's four dump names as a
/// native process on `mid` — best-effort, charged like any user command.
fn run_cleanup(world: &mut World, mid: MachineId, mv: &Move) {
    let (pid, cred) = (mv.victim, mv.cred.clone());
    let cmd = world.spawn_native_proc(mid, "cleanup", None, cred, move |sys| async move {
        cleanup_dumps(&sys, "", pid).await;
        0
    });
    let _ = world.run_until_exit(mid, cmd, 500_000);
}

/// Which image file a freeze is expected to have produced.
#[derive(Clone, Copy, PartialEq, Eq)]
enum DumpKind {
    Full,
    Delta,
}

/// Host-side verification that a freeze left a fully decodable dump
/// set: the engine must never walk away from (or delete) the only copy
/// of a process on the strength of files it has not read.
fn dumps_decode(world: &World, mid: MachineId, pid: Pid, kind: DumpKind) -> bool {
    let names = dump_file_names(pid);
    let image_ok = match kind {
        DumpKind::Full => world
            .host_read_file(mid, &names.a_out)
            .is_ok_and(|b| aout::parse_executable(&b).is_ok()),
        DumpKind::Delta => world
            .host_read_file(mid, &names.delta)
            .is_ok_and(|b| DeltaFile::decode(&b).is_ok()),
    };
    image_ok
        && world
            .host_read_file(mid, &names.files)
            .is_ok_and(|b| FilesFile::decode(&b).is_ok())
        && world
            .host_read_file(mid, &names.stack)
            .is_ok_and(|b| StackFile::decode(&b).is_ok())
}

/// Dump phase with the `migrate_with` retry discipline: a failed dump
/// (or a torn one with the victim still alive) is swept and redone with
/// a fresh `SIGDUMP`; a dead victim's dumps are never swept. Returns 0
/// with verified dumps on the source, or the last status.
fn dump_with_retry(world: &mut World, mv: &Move, kind: DumpKind) -> Result<u32, MigrationError> {
    let mut status = 0u32;
    for _ in 0..MIGRATE_TRIES {
        status = run_dumpproc(world, mv.from, mv.victim, mv.cred.clone())?;
        if status == 0 {
            if dumps_decode(world, mv.from, mv.victim, kind) {
                return Ok(0);
            }
            status = Errno::EINVAL.as_u16() as u32;
        }
        if !alive(world, mv.from, mv.victim) {
            // The victim is dead: whatever the dump wrote is its last
            // copy. The caller recovers from it instead of retrying.
            break;
        }
        run_cleanup(world, mv.from, mv);
        if !transient(status as u16) {
            break;
        }
    }
    Ok(status)
}

/// Restart on `mid`, retrying transient transport failures like the
/// `migrate` command does.
fn restart_with_retry(
    world: &mut World,
    mid: MachineId,
    args: RestartArgs,
    cred: &Credentials,
) -> Result<Pid, u32> {
    let mut status = 0u32;
    for _ in 0..MIGRATE_TRIES {
        match run_restart(world, mid, args.clone(), None, cred.clone()) {
            Ok(pid) => return Ok(pid),
            Err(MigrationError::Failed(s)) => {
                status = s;
                if !transient(s as u16) {
                    break;
                }
            }
            Err(_) => {
                status = Errno::EIO.as_u16() as u32;
                break;
            }
        }
    }
    Err(status)
}

/// Charges one engine-driven NFS transfer to `mid`'s clock, retrying
/// dropped RPCs on the `migrate` schedule. The charged pid need not
/// exist on `mid` (`charge_sys` skips `stime` for foreign pids), so the
/// target side can pay for pulls of a dead source pid's files.
fn charge_transfer(world: &mut World, mid: MachineId, pid: Pid, op: NfsOp) -> bool {
    for _ in 0..MIGRATE_TRIES {
        if world.charge_kernel_rpc(mid, pid, op).1.is_ok() {
            return true;
        }
    }
    false
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
    let mut report = MigrationReport {
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
    };
    let mv = Move {
        victim,
        from,
        to,
        cred,
    };
    let t_start = sync_clocks(world);
    match proto {
        Protocol::Eager => freeze_and_restart(world, &mv, false, t_start, &mut report)?,
        Protocol::PreCopy => precopy(world, &mv, t_start, &mut report)?,
        Protocol::Demand => freeze_and_restart(world, &mv, true, t_start, &mut report)?,
    }
    report.total_us = world.clock().as_micros().saturating_sub(t_start);
    Ok(report)
}

/// Eager and demand-restore: freeze with a full dump, then restart on
/// the target straight from the source's dump. Eager is the paper's
/// freeze–dump–restart, host-driven; `demand` restarts with only header
/// + text resident and drains the absent pages while the process runs.
fn freeze_and_restart(
    world: &mut World,
    mv: &Move,
    demand: bool,
    t_freeze: u64,
    report: &mut MigrationReport,
) -> Result<(), MigrationError> {
    let status = dump_with_retry(world, mv, DumpKind::Full)?;
    if status != 0 {
        finish_no_dump(world, mv, status, report);
        return Ok(());
    }
    let args = RestartArgs {
        pid: mv.victim,
        dump_host: Some(world.machine(mv.from).name.clone()),
        demand,
    };
    sync_clocks(world);
    let new_pid = match restart_with_retry(world, mv.to, args, &mv.cred) {
        Ok(pid) => pid,
        Err(status) => {
            recover_at_source(world, mv, status, report);
            return Ok(());
        }
    };
    // Downtime ends here: the process is runnable on the target, with
    // its data pages still absent under demand.
    report.downtime_us = world.clock().as_micros().saturating_sub(t_freeze);
    if demand && !drain(world, mv, new_pid, report) {
        return Ok(());
    }
    report.survivor = Survivor::Target;
    report.new_pid = Some(new_pid);
    run_cleanup(world, mv.from, mv);
    Ok(())
}

/// Demand-restore's residual drain. The dumps must outlive the last
/// absent page, so nothing is cleaned until the image is whole. The
/// kernel fetches pages the process touches (the page-fetch fault
/// path); the engine pulls the untouched rest so the dump can be
/// released. Returns false when the target copy could not be completed
/// and the process was recovered at the source instead.
fn drain(world: &mut World, mv: &Move, new_pid: Pid, report: &mut MigrationReport) -> bool {
    let to = mv.to;
    let mut strikes = 0u32;
    for _ in 0..DRAIN_MAX_STEPS {
        if !world.host_has_absent_pages(to, new_pid) {
            break;
        }
        match world.host_prefetch_absent_page(to, new_pid) {
            Some(Ok(_)) => {
                strikes = 0;
                report.pages_fetched += 1;
                report.bytes_sent += MemoryLayout::PAGE as u64;
            }
            Some(Err(_)) => {
                strikes += 1;
                if strikes >= MIGRATE_TRIES {
                    // The residual source is unreachable: the target
                    // copy can never be completed.
                    kill_and_recover(world, mv, new_pid, Errno::ETIMEDOUT, report);
                    return false;
                }
            }
            None => {}
        }
        world.run_slices(DRAIN_INTERLEAVE_SLICES);
    }
    if world.host_has_absent_pages(to, new_pid) {
        // Drain never converged (wedged target): same recovery as an
        // unreachable residual source.
        kill_and_recover(world, mv, new_pid, Errno::EIO, report);
        return false;
    }
    // The target image is whole, or the copy there has ended. Only the
    // kernel's residual kill (three page-fetch strikes, or a vanished
    // dump) leaves the dump as the one good copy; an exit with any
    // status, or a kill from anyone else, is the process's own history
    // and completes the migration.
    if world.machine(to).residual_kills.contains(&new_pid.as_u32()) {
        // The kill may still be pending delivery: let it land before a
        // second copy starts.
        let _ = world.run_until_exit(to, new_pid, 10_000);
        recover_at_source(world, mv, Errno::EIO.as_u16() as u32, report);
        return false;
    }
    true
}

/// Kills a target copy that can never be completed while the dump still
/// holds a full image, and brings the process back at the source.
fn kill_and_recover(
    world: &mut World,
    mv: &Move,
    new_pid: Pid,
    err: Errno,
    report: &mut MigrationReport,
) {
    world.host_post_signal(mv.to, new_pid, Signal::SIGKILL);
    world.run_slices(10_000);
    recover_at_source(world, mv, err.as_u16() as u32, report);
}

/// The pre-copy protocol: stream live, freeze for the delta, reassemble
/// an ordinary `a.outXXXXX` on the target, restart locally there.
fn precopy(
    world: &mut World,
    mv: &Move,
    t_start: u64,
    report: &mut MigrationReport,
) -> Result<(), MigrationError> {
    let (from, victim) = (mv.from, mv.victim);
    if !world.host_set_dirty_tracking(from, victim, true) {
        // Not a VM process (or already gone): nothing to track, so the
        // protocol degenerates to eager semantics.
        return freeze_and_restart(world, mv, false, t_start, report);
    }
    let Some(geom) = world.host_image_geometry(from, victim) else {
        world.host_set_dirty_tracking(from, victim, false);
        return freeze_and_restart(world, mv, false, t_start, report);
    };

    // Live rounds: round 1 streams the whole image (arming marks every
    // page dirty), later rounds stream what the workload re-dirtied.
    let mut staged: BTreeMap<u32, Vec<u8>> = BTreeMap::new();
    loop {
        report.rounds += 1;
        for (page, bytes) in world.host_take_dirty_pages(from, victim) {
            if !charge_transfer(world, from, victim, NfsOp::Write(bytes.len())) {
                // The stream is down and the victim never stopped
                // running: call the migration off, leave it untouched.
                abort_precopy(world, mv, Errno::ETIMEDOUT, report);
                return Ok(());
            }
            report.pages_precopied += 1;
            report.bytes_sent += bytes.len() as u64;
            staged.insert(page, bytes);
        }
        if !alive(world, from, victim) {
            // The workload finished by itself mid-stream; there is
            // nothing left to migrate.
            abort_precopy(world, mv, Errno::ESRCH, report);
            return Ok(());
        }
        if report.rounds >= PRECOPY_MAX_ROUNDS {
            break;
        }
        // Let the workload run (and dirty its working set) before
        // deciding: checking the dirty count right after draining it
        // would always see an empty set and freeze after one round.
        let gap = world.machine(from).now + SimDuration::micros(PRECOPY_ROUND_GAP_US);
        world.run_until_time(gap, 2_000_000);
        if !alive(world, from, victim) {
            abort_precopy(world, mv, Errno::ESRCH, report);
            return Ok(());
        }
        if world.host_dirty_count(from, victim) <= PRECOPY_DIRTY_THRESHOLD {
            break;
        }
    }

    // Freeze: the next SIGDUMP writes deltaXXXXX instead of a full
    // a.outXXXXX. The dirty set is read non-destructively at dump time,
    // so a torn freeze stays retryable.
    let t_freeze = sync_clocks(world);
    world.host_set_dump_delta(from, victim, true);
    let status = dump_with_retry(world, mv, DumpKind::Delta)?;
    if status != 0 {
        if alive(world, from, victim) {
            abort_precopy(world, mv, Errno::EIO, report);
            report.status = status;
            return Ok(());
        }
        // Dead victim, unreadable freeze: the staged pages cannot be
        // completed, so nothing can vouch for a restart. Report the
        // loss loudly rather than reanimate a torn image.
        run_cleanup(world, from, mv);
        report.status = status;
        report.survivor = Survivor::Lost;
        return Ok(());
    }
    match pull_and_restart(world, mv, &geom, &staged, report) {
        Ok(new_pid) => {
            report.downtime_us = world.clock().as_micros().saturating_sub(t_freeze);
            report.survivor = Survivor::Target;
            report.new_pid = Some(new_pid);
            run_cleanup(world, mv.to, mv);
            run_cleanup(world, from, mv);
        }
        Err(status) => reassemble_and_recover(world, mv, &geom, &staged, status, report),
    }
    Ok(())
}

/// Pre-copy after a verified freeze: pull the freeze triple to the
/// target, reassemble the ordinary `a.outXXXXX` there and restart it
/// locally. Returns the target pid, or the status that sends the
/// process back to the source.
fn pull_and_restart(
    world: &mut World,
    mv: &Move,
    geom: &ImageGeometry,
    staged: &BTreeMap<u32, Vec<u8>>,
    report: &mut MigrationReport,
) -> Result<Pid, u32> {
    let (victim, from, to) = (mv.victim, mv.from, mv.to);
    let errno = |e: Errno| e.as_u16() as u32;
    // Pull the freeze triple. The charge lands on the target's clock —
    // it is the puller — against the (dead) victim pid.
    sync_clocks(world);
    let names = dump_file_names(victim);
    // Local files that verified a moment ago cannot be read: treat it
    // as a torn freeze.
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
        report.bytes_sent += p.bytes.len() as u64;
    }
    let pulled = delta_bytes.len() + files_bytes.len() + stack_bytes.len();
    if !charge_transfer(world, to, victim, NfsOp::Read(pulled)) {
        // The target cannot pull; the source still holds everything
        // needed to bring the process back locally.
        return Err(errno(Errno::ETIMEDOUT));
    }

    // Reassemble the ordinary a.outXXXXX the restart path expects and
    // plant the triple in the *target's* /usr/tmp: restart then runs
    // against local files, which is exactly where pre-copy's downtime
    // win over eager's cross-mount restart comes from.
    let image = reassemble(geom, staged, &delta);
    let planted = world.host_write_file(to, &names.a_out, &image).is_ok()
        && world.host_write_file(to, &names.files, &files_bytes).is_ok()
        && world.host_write_file(to, &names.stack, &stack_bytes).is_ok();
    if !planted {
        return Err(errno(Errno::ENOSPC));
    }
    let args = RestartArgs {
        pid: victim,
        dump_host: None,
        demand: false,
    };
    restart_with_retry(world, to, args, &mv.cred).inspect_err(|_| run_cleanup(world, to, mv))
}

/// Calls a pre-copy off before anything irreversible happened: disarm
/// tracking and the delta flag, sweep any torn dump, leave the victim
/// running at the source.
fn abort_precopy(world: &mut World, mv: &Move, err: Errno, report: &mut MigrationReport) {
    world.host_set_dirty_tracking(mv.from, mv.victim, false);
    world.host_set_dump_delta(mv.from, mv.victim, false);
    report.status = err.as_u16() as u32;
    report.survivor = Survivor::Source;
}

/// Pre-copy's recovery path: the victim is dead and the target did not
/// take the process. Rebuild the full image from the staged pages and
/// the freeze delta *at the source*, then recover there.
fn reassemble_and_recover(
    world: &mut World,
    mv: &Move,
    geom: &ImageGeometry,
    staged: &BTreeMap<u32, Vec<u8>>,
    status: u32,
    report: &mut MigrationReport,
) {
    let names = dump_file_names(mv.victim);
    let recovered = match world
        .host_read_file(mv.from, &names.delta)
        .ok()
        .and_then(|b| DeltaFile::decode(&b).ok())
    {
        Some(delta) => {
            let image = reassemble(geom, staged, &delta);
            world.host_write_file(mv.from, &names.a_out, &image).is_ok()
        }
        None => false,
    };
    if recovered {
        recover_at_source(world, mv, status, report);
    } else {
        report.status = status;
        run_cleanup(world, mv.from, mv);
        report.survivor = Survivor::Lost;
    }
}

/// Rebuilds the complete data segment from the staged pre-copy pages
/// overlaid with the freeze delta, and encodes the ordinary executable
/// `rest_proc()` expects. Stack pages in the stream are skipped — the
/// `stackXXXXX` file carries the authoritative stack.
fn reassemble(geom: &ImageGeometry, staged: &BTreeMap<u32, Vec<u8>>, delta: &DeltaFile) -> Vec<u8> {
    let mut data = vec![0u8; delta.data_len as usize];
    let place = |page: u32, bytes: &[u8], data: &mut Vec<u8>| {
        let base = MemoryLayout::page_addr(page);
        if base < delta.data_base || base >= delta.data_base + delta.data_len {
            return;
        }
        let o = (base - delta.data_base) as usize;
        let end = (o + bytes.len()).min(data.len());
        data[o..end].copy_from_slice(&bytes[..end - o]);
    };
    for (page, bytes) in staged {
        place(*page, bytes, &mut data);
    }
    for p in &delta.pages {
        place(p.page, &p.bytes, &mut data);
    }
    let isa = if delta.machtype == aout::MID_ISA2 {
        m68vm::IsaLevel::Isa2
    } else {
        m68vm::IsaLevel::Isa1
    };
    encode_executable(&geom.text, &data, 0, delta.entry, isa)
}

/// The shared "dump never happened" exit: a live victim keeps running
/// at the source behind a swept `/usr/tmp`; a dead victim is recovered
/// from whatever the dump left.
fn finish_no_dump(world: &mut World, mv: &Move, status: u32, report: &mut MigrationReport) {
    if alive(world, mv.from, mv.victim) {
        report.status = status;
        run_cleanup(world, mv.from, mv);
        report.survivor = Survivor::Source;
        return;
    }
    recover_at_source(world, mv, status, report);
}

/// Restart the dumped process back at the source (restart re-verifies
/// everything itself), then sweep the dumps. `Lost` only when even the
/// local restart fails.
fn recover_at_source(world: &mut World, mv: &Move, status: u32, report: &mut MigrationReport) {
    report.status = status;
    let args = RestartArgs {
        pid: mv.victim,
        dump_host: None,
        demand: false,
    };
    match restart_with_retry(world, mv.from, args, &mv.cred) {
        Ok(pid) => {
            report.survivor = Survivor::Source;
            report.new_pid = Some(pid);
        }
        Err(_) => report.survivor = Survivor::Lost,
    }
    run_cleanup(world, mv.from, mv);
}
