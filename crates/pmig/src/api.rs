//! World-level helpers: spawn the commands as processes and drive the
//! simulation, for tests, examples and the benchmark harness.

use simtime::SimTime;
use sysdefs::{Credentials, Errno, Pid};
use ukernel::{MachineId, World};

use crate::commands::{dumpproc, errno_status, restart, RemoteRunner, RestartArgs};

/// Why a scripted migration failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MigrationError {
    /// The `migrate` command process never finished.
    CommandHung,
    /// The command finished with a non-zero status (the inner errno).
    Failed(u32),
    /// The restarted process could not be found on the target machine.
    NotRestarted,
}

impl core::fmt::Display for MigrationError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MigrationError::CommandHung => write!(f, "migrate command did not finish"),
            MigrationError::Failed(s) => write!(f, "migrate failed with status {s}"),
            MigrationError::NotRestarted => write!(f, "restarted process not found"),
        }
    }
}

impl std::error::Error for MigrationError {}

/// Finds the restarted incarnation of `orig_pid` on machine `mid`: the
/// newest process `rest_proc()` overlaid there with the dumped image
/// name `a.outXXXXX`. Victims from different sources can share that
/// name on one target; pids only grow on a machine, so the newest
/// record is the latest restart. The record outlives the process, so a
/// restored copy that already ran to completion is still found.
pub fn find_restarted(world: &World, mid: MachineId, orig_pid: Pid) -> Option<Pid> {
    restarted_since(world, mid, orig_pid, 0).map(|(pid, _)| pid)
}

/// [`find_restarted`] among processes with a pid of at least `floor`
/// (the restarts of one command, or of one migration), with the time of
/// the overlay. The search skips every older record.
pub(crate) fn restarted_since(
    world: &World,
    mid: MachineId,
    orig_pid: Pid,
    floor: u32,
) -> Option<(Pid, SimTime)> {
    let wanted = format!("a.out{:05}", orig_pid.as_u32());
    world
        .overlaid
        .range((mid, floor)..=(mid, u32::MAX))
        .rev()
        .find(|(_, (comm, _))| *comm == wanted)
        .map(|(&(_, pid), &(_, at))| (Pid(pid), at))
}

/// Runs `dumpproc -p <pid>` as a process on `mid` and waits for it.
///
/// Returns the command's exit status (0 on success).
pub fn run_dumpproc(
    world: &mut World,
    mid: MachineId,
    victim: Pid,
    cred: Credentials,
) -> Result<u32, MigrationError> {
    let cmd = world.spawn_native_proc(mid, "dumpproc", None, cred, move |sys| async move {
        errno_status(dumpproc(&sys, victim).await)
    });
    let info = world
        .run_until_exit(mid, cmd, 2_000_000)
        .ok_or(MigrationError::CommandHung)?;
    Ok(info.status)
}

/// Runs `restart -p <pid> [-h <host>]` as a process on `mid` attached to
/// `tty`, waits until it has either failed or been overlaid, and returns
/// the pid of the restarted process.
pub fn run_restart(
    world: &mut World,
    mid: MachineId,
    args: RestartArgs,
    tty: Option<u32>,
    cred: Credentials,
) -> Result<Pid, MigrationError> {
    let cmd = world.spawn_native_proc(mid, "restart", tty, cred, move |sys| async move {
        restart(&sys, &args).await.as_u16() as u32
    });
    // Run until the command's own process has become the restored image
    // (success) or has exited without that (failure). The overlay comes
    // first: a restored image may run to completion within the slice.
    let key = (mid, cmd.as_u32());
    for _ in 0..2_000_000u32 {
        if world.overlaid.contains_key(&key) {
            return Ok(cmd);
        }
        if let Some(info) = world.finished.get(&key) {
            return Err(MigrationError::Failed(info.status));
        }
        if world.run_slices(1) == ukernel::RunOutcome::Idle {
            break;
        }
    }
    if world.overlaid.contains_key(&key) {
        Ok(cmd)
    } else {
        Err(MigrationError::NotRestarted)
    }
}

/// Scheduling actions a `migrate` command may take to finish; the
/// protocol engine gives each of its steps the same budget.
pub(crate) const MIGRATE_SLICES: u64 = 4_000_000;

/// Scripts a whole migration with the `migrate` command issued from
/// `cmd_machine` over `runner`: dump on `from`, restart on `to`, then
/// locate the restored process. The §7 daemon command issued from the
/// target is what `apps::PolicyEngine` and the eager protocol run.
///
/// Returns the new pid on the target machine.
#[allow(clippy::too_many_arguments)]
pub fn migrate_process(
    world: &mut World,
    victim: Pid,
    from: MachineId,
    to: MachineId,
    cmd_machine: MachineId,
    tty: Option<u32>,
    cred: Credentials,
    runner: RemoteRunner,
) -> Result<Pid, MigrationError> {
    let from_name = world.machine(from).name.clone();
    let to_name = world.machine(to).name.clone();
    let cmd = world.spawn_native_proc(cmd_machine, "migrate", tty, cred, move |sys| async move {
        crate::commands::migrate(&sys, victim, &from_name, &to_name, runner)
            .await
            .unwrap_or_else(|e| e.as_u16() as u32)
    });
    let info = world
        .run_until_exit(cmd_machine, cmd, MIGRATE_SLICES)
        .ok_or(MigrationError::CommandHung)?;
    if info.status != 0 {
        return Err(MigrationError::Failed(info.status));
    }
    find_restarted(world, to, victim).ok_or(MigrationError::NotRestarted)
}

/// Convenience: the errno a command exit status encodes, if any (these
/// commands exit with the raw errno number on failure).
pub fn status_errno(status: u32) -> Option<Errno> {
    u16::try_from(status).ok().and_then(Errno::from_u16)
}
