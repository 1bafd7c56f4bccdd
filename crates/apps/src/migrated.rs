//! `migrate` over the migration daemon (§6.4's proposed improvement).
//!
//! "Since the problem lies with the application and not with the process
//! migration mechanism, it is always possible to write a better
//! application which, by use of a UNIX daemon process and a well known
//! port can achieve more satisfactory results: instead of using rsh to
//! start processes remotely, applications will simply send messages to
//! the daemon, who will start the processes on their behalf."

use pmig::commands::{migrate_with, report_survivor, RemoteRunner};
use sysdefs::{Credentials, Pid, SysResult};
use ukernel::{MachineId, Sys, World};

/// The daemon-based `migrate`: identical logic to
/// [`pmig::commands::migrate`] — the same failure-atomic engine, with
/// the same dump verification, retries and cleanup — but remote halves
/// go through one daemon message instead of an `rsh` session.
///
/// Returns the restart step's exit status.
pub async fn migrate_via_daemon(
    sys: &Sys,
    pid: Pid,
    from_host: &str,
    to_host: &str,
) -> SysResult<u32> {
    let out = migrate_with(sys, pid, from_host, to_host, RemoteRunner::Daemon).await?;
    report_survivor(sys, &out, from_host, to_host).await;
    Ok(out.status)
}

/// World-level wrapper: runs [`migrate_via_daemon`] as a process on the
/// destination machine and returns the restored pid there.
pub fn migrate_via_daemon_scripted(
    world: &mut World,
    victim: Pid,
    from: MachineId,
    to: MachineId,
    cred: Credentials,
) -> Result<Pid, pmig::MigrationError> {
    let from_name = world.machine(from).name.clone();
    let to_name = world.machine(to).name.clone();
    let cmd = world.spawn_native_proc(to, "migrated", None, cred, move |sys| async move {
        match migrate_via_daemon(&sys, victim, &from_name, &to_name).await {
            Ok(status) => status,
            Err(e) => e.as_u16() as u32,
        }
    });
    let info = world
        .run_until_exit(to, cmd, 4_000_000)
        .ok_or(pmig::MigrationError::CommandHung)?;
    if info.status != 0 {
        return Err(pmig::MigrationError::Failed(info.status));
    }
    pmig::find_restarted(world, to, victim).ok_or(pmig::MigrationError::NotRestarted)
}
