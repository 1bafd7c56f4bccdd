//! Process checkpointing (§8).
//!
//! "If we have a program that has been running for a long time and for
//! which it would be undesirable to have it restarted from the beginning
//! in case of a system crash, we may write an application to take
//! periodic snapshots of it and save those snapshots by moving them to a
//! directory managed by the application ... which would then allow us to
//! restart a program at its n-th checkpoint. The application should also
//! make copies of all files that were open when the process was
//! checkpointed, so that if the actual files were modified after the
//! checkpoint, the copies can be used instead of the modified ones, thus
//! presenting a consistent view of the files to the checkpointed
//! program."
//!
//! A checkpoint is taken by dumping the process (`dumpproc`), archiving
//! the three dump files plus a copy of every open regular file, and
//! immediately restarting the process locally so it keeps running.

use dumpfmt::{dump_file_names, FdRecord, FilesFile};
use pmig::commands::{dumpproc, restart, RestartArgs};
use sysdefs::{Errno, OpenFlags, Pid, SysResult};
use ukernel::Sys;

/// What and how to checkpoint.
#[derive(Clone, Debug)]
pub struct CheckpointPlan {
    /// The process to snapshot (its pid at the time the checkpointer
    /// starts; it changes at every snapshot because a snapshot is a
    /// dump + restart).
    pub pid: Pid,
    /// Snapshot period in simulated micro-seconds.
    pub interval_us: u64,
    /// How many snapshots to take.
    pub count: u32,
    /// The directory managed by the application.
    pub dir: String,
}

/// One archived snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointRecord {
    /// Snapshot index (1-based).
    pub n: u32,
    /// Pid the process had when this snapshot was taken.
    pub pid_at_dump: Pid,
    /// Archive directory of this snapshot.
    pub dir: String,
}

async fn copy_file(sys: &Sys, from: &str, to: &str) -> SysResult<u64> {
    let src = sys.open(from, OpenFlags::RDONLY.bits(), 0).await?;
    let data = sys.read_all(src).await?;
    sys.close(src).await?;
    let dst = sys.creat(to, 0o600).await?;
    sys.write(dst, &data).await?;
    sys.close(dst).await?;
    Ok(data.len() as u64)
}

fn archive_dir(base: &str, n: u32) -> String {
    format!("{base}/ckpt{n:03}")
}

/// Takes one snapshot of `pid`: dump, archive, restart. Returns the pid
/// of the restarted incarnation.
pub async fn snapshot_once(sys: &Sys, pid: Pid, dir: &str, n: u32) -> SysResult<Pid> {
    dumpproc(sys, pid).await?;
    let names = dump_file_names(pid);
    let adir = archive_dir(dir, n);
    sys.mkdir(&adir, 0o700).await.ok();

    // Archive the three dump files under stable names.
    copy_file(sys, &names.a_out, &format!("{adir}/a.out")).await?;
    copy_file(sys, &names.stack, &format!("{adir}/stack")).await?;

    // Copy every open regular file next to them and record a files file
    // whose paths point at the copies — the "consistent view".
    let fd = sys.open(&names.files, OpenFlags::RDONLY.bits(), 0).await?;
    let bytes = sys.read_all(fd).await?;
    sys.close(fd).await?;
    let mut files = FilesFile::decode(&bytes).map_err(|_| Errno::EINVAL)?;
    let mut copies = 0u32;
    for record in &mut files.fds {
        if let FdRecord::File { path, .. } = record {
            if path.starts_with("/dev/") {
                continue;
            }
            let copy_name = format!("{adir}/file{copies:02}");
            if copy_file(sys, path, &copy_name).await.is_ok() {
                *path = copy_name;
                copies += 1;
            }
        }
    }
    let bytes = files.encode().map_err(|_| Errno::EINVAL)?;
    let fd = sys.creat(&format!("{adir}/files"), 0o600).await?;
    sys.write(fd, &bytes).await?;
    sys.close(fd).await?;

    // Restart the process locally so it keeps running.
    let args = RestartArgs {
        pid,
        dump_host: None,
        demand: false,
    };
    let (status, child) = sys
        .run_local_pid("restart", move |s| async move {
            restart(&s, &args).await.as_u16() as u32
        })
        .await?;
    if status != 0 {
        return Err(Errno::EIO);
    }
    child.ok_or(Errno::EIO)
}

/// The checkpointer daemon body: takes [`CheckpointPlan::count`]
/// snapshots, one per interval, and returns the records plus the final
/// incarnation's pid.
pub async fn run_checkpointer(
    sys: &Sys,
    plan: &CheckpointPlan,
) -> SysResult<(Vec<CheckpointRecord>, Pid)> {
    sys.mkdir(&plan.dir, 0o700).await.ok();
    let mut pid = plan.pid;
    let mut records = Vec::new();
    for n in 1..=plan.count {
        sys.sleep_us(plan.interval_us).await?;
        let new_pid = snapshot_once(sys, pid, &plan.dir, n).await?;
        records.push(CheckpointRecord {
            n,
            pid_at_dump: pid,
            dir: archive_dir(&plan.dir, n),
        });
        pid = new_pid;
    }
    Ok((records, pid))
}

/// Restores the `n`-th checkpoint from `dir`: copies the archived open
/// files back over the originals? No — the archived `files` file already
/// points at the copies, so the restored program reads the snapshot's
/// consistent view directly. The caller's process is overlaid.
///
/// Never returns on success (the caller becomes the restored program);
/// the error is returned otherwise.
pub async fn restore_checkpoint(sys: &Sys, dir: &str, n: u32, pid_at_dump: Pid) -> Errno {
    let adir = archive_dir(dir, n);
    // Recreate the /usr/tmp dump files the restart command expects,
    // using the archived (consistent) versions.
    let names = dump_file_names(pid_at_dump);
    if let Err(e) = copy_file(sys, &format!("{adir}/a.out"), &names.a_out).await {
        return e;
    }
    if let Err(e) = copy_file(sys, &format!("{adir}/stack"), &names.stack).await {
        return e;
    }
    if let Err(e) = copy_file(sys, &format!("{adir}/files"), &names.files).await {
        return e;
    }
    restart(
        sys,
        &RestartArgs {
            pid: pid_at_dump,
            dump_host: None,
            demand: false,
        },
    )
    .await
}
