//! The three user commands of §4.1 plus `undump`, implemented exactly as
//! §4.4 describes, against the simulated kernel's system-call interface.

use std::future::Future;

use aout::AoutHeader;
use dumpfmt::{dump_file_names, FdRecord, FilesFile, StackFile};
use sysdefs::limits::NOFILE;
use sysdefs::{Errno, OpenFlags, Pid, Signal, SysResult};
use ukernel::{Sys, Whence};

use crate::resolve::rewrite_for_migration;

/// How many times `dumpproc` polls for `a.outXXXXX` before giving up
/// ("aborting after ten tries").
const DUMP_POLL_TRIES: u32 = 10;

/// The 1-second poll sleep between tries.
const DUMP_POLL_SLEEP_US: u64 = 1_000_000;

/// The poll's simtime deadline. The try counter alone is not a bound:
/// an `open` that fails slowly (NFS soft-mount timeouts) spends far
/// more than a sleep per try, so the clock is the real budget.
const DUMP_POLL_TIMEOUT_US: u64 = DUMP_POLL_TRIES as u64 * DUMP_POLL_SLEEP_US;

/// **`dumpproc`** (§4.4): kill a process with `SIGDUMP` and rewrite its
/// `filesXXXXX` file for migration.
///
/// Returns `Ok(())` when the dump files are ready; the caller (or the
/// command wrapper) maps errors to exit statuses.
pub async fn dumpproc(sys: &Sys, pid: Pid) -> SysResult<()> {
    // "Kills the specified process with a SIGDUMP signal."
    sys.kill(pid, Signal::SIGDUMP).await?;

    // "When dumpproc tries to open the a.outXXXXX file, it has to wait
    // until the kernel switches its context to that of the process being
    // dumped ... To avoid busy loops, dumpproc simply sleeps for one
    // second after each unsuccessful attempt (aborting after ten tries)."
    //
    // A dump that will *never* materialize (the dump write failed with
    // ENOSPC, say, and the victim kept running) must not read as "no
    // such process": the poll gives up against a simtime deadline with
    // ETIMEDOUT, so callers can tell "dump never appeared" from
    // genuine ENOENT-class errors.
    let names = dump_file_names(pid);
    let deadline = sys
        .gettimeofday()
        .await?
        .saturating_add(DUMP_POLL_TIMEOUT_US);
    let fd = loop {
        sys.sleep_us(DUMP_POLL_SLEEP_US).await?;
        // A pre-copy freeze writes `deltaXXXXX` in place of the full
        // executable, so either file counts as "the dump appeared".
        let opened = match sys.open(&names.a_out, 0, 0).await {
            Err(Errno::ENOENT) => sys.open(&names.delta, 0, 0).await,
            other => other,
        };
        match opened {
            Ok(fd) => break fd,
            Err(Errno::ENOENT) => {
                if sys.gettimeofday().await? >= deadline {
                    return Err(Errno::ETIMEDOUT);
                }
            }
            Err(e) => return Err(e),
        }
    };
    sys.close(fd).await?;

    // "Reads in the filesXXXXX file."
    let fd = sys.open(&names.files, 0, 0).await?;
    let bytes = sys.read_all(fd).await?;
    sys.close(fd).await?;
    let mut files = FilesFile::decode(&bytes).map_err(|_| Errno::EINVAL)?;
    // Parsing and rebuilding the table is real work for a 1 MIPS CPU.
    sys.compute(25_000).await?;

    let host = local_host(sys).await?;

    // "Resolves symbolic links for the current working directory and all
    // open files", maps terminals to /dev/tty and prepends
    // /n/<machinename> to local names.
    files.cwd = rewrite_for_migration(sys, &files.cwd, &host).await?;
    for record in &mut files.fds {
        if let FdRecord::File { path, .. } = record {
            *path = rewrite_for_migration(sys, path, &host).await?;
        }
    }

    // "Overwrites the modified information on the filesXXXXX file."
    let bytes = files.encode().map_err(|_| Errno::EINVAL)?;
    let fd = sys.creat(&names.files, 0o600).await?;
    sys.write(fd, &bytes).await?;
    sys.close(fd).await?;
    Ok(())
}

/// Arguments of the `restart` command.
#[derive(Clone, Debug)]
pub struct RestartArgs {
    /// The dumped process's pid (`-p`).
    pub pid: Pid,
    /// The host the process was dumped on (`-h`); `None` means the
    /// current machine.
    pub dump_host: Option<String>,
    /// Demand-page restore (`-d`): `rest_proc()` loads only the header
    /// and text now and fetches data pages from the dump on first
    /// touch, so the dump files must outlive this command.
    pub demand: bool,
}

/// **`restart`** (§4.4): verify the dump files, rebuild the user-level
/// process environment, and call `rest_proc()`.
///
/// On success this never returns (the calling process becomes the
/// restored program); the error is returned otherwise.
pub async fn restart(sys: &Sys, args: &RestartArgs) -> Errno {
    match restart_inner(sys, args).await {
        Ok(never) => match never {},
        Err(e) => e,
    }
}

enum Never {}

/// The true hostname, or the (possibly virtualised) one on a kernel
/// without the §7 extension.
async fn local_host(sys: &Sys) -> SysResult<String> {
    match sys.gethostname_real().await {
        Ok(host) => Ok(host),
        Err(_) => sys.gethostname().await,
    }
}

async fn restart_inner(sys: &Sys, args: &RestartArgs) -> Result<Never, Errno> {
    // Dump files live on the dumping host's /usr/tmp; reach them through
    // /n/<host> when that is not the local machine.
    let local = local_host(sys).await?;
    let prefix = match &args.dump_host {
        Some(h) if *h != local => format!("/n/{h}"),
        _ => String::new(),
    };
    let names = dump_file_names(args.pid);
    let a_out = format!("{prefix}{}", names.a_out);
    let files_path = format!("{prefix}{}", names.files);
    let stack_path = format!("{prefix}{}", names.stack);

    // "Verifies that the three files ... exist, and that they have the
    // correct format by checking their magic numbers."
    let fd = sys.open(&a_out, 0, 0).await?;
    let header = sys.read(fd, aout::AOUT_HEADER_LEN).await?;
    sys.close(fd).await?;
    AoutHeader::decode(&header).map_err(|_| Errno::ENOEXEC)?;

    let fd = sys.open(&files_path, 0, 0).await?;
    let files_bytes = sys.read_all(fd).await?;
    sys.close(fd).await?;
    let files = FilesFile::decode(&files_bytes).map_err(|_| Errno::EINVAL)?;
    // Decoding the table and planning the descriptor rebuild.
    sys.compute(20_000).await.ok();

    // "Reads the old user credentials from the stackXXXXX file and
    // establishes them as its own. This is the only information that it
    // reads from this file."
    let fd = sys.open(&stack_path, 0, 0).await?;
    let head = sys.read(fd, 2 + 16).await?;
    sys.close(fd).await?;
    let cred = StackFile::peek_credentials(&head).map_err(|_| Errno::EINVAL)?;
    sys.setreuid(cred.ruid.as_u32(), cred.euid.as_u32()).await?;

    // "Reads in the old current working directory and establishes that
    // as its own."
    sys.chdir(&files.cwd).await?;

    // Rebuild the descriptor table in order. Everything we hold now
    // (our own stdio) is closed first so that each open lands on the
    // right number. A failure partway leaves the caller holding a
    // half-rebuilt table, so every fd opened so far is closed before
    // the errno propagates.
    for fd in 0..NOFILE {
        let _ = sys.close(fd).await;
    }
    if let Err(e) = rebuild_fds(sys, &files).await {
        for fd in 0..NOFILE {
            let _ = sys.close(fd).await;
        }
        return Err(e);
    }

    // "Reads in the old terminal flags and sets those of the current
    // terminal appropriately."
    if let Ok(tty_fd) = sys.open("/dev/tty", OpenFlags::RDWR.bits(), 0).await {
        let _ = sys.stty(tty_fd, files.tty_flags).await;
        let _ = sys.close(tty_fd).await;
    }

    // "Calls rest_proc() to restart the old program." The old identity
    // rides along for the §7 id-virtualization extension.
    let e = sys
        .rest_proc_mode(
            &a_out,
            &stack_path,
            Some(args.pid),
            Some(&files.host),
            args.demand,
        )
        .await;
    Err(e)
}

/// The fd-table rebuild of [`restart_inner`], split out so its error
/// paths share one cleanup site in the caller.
async fn rebuild_fds(sys: &Sys, files: &FilesFile) -> SysResult<()> {
    let mut placeholders: Vec<usize> = Vec::new();
    for (i, record) in files.fds.iter().enumerate() {
        let got = match record {
            FdRecord::File {
                path,
                flags,
                offset,
            } => match sys.open(path, flags.reopen_flags().bits(), 0).await {
                Ok(fd) => {
                    // "Positions the file pointer to the correct offset."
                    let _ = sys.lseek(fd, *offset as i64, Whence::Set).await;
                    fd
                }
                Err(_) => open_placeholder(sys, i).await?,
            },
            // "If ... it was a socket, or it was unused, the null device
            // /dev/null is opened instead, so that the restarted process
            // can find an open file where it expects one, and to
            // preserve the order of open file numbers."
            FdRecord::Socket => open_placeholder(sys, i).await?,
            FdRecord::Unused => {
                let fd = open_placeholder(sys, i).await?;
                placeholders.push(fd);
                fd
            }
        };
        if got != i {
            return Err(Errno::EIO);
        }
    }
    // "Closes all files that were only opened to preserve the order of
    // the file numbers."
    for fd in placeholders {
        let _ = sys.close(fd).await;
    }
    Ok(())
}

/// Opens the placeholder for an unreconstructable descriptor:
/// `/dev/null`, except that "in the case of standard input, output and
/// error output ... the terminal is opened instead of the null device,
/// so that the user may have some control over the restarted program."
async fn open_placeholder(sys: &Sys, fd_no: usize) -> SysResult<usize> {
    if fd_no <= 2 {
        if let Ok(fd) = sys.open("/dev/tty", OpenFlags::RDWR.bits(), 0).await {
            return Ok(fd);
        }
    }
    sys.open("/dev/null", OpenFlags::RDWR.bits(), 0).await
}

/// How `migrate` reaches a remote machine for its subcommands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RemoteRunner {
    /// The paper's original transport: `rsh`, with its expensive
    /// session establishment (Figure 4).
    Rsh,
    /// The §7 `migrated` daemon's cheap spawn path.
    Daemon,
}

/// Which machine holds the live copy of the process after `migrate`
/// finishes — the failure-atomicity report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Survivor {
    /// The process runs on the destination (the happy path).
    Target,
    /// The process still (or again) runs on the source.
    Source,
    /// Neither side has it — the invariant is broken, reported loudly
    /// rather than silently.
    Lost,
}

/// The full result of a migration attempt: the exit status the command
/// reports plus which side the process survived on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MigrateOutcome {
    /// 0 = migrated; otherwise the errno of the step that failed.
    pub status: u32,
    /// Where the live copy ended up.
    pub survivor: Survivor,
}

/// Remote-step attempts before giving up (first try + retries). Shared
/// with the protocol engine (`crate::proto`) so every retry policy in a
/// migration — dump, restart, page stream, residual fetch — gives up on
/// the same schedule.
pub(crate) const MIGRATE_TRIES: u32 = 3;

/// The first retry backoff; later retries double it.
const MIGRATE_BACKOFF_US: u64 = 1_000_000;

/// Errnos worth retrying with backoff: transport failures (dropped NFS
/// RPCs, dead rsh/daemon sessions) and dump-side failures that a fresh
/// `SIGDUMP` can redo because the victim survived them (torn or missing
/// dump files, transient ENOSPC).
pub(crate) fn transient(e: u16) -> bool {
    [
        Errno::ETIMEDOUT,
        Errno::EHOSTDOWN,
        Errno::EHOSTUNREACH,
        Errno::ENOENT,
        Errno::EINVAL,
        Errno::EIO,
        Errno::ENOSPC,
    ]
    .iter()
    .any(|t| t.as_u16() == e)
}

/// **`migrate`** (§4.1): "move a process from one machine to another.
/// This is simply a combination of the two previous commands", executed
/// as subprocesses, "by using the remote shell command rsh ... if
/// necessary".
///
/// Returns the restart command's exit status (0 = the process is now
/// running on `to_host`), and reports on stdout which side the process
/// survived on when the migration did not complete.
pub async fn migrate(sys: &Sys, pid: Pid, from_host: &str, to_host: &str) -> SysResult<u32> {
    let out = migrate_with(sys, pid, from_host, to_host, RemoteRunner::Rsh).await?;
    report_survivor(sys, &out, from_host, to_host).await;
    Ok(out.status)
}

/// Writes the failure-atomicity report line (best-effort; the command
/// may have no terminal).
pub async fn report_survivor(sys: &Sys, out: &MigrateOutcome, from_host: &str, to_host: &str) {
    let line = match out.survivor {
        Survivor::Target => format!("migrate: process now runs on {to_host}\n"),
        Survivor::Source => format!(
            "migrate: failed (status {}); process survives on {from_host}\n",
            out.status
        ),
        Survivor::Lost => format!(
            "migrate: FAILED (status {}); process lost — runs on neither {from_host} nor {to_host}\n",
            out.status
        ),
    };
    let _ = sys.write(1, line.as_bytes()).await;
}

/// The failure-atomic migration engine behind [`migrate`] and the §7
/// daemon path: dump with retries, verify every dump file decodes,
/// restart with retries, fall back to restarting at the *source* when
/// the target cannot take the process, and clean `/usr/tmp` up on every
/// exit path.
pub async fn migrate_with(
    sys: &Sys,
    pid: Pid,
    from_host: &str,
    to_host: &str,
    runner: RemoteRunner,
) -> SysResult<MigrateOutcome> {
    let local = local_host(sys).await?;
    // The dump files as seen from *this* command's machine.
    let prefix = if from_host == local {
        String::new()
    } else {
        format!("/n/{from_host}")
    };

    // Phases 1+2, fused: dump at the source, then verify all three dump
    // files fully decode while they are still the only recoverable copy
    // of the process — a migration must never delete dumps, or walk
    // away from them, on the strength of files it has not actually
    // read. The pair retries together because a dump failure (and a
    // verify failure with the victim still alive — a torn write the
    // kernel survived) can be redone from scratch with a fresh SIGDUMP.
    let mut status = 0u32;
    let mut dumps_ok = false;
    let mut victim_alive = true;
    for attempt in 0..MIGRATE_TRIES {
        if attempt > 0 {
            sys.sleep_us(MIGRATE_BACKOFF_US << (attempt - 1)).await?;
        }
        let r = run_on(
            sys,
            runner,
            from_host,
            &local,
            "dumpproc",
            move |s| async move {
                match dumpproc(&s, pid).await {
                    Ok(()) => 0,
                    Err(e) => e.as_u16() as u32,
                }
            },
        )
        .await;
        // Transport failures (a dead rsh session, a faulted daemon)
        // fold into the status: the dump did not happen either way.
        status = match r {
            Ok(s) => s,
            Err(e) => e.as_u16() as u32,
        };
        if status != 0 {
            // A failed dump leaves the victim alive at the source (the
            // kernel does not kill a process it could not save); sweep
            // the torn leftovers and retry.
            cleanup_dumps(sys, &prefix, pid).await;
            if transient(status as u16) {
                continue;
            }
            break;
        }
        match verify_dumps(sys, &prefix, pid).await {
            Ok(()) => {
                dumps_ok = true;
                break;
            }
            Err(e) => {
                status = e.as_u16() as u32;
                // Only a live victim can be re-dumped. A dead one's
                // dumps are its last copy: never sweep those on a
                // retry, drop to the recovery path below instead.
                victim_alive = probe_alive(sys, runner, from_host, &local, pid).await?;
                if !victim_alive {
                    break;
                }
                cleanup_dumps(sys, &prefix, pid).await;
                if transient(status as u16) {
                    continue;
                }
                break;
            }
        }
    }
    if !dumps_ok {
        if victim_alive {
            // Nothing was ever irrevocably done: the process still runs
            // at the source, and no usable dumps remain.
            cleanup_dumps(sys, &prefix, pid).await;
            return Ok(MigrateOutcome {
                status,
                survivor: Survivor::Source,
            });
        }
        // The victim is dead and this command cannot vouch for its
        // image — unreadable over a faulty mount, or genuinely corrupt.
        // Recover at the *source*, where the dumps are plain local
        // files and restart runs its own full verification; only when
        // that too fails is the process lost, and the loss is reported
        // loudly instead of a garbage restart.
        let recover = restart_with_retry(sys, runner, from_host, &local, pid, from_host).await?;
        cleanup_dumps(sys, &prefix, pid).await;
        return Ok(MigrateOutcome {
            status,
            survivor: if recover == 0 {
                Survivor::Source
            } else {
                Survivor::Lost
            },
        });
    }

    // Phase 3: restart on the destination, retrying transient transport
    // failures. The dumps stay put until one restart has succeeded.
    let restart_status = restart_with_retry(sys, runner, to_host, &local, pid, from_host).await?;
    if restart_status == 0 {
        cleanup_dumps(sys, &prefix, pid).await;
        return Ok(MigrateOutcome {
            status: 0,
            survivor: Survivor::Target,
        });
    }

    // Phase 4: the target would not take it. Recover the process at the
    // source from the same dumps so the user keeps a live copy.
    let recover_status = restart_with_retry(sys, runner, from_host, &local, pid, from_host).await?;
    cleanup_dumps(sys, &prefix, pid).await;
    Ok(MigrateOutcome {
        status: restart_status,
        survivor: if recover_status == 0 {
            Survivor::Source
        } else {
            Survivor::Lost
        },
    })
}

/// Runs `prog` as a subcommand on `host`: locally when `host` is this
/// machine, otherwise over the chosen transport.
async fn run_on<F: Future<Output = u32> + 'static>(
    sys: &Sys,
    runner: RemoteRunner,
    host: &str,
    local: &str,
    comm: &str,
    prog: impl FnOnce(Sys) -> F + 'static,
) -> SysResult<u32> {
    if host == local {
        sys.run_local(comm, prog).await
    } else {
        match runner {
            RemoteRunner::Rsh => sys.rsh(host, comm, prog).await,
            RemoteRunner::Daemon => sys.daemon_spawn(host, comm, prog).await,
        }
    }
}

/// Runs `restart` on `host` with transient-failure retries. A transport
/// error (`rsh` could not even start the command) is retried here; a
/// nonzero exit from a restart that *ran* is returned as-is — restart's
/// own failures closed whatever they had opened, and the caller decides
/// between target-retry and source-recovery.
async fn restart_with_retry(
    sys: &Sys,
    runner: RemoteRunner,
    host: &str,
    local: &str,
    pid: Pid,
    from_host: &str,
) -> SysResult<u32> {
    let mut status = 0u32;
    for attempt in 0..MIGRATE_TRIES {
        if attempt > 0 {
            sys.sleep_us(MIGRATE_BACKOFF_US << (attempt - 1)).await?;
        }
        let args = RestartArgs {
            pid,
            dump_host: Some(from_host.to_string()),
            demand: false,
        };
        let r = run_on(sys, runner, host, local, "restart", move |s| async move {
            restart(&s, &args).await.as_u16() as u32
        })
        .await;
        status = match r {
            Ok(s) => s,
            Err(e) => e.as_u16() as u32,
        };
        if status == 0 || !transient(status as u16) {
            break;
        }
    }
    Ok(status)
}

/// Asks the source machine whether `pid` still runs there, by sending
/// the no-op `SIGCONT` (harmless to a process that is not stopped).
/// `ESRCH` is the only answer that means "dead"; any transport failure
/// reads as "maybe alive", the conservative side — restarting dumps
/// while the original may still run would *duplicate* the process.
async fn probe_alive(
    sys: &Sys,
    runner: RemoteRunner,
    from_host: &str,
    local: &str,
    pid: Pid,
) -> SysResult<bool> {
    let mut status = 0u32;
    for attempt in 0..MIGRATE_TRIES {
        if attempt > 0 {
            sys.sleep_us(MIGRATE_BACKOFF_US << (attempt - 1)).await?;
        }
        let r = run_on(
            sys,
            runner,
            from_host,
            local,
            "probe",
            move |s| async move {
                match s.kill(pid, Signal::SIGCONT).await {
                    Ok(()) => 0,
                    Err(e) => e.as_u16() as u32,
                }
            },
        )
        .await;
        status = match r {
            Ok(s) => s,
            Err(e) => e.as_u16() as u32,
        };
        if !transient(status as u16) {
            break;
        }
    }
    Ok(status != Errno::ESRCH.as_u16() as u32)
}

/// Verifies the three dump files exist and fully decode — magic
/// numbers, lengths, the lot — reading them through `prefix` (the
/// `/n/<host>` mount when the dump is remote).
async fn verify_dumps(sys: &Sys, prefix: &str, pid: Pid) -> SysResult<()> {
    let names = dump_file_names(pid);

    // a.outXXXXX: valid header and a body at least as long as the
    // header promises (a torn text/data segment must not pass).
    let bytes = read_whole(sys, &format!("{prefix}{}", names.a_out)).await?;
    let header = AoutHeader::decode(&bytes).map_err(|_| Errno::ENOEXEC)?;
    let need = aout::AOUT_HEADER_LEN as u64 + header.a_text as u64 + header.a_data as u64;
    if (bytes.len() as u64) < need {
        return Err(Errno::ENOEXEC);
    }

    let bytes = read_whole(sys, &format!("{prefix}{}", names.files)).await?;
    FilesFile::decode(&bytes).map_err(|_| Errno::EINVAL)?;

    let bytes = read_whole(sys, &format!("{prefix}{}", names.stack)).await?;
    StackFile::decode(&bytes).map_err(|_| Errno::EINVAL)?;
    Ok(())
}

/// Reads a whole file, retrying transient NFS timeouts with backoff.
async fn read_whole(sys: &Sys, path: &str) -> SysResult<Vec<u8>> {
    let mut last = Errno::EIO;
    for attempt in 0..MIGRATE_TRIES {
        if attempt > 0 {
            sys.sleep_us(MIGRATE_BACKOFF_US << (attempt - 1)).await?;
        }
        let r = async {
            let fd = sys.open(path, 0, 0).await?;
            let bytes = sys.read_all(fd).await;
            let _ = sys.close(fd).await;
            bytes
        }
        .await;
        match r {
            Ok(bytes) => return Ok(bytes),
            Err(e) => {
                last = e;
                if !transient(e.as_u16()) {
                    break;
                }
            }
        }
    }
    Err(last)
}

/// Removes the dump files — the eager triple plus any pre-copy
/// `deltaXXXXX` (best-effort, two tries each: a dropped NFS Remove
/// reply usually means the unlink *landed* anyway). Anything that
/// still survives is for [`ukernel::World::host_reap_orphan_dumps`].
pub async fn cleanup_dumps(sys: &Sys, prefix: &str, pid: Pid) {
    let names = dump_file_names(pid);
    for name in [&names.a_out, &names.files, &names.stack, &names.delta] {
        let path = format!("{prefix}{name}");
        if sys.unlink(&path).await.is_err() {
            let _ = sys.unlink(&path).await;
        }
    }
}

/// **`undump`**: combine an executable and a core dump into a new
/// executable — the utility §4.3 notes we get "for free".
pub async fn undump_cmd(
    sys: &Sys,
    exe_path: &str,
    core_path: &str,
    out_path: &str,
) -> SysResult<()> {
    let fd = sys.open(exe_path, 0, 0).await?;
    let exe = sys.read_all(fd).await?;
    sys.close(fd).await?;
    let fd = sys.open(core_path, 0, 0).await?;
    let core = sys.read_all(fd).await?;
    sys.close(fd).await?;
    let merged = aout::undump(&exe, &core).map_err(|_| Errno::ENOEXEC)?;
    let fd = sys.creat(out_path, 0o700).await?;
    sys.write(fd, &merged).await?;
    sys.close(fd).await?;
    Ok(())
}
