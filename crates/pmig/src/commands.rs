//! The three user commands of §4.1 plus `undump`, implemented exactly as
//! §4.4 describes, against the simulated kernel's system-call interface.

use std::future::Future;

use aout::AoutHeader;
use dumpfmt::{dump_file_names, DeltaFile, FdRecord, FilesFile, StackFile};
use sysdefs::limits::NOFILE;
use sysdefs::{Errno, OpenFlags, Pid, Signal, SysResult};
use ukernel::{Sys, Whence};

use crate::api::status_errno;
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
        match open_first(sys, &[&names.a_out, &names.delta]).await {
            Ok((_, fd)) => break fd,
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
/// with the protocol engine (`crate::proto`), whose page stream and
/// residual drain give up on the same schedule as every step here.
pub(crate) const MIGRATE_TRIES: u32 = 3;

/// The first retry backoff; later retries double it.
const MIGRATE_BACKOFF_US: u64 = 1_000_000;

/// Exit statuses worth retrying with backoff: transport failures
/// (dropped NFS RPCs, dead rsh/daemon sessions) and dump-side failures
/// that a fresh `SIGDUMP` can redo because the victim survived them
/// (torn or missing dump files, transient ENOSPC).
fn transient(status: u32) -> bool {
    use Errno::*;
    matches!(
        status_errno(status),
        Some(ETIMEDOUT | EHOSTDOWN | EHOSTUNREACH | ENOENT | EINVAL | EIO | ENOSPC)
    )
}

/// A subcommand's exit status for `r`: 0, or the errno that failed it.
pub(crate) fn errno_status(r: SysResult<()>) -> u32 {
    r.err().map_or(0, |e| e.as_u16() as u32)
}

/// **`migrate`** (§4.1): "move a process from one machine to another.
/// This is simply a combination of the two previous commands", executed
/// as subprocesses, "by using the remote shell command rsh ... if
/// necessary" — or, with [`RemoteRunner::Daemon`], through the §7
/// migration daemon.
///
/// Returns the restart command's exit status (0 = the process is now
/// running on `to_host`), and reports on stdout which side the process
/// survived on when the migration did not complete.
pub async fn migrate(
    sys: &Sys,
    pid: Pid,
    from_host: &str,
    to_host: &str,
    runner: RemoteRunner,
) -> SysResult<u32> {
    let out = migrate_with(sys, pid, from_host, to_host, runner).await?;
    report_survivor(sys, &out, from_host, to_host).await;
    Ok(out.status)
}

/// Writes the failure-atomicity report line (best-effort; the command
/// may have no terminal).
async fn report_survivor(sys: &Sys, out: &MigrateOutcome, from_host: &str, to_host: &str) {
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

/// One migration as seen from the machine a phase of it runs on.
pub(crate) struct Route {
    pid: Pid,
    from_host: String,
    runner: RemoteRunner,
    /// The machine this command runs on.
    local: String,
    /// The dump files' path prefix: empty on the source, `/n/<host>`
    /// elsewhere.
    prefix: String,
}

impl Route {
    /// The route for moving `pid` off `from_host` over `runner`, from
    /// the machine `sys` runs on.
    pub(crate) async fn new(
        sys: &Sys,
        pid: Pid,
        from_host: &str,
        runner: RemoteRunner,
    ) -> SysResult<Route> {
        let local = local_host(sys).await?;
        let prefix = if from_host == local {
            String::new()
        } else {
            format!("/n/{from_host}")
        };
        Ok(Route {
            pid,
            from_host: from_host.to_string(),
            runner,
            local,
            prefix,
        })
    }

    /// Runs `prog` as a subcommand on `host`: locally when `host` is this
    /// machine, otherwise over the route's transport. An `Err` is a
    /// transport failure: the subcommand never started.
    async fn run_on<F: Future<Output = u32> + 'static>(
        &self,
        sys: &Sys,
        host: &str,
        comm: &str,
        prog: impl FnOnce(Sys) -> F + 'static,
    ) -> SysResult<u32> {
        if host == self.local {
            sys.run_local(comm, prog).await
        } else {
            match self.runner {
                RemoteRunner::Rsh => sys.rsh(host, comm, prog).await,
                RemoteRunner::Daemon => sys.daemon_spawn(host, comm, prog).await,
            }
        }
    }

    /// [`Route::run_on`], retrying transient failures with backoff;
    /// returns the last status, a transport failure folded in.
    async fn run_retrying<F: Future<Output = u32> + 'static>(
        &self,
        sys: &Sys,
        host: &str,
        comm: &str,
        prog: impl FnOnce(Sys) -> F + Clone + 'static,
    ) -> SysResult<u32> {
        let mut status = 0u32;
        for attempt in 0..MIGRATE_TRIES {
            if attempt > 0 {
                sys.sleep_us(MIGRATE_BACKOFF_US << (attempt - 1)).await?;
            }
            status = self
                .run_on(sys, host, comm, prog.clone())
                .await
                .unwrap_or_else(|e| e.as_u16() as u32);
            if !transient(status) {
                break;
            }
        }
        Ok(status)
    }
}

/// The failure-atomic migration behind [`migrate`], in three phases:
/// `freeze` the victim into verified dumps, restart it on the
/// destination (`restart_with_retry`), and when the destination will
/// not take it, `recover_at_source`. `/usr/tmp` is clean on every
/// exit path.
pub async fn migrate_with(
    sys: &Sys,
    pid: Pid,
    from_host: &str,
    to_host: &str,
    runner: RemoteRunner,
) -> SysResult<MigrateOutcome> {
    let route = Route::new(sys, pid, from_host, runner).await?;
    // The dumps stay put until one restart has succeeded.
    let args = RestartArgs {
        pid,
        dump_host: Some(from_host.to_string()),
        demand: false,
    };
    let status = match freeze(sys, &route).await? {
        Freeze::Dumped => restart_with_retry(sys, &route, to_host, args).await?,
        Freeze::Running(status) => {
            return Ok(MigrateOutcome {
                status,
                survivor: Survivor::Source,
            })
        }
        Freeze::Dead(status) => status,
    };
    if status != 0 {
        // The target would not take it, or the victim died in a freeze
        // that did not verify. Recover the process at the source from
        // the dumps: restart verifies them itself, and only when that
        // fails too is the process lost, reported loudly.
        return recover_at_source(sys, &route, status).await;
    }
    cleanup_dumps(sys, &route.prefix, pid).await;
    Ok(MigrateOutcome {
        status: 0,
        survivor: Survivor::Target,
    })
}

/// How a [`freeze`] ended; a failed one carries the status that ended it.
pub(crate) enum Freeze {
    /// Verified dumps of the frozen victim wait at the source.
    Dumped,
    /// The victim still runs at the source, and no dumps remain.
    Running(u32),
    /// The victim is dead; its unverified dumps stay to recover it from.
    Dead(u32),
}

/// Phase 1, the freeze: dump at the source, then verify all three dump
/// files fully decode while they are still the only recoverable copy of
/// the process — a migration must never delete dumps, or walk away from
/// them, on the strength of files it has not actually read. The pair
/// retries together: a dump failure, or a torn write the victim
/// survived, can be redone with a fresh `SIGDUMP`.
pub(crate) async fn freeze(sys: &Sys, route: &Route) -> SysResult<Freeze> {
    let pid = route.pid;
    let mut status = 0u32;
    for attempt in 0..MIGRATE_TRIES {
        if attempt > 0 {
            sys.sleep_us(MIGRATE_BACKOFF_US << (attempt - 1)).await?;
        }
        let prog = move |s: Sys| async move { errno_status(dumpproc(&s, pid).await) };
        let ran = route.run_on(sys, &route.from_host, "dumpproc", prog).await;
        status = ran.unwrap_or_else(|e| e.as_u16() as u32);
        if status == 0 {
            let Err(e) = verify_dumps(sys, route).await else {
                return Ok(Freeze::Dumped);
            };
            status = e.as_u16() as u32;
        }
        // A dumpproc whose transport failed never started: the victim is
        // untouched. One that ran may have failed after its SIGDUMP
        // wrote the dumps and ended the victim (a dropped NFS readlink
        // while it rewrote the file table, say), and dumps that do not
        // verify may be all that is left of it. Only a live victim can
        // be re-dumped. A dead one's dumps are its last copy: never
        // sweep those on a retry, leave them for the recovery.
        if ran.is_ok() && !probe_alive(sys, route).await? {
            return Ok(Freeze::Dead(status));
        }
        // The victim lives on (the kernel does not kill a process it
        // could not save, nor one whose torn dump it lived through):
        // sweep the leftovers and retry.
        cleanup_dumps(sys, &route.prefix, pid).await;
        if !transient(status) {
            break;
        }
    }
    // Nothing was ever irrevocably done: the process still runs at the
    // source, and no usable dumps remain.
    cleanup_dumps(sys, &route.prefix, pid).await;
    Ok(Freeze::Running(status))
}

/// Phase 2: runs `restart` on `host` (`args.demand` is its `-d`),
/// retrying transient failures. A nonzero exit from a restart that
/// *ran* is returned as-is: restart closed whatever it had opened, and
/// the caller decides between the target and source recovery.
pub(crate) async fn restart_with_retry(
    sys: &Sys,
    route: &Route,
    host: &str,
    args: RestartArgs,
) -> SysResult<u32> {
    let prog = move |s: Sys| async move { restart(&s, &args).await.as_u16() as u32 };
    route.run_retrying(sys, host, "restart", prog).await
}

/// Phase 3: restarts the dumped process back at the source (restart
/// re-verifies everything itself), then sweeps the dumps. The outcome
/// carries `status`, the failure that sent the process back; the
/// process is lost only when this restart fails too.
pub(crate) async fn recover_at_source(
    sys: &Sys,
    route: &Route,
    status: u32,
) -> SysResult<MigrateOutcome> {
    let args = RestartArgs {
        pid: route.pid,
        dump_host: Some(route.from_host.clone()),
        demand: false,
    };
    let recovered = restart_with_retry(sys, route, &route.from_host, args).await?;
    cleanup_dumps(sys, &route.prefix, route.pid).await;
    Ok(MigrateOutcome {
        status,
        survivor: if recovered == 0 {
            Survivor::Source
        } else {
            Survivor::Lost
        },
    })
}

/// Asks the source machine whether the victim still runs there, by
/// sending the no-op `SIGCONT` (harmless to a process that is not
/// stopped). `ESRCH` is the only answer that means "dead"; any
/// transport failure reads as "maybe alive", the conservative side —
/// restarting dumps while the original may still run would *duplicate*
/// the process.
async fn probe_alive(sys: &Sys, route: &Route) -> SysResult<bool> {
    let pid = route.pid;
    let prog = move |s: Sys| async move { errno_status(s.kill(pid, Signal::SIGCONT).await) };
    let status = route
        .run_retrying(sys, &route.from_host, "probe", prog)
        .await?;
    Ok(status_errno(status) != Some(Errno::ESRCH))
}

/// Verifies the three dump files exist and fully decode — magic
/// numbers, lengths, entry point, the lot — reading them through the
/// route's prefix. A pre-copy freeze writes `deltaXXXXX` in place of
/// the `a.outXXXXX`, and either passes, as in `dumpproc`'s poll.
async fn verify_dumps(sys: &Sys, route: &Route) -> SysResult<()> {
    let names = dump_file_names(route.pid);
    let [a_out, delta, files, stack] = [&names.a_out, &names.delta, &names.files, &names.stack]
        .map(|n| format!("{}{n}", route.prefix));

    // An a.out's verdict needs only its header and its length, so only
    // those are kept of it; a delta decodes whole.
    let keep = |which| match which {
        0 => aout::AOUT_HEADER_LEN,
        _ => usize::MAX,
    };
    let image_ok = match read_whole(sys, &[&a_out, &delta], keep).await? {
        (0, head, len) => aout::check_executable(&head, len).is_ok(),
        (_, bytes, _) => DeltaFile::decode(&bytes).is_ok(),
    };
    if !image_ok {
        return Err(Errno::ENOEXEC);
    }

    let (_, bytes, _) = read_whole(sys, &[&files], |_| usize::MAX).await?;
    FilesFile::decode(&bytes).map_err(|_| Errno::EINVAL)?;

    let (_, bytes, _) = read_whole(sys, &[&stack], |_| usize::MAX).await?;
    StackFile::decode(&bytes).map_err(|_| Errno::EINVAL)?;
    Ok(())
}

/// Opens the first of `paths` that exists, returning its index and
/// descriptor; `ENOENT` when none does.
async fn open_first(sys: &Sys, paths: &[&str]) -> SysResult<(usize, usize)> {
    for (i, path) in paths.iter().enumerate() {
        match sys.open(path, 0, 0).await {
            Err(Errno::ENOENT) => {}
            opened => return opened.map(|fd| (i, fd)),
        }
    }
    Err(Errno::ENOENT)
}

/// Reads the whole of the first of `paths` that exists, retrying
/// transient NFS timeouts with backoff; returns which path it read, the
/// first `keep(which)` bytes of it and its length.
async fn read_whole(
    sys: &Sys,
    paths: &[&str],
    keep: impl Fn(usize) -> usize,
) -> SysResult<(usize, Vec<u8>, usize)> {
    let mut last = Errno::EIO;
    for attempt in 0..MIGRATE_TRIES {
        if attempt > 0 {
            sys.sleep_us(MIGRATE_BACKOFF_US << (attempt - 1)).await?;
        }
        let r: SysResult<_> = async {
            let (which, fd) = open_first(sys, paths).await?;
            let read = sys.read_through(fd, keep(which)).await;
            let _ = sys.close(fd).await;
            let (kept, len) = read?;
            Ok((which, kept, len))
        }
        .await;
        match r {
            Err(e) if transient(e.as_u16().into()) => last = e,
            r => return r,
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

#[cfg(test)]
mod tests {
    use super::*;
    use m68vm::{assemble, IsaLevel};
    use sysdefs::{Credentials, Gid, Uid};
    use ukernel::{KernelConfig, MachineId, World};

    /// Runs `verify_dumps` for `pid`'s dumps as a native command on
    /// `brick`, the machine that wrote them.
    fn verify(w: &mut World, brick: MachineId, pid: Pid) -> SysResult<()> {
        let cred = Credentials::user(Uid(100), Gid(10));
        let cmd = w.spawn_native_proc(brick, "verify", None, cred, move |sys| async move {
            let r = async {
                let route = Route::new(&sys, pid, "brick", RemoteRunner::Daemon).await?;
                verify_dumps(&sys, &route).await
            };
            errno_status(r.await)
        });
        let status = w
            .run_until_exit(brick, cmd, 2_000_000)
            .expect("exits")
            .status;
        match crate::api::status_errno(status) {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// `verify_dumps` keeps only the a.out's header and length, yet
    /// refuses every a.out the full parse refuses: cut one byte short of
    /// its data, cut inside its header, with a bad magic, or with its
    /// entry point past the text. The image spans several of the
    /// command's 8 KB reads.
    #[test]
    fn verify_dumps_refuses_every_aout_the_parse_refuses() {
        let alice = Credentials::user(Uid(100), Gid(10));
        let mut w = World::new(KernelConfig::paper());
        let brick = w.add_machine("brick", IsaLevel::Isa1);
        let hog = assemble(&crate::workloads::dirty_hog_program(1_000_000, 4 * 0x2000)).unwrap();
        w.install_program(brick, "/bin/hog", &hog).unwrap();
        let pid = w
            .spawn_vm_proc(brick, "/bin/hog", None, alice.clone())
            .unwrap();
        w.run_slices(10);
        assert_eq!(
            crate::api::run_dumpproc(&mut w, brick, pid, alice).unwrap(),
            0
        );
        let name = dump_file_names(pid).a_out;
        let dump = w.host_read_file(brick, &name).unwrap().to_vec();
        assert!(dump.len() > 3 * 8192, "{} bytes", dump.len());
        assert_eq!(verify(&mut w, brick, pid), Ok(()));

        let text = AoutHeader::decode(&dump).unwrap().a_text;
        let mut bad_magic = dump.clone();
        bad_magic[3] ^= 0xff;
        let mut bad_entry = dump.clone();
        bad_entry[20..24].copy_from_slice(&(m68vm::MemoryLayout::TEXT_BASE + text).to_be_bytes());
        for (what, bytes) in [
            ("one byte short", dump[..dump.len() - 1].to_vec()),
            ("cut in the header", dump[..20].to_vec()),
            ("bad magic", bad_magic),
            ("entry past the text", bad_entry),
        ] {
            assert!(aout::parse_executable(&bytes).is_err(), "{what}");
            w.host_write_file(brick, &name, bytes).unwrap();
            assert_eq!(verify(&mut w, brick, pid), Err(Errno::ENOEXEC), "{what}");
        }
        w.host_write_file(brick, &name, dump).unwrap();
        assert_eq!(verify(&mut w, brick, pid), Ok(()));
    }
}
