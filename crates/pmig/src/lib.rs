//! The paper's contribution at user level: `dumpproc`, `restart`,
//! `migrate` and `undump`.
//!
//! "Most of the implementation code for process migration is at the user
//! level. By this we mean that all commands that have to do with process
//! migration are user applications." (§4.1) These commands run as native
//! processes under the simulated kernel, using only the system-call
//! interface — exactly the position the paper's C programs were in.
//!
//! * [`dumpproc`] — kill a process with `SIGDUMP`, then rewrite its
//!   `filesXXXXX`: resolve symbolic links, map terminals to `/dev/tty`,
//!   and prepend `/n/<machine>` to local paths (§4.4).
//! * [`restart`] — verify the three dump files, re-establish
//!   credentials, cwd, open files (with `/dev/null` placeholders) and
//!   terminal modes, then call `rest_proc()` (§4.4).
//! * [`migrate`] — compose the two across machines with `rsh` (§4.1), or
//!   with the §7 migration daemon ([`RemoteRunner`]). Its failure-atomic
//!   core, [`migrate_with`], runs three phases: `freeze`,
//!   `restart_with_retry` and `recover_at_source`.
//! * [`undump_cmd`] — combine an executable and a core dump (§4.3's freebie).
//!
//! The [`proto`] module is the live-migration engine: its eager protocol
//! is the daemon `migrate` itself, and pre-copy and demand run the same
//! phases as steps. The [`api`] module offers world-level helpers for
//! tests, examples and the benchmark harness; [`workloads`] holds the
//! guest programs the evaluation uses, including the paper's §6.2 test
//! program.

pub mod api;
pub mod commands;
pub mod proto;
pub mod resolve;
pub mod workloads;

pub use api::{find_restarted, migrate_process, MigrationError};
pub use commands::{
    dumpproc, migrate, migrate_with, restart, undump_cmd, MigrateOutcome, RemoteRunner,
    RestartArgs, Survivor,
};
pub use proto::{migrate_proto, MigrationReport, Protocol};
pub use resolve::resolve_links;
