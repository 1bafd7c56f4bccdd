//! The simulated Sun UNIX 3.0 kernel.
//!
//! This crate is the substrate the paper modified: a multi-machine Unix
//! with processes, a scheduler, signals, a filesystem namespace joined by
//! NFS `/n/<host>` mounts, terminals and `rsh` — plus the paper's
//! additions, which are clearly marked where they appear:
//!
//! * **§5.1 kernel modifications** (behind [`KernelConfig::track_names`]):
//!   the `user` structure carries the current-working-directory path
//!   string, maintained by `chdir()`; every open-file structure carries a
//!   dynamically allocated absolute path name, set by `open()`/`creat()`
//!   and released by `close()`.
//! * **§5.2 kernel additions**: the `SIGDUMP` signal, whose default
//!   action terminates the process after writing `a.outXXXXX`,
//!   `filesXXXXX` and `stackXXXXX` into `/usr/tmp`; and the
//!   `rest_proc()` system call, built on an `execve()` that honours the
//!   migration flag and exact-initial-stack-size variable.
//! * **§7 extension** (behind [`KernelConfig::virtualize_ids`]): old-pid
//!   and old-hostname fields in the user structure, virtualised
//!   `getpid()`/`gethostname()`, and the `*_real` system calls.
//!
//! # Structure
//!
//! A [`World`] owns every [`Machine`]; each machine has its own
//! filesystem, process table, open-file table and virtual clock. Guest
//! workloads are `m68vm` programs executed instruction by instruction;
//! utility programs (`dumpproc`, `restart`, daemons) are *native
//! processes*: Rust `async` bodies the kernel polls on the world's own
//! thread, one system call per `.await`, with every call charged
//! simulated time from the [`simtime::CostModel`].

pub mod config;
pub mod file;
pub mod ktrace;
pub mod machine;
pub mod namei;
pub mod native;
pub mod proc;
pub mod proctable;
pub mod signal;
pub mod sys;
pub mod user;
pub mod world;

pub use config::KernelConfig;
pub use file::{Fd, FileKind, FileStruct};
pub use ktrace::{Ktrace, KtraceEvent, KtraceRecord, KtraceResult};
pub use machine::{Machine, MachineId};
pub use native::{NativeProgram, Sys};
pub use proc::{Body, ExitInfo, Proc, ProcState};
pub use proctable::ProcTable;
pub use sys::args::{IoctlReq, Syscall, SyscallResult, Whence};
pub use sys::ctx::SysCtx;
pub use user::{FileRef, UserArea};
pub use world::{ImageGeometry, RunOutcome, World};
