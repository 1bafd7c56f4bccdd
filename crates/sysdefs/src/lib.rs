//! Shared Unix-flavoured vocabulary for the process-migration simulation.
//!
//! This crate defines the small, dependency-free types that every other
//! crate in the workspace speaks: error numbers, process/user/group ids,
//! open-file flags, file modes, signal numbers (including the paper's new
//! [`signal::Signal::SIGDUMP`]), system-call numbers, terminal flag bits and
//! system limits.
//!
//! Names deliberately stay close to their 4.2BSD / Sun UNIX 3.0 originals
//! (`Errno::ENOENT`, `OpenFlags::RDWR`, `NOFILE`) so that code reads like
//! the system the paper describes, adjusted to Rust casing conventions where
//! the API guidelines require it.

pub mod errno;
pub mod ids;
pub mod limits;
pub mod mode;
pub mod openflags;
pub mod signal;
pub mod syscall;
pub mod ttyflags;

pub use errno::Errno;
pub use ids::{Credentials, Gid, Pid, Uid};
pub use limits::{MAXPATHLEN, NOFILE};
pub use mode::Access;
pub use mode::FileMode;
pub use openflags::OpenFlags;
pub use signal::Signal;
pub use signal::{DefaultAction, Disposition};
pub use syscall::{SyscallMeta, Sysno, SYSCALL_ROWS_BY_NAME, SYSCALL_TABLE};
pub use ttyflags::TtyFlags;

/// Result type used by everything that can fail with a Unix error number.
pub type SysResult<T> = Result<T, Errno>;
