//! The per-process `user` structure and its paper modifications.

use sysdefs::limits::NOFILE;
use sysdefs::{Credentials, Pid};
use vfs::Ino;

use dumpfmt::SignalState;

/// A reference to an inode anywhere in the world: the machine that owns
/// the filesystem plus the inode number there.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FileRef {
    /// Index of the owning machine.
    pub machine: usize,
    /// Inode on that machine.
    pub ino: Ino,
}

/// The swappable per-process data (4.2BSD `struct user`).
#[derive(Clone, Debug)]
pub struct UserArea {
    /// User credentials.
    pub cred: Credentials,
    /// Current working directory as an inode reference (`u_cdir` in the
    /// original kernel — this is all the unmodified kernel keeps, which
    /// is precisely why it "does not keep enough information ... to
    /// deduce in a non-trivial way what these files are").
    pub cwd: FileRef,
    /// **The paper's §5.1 modification**: "A character string of fixed
    /// size was added to this structure, which contains the full path
    /// name of the current directory." `None` until the first absolute
    /// `chdir()` initialises it (or always `None` on an unmodified
    /// kernel).
    pub cwd_path: Option<String>,
    /// Per-process descriptor table: indices into the machine's open
    /// file table. Fixed size, like the dump format requires.
    pub fds: [Option<usize>; NOFILE],
    /// Signal dispositions and blocked mask.
    pub sigs: SignalState,
    /// Controlling terminal (world tty id).
    pub tty: Option<u32>,
    /// **§7 extension**: the process id before migration, served by
    /// `getpid()` when id virtualization is enabled.
    pub old_pid: Option<Pid>,
    /// **§7 extension**: the hostname before migration, served by
    /// `gethostname()` when id virtualization is enabled.
    pub old_host: Option<String>,
}

impl UserArea {
    /// A fresh user area rooted at `cwd` with empty descriptors.
    pub fn new(cred: Credentials, cwd: FileRef) -> UserArea {
        UserArea {
            cred,
            cwd,
            cwd_path: None,
            fds: [None; NOFILE],
            sigs: SignalState::default(),
            tty: None,
            old_pid: None,
            old_host: None,
        }
    }

    /// The lowest free descriptor, as `open(2)` allocates them.
    pub fn lowest_free_fd(&self) -> Option<usize> {
        self.fds.iter().position(|f| f.is_none())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sysdefs::{Gid, Uid};

    fn ua() -> UserArea {
        UserArea::new(
            Credentials::user(Uid(10), Gid(10)),
            FileRef { machine: 0, ino: 0 },
        )
    }

    #[test]
    fn fd_allocation_is_lowest_first() {
        let mut u = ua();
        assert_eq!(u.lowest_free_fd(), Some(0));
        u.fds[0] = Some(7);
        u.fds[1] = Some(8);
        assert_eq!(u.lowest_free_fd(), Some(2));
        u.fds[0] = None;
        assert_eq!(u.lowest_free_fd(), Some(0));
    }

    #[test]
    fn fd_table_is_fixed_size() {
        let mut u = ua();
        for i in 0..NOFILE {
            u.fds[i] = Some(i);
        }
        assert_eq!(u.lowest_free_fd(), None);
    }

    #[test]
    fn cwd_path_starts_uninitialised() {
        let u = ua();
        assert!(u.cwd_path.is_none());
        assert!(u.old_pid.is_none());
    }
}
