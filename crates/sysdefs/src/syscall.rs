//! System-call numbers for the simulated kernel.
//!
//! The numbering follows 4.2BSD where a call existed there; the paper's
//! additions and our few simulator conveniences are placed above 150, the
//! way local kernels customarily extended the table.

use crate::Errno;
use core::fmt;

/// A system-call number, as placed in `d0` before a `TRAP #0` by guest
/// (VM) programs, or named directly by native programs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum Sysno {
    /// Terminate the calling process.
    Exit = 1,
    /// Create a new process.
    Fork = 2,
    /// Read from a descriptor.
    Read = 3,
    /// Write to a descriptor.
    Write = 4,
    /// Open a file.
    Open = 5,
    /// Close a descriptor.
    Close = 6,
    /// Wait for a child to terminate.
    Wait = 7,
    /// Create a file and open it for output.
    Creat = 8,
    /// Make a hard link.
    Link = 9,
    /// Remove a directory entry.
    Unlink = 10,
    /// Change the current working directory.
    Chdir = 12,
    /// Get file status (by path).
    Stat = 18,
    /// Move the read/write pointer.
    Lseek = 19,
    /// Get the process id.
    Getpid = 20,
    /// Set real and effective user ids.
    Setreuid = 126,
    /// Get the real user id.
    Getuid = 24,
    /// Send a signal to a process.
    Kill = 37,
    /// Duplicate a descriptor.
    Dup = 41,
    /// Create a pipe.
    Pipe = 42,
    /// Set a signal disposition (simplified `sigvec`).
    Sigvec = 108,
    /// Set the blocked-signal mask, returning the old one.
    Sigsetmask = 110,
    /// Schedule a SIGALRM after N seconds (0 cancels); returns seconds
    /// that remained on any previous alarm.
    Alarm = 27,
    /// Return from a signal handler.
    Sigreturn = 139,
    /// Make a directory.
    Mkdir = 136,
    /// Make a symbolic link.
    Symlink = 57,
    /// Read the value of a symbolic link.
    Readlink = 58,
    /// Execute a file.
    Execve = 59,
    /// Get/set terminal parameters (simplified `ioctl`).
    Ioctl = 54,
    /// Create a socket (only far enough to demonstrate the limitation).
    Socket = 97,
    /// Get the hostname.
    Gethostname = 87,
    /// Get the time of day (virtual micro-seconds since boot).
    Gettimeofday = 116,
    /// Sleep for a number of micro-seconds (simulator convenience; the
    /// original used `sleep(3)` built on `alarm`/`pause`).
    Sleep = 150,
    /// **New in this system**: overlay the caller with a dumped process
    /// image, resuming it where `SIGDUMP` stopped it (the paper's addition).
    RestProc = 151,
    /// Extension (§7 of the paper): the true process id even when id
    /// virtualization is enabled.
    GetpidReal = 152,
    /// Extension (§7 of the paper): the true hostname even when id
    /// virtualization is enabled.
    GethostnameReal = 153,
    /// Get the current working directory string (the kernel knows it now —
    /// this is the paper's `user`-structure modification made visible).
    Getwd = 154,
}

impl Sysno {
    /// Decodes a raw syscall number from a trap.
    pub fn from_number(n: u32) -> Result<Sysno, Errno> {
        use Sysno::*;
        Ok(match n {
            1 => Exit,
            2 => Fork,
            3 => Read,
            4 => Write,
            5 => Open,
            6 => Close,
            7 => Wait,
            8 => Creat,
            9 => Link,
            10 => Unlink,
            12 => Chdir,
            18 => Stat,
            19 => Lseek,
            20 => Getpid,
            24 => Getuid,
            37 => Kill,
            41 => Dup,
            42 => Pipe,
            54 => Ioctl,
            57 => Symlink,
            58 => Readlink,
            59 => Execve,
            87 => Gethostname,
            97 => Socket,
            108 => Sigvec,
            110 => Sigsetmask,
            27 => Alarm,
            116 => Gettimeofday,
            126 => Setreuid,
            136 => Mkdir,
            139 => Sigreturn,
            150 => Sleep,
            151 => RestProc,
            152 => GetpidReal,
            153 => GethostnameReal,
            154 => Getwd,
            _ => return Err(Errno::EINVAL),
        })
    }

    /// Returns the raw table index.
    pub fn number(self) -> u32 {
        self as u32
    }
}

impl fmt::Display for Sysno {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// One row of the declarative trap table: everything the kernel entry
/// path needs to know about a system call besides its handler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SyscallMeta {
    /// The call's number.
    pub no: Sysno,
    /// The short name used in traces and statistics.
    pub name: &'static str,
}

const fn row(no: Sysno, name: &'static str) -> SyscallMeta {
    SyscallMeta { no, name }
}

/// The trap table, one row per system call, in the kernel's dispatch
/// order (the order of the `Syscall` enum). The order is stable: tools
/// index into it and tests pin it.
pub const SYSCALL_TABLE: &[SyscallMeta] = &[
    row(Sysno::Exit, "exit"),
    row(Sysno::Fork, "fork"),
    row(Sysno::Read, "read"),
    row(Sysno::Write, "write"),
    row(Sysno::Open, "open"),
    row(Sysno::Creat, "creat"),
    row(Sysno::Close, "close"),
    row(Sysno::Wait, "wait"),
    row(Sysno::Link, "link"),
    row(Sysno::Unlink, "unlink"),
    row(Sysno::Chdir, "chdir"),
    row(Sysno::Stat, "stat"),
    row(Sysno::Lseek, "lseek"),
    row(Sysno::Getpid, "getpid"),
    row(Sysno::Getuid, "getuid"),
    row(Sysno::Kill, "kill"),
    row(Sysno::Dup, "dup"),
    row(Sysno::Pipe, "pipe"),
    row(Sysno::Ioctl, "ioctl"),
    row(Sysno::Symlink, "symlink"),
    row(Sysno::Readlink, "readlink"),
    row(Sysno::Execve, "execve"),
    row(Sysno::Gethostname, "gethostname"),
    row(Sysno::Socket, "socket"),
    row(Sysno::Sigvec, "sigvec"),
    row(Sysno::Sigsetmask, "sigsetmask"),
    row(Sysno::Alarm, "alarm"),
    row(Sysno::Gettimeofday, "gettimeofday"),
    row(Sysno::Setreuid, "setreuid"),
    row(Sysno::Mkdir, "mkdir"),
    row(Sysno::Sigreturn, "sigreturn"),
    row(Sysno::Sleep, "sleep"),
    row(Sysno::RestProc, "rest_proc"),
    row(Sysno::GetpidReal, "getpid_real"),
    row(Sysno::GethostnameReal, "gethostname_real"),
    row(Sysno::Getwd, "getwd"),
];

/// The highest call number [`Sysno`] names.
const MAX_NUMBER: usize = Sysno::Getwd as usize;

/// `ROW_OF[n]` is the [`SYSCALL_TABLE`] row of call number `n`, built
/// from the table at compile time (`u8::MAX` marks a number no row
/// carries).
const ROW_OF: [u8; MAX_NUMBER + 1] = {
    let mut rows = [u8::MAX; MAX_NUMBER + 1];
    let mut i = 0;
    while i < SYSCALL_TABLE.len() {
        rows[SYSCALL_TABLE[i].no as usize] = i as u8;
        i += 1;
    }
    rows
};

/// Whether `a` sorts before `b`, bytewise (`str`'s `Ord`, usable in a
/// const initialiser).
const fn name_lt(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let mut i = 0;
    while i < a.len() && i < b.len() {
        if a[i] != b[i] {
            return a[i] < b[i];
        }
        i += 1;
    }
    a.len() < b.len()
}

/// The [`SYSCALL_TABLE`] rows in name order, the order in which
/// statistics kept per row are read back.
pub const SYSCALL_ROWS_BY_NAME: [usize; SYSCALL_TABLE.len()] = {
    let mut order = [0; SYSCALL_TABLE.len()];
    let mut i = 0;
    while i < order.len() {
        // Insertion sort: shift the sorted prefix up past row `i`.
        let mut j = i;
        while j > 0 && name_lt(SYSCALL_TABLE[i].name, SYSCALL_TABLE[order[j - 1]].name) {
            order[j] = order[j - 1];
            j -= 1;
        }
        order[j] = i;
        i += 1;
    }
    order
};

impl Sysno {
    /// This call's row index in [`SYSCALL_TABLE`]: one load from a
    /// table built at compile time, since the dispatcher asks on every
    /// call.
    pub fn row(self) -> usize {
        ROW_OF[self as usize] as usize
    }

    /// This call's row in [`SYSCALL_TABLE`].
    pub fn meta(self) -> &'static SyscallMeta {
        &SYSCALL_TABLE[self.row()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all() {
        use Sysno::*;
        for s in [
            Exit,
            Fork,
            Read,
            Write,
            Open,
            Close,
            Wait,
            Creat,
            Link,
            Unlink,
            Chdir,
            Stat,
            Lseek,
            Getpid,
            Getuid,
            Kill,
            Dup,
            Pipe,
            Ioctl,
            Symlink,
            Readlink,
            Execve,
            Gethostname,
            Socket,
            Sigvec,
            Sigsetmask,
            Alarm,
            Gettimeofday,
            Setreuid,
            Mkdir,
            Sigreturn,
            Sleep,
            RestProc,
            GetpidReal,
            GethostnameReal,
            Getwd,
        ] {
            assert_eq!(Sysno::from_number(s.number()).unwrap(), s);
        }
    }

    #[test]
    fn unknown_number_is_einval() {
        assert_eq!(Sysno::from_number(0), Err(Errno::EINVAL));
        assert_eq!(Sysno::from_number(9999), Err(Errno::EINVAL));
    }

    #[test]
    fn paper_additions_are_local_numbers() {
        assert_eq!(Sysno::RestProc.number(), 151);
        assert!(Sysno::RestProc.number() > 150 - 1);
    }

    #[test]
    fn table_rows_are_unique_and_complete() {
        let mut numbers = std::collections::BTreeSet::new();
        let mut names = std::collections::BTreeSet::new();
        for m in SYSCALL_TABLE {
            assert!(numbers.insert(m.no.number()), "duplicate number {}", m.no);
            assert!(names.insert(m.name), "duplicate name {}", m.name);
            assert!(!m.name.is_empty());
            // meta() must land back on the same row.
            assert_eq!(m.no.meta().name, m.name);
        }
        // Every decodable number has a row (from_number and the table
        // cannot drift apart).
        for n in 0..=200u32 {
            if let Ok(s) = Sysno::from_number(n) {
                assert!(
                    SYSCALL_TABLE.iter().any(|m| m.no == s),
                    "{s} missing from SYSCALL_TABLE"
                );
            }
        }
    }

    #[test]
    fn row_indexes_the_table() {
        for (i, m) in SYSCALL_TABLE.iter().enumerate() {
            assert_eq!(m.no.row(), i, "{}", m.name);
        }
    }

    #[test]
    fn rows_by_name_sort_every_row_once() {
        let names: Vec<&str> = SYSCALL_ROWS_BY_NAME
            .iter()
            .map(|&r| SYSCALL_TABLE[r].name)
            .collect();
        let mut sorted: Vec<&str> = SYSCALL_TABLE.iter().map(|m| m.name).collect();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }

    #[test]
    fn table_order_is_stable() {
        // The first rows are the dispatch order tools index by; pin the
        // head and the paper's addition so reordering cannot slip in.
        assert_eq!(SYSCALL_TABLE[0].name, "exit");
        assert_eq!(SYSCALL_TABLE[1].name, "fork");
        assert_eq!(SYSCALL_TABLE[2].name, "read");
        assert_eq!(SYSCALL_TABLE[4].name, "open");
        assert_eq!(SYSCALL_TABLE[32].name, "rest_proc");
        assert_eq!(SYSCALL_TABLE.len(), 36);
    }
}
