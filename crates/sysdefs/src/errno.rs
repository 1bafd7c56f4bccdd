//! Unix error numbers, following the 4.2BSD `errno.h` values.

use core::fmt;

/// A Unix error number as returned by a failing system call.
///
/// The numeric values match 4.2BSD so that dumped state and traces read
/// like the original system. [`Errno::EREMOTE`] is used by the simulated
/// NFS server when a lookup would cross one of the *server's own* remote
/// mounts — the condition behind the paper's observation that
/// "`/n/classic/n/brador/usr/foo` ... NFS does not allow this syntax".
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u16)]
pub enum Errno {
    /// Operation not permitted.
    EPERM = 1,
    /// No such file or directory.
    ENOENT = 2,
    /// No such process.
    ESRCH = 3,
    /// Interrupted system call.
    EINTR = 4,
    /// I/O error.
    EIO = 5,
    /// No such device or address.
    ENXIO = 6,
    /// Argument list too long.
    E2BIG = 7,
    /// Exec format error.
    ENOEXEC = 8,
    /// Bad file number.
    EBADF = 9,
    /// No children.
    ECHILD = 10,
    /// No more processes.
    EAGAIN = 11,
    /// Not enough memory.
    ENOMEM = 12,
    /// Permission denied.
    EACCES = 13,
    /// Bad address.
    EFAULT = 14,
    /// Block device required.
    ENOTBLK = 15,
    /// Device busy.
    EBUSY = 16,
    /// File exists.
    EEXIST = 17,
    /// Cross-device link.
    EXDEV = 18,
    /// No such device.
    ENODEV = 19,
    /// Not a directory.
    ENOTDIR = 20,
    /// Is a directory.
    EISDIR = 21,
    /// Invalid argument.
    EINVAL = 22,
    /// File table overflow.
    ENFILE = 23,
    /// Too many open files.
    EMFILE = 24,
    /// Not a typewriter.
    ENOTTY = 25,
    /// Text file busy.
    ETXTBSY = 26,
    /// File too large.
    EFBIG = 27,
    /// No space left on device.
    ENOSPC = 28,
    /// Illegal seek.
    ESPIPE = 29,
    /// Read-only file system.
    EROFS = 30,
    /// Too many links.
    EMLINK = 31,
    /// Broken pipe.
    EPIPE = 32,
    /// Socket operation on non-socket.
    ENOTSOCK = 38,
    /// Operation not supported on socket.
    EOPNOTSUPP = 45,
    /// Connection timed out.
    ETIMEDOUT = 60,
    /// Connection refused.
    ECONNREFUSED = 61,
    /// Too many levels of symbolic links.
    ELOOP = 62,
    /// File name too long.
    ENAMETOOLONG = 63,
    /// Host is down.
    EHOSTDOWN = 64,
    /// No route to host.
    EHOSTUNREACH = 65,
    /// Directory not empty.
    ENOTEMPTY = 66,
    /// Too many levels of remote in path.
    EREMOTE = 71,
    /// Stale NFS file handle.
    ESTALE = 70,
}

impl Errno {
    /// Returns the conventional short symbol, e.g. `"ENOENT"`.
    pub fn symbol(self) -> &'static str {
        match self {
            Errno::EPERM => "EPERM",
            Errno::ENOENT => "ENOENT",
            Errno::ESRCH => "ESRCH",
            Errno::EINTR => "EINTR",
            Errno::EIO => "EIO",
            Errno::ENXIO => "ENXIO",
            Errno::E2BIG => "E2BIG",
            Errno::ENOEXEC => "ENOEXEC",
            Errno::EBADF => "EBADF",
            Errno::ECHILD => "ECHILD",
            Errno::EAGAIN => "EAGAIN",
            Errno::ENOMEM => "ENOMEM",
            Errno::EACCES => "EACCES",
            Errno::EFAULT => "EFAULT",
            Errno::ENOTBLK => "ENOTBLK",
            Errno::EBUSY => "EBUSY",
            Errno::EEXIST => "EEXIST",
            Errno::EXDEV => "EXDEV",
            Errno::ENODEV => "ENODEV",
            Errno::ENOTDIR => "ENOTDIR",
            Errno::EISDIR => "EISDIR",
            Errno::EINVAL => "EINVAL",
            Errno::ENFILE => "ENFILE",
            Errno::EMFILE => "EMFILE",
            Errno::ENOTTY => "ENOTTY",
            Errno::ETXTBSY => "ETXTBSY",
            Errno::EFBIG => "EFBIG",
            Errno::ENOSPC => "ENOSPC",
            Errno::ESPIPE => "ESPIPE",
            Errno::EROFS => "EROFS",
            Errno::EMLINK => "EMLINK",
            Errno::EPIPE => "EPIPE",
            Errno::ENOTSOCK => "ENOTSOCK",
            Errno::EOPNOTSUPP => "EOPNOTSUPP",
            Errno::ETIMEDOUT => "ETIMEDOUT",
            Errno::ECONNREFUSED => "ECONNREFUSED",
            Errno::ELOOP => "ELOOP",
            Errno::ENAMETOOLONG => "ENAMETOOLONG",
            Errno::EHOSTDOWN => "EHOSTDOWN",
            Errno::EHOSTUNREACH => "EHOSTUNREACH",
            Errno::ENOTEMPTY => "ENOTEMPTY",
            Errno::EREMOTE => "EREMOTE",
            Errno::ESTALE => "ESTALE",
        }
    }

    /// The variant whose 4.2BSD number is `n`, if any: the inverse of
    /// [`Errno::as_u16`], for turning a command's exit status back into
    /// the errno it reports.
    pub fn from_u16(n: u16) -> Option<Errno> {
        use Errno::*;
        Some(match n {
            1 => EPERM,
            2 => ENOENT,
            3 => ESRCH,
            4 => EINTR,
            5 => EIO,
            6 => ENXIO,
            7 => E2BIG,
            8 => ENOEXEC,
            9 => EBADF,
            10 => ECHILD,
            11 => EAGAIN,
            12 => ENOMEM,
            13 => EACCES,
            14 => EFAULT,
            15 => ENOTBLK,
            16 => EBUSY,
            17 => EEXIST,
            18 => EXDEV,
            19 => ENODEV,
            20 => ENOTDIR,
            21 => EISDIR,
            22 => EINVAL,
            23 => ENFILE,
            24 => EMFILE,
            25 => ENOTTY,
            26 => ETXTBSY,
            27 => EFBIG,
            28 => ENOSPC,
            29 => ESPIPE,
            30 => EROFS,
            31 => EMLINK,
            32 => EPIPE,
            38 => ENOTSOCK,
            45 => EOPNOTSUPP,
            60 => ETIMEDOUT,
            61 => ECONNREFUSED,
            62 => ELOOP,
            63 => ENAMETOOLONG,
            64 => EHOSTDOWN,
            65 => EHOSTUNREACH,
            66 => ENOTEMPTY,
            70 => ESTALE,
            71 => EREMOTE,
            _ => return None,
        })
    }

    /// Returns a short human-readable description, as `perror(3)` would.
    pub fn description(self) -> &'static str {
        match self {
            Errno::EPERM => "operation not permitted",
            Errno::ENOENT => "no such file or directory",
            Errno::ESRCH => "no such process",
            Errno::EINTR => "interrupted system call",
            Errno::EIO => "i/o error",
            Errno::ENXIO => "no such device or address",
            Errno::E2BIG => "argument list too long",
            Errno::ENOEXEC => "exec format error",
            Errno::EBADF => "bad file number",
            Errno::ECHILD => "no children",
            Errno::EAGAIN => "no more processes",
            Errno::ENOMEM => "not enough memory",
            Errno::EACCES => "permission denied",
            Errno::EFAULT => "bad address",
            Errno::ENOTBLK => "block device required",
            Errno::EBUSY => "device busy",
            Errno::EEXIST => "file exists",
            Errno::EXDEV => "cross-device link",
            Errno::ENODEV => "no such device",
            Errno::ENOTDIR => "not a directory",
            Errno::EISDIR => "is a directory",
            Errno::EINVAL => "invalid argument",
            Errno::ENFILE => "file table overflow",
            Errno::EMFILE => "too many open files",
            Errno::ENOTTY => "not a typewriter",
            Errno::ETXTBSY => "text file busy",
            Errno::EFBIG => "file too large",
            Errno::ENOSPC => "no space left on device",
            Errno::ESPIPE => "illegal seek",
            Errno::EROFS => "read-only file system",
            Errno::EMLINK => "too many links",
            Errno::EPIPE => "broken pipe",
            Errno::ENOTSOCK => "socket operation on non-socket",
            Errno::EOPNOTSUPP => "operation not supported on socket",
            Errno::ETIMEDOUT => "connection timed out",
            Errno::ECONNREFUSED => "connection refused",
            Errno::ELOOP => "too many levels of symbolic links",
            Errno::ENAMETOOLONG => "file name too long",
            Errno::EHOSTDOWN => "host is down",
            Errno::EHOSTUNREACH => "no route to host",
            Errno::ENOTEMPTY => "directory not empty",
            Errno::EREMOTE => "too many levels of remote in path",
            Errno::ESTALE => "stale remote file handle",
        }
    }

    /// Returns the numeric `errno` value (the 4.2BSD number).
    pub fn as_u16(self) -> u16 {
        self as u16
    }
}

impl fmt::Display for Errno {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.symbol(), self.description())
    }
}

impl std::error::Error for Errno {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_values_match_bsd() {
        assert_eq!(Errno::EPERM.as_u16(), 1);
        assert_eq!(Errno::ENOENT.as_u16(), 2);
        assert_eq!(Errno::EBADF.as_u16(), 9);
        assert_eq!(Errno::EINVAL.as_u16(), 22);
        assert_eq!(Errno::ELOOP.as_u16(), 62);
        assert_eq!(Errno::EREMOTE.as_u16(), 71);
    }

    #[test]
    fn display_includes_symbol_and_text() {
        let s = Errno::ENOENT.to_string();
        assert!(s.contains("ENOENT"));
        assert!(s.contains("no such file"));
    }

    #[test]
    fn symbols_are_unique() {
        let all = [
            Errno::EPERM,
            Errno::ENOENT,
            Errno::ESRCH,
            Errno::EINTR,
            Errno::EIO,
            Errno::EBADF,
            Errno::EACCES,
            Errno::EEXIST,
            Errno::ENOTDIR,
            Errno::EISDIR,
            Errno::EINVAL,
            Errno::EMFILE,
            Errno::ENOTTY,
            Errno::ESPIPE,
            Errno::ELOOP,
            Errno::EREMOTE,
        ];
        let mut symbols: Vec<_> = all.iter().map(|e| e.symbol()).collect();
        symbols.sort();
        symbols.dedup();
        assert_eq!(symbols.len(), all.len());
    }

    #[test]
    fn every_variant_round_trips_through_its_number() {
        use Errno::*;
        let all = [
            EPERM,
            ENOENT,
            ESRCH,
            EINTR,
            EIO,
            ENXIO,
            E2BIG,
            ENOEXEC,
            EBADF,
            ECHILD,
            EAGAIN,
            ENOMEM,
            EACCES,
            EFAULT,
            ENOTBLK,
            EBUSY,
            EEXIST,
            EXDEV,
            ENODEV,
            ENOTDIR,
            EISDIR,
            EINVAL,
            ENFILE,
            EMFILE,
            ENOTTY,
            ETXTBSY,
            EFBIG,
            ENOSPC,
            ESPIPE,
            EROFS,
            EMLINK,
            EPIPE,
            ENOTSOCK,
            EOPNOTSUPP,
            ETIMEDOUT,
            ECONNREFUSED,
            ELOOP,
            ENAMETOOLONG,
            EHOSTDOWN,
            EHOSTUNREACH,
            ENOTEMPTY,
            EREMOTE,
            ESTALE,
        ];
        for e in all {
            assert_eq!(Errno::from_u16(e.as_u16()), Some(e), "{e}");
        }
        // Nothing else decodes: the list above is the whole enum.
        let decoded = (0..=u16::MAX).filter_map(Errno::from_u16).count();
        assert_eq!(decoded, all.len());
        for unused in [0, 33, 200] {
            assert_eq!(Errno::from_u16(unused), None, "{unused}");
        }
    }
}
