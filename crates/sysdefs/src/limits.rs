//! System limits, following Sun UNIX 3.0 / 4.2BSD `param.h`.

/// Maximum number of open files per process.
///
/// The paper's `filesXXXXX` dump records one entry "for each entry in the
/// open file table of the process (which has a fixed size)" — this is that
/// fixed size. Sun 3.0 used 30; 4.2BSD used 20. We follow Sun 3.0.
pub const NOFILE: usize = 30;

/// Maximum length of an absolute path name, including the terminating NUL
/// in the original C; here simply the maximum string length we accept.
///
/// This also bounds the fixed-size current-working-directory string the
/// paper adds to the `user` structure.
pub const MAXPATHLEN: usize = 1024;

/// Maximum length of a single path component.
pub const MAXNAMLEN: usize = 255;

/// Maximum number of symbolic links expanded during one path resolution
/// before `ELOOP` is returned (4.2BSD `MAXSYMLINKS`).
pub const MAXSYMLINKS: usize = 8;

/// Maximum number of processes per simulated machine.
pub const NPROC: usize = 256;

/// Maximum number of entries in the system-wide open-file table.
pub const NFILE: usize = 1024;

/// Maximum hostname length (`MAXHOSTNAMELEN`).
pub const MAXHOSTNAMELEN: usize = 64;

/// Number of signals, 1..=NSIG inclusive. 4.2BSD had 31 signals; the paper
/// adds `SIGDUMP` as number 32.
pub const NSIG: usize = 32;

/// Directory under which `SIGDUMP` places its three dump files.
pub const DUMP_DIR: &str = "/usr/tmp";

/// Largest size a regular file may reach, in bytes: a write that would
/// end past it fails `EFBIG` (4.2BSD's `RLIMIT_FSIZE`, here fixed).
///
/// Every file lives in host memory, so without a bound one `lseek` and
/// a one-byte write could make the host allocate gigabytes. 16 MiB is
/// the bound the dump codecs already put on a segment, and far above
/// any file the workloads write: a dump image is its text plus a data
/// segment of a few hundred KiB.
pub const MAXFILESIZE: u64 = 16 << 20;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limits_are_sane() {
        // Spelled as runtime comparisons against locals so the intent
        // (documenting the floor each limit must keep) stays visible.
        let (nofile, maxpath, maxsym) = (NOFILE, MAXPATHLEN, MAXSYMLINKS);
        assert!(nofile >= 20);
        assert!(maxpath >= 256);
        assert!(maxsym >= 1);
        assert_eq!(NSIG, 32);
        assert_eq!(DUMP_DIR, "/usr/tmp");
        // Every byte of a file stays reachable by lseek's 32-bit offset.
        let maxfile = MAXFILESIZE;
        assert!(maxfile <= i32::MAX as u64);
    }
}
