//! The `filesXXXXX` format (magic octal 445): user-level restart state.

use crate::wire::{put_string, put_u16, put_u64, Reader};
use crate::DumpError;
use sysdefs::{OpenFlags, TtyFlags};

/// The `filesXXXXX` magic number, "arbitrarily set to octal 445".
pub const FILES_MAGIC: u16 = 0o445;

/// One entry of the dumped open-file table.
///
/// "For each entry in the open file table of the process (which has a
/// fixed size), an indicator specifying whether the entry refers to an
/// open socket, open file or is unused. For open files, this indicator is
/// followed by the absolute path name of the file, the file access flags
/// (e.g., read only etc.), and the file offset. Since the process
/// migration mechanism does not currently support sockets, no extra
/// information is kept in the case of a socket."
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FdRecord {
    /// The slot was empty.
    Unused,
    /// The slot held a socket; nothing else is recorded.
    Socket,
    /// The slot held an open file.
    File {
        /// Absolute path as the kernel's name bookkeeping recorded it
        /// (symbolic links unresolved until `dumpproc` rewrites them).
        path: String,
        /// Access flags to reopen with.
        flags: OpenFlags,
        /// Offset to reposition to.
        offset: u64,
    },
}

/// The decoded `filesXXXXX` file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FilesFile {
    /// "The name of the host on which the process was currently running
    /// at the time it was killed."
    pub host: String,
    /// "The absolute path name of the current working directory."
    pub cwd: String,
    /// The fixed-size open-file table, one record per slot.
    pub fds: Vec<FdRecord>,
    /// "The terminal flags, specifying such things as raw mode,
    /// echo/noecho, etc."
    pub tty_flags: TtyFlags,
}

impl FilesFile {
    /// Serialises the file, magic first. Fails rather than emit a
    /// record [`FilesFile::decode`] would reject: the fd count is
    /// carried as a `u16` and bounded by the same 1024-slot sanity
    /// limit, so a table longer than that must not be silently
    /// truncated onto the wire.
    pub fn encode(&self) -> Result<Vec<u8>, DumpError> {
        if self.fds.len() > 1024 {
            return Err(DumpError::Malformed("absurd fd table size"));
        }
        let mut out = Vec::new();
        put_u16(&mut out, FILES_MAGIC);
        put_string(&mut out, &self.host);
        put_string(&mut out, &self.cwd);
        put_u16(&mut out, self.fds.len() as u16);
        for fd in &self.fds {
            match fd {
                FdRecord::Unused => out.push(0),
                FdRecord::File {
                    path,
                    flags,
                    offset,
                } => {
                    out.push(1);
                    put_string(&mut out, path);
                    put_u16(&mut out, flags.bits());
                    put_u64(&mut out, *offset);
                }
                FdRecord::Socket => out.push(2),
            }
        }
        put_u16(&mut out, self.tty_flags.bits());
        Ok(out)
    }

    /// Parses and validates the file, checking the magic number first —
    /// the same check `restart` performs before trusting the contents.
    pub fn decode(bytes: &[u8]) -> Result<FilesFile, DumpError> {
        let mut r = Reader::new(bytes);
        let magic = r.u16()?;
        if magic != FILES_MAGIC {
            return Err(DumpError::BadMagic {
                expected: FILES_MAGIC,
                got: magic,
            });
        }
        let host = r.string()?;
        let cwd = r.string()?;
        let nfds = r.u16()? as usize;
        if nfds > 1024 {
            return Err(DumpError::Malformed("absurd fd table size"));
        }
        let mut fds = Vec::with_capacity(nfds);
        for _ in 0..nfds {
            fds.push(match r.u8()? {
                0 => FdRecord::Unused,
                1 => {
                    let path = r.string()?;
                    let flags = OpenFlags(r.u16()?);
                    let offset = r.u64()?;
                    FdRecord::File {
                        path,
                        flags,
                        offset,
                    }
                }
                2 => FdRecord::Socket,
                _ => return Err(DumpError::Malformed("unknown fd record tag")),
            });
        }
        let tty_flags = TtyFlags::from_bits(r.u16()?);
        Ok(FilesFile {
            host,
            cwd,
            fds,
            tty_flags,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sysdefs::limits::NOFILE;

    fn sample() -> FilesFile {
        let mut fds = vec![FdRecord::Unused; NOFILE];
        fds[0] = FdRecord::File {
            path: "/dev/tty0".into(),
            flags: OpenFlags::RDONLY,
            offset: 0,
        };
        fds[1] = FdRecord::File {
            path: "/dev/tty0".into(),
            flags: OpenFlags::WRONLY,
            offset: 0,
        };
        fds[3] = FdRecord::File {
            path: "/n/brador/usr/alice/out.log".into(),
            flags: OpenFlags::WRONLY.with(OpenFlags::APPEND),
            offset: 8192,
        };
        fds[4] = FdRecord::Socket;
        FilesFile {
            host: "brick".into(),
            cwd: "/usr/alice/work".into(),
            fds,
            tty_flags: TtyFlags::raw_noecho(),
        }
    }

    #[test]
    fn round_trip() {
        let f = sample();
        let bytes = f.encode().unwrap();
        let back = FilesFile::decode(&bytes).unwrap();
        assert_eq!(f, back);
    }

    #[test]
    fn magic_is_0445_and_checked() {
        let f = sample();
        let bytes = f.encode().unwrap();
        assert_eq!(u16::from_be_bytes([bytes[0], bytes[1]]), 0o445);
        let mut bad = bytes.clone();
        bad[1] = 0;
        assert!(matches!(
            FilesFile::decode(&bad),
            Err(DumpError::BadMagic {
                expected: 0o445,
                ..
            })
        ));
    }

    #[test]
    fn truncation_detected() {
        let bytes = sample().encode().unwrap();
        for cut in [1, 3, 10, bytes.len() - 1] {
            assert_eq!(
                FilesFile::decode(&bytes[..cut]),
                Err(DumpError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        let f = sample();
        let mut bytes = f.encode().unwrap();
        // First record tag sits right after magic + 2 strings + count.
        let tag_pos = 2 + (2 + 5) + (2 + 15) + 2;
        assert_eq!(bytes[tag_pos], 1);
        bytes[tag_pos] = 9;
        assert!(matches!(
            FilesFile::decode(&bytes),
            Err(DumpError::Malformed(_))
        ));
    }

    #[test]
    fn fixed_size_table_is_preserved() {
        let f = sample();
        let back = FilesFile::decode(&f.encode().unwrap()).unwrap();
        assert_eq!(back.fds.len(), NOFILE);
        assert_eq!(back.fds[4], FdRecord::Socket);
        assert_eq!(back.fds[29], FdRecord::Unused);
    }

    #[test]
    fn oversized_fd_table_refused_not_truncated() {
        // 70000 % 65536 = 4464: the old `as u16` cast would have
        // emitted a wrong-but-plausible count instead of failing.
        let f = FilesFile {
            fds: vec![FdRecord::Unused; 70_000],
            ..sample()
        };
        assert_eq!(
            f.encode(),
            Err(DumpError::Malformed("absurd fd table size"))
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use simtime::rng::SplitMix64;
    use std::panic::catch_unwind;

    /// Cases per property.
    const CASES: u32 = 64;

    /// `(/[a-z]{1,6}){1,max}`: one to `max` components of one to six
    /// lowercase letters.
    fn arb_path(rng: &mut SplitMix64, max: u64) -> String {
        (0..1 + rng.below(max))
            .map(|_| format!("/{}", rng.string(&[b'a'..=b'z'], 1..=6)))
            .collect()
    }

    /// Unused, Socket or an open file, one in three each.
    fn arb_record(rng: &mut SplitMix64) -> FdRecord {
        match rng.below(3) {
            0 => FdRecord::Unused,
            1 => FdRecord::Socket,
            _ => {
                let path = arb_path(rng, 4);
                let f = rng.below(0o7777) as u16;
                FdRecord::File {
                    path,
                    // Mask out the invalid access-mode 3.
                    flags: OpenFlags(if f & 3 == 3 { f & !1 } else { f }),
                    offset: rng.int(),
                }
            }
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut rng = SplitMix64::new(1);
        for case in 0..CASES {
            let f = FilesFile {
                host: rng.string(&[b'a'..=b'z'], 1..=10),
                cwd: arb_path(&mut rng, 5),
                fds: (0..rng.below(40)).map(|_| arb_record(&mut rng)).collect(),
                tty_flags: TtyFlags::from_bits(rng.int()),
            };
            let decoded = FilesFile::decode(&f.encode().unwrap());
            assert_eq!(decoded.as_ref(), Ok(&f), "case {case}");
        }
    }

    #[test]
    fn decode_never_panics() {
        let mut rng = SplitMix64::new(2);
        for case in 0..CASES {
            let bytes = rng.bytes(0..256);
            let decoded = catch_unwind(|| FilesFile::decode(&bytes));
            assert!(decoded.is_ok(), "case {case}: {bytes:02x?}");
        }
    }
}
