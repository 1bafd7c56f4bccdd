//! The `stackXXXXX` format (magic octal 444): kernel-level restart state.

use crate::wire::{put_u16, put_u32, Reader};
use crate::DumpError;
use sysdefs::limits::NSIG;
use sysdefs::{Credentials, Disposition, Gid, Uid};

/// The `stackXXXXX` magic number, "arbitrarily set to octal 444".
pub const STACK_MAGIC: u16 = 0o444;

/// "All the information kept in the user and process structures that is
/// related to the disposition of signals, such as which signals are being
/// caught or ignored, which functions are handling those signals that are
/// caught, etc."
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SignalState {
    /// Per-signal dispositions, indexed by signal number - 1.
    pub dispositions: [Disposition; NSIG],
    /// The blocked-signal mask (bit *n*-1 blocks signal *n*).
    pub blocked: u32,
}

impl Default for SignalState {
    fn default() -> Self {
        SignalState {
            dispositions: [Disposition::Default; NSIG],
            blocked: 0,
        }
    }
}

/// The decoded `stackXXXXX` file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StackFile {
    /// "The user credentials (such as user and group id)."
    pub cred: Credentials,
    /// "The contents of the stack" (its length is "the size of the stack
    /// when the process was terminated").
    pub stack: Vec<u8>,
    /// "The contents of all the registers", in `d0..d7, a0..a7, pc, sr`
    /// order.
    pub regs: [u32; 18],
    /// The signal dispositions.
    pub sigs: SignalState,
}

impl StackFile {
    /// Serialises the file, magic first. Fails rather than emit a
    /// record [`StackFile::decode`] would reject: the stack length is
    /// carried as a `u32` and bounded by the same 16 MiB sanity limit,
    /// so an oversized stack must not be silently truncated.
    pub fn encode(&self) -> Result<Vec<u8>, DumpError> {
        if self.stack.len() > 16 << 20 {
            return Err(DumpError::Malformed("absurd stack size"));
        }
        let mut out = Vec::new();
        put_u16(&mut out, STACK_MAGIC);
        put_u32(&mut out, self.cred.ruid.as_u32());
        put_u32(&mut out, self.cred.euid.as_u32());
        put_u32(&mut out, self.cred.rgid.as_u32());
        put_u32(&mut out, self.cred.egid.as_u32());
        put_u32(&mut out, self.stack.len() as u32);
        out.extend_from_slice(&self.stack);
        for r in self.regs {
            put_u32(&mut out, r);
        }
        put_u32(&mut out, self.sigs.blocked);
        for d in self.sigs.dispositions {
            match d {
                Disposition::Default => {
                    out.push(0);
                    put_u32(&mut out, 0);
                }
                Disposition::Ignore => {
                    out.push(1);
                    put_u32(&mut out, 0);
                }
                Disposition::Handler(addr) => {
                    out.push(2);
                    put_u32(&mut out, addr);
                }
            }
        }
        Ok(out)
    }

    /// Parses and validates the file, magic first.
    pub fn decode(bytes: &[u8]) -> Result<StackFile, DumpError> {
        let mut r = Reader::new(bytes);
        let magic = r.u16()?;
        if magic != STACK_MAGIC {
            return Err(DumpError::BadMagic {
                expected: STACK_MAGIC,
                got: magic,
            });
        }
        let cred = Credentials {
            ruid: Uid(r.u32()?),
            euid: Uid(r.u32()?),
            rgid: Gid(r.u32()?),
            egid: Gid(r.u32()?),
        };
        let stack_len = r.u32()? as usize;
        if stack_len > 16 << 20 {
            return Err(DumpError::Malformed("absurd stack size"));
        }
        let stack = r.bytes(stack_len)?.to_vec();
        let mut regs = [0u32; 18];
        for reg in regs.iter_mut() {
            *reg = r.u32()?;
        }
        let blocked = r.u32()?;
        let mut dispositions = [Disposition::Default; NSIG];
        for d in dispositions.iter_mut() {
            let tag = r.u8()?;
            let addr = r.u32()?;
            *d = match tag {
                0 => Disposition::Default,
                1 => Disposition::Ignore,
                2 => Disposition::Handler(addr),
                _ => return Err(DumpError::Malformed("unknown disposition tag")),
            };
        }
        Ok(StackFile {
            cred,
            stack,
            regs,
            sigs: SignalState {
                dispositions,
                blocked,
            },
        })
    }

    /// Reads *only* the credentials, as `restart` does: "reads the old
    /// user credentials from the `stackXXXXX` file and establishes them
    /// as its own. This is the only information that it reads from this
    /// file."
    pub fn peek_credentials(bytes: &[u8]) -> Result<Credentials, DumpError> {
        let mut r = Reader::new(bytes);
        let magic = r.u16()?;
        if magic != STACK_MAGIC {
            return Err(DumpError::BadMagic {
                expected: STACK_MAGIC,
                got: magic,
            });
        }
        Ok(Credentials {
            ruid: Uid(r.u32()?),
            euid: Uid(r.u32()?),
            rgid: Gid(r.u32()?),
            egid: Gid(r.u32()?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StackFile {
        let mut sigs = SignalState::default();
        sigs.dispositions[1] = Disposition::Ignore; // SIGINT ignored.
        sigs.dispositions[13] = Disposition::Handler(0x1a40); // SIGALRM caught.
        sigs.blocked = 1 << 2;
        StackFile {
            cred: Credentials::user(Uid(42), Gid(7)),
            stack: (0..=255u8).cycle().take(1000).collect(),
            regs: core::array::from_fn(|i| i as u32 * 3),
            sigs,
        }
    }

    #[test]
    fn round_trip() {
        let s = sample();
        assert_eq!(StackFile::decode(&s.encode().unwrap()).unwrap(), s);
    }

    #[test]
    fn magic_is_0444_and_checked() {
        let bytes = sample().encode().unwrap();
        assert_eq!(u16::from_be_bytes([bytes[0], bytes[1]]), 0o444);
        let mut bad = bytes;
        bad[1] ^= 0xff;
        assert!(matches!(
            StackFile::decode(&bad),
            Err(DumpError::BadMagic {
                expected: 0o444,
                ..
            })
        ));
    }

    #[test]
    fn peek_credentials_reads_only_the_header() {
        let s = sample();
        let bytes = s.encode().unwrap();
        // Truncate right after the credentials: peek still works.
        let cred = StackFile::peek_credentials(&bytes[..2 + 16]).unwrap();
        assert_eq!(cred, s.cred);
        assert_eq!(
            StackFile::decode(&bytes[..2 + 16]),
            Err(DumpError::Truncated)
        );
    }

    #[test]
    fn truncation_detected() {
        let bytes = sample().encode().unwrap();
        assert_eq!(
            StackFile::decode(&bytes[..bytes.len() - 3]),
            Err(DumpError::Truncated)
        );
    }

    #[test]
    fn oversized_stack_refused_not_truncated() {
        let s = StackFile {
            stack: vec![0u8; (16 << 20) + 1],
            ..sample()
        };
        assert_eq!(s.encode(), Err(DumpError::Malformed("absurd stack size")));
    }

    #[test]
    fn absurd_stack_size_rejected() {
        let mut bytes = sample().encode().unwrap();
        // Stack length field is at offset 2 + 16.
        bytes[18..22].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(
            StackFile::decode(&bytes),
            Err(DumpError::Malformed(_))
        ));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use simtime::rng::SplitMix64;
    use std::panic::catch_unwind;

    /// Cases per property.
    const CASES: u32 = 64;

    /// Default, Ignore or a handler at any address, one in three each.
    fn arb_disposition(rng: &mut SplitMix64) -> Disposition {
        match rng.below(3) {
            0 => Disposition::Default,
            1 => Disposition::Ignore,
            _ => Disposition::Handler(rng.int()),
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut rng = SplitMix64::new(1);
        for case in 0..CASES {
            let gid = Gid(rng.int());
            let s = StackFile {
                cred: Credentials {
                    ruid: Uid(rng.int()),
                    euid: Uid(rng.int()),
                    rgid: gid,
                    egid: gid,
                },
                stack: rng.bytes(0..2048),
                regs: std::array::from_fn(|_| rng.int()),
                sigs: SignalState {
                    dispositions: std::array::from_fn(|_| arb_disposition(&mut rng)),
                    blocked: rng.int(),
                },
            };
            let decoded = StackFile::decode(&s.encode().unwrap());
            assert_eq!(decoded.as_ref(), Ok(&s), "case {case}");
        }
    }

    #[test]
    fn decode_never_panics() {
        let mut rng = SplitMix64::new(2);
        for case in 0..CASES {
            let bytes = rng.bytes(0..512);
            let decoded = catch_unwind(|| {
                let _ = StackFile::decode(&bytes);
                let _ = StackFile::peek_credentials(&bytes);
            });
            assert!(decoded.is_ok(), "case {case}: {bytes:02x?}");
        }
    }
}
