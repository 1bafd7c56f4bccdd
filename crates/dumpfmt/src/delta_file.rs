//! The `deltaXXXXX` format (magic octal 446): the pre-copy freeze delta.
//!
//! Pre-copy migration streams the data and stack pages while the source
//! keeps running, then freezes and sends only what changed since. The
//! freeze dump therefore replaces the full `a.outXXXXX` executable with
//! this much smaller file: the process's geometry (entry point, machine
//! id, data-segment placement) plus the still-dirty data pages. The
//! migration engine reassembles a complete, ordinary `a.outXXXXX` on the
//! target from the pre-copied pages and this delta before `rest_proc`
//! ever sees it, so the restart path itself is unchanged.

use crate::wire::{put_u16, put_u32, Reader};
use crate::DumpError;

/// The `deltaXXXXX` magic number (octal 446, continuing the dump-file
/// sequence after `filesXXXXX`'s 445).
pub const DELTA_MAGIC: u16 = 0o446;

/// One still-dirty page: its page number (address / page size) and its
/// bytes (a full page, or shorter for the clipped last page of the
/// segment).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaPage {
    /// Page number, i.e. guest address divided by the 8 KB page size.
    pub page: u32,
    /// The page's contents at freeze time.
    pub bytes: Vec<u8>,
}

/// The decoded `deltaXXXXX` file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaFile {
    /// The original entry point, so the reassembled `a.outXXXXX` "can be
    /// executed as an ordinary program" like an eager dump.
    pub entry: u32,
    /// The a.out machine id (`a_machtype`) the reassembled header needs.
    pub machtype: u16,
    /// Base guest address of the data segment.
    pub data_base: u32,
    /// Total data-segment length in bytes (data + bss, as dumped).
    pub data_len: u32,
    /// The pages written since the last pre-copy round, ascending by
    /// page number.
    pub pages: Vec<DeltaPage>,
}

impl DeltaFile {
    /// Serialises the file, magic first. Refuses page payloads the
    /// decoder's sanity limit would reject.
    pub fn encode(&self) -> Result<Vec<u8>, DumpError> {
        let mut out = Vec::new();
        put_u16(&mut out, DELTA_MAGIC);
        put_u32(&mut out, self.entry);
        put_u16(&mut out, self.machtype);
        put_u32(&mut out, self.data_base);
        put_u32(&mut out, self.data_len);
        put_u32(&mut out, self.pages.len() as u32);
        for p in &self.pages {
            if p.bytes.len() > 16 << 20 {
                return Err(DumpError::Malformed("absurd delta page size"));
            }
            put_u32(&mut out, p.page);
            put_u32(&mut out, p.bytes.len() as u32);
            out.extend_from_slice(&p.bytes);
        }
        Ok(out)
    }

    /// Parses and validates the file, magic first.
    pub fn decode(bytes: &[u8]) -> Result<DeltaFile, DumpError> {
        let mut r = Reader::new(bytes);
        let magic = r.u16()?;
        if magic != DELTA_MAGIC {
            return Err(DumpError::BadMagic {
                expected: DELTA_MAGIC,
                got: magic,
            });
        }
        let entry = r.u32()?;
        let machtype = r.u16()?;
        let data_base = r.u32()?;
        let data_len = r.u32()?;
        if data_len > 16 << 20 {
            return Err(DumpError::Malformed("absurd data size"));
        }
        let count = r.u32()? as usize;
        if count > 1 << 16 {
            return Err(DumpError::Malformed("absurd delta page count"));
        }
        let mut pages = Vec::with_capacity(count);
        let mut last: Option<u32> = None;
        for _ in 0..count {
            let page = r.u32()?;
            let len = r.u32()? as usize;
            if len > 16 << 20 {
                return Err(DumpError::Malformed("absurd delta page size"));
            }
            if last.is_some_and(|l| page <= l) {
                return Err(DumpError::Malformed("delta pages out of order"));
            }
            last = Some(page);
            pages.push(DeltaPage {
                page,
                bytes: r.bytes(len)?.to_vec(),
            });
        }
        Ok(DeltaFile {
            entry,
            machtype,
            data_base,
            data_len,
            pages,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DeltaFile {
        DeltaFile {
            entry: 0x1000,
            machtype: 1,
            data_base: 0x3000,
            data_len: 0x5000,
            pages: vec![
                DeltaPage {
                    page: 1,
                    bytes: vec![0xAA; 0x2000],
                },
                DeltaPage {
                    page: 3,
                    bytes: vec![0x55; 0x1000],
                },
            ],
        }
    }

    #[test]
    fn round_trip() {
        let d = sample();
        assert_eq!(DeltaFile::decode(&d.encode().unwrap()).unwrap(), d);
    }

    #[test]
    fn magic_is_0446_and_checked() {
        let bytes = sample().encode().unwrap();
        assert_eq!(u16::from_be_bytes([bytes[0], bytes[1]]), 0o446);
        let mut bad = bytes;
        bad[0] ^= 0xff;
        assert!(matches!(
            DeltaFile::decode(&bad),
            Err(DumpError::BadMagic {
                expected: 0o446,
                ..
            })
        ));
    }

    #[test]
    fn truncation_detected() {
        let bytes = sample().encode().unwrap();
        assert_eq!(
            DeltaFile::decode(&bytes[..bytes.len() - 1]),
            Err(DumpError::Truncated)
        );
    }

    #[test]
    fn unsorted_pages_rejected() {
        let mut d = sample();
        d.pages.swap(0, 1);
        let bytes = d.encode().unwrap();
        assert!(matches!(
            DeltaFile::decode(&bytes),
            Err(DumpError::Malformed("delta pages out of order"))
        ));
    }

    #[test]
    fn empty_delta_is_legal() {
        // A process that dirtied nothing between the last round and the
        // freeze still produces a well-formed (geometry-only) delta.
        let d = DeltaFile {
            pages: Vec::new(),
            ..sample()
        };
        assert_eq!(DeltaFile::decode(&d.encode().unwrap()).unwrap(), d);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use simtime::rng::SplitMix64;
    use std::panic::catch_unwind;

    /// Cases per property.
    const CASES: u32 = 64;

    #[test]
    fn encode_decode_round_trip() {
        let mut rng = SplitMix64::new(1);
        for case in 0..CASES {
            let (entry, machtype, data_base) = (rng.int(), rng.int(), rng.int());
            let data_len = rng.below(1 << 20) as u32;
            let mut pages: Vec<DeltaPage> = (0..rng.below(8))
                .map(|_| DeltaPage {
                    page: rng.int(),
                    bytes: rng.bytes(0..64),
                })
                .collect();
            pages.sort_by_key(|p| p.page);
            pages.dedup_by_key(|p| p.page);
            let d = DeltaFile {
                entry,
                machtype,
                data_base,
                data_len,
                pages,
            };
            let decoded = DeltaFile::decode(&d.encode().unwrap());
            assert_eq!(decoded.as_ref(), Ok(&d), "case {case}");
        }
    }

    #[test]
    fn decode_never_panics() {
        let mut rng = SplitMix64::new(2);
        for case in 0..CASES {
            let bytes = rng.bytes(0..512);
            let decoded = catch_unwind(|| DeltaFile::decode(&bytes));
            assert!(decoded.is_ok(), "case {case}: {bytes:02x?}");
        }
    }
}
