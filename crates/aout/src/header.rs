//! The classic a.out exec header and whole-file executable codec.

use m68vm::{IsaLevel, Object};

/// OMAGIC: text is not write-protected by the original loaders; we keep
/// text read-only regardless, but the magic value is the traditional 0407.
pub const OMAGIC: u16 = 0o407;

/// Length of the encoded header in bytes: eight big-endian 32-bit words.
pub const AOUT_HEADER_LEN: usize = 32;

/// Machine id for the baseline ISA (Sun's `M_68010 == 1`).
pub const MID_ISA1: u16 = 1;
/// Machine id for the superset ISA (Sun's `M_68020 == 2`).
pub const MID_ISA2: u16 = 2;

/// An a.out parsing/validation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AoutError {
    /// The file is shorter than its header claims.
    Truncated,
    /// The magic word is not OMAGIC.
    BadMagic(u16),
    /// The machine id names no known ISA level.
    BadMachine(u16),
    /// The entry point lies outside the text segment.
    BadEntry(u32),
}

impl core::fmt::Display for AoutError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AoutError::Truncated => write!(f, "a.out file truncated"),
            AoutError::BadMagic(m) => write!(f, "bad a.out magic {m:#o}"),
            AoutError::BadMachine(m) => write!(f, "unknown a.out machine id {m}"),
            AoutError::BadEntry(e) => write!(f, "entry point {e:#x} outside text"),
        }
    }
}

impl std::error::Error for AoutError {}

/// The 4.3BSD/SunOS `struct exec`, big-endian on disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AoutHeader {
    /// Machine id (upper half of the first word on SunOS).
    pub a_machtype: u16,
    /// Magic number (lower half of the first word).
    pub a_magic: u16,
    /// Size of the text segment in bytes.
    pub a_text: u32,
    /// Size of the initialised data segment in bytes.
    pub a_data: u32,
    /// Size of the zero-filled bss in bytes.
    pub a_bss: u32,
    /// Size of the symbol table in bytes (always zero here).
    pub a_syms: u32,
    /// Entry point virtual address.
    pub a_entry: u32,
    /// Size of text relocation (always zero: images are pre-linked).
    pub a_trsize: u32,
    /// Size of data relocation (always zero).
    pub a_drsize: u32,
}

impl AoutHeader {
    /// Builds a header for the given segment sizes and ISA requirement.
    pub fn new(text: u32, data: u32, bss: u32, entry: u32, isa: IsaLevel) -> AoutHeader {
        AoutHeader {
            a_machtype: match isa {
                IsaLevel::Isa1 => MID_ISA1,
                IsaLevel::Isa2 => MID_ISA2,
            },
            a_magic: OMAGIC,
            a_text: text,
            a_data: data,
            a_bss: bss,
            a_syms: 0,
            a_entry: entry,
            a_trsize: 0,
            a_drsize: 0,
        }
    }

    /// The ISA level this executable requires.
    pub fn isa(&self) -> Result<IsaLevel, AoutError> {
        match self.a_machtype {
            MID_ISA1 => Ok(IsaLevel::Isa1),
            MID_ISA2 => Ok(IsaLevel::Isa2),
            m => Err(AoutError::BadMachine(m)),
        }
    }

    /// Serialises the header to its 32 on-disk bytes.
    pub fn encode(&self) -> [u8; AOUT_HEADER_LEN] {
        let mut out = [0u8; AOUT_HEADER_LEN];
        let word0 = ((self.a_machtype as u32) << 16) | self.a_magic as u32;
        let words = [
            word0,
            self.a_text,
            self.a_data,
            self.a_bss,
            self.a_syms,
            self.a_entry,
            self.a_trsize,
            self.a_drsize,
        ];
        for (i, w) in words.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&w.to_be_bytes());
        }
        out
    }

    /// Parses and validates the header from the front of a file.
    pub fn decode(bytes: &[u8]) -> Result<AoutHeader, AoutError> {
        if bytes.len() < AOUT_HEADER_LEN {
            return Err(AoutError::Truncated);
        }
        let word = |i: usize| {
            u32::from_be_bytes([
                bytes[i * 4],
                bytes[i * 4 + 1],
                bytes[i * 4 + 2],
                bytes[i * 4 + 3],
            ])
        };
        let w0 = word(0);
        let header = AoutHeader {
            a_machtype: (w0 >> 16) as u16,
            a_magic: (w0 & 0xffff) as u16,
            a_text: word(1),
            a_data: word(2),
            a_bss: word(3),
            a_syms: word(4),
            a_entry: word(5),
            a_trsize: word(6),
            a_drsize: word(7),
        };
        if header.a_magic != OMAGIC {
            return Err(AoutError::BadMagic(header.a_magic));
        }
        header.isa()?;
        Ok(header)
    }
}

/// A fully parsed executable: header plus its segments, borrowed from
/// the file's bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Executable<'a> {
    /// The validated header.
    pub header: AoutHeader,
    /// Text segment bytes.
    pub text: &'a [u8],
    /// Initialised data segment bytes.
    pub data: &'a [u8],
}

impl Executable<'_> {
    /// The ISA level required to run this image.
    pub fn isa(&self) -> IsaLevel {
        self.header.isa().expect("validated at parse time")
    }

    /// Builds a fresh memory image (data at its dumped values, bss
    /// zeroed, empty stack). The data segment is allocated once, at its
    /// final size.
    pub fn to_memory(&self) -> m68vm::Memory {
        let mut data = Vec::with_capacity(self.data.len() + self.header.a_bss as usize);
        data.extend_from_slice(self.data);
        m68vm::Memory::new(self.text.to_vec(), data, self.header.a_bss)
    }
}

/// Encodes segments into a complete a.out file.
pub fn encode_executable(text: &[u8], data: &[u8], bss: u32, entry: u32, isa: IsaLevel) -> Vec<u8> {
    let header = AoutHeader::new(text.len() as u32, data.len() as u32, bss, entry, isa);
    let mut out = Vec::with_capacity(AOUT_HEADER_LEN + text.len() + data.len());
    out.extend_from_slice(&header.encode());
    out.extend_from_slice(text);
    out.extend_from_slice(data);
    out
}

/// Encodes an assembled [`Object`] into a complete a.out file.
pub fn encode_object(obj: &Object) -> Vec<u8> {
    encode_executable(
        &obj.text,
        &obj.data,
        obj.bss_len,
        obj.entry,
        obj.required_isa,
    )
}

/// Validates an a.out file from its first [`AOUT_HEADER_LEN`] bytes and
/// its length alone: the header's magic and machine, segments that fit
/// the file, and an entry point inside the text. A file passes exactly
/// when [`parse_executable`] accepts it, so a reader can stream the rest
/// of the file without keeping it.
pub fn check_executable(head: &[u8], len: usize) -> Result<AoutHeader, AoutError> {
    let header = AoutHeader::decode(head)?;
    let data_end = AOUT_HEADER_LEN + header.a_text as usize + header.a_data as usize;
    if len < data_end {
        return Err(AoutError::Truncated);
    }
    // The entry must lie in [TEXT_BASE, TEXT_BASE + a_text), compared
    // as an offset so no sum of header fields can overflow.
    let text_base = m68vm::MemoryLayout::TEXT_BASE;
    if header.a_text > 0
        && (header.a_entry < text_base || header.a_entry - text_base >= header.a_text)
    {
        return Err(AoutError::BadEntry(header.a_entry));
    }
    Ok(header)
}

/// Parses and validates a complete a.out file, borrowing its segments.
pub fn parse_executable(bytes: &[u8]) -> Result<Executable<'_>, AoutError> {
    let header = check_executable(bytes, bytes.len())?;
    let text_end = AOUT_HEADER_LEN + header.a_text as usize;
    let data_end = text_end + header.a_data as usize;
    Ok(Executable {
        header,
        text: &bytes[AOUT_HEADER_LEN..text_end],
        data: &bytes[text_end..data_end],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use m68vm::assemble;

    fn sample() -> Object {
        assemble(
            r#"
            start:  move.l  counter, d0
                    trap    #0
                    .data
            counter:.long   123
            "#,
        )
        .unwrap()
    }

    #[test]
    fn header_encode_decode_round_trip() {
        let h = AoutHeader::new(100, 200, 300, 0x1000, IsaLevel::Isa2);
        let bytes = h.encode();
        let back = AoutHeader::decode(&bytes).unwrap();
        assert_eq!(h, back);
        assert_eq!(back.isa().unwrap(), IsaLevel::Isa2);
    }

    #[test]
    fn magic_is_0407() {
        let h = AoutHeader::new(0, 0, 0, 0x1000, IsaLevel::Isa1);
        assert_eq!(h.a_magic, 0o407);
        let bytes = h.encode();
        // Second on-disk halfword is the magic.
        assert_eq!(u16::from_be_bytes([bytes[2], bytes[3]]), 0o407);
    }

    #[test]
    fn executable_round_trip() {
        let obj = sample();
        let file = encode_object(&obj);
        let exe = parse_executable(&file).unwrap();
        assert_eq!(exe.text, obj.text);
        assert_eq!(exe.data, obj.data);
        assert_eq!(exe.header.a_entry, obj.entry);
        assert_eq!(exe.isa(), IsaLevel::Isa1);
    }

    #[test]
    fn bad_magic_rejected() {
        let obj = sample();
        let mut file = encode_object(&obj);
        file[3] = 0; // Corrupt low byte of magic.
        assert!(matches!(
            parse_executable(&file),
            Err(AoutError::BadMagic(_))
        ));
    }

    #[test]
    fn truncated_file_rejected() {
        let obj = sample();
        let file = encode_object(&obj);
        assert_eq!(
            parse_executable(&file[..file.len() - 1]),
            Err(AoutError::Truncated)
        );
        assert_eq!(parse_executable(&file[..10]), Err(AoutError::Truncated));
    }

    #[test]
    fn unknown_machine_rejected() {
        let mut h = AoutHeader::new(0, 0, 0, 0x1000, IsaLevel::Isa1);
        h.a_machtype = 99;
        let bytes = h.encode();
        assert_eq!(AoutHeader::decode(&bytes), Err(AoutError::BadMachine(99)));
    }

    #[test]
    fn entry_outside_text_rejected() {
        let file = encode_executable(&[0u8; 8], &[], 0, 0x9999_0000, IsaLevel::Isa1);
        assert!(matches!(
            parse_executable(&file),
            Err(AoutError::BadEntry(_))
        ));
    }

    #[test]
    fn huge_segment_sizes_check_without_overflow() {
        // A header alone can claim segments no file holds; the check
        // must still answer, not overflow.
        let base = m68vm::MemoryLayout::TEXT_BASE;
        let mut h = AoutHeader::new(u32::MAX, u32::MAX, 0, base + 5, IsaLevel::Isa1);
        assert_eq!(check_executable(&h.encode(), usize::MAX), Ok(h));
        assert_eq!(
            check_executable(&h.encode(), 1 << 20),
            Err(AoutError::Truncated)
        );
        h.a_entry = base - 1;
        assert_eq!(
            check_executable(&h.encode(), usize::MAX),
            Err(AoutError::BadEntry(base - 1))
        );
    }

    #[test]
    fn parsed_executable_runs() {
        use m68vm::{Cpu, IsaLevel, StepEvent};
        let obj = sample();
        let file = encode_object(&obj);
        let exe = parse_executable(&file).unwrap();
        let mut mem = exe.to_memory();
        let mut cpu = Cpu::at_entry(exe.header.a_entry);
        loop {
            match cpu.step(&mut mem, IsaLevel::Isa1) {
                StepEvent::Executed { .. } => {}
                StepEvent::Trap { .. } => break,
                StepEvent::Faulted(f) => panic!("fault {f:?}"),
            }
        }
        assert_eq!(cpu.d[0], 123);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use m68vm::MemoryLayout;
    use simtime::rng::SplitMix64;

    /// The verdict of a reader that streams the file and keeps only its
    /// first header's worth of bytes and its length, as `verify_dumps`
    /// does.
    fn streamed_verdict(file: &[u8]) -> bool {
        check_executable(&file[..file.len().min(AOUT_HEADER_LEN)], file.len()).is_ok()
    }

    /// Asserts the streamed verdict equals the full parse's, and that a
    /// file the parse accepts yields exactly `text` and `data`.
    fn agree(file: &[u8], text: &[u8], data: &[u8], what: &str) -> bool {
        let parsed = parse_executable(file);
        assert_eq!(
            streamed_verdict(file),
            parsed.is_ok(),
            "{what}: {parsed:?} on {} bytes",
            file.len()
        );
        if let Ok(exe) = parsed {
            assert_eq!(exe.text, text, "{what}");
            assert_eq!(exe.data, data, "{what}");
        }
        parsed.is_ok()
    }

    /// On a seeded corpus the header-and-length check and the full parse
    /// agree: 200 valid images of random segment sizes (text possibly
    /// empty), each cut one byte before, at and after every segment
    /// boundary, given trailing bytes, and corrupted in its magic, its
    /// machine type and its entry point.
    #[test]
    fn header_check_agrees_with_the_full_parse() {
        let mut rng = SplitMix64::new(27);
        let (mut accepted, mut refused) = (0, 0);
        let mut tally = |ok: bool| {
            if ok {
                accepted += 1;
            } else {
                refused += 1;
            }
        };
        for case in 0..200 {
            let text = rng.bytes(0..if case % 8 == 0 { 1 } else { 600 });
            let data = rng.bytes(0..900);
            let bss = rng.below(4096) as u32;
            let isa = rng.pick(&[IsaLevel::Isa1, IsaLevel::Isa2]);
            let base = MemoryLayout::TEXT_BASE;
            let entry = match text.len() as u32 {
                0 => rng.next_u64() as u32,
                n => base + rng.below(n.into()) as u32,
            };
            let file = encode_executable(&text, &data, bss, entry, isa);
            let what = |w: &str| format!("case {case}: {w}");
            assert!(agree(&file, &text, &data, &what("valid")));

            let text_end = AOUT_HEADER_LEN + text.len();
            for boundary in [0, AOUT_HEADER_LEN, text_end, file.len()] {
                for cut in [boundary.saturating_sub(1), boundary, boundary + 1] {
                    if cut <= file.len() {
                        tally(agree(&file[..cut], &text, &data, &what("cut")));
                    }
                }
            }
            let mut longer = file.clone();
            longer.extend(rng.bytes(1..64));
            assert!(agree(&longer, &text, &data, &what("trailing bytes")));

            let mut bad_magic = file.clone();
            bad_magic[2..4].copy_from_slice(&(rng.below(0x1_0000) as u16 | 1 << 15).to_be_bytes());
            assert!(!agree(&bad_magic, &text, &data, &what("bad magic")));
            let mut bad_machine = file.clone();
            bad_machine[0..2].copy_from_slice(&(3 + rng.below(0xfff0) as u16).to_be_bytes());
            assert!(!agree(&bad_machine, &text, &data, &what("bad machine")));

            let n = text.len() as u32;
            for outside in [
                base + n,
                base.wrapping_sub(1),
                base + n + rng.below(1 << 20) as u32,
            ] {
                let file = encode_executable(&text, &data, bss, outside, isa);
                tally(agree(&file, &text, &data, &what("entry outside the text")));
                assert_eq!(parse_executable(&file).is_ok(), n == 0, "{}", what("entry"));
            }
        }
        // The corpus exercises both verdicts, not just one.
        assert!(
            accepted > 200 && refused > 800,
            "{accepted} accepted, {refused} refused"
        );
    }
}
