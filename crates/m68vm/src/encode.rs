//! Binary instruction encoding.
//!
//! Each instruction is a 4-byte big-endian base word followed by one
//! 4-byte big-endian extension word per extended operand (immediate,
//! absolute address or displacement), source first.
//!
//! Base word layout (most significant byte first):
//!
//! ```text
//! byte 0: opcode
//! byte 1: size (2 bits) | src mode (3 bits) | src reg (3 bits)
//! byte 2: dst mode (3 bits) | dst reg (3 bits) | 0 (2 bits)
//! byte 3: reserved (0)
//! ```
//!
//! Modes: 0 none, 1 data register, 2 address register, 3 immediate (ext),
//! 4 absolute (ext), 5 indirect, 6 indirect+displacement (ext),
//! 7 post-increment. Pre-decrement is mode 7 with the high reserved bit of
//! byte 3 set for that operand (bit 7 = src, bit 6 = dst), keeping the
//! mode field at three bits.

use crate::isa::{Instr, Op, Operand, Size};

/// An encoding or decoding failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The opcode byte does not name an instruction.
    BadOpcode(u8),
    /// An operand mode field held an unknown value.
    BadMode(u8),
    /// The byte slice ended before the instruction did.
    Truncated,
}

impl core::fmt::Display for CodecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CodecError::BadOpcode(b) => write!(f, "unknown opcode byte {b:#x}"),
            CodecError::BadMode(m) => write!(f, "unknown operand mode {m}"),
            CodecError::Truncated => write!(f, "instruction truncated"),
        }
    }
}

impl std::error::Error for CodecError {}

fn size_bits(s: Size) -> u8 {
    match s {
        Size::Byte => 0,
        Size::Word => 1,
        Size::Long => 2,
    }
}

fn size_from_bits(b: u8) -> Size {
    match b & 0b11 {
        0 => Size::Byte,
        1 => Size::Word,
        _ => Size::Long,
    }
}

/// (mode, reg, ext, predec) for one operand.
fn operand_fields(o: Operand) -> (u8, u8, Option<u32>, bool) {
    match o {
        Operand::None => (0, 0, None, false),
        Operand::DReg(r) => (1, r, None, false),
        Operand::AReg(r) => (2, r, None, false),
        Operand::Imm(v) => (3, 0, Some(v), false),
        Operand::Abs(v) => (4, 0, Some(v), false),
        Operand::Ind(r) => (5, r, None, false),
        Operand::IndDisp(r, d) => (6, r, Some(d as u32), false),
        Operand::PostInc(r) => (7, r, None, false),
        Operand::PreDec(r) => (7, r, None, true),
    }
}

fn operand_from_fields(
    mode: u8,
    reg: u8,
    ext: Option<u32>,
    predec: bool,
) -> Result<Operand, CodecError> {
    Ok(match mode {
        0 => Operand::None,
        1 => Operand::DReg(reg),
        2 => Operand::AReg(reg),
        3 => Operand::Imm(ext.ok_or(CodecError::Truncated)?),
        4 => Operand::Abs(ext.ok_or(CodecError::Truncated)?),
        5 => Operand::Ind(reg),
        6 => Operand::IndDisp(reg, ext.ok_or(CodecError::Truncated)? as i32),
        7 => {
            if predec {
                Operand::PreDec(reg)
            } else {
                Operand::PostInc(reg)
            }
        }
        m => return Err(CodecError::BadMode(m)),
    })
}

/// Encodes one instruction, appending its bytes to `out`.
pub fn encode(instr: &Instr, out: &mut Vec<u8>) {
    let (sm, sr, sext, spre) = operand_fields(instr.src);
    let (dm, dr, dext, dpre) = operand_fields(instr.dst);
    let b0 = instr.op as u8;
    let b1 = (size_bits(instr.size) << 6) | ((sm & 0b111) << 3) | (sr & 0b111);
    let b2 = ((dm & 0b111) << 5) | ((dr & 0b111) << 2);
    let mut b3 = 0u8;
    if spre {
        b3 |= 0b1000_0000;
    }
    if dpre {
        b3 |= 0b0100_0000;
    }
    out.extend_from_slice(&[b0, b1, b2, b3]);
    if let Some(v) = sext {
        out.extend_from_slice(&v.to_be_bytes());
    }
    if let Some(v) = dext {
        out.extend_from_slice(&v.to_be_bytes());
    }
}

/// Decodes one instruction from the front of `bytes`.
///
/// Returns the instruction and the number of bytes consumed.
pub fn decode(bytes: &[u8]) -> Result<(Instr, u32), CodecError> {
    if bytes.len() < 4 {
        return Err(CodecError::Truncated);
    }
    let op = Op::from_u8(bytes[0]).ok_or(CodecError::BadOpcode(bytes[0]))?;
    let size = size_from_bits(bytes[1] >> 6);
    let sm = (bytes[1] >> 3) & 0b111;
    let sr = bytes[1] & 0b111;
    let dm = (bytes[2] >> 5) & 0b111;
    let dr = (bytes[2] >> 2) & 0b111;
    let spre = bytes[3] & 0b1000_0000 != 0;
    let dpre = bytes[3] & 0b0100_0000 != 0;

    let mut offset = 4usize;
    let mut take_ext = |need: bool| -> Result<Option<u32>, CodecError> {
        if !need {
            return Ok(None);
        }
        let w = bytes.get(offset..offset + 4).ok_or(CodecError::Truncated)?;
        offset += 4;
        Ok(Some(u32::from_be_bytes([w[0], w[1], w[2], w[3]])))
    };

    let s_needs_ext = matches!(sm, 3 | 4 | 6);
    let d_needs_ext = matches!(dm, 3 | 4 | 6);
    let sext = take_ext(s_needs_ext)?;
    let dext = take_ext(d_needs_ext)?;

    let src = operand_from_fields(sm, sr, sext, spre)?;
    let dst = operand_from_fields(dm, dr, dext, dpre)?;
    Ok((Instr { op, size, src, dst }, offset as u32))
}

/// Encodes a whole instruction sequence.
pub fn encode_all(instrs: &[Instr]) -> Vec<u8> {
    let mut out = Vec::new();
    for i in instrs {
        encode(i, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(i: Instr) {
        let mut buf = Vec::new();
        encode(&i, &mut buf);
        assert_eq!(buf.len() as u32, i.encoded_len());
        let (j, n) = decode(&buf).expect("decode");
        assert_eq!(n as usize, buf.len());
        assert_eq!(i, j);
    }

    #[test]
    fn round_trip_representative_instructions() {
        use Operand::*;
        round_trip(Instr::new(Op::Move, Size::Long, Imm(0xdeadbeef), DReg(3)));
        round_trip(Instr::new(Op::Move, Size::Byte, PostInc(1), PreDec(2)));
        round_trip(Instr::new(Op::Add, Size::Word, Abs(0x1234), DReg(7)));
        round_trip(Instr::new(Op::Lea, Size::Long, IndDisp(5, -8), AReg(0)));
        round_trip(Instr::new(Op::Trap, Size::Long, Imm(0), None));
        round_trip(Instr::new(Op::Rts, Size::Long, None, None));
        round_trip(Instr::new(Op::Bne, Size::Long, None, Abs(0x4000)));
        round_trip(Instr::new(Op::Extb2, Size::Long, None, DReg(4)));
    }

    #[test]
    fn negative_displacement_round_trips() {
        round_trip(Instr::new(
            Op::Move,
            Size::Long,
            Operand::IndDisp(6, -2048),
            Operand::DReg(0),
        ));
    }

    #[test]
    fn bad_opcode_rejected() {
        let buf = [0xff, 0, 0, 0];
        assert_eq!(decode(&buf), Err(CodecError::BadOpcode(0xff)));
    }

    #[test]
    fn truncated_rejected() {
        let i = Instr::new(Op::Move, Size::Long, Operand::Imm(5), Operand::DReg(0));
        let mut buf = Vec::new();
        encode(&i, &mut buf);
        assert_eq!(decode(&buf[..6]), Err(CodecError::Truncated));
        assert_eq!(decode(&buf[..3]), Err(CodecError::Truncated));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use simtime::rng::SplitMix64;
    use std::panic::catch_unwind;

    /// Cases per property.
    const CASES: u32 = 64;

    /// Each of the nine operand kinds one time in nine, registers 0–7.
    fn arb_operand(rng: &mut SplitMix64) -> Operand {
        let reg = rng.below(8) as u8;
        match rng.below(9) {
            0 => Operand::None,
            1 => Operand::DReg(reg),
            2 => Operand::AReg(reg),
            3 => Operand::Imm(rng.int()),
            4 => Operand::Abs(rng.int()),
            5 => Operand::Ind(reg),
            6 => Operand::IndDisp(reg, rng.int()),
            7 => Operand::PostInc(reg),
            _ => Operand::PreDec(reg),
        }
    }

    /// An opcode from 1–34 (redrawn until it names an op), any size and
    /// any two operands.
    fn arb_instr(rng: &mut SplitMix64) -> Instr {
        let op = loop {
            if let Some(op) = Op::from_u8(1 + rng.below(34) as u8) {
                break op;
            }
        };
        let size = rng.pick(&[Size::Byte, Size::Word, Size::Long]);
        let (src, dst) = (arb_operand(rng), arb_operand(rng));
        Instr { op, size, src, dst }
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut rng = SplitMix64::new(1);
        for case in 0..CASES {
            let i = arb_instr(&mut rng);
            let mut buf = Vec::new();
            encode(&i, &mut buf);
            let (j, n) = decode(&buf).unwrap();
            assert_eq!(n as usize, buf.len(), "case {case}: {i:?}");
            assert_eq!(i, j, "case {case}");
        }
    }

    #[test]
    fn decode_never_panics() {
        let mut rng = SplitMix64::new(2);
        for case in 0..CASES {
            let bytes = rng.bytes(0..16);
            let decoded = catch_unwind(|| decode(&bytes));
            assert!(decoded.is_ok(), "case {case}: {bytes:02x?}");
        }
    }
}
