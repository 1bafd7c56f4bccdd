//! The `core` file written by `SIGQUIT` and the `undump` combinator.
//!
//! A 4.2BSD core dump held the u-area, the data segment and the stack —
//! "a subset of the information we dump for our new signal", as the paper
//! puts it when comparing `SIGDUMP` to `SIGQUIT`. Our core file keeps the
//! same content: registers (the interesting part of the u-area), the data
//! segment and the live stack.

use crate::header::{parse_executable, AoutError, Executable};
use m68vm::IsaLevel;

/// Magic number identifying a core file (locally chosen, in the spirit of
/// the paper's octal 444/445 dump magics).
pub const CORE_MAGIC: u32 = 0o443;

/// A parsed core dump.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoreFile {
    /// Registers in dump order (`d0..d7, a0..a7, pc, sr`).
    pub regs: [u32; 18],
    /// The data segment (data + bss) at the time of death.
    pub data: Vec<u8>,
    /// The live stack (from `sp` to the stack top) at the time of death.
    pub stack: Vec<u8>,
}

/// A core encoding/decoding failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CoreError {
    /// Wrong magic number.
    BadMagic(u32),
    /// File shorter than its own length fields claim.
    Truncated,
}

impl core::fmt::Display for CoreError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CoreError::BadMagic(m) => write!(f, "bad core magic {m:#o}"),
            CoreError::Truncated => write!(f, "core file truncated"),
        }
    }
}

impl std::error::Error for CoreError {}

impl CoreFile {
    /// Serialises the core file.
    ///
    /// Layout: magic, data length, stack length (big-endian words), 18
    /// register words, data bytes, stack bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 + 18 * 4 + self.data.len() + self.stack.len());
        out.extend_from_slice(&CORE_MAGIC.to_be_bytes());
        out.extend_from_slice(&(self.data.len() as u32).to_be_bytes());
        out.extend_from_slice(&(self.stack.len() as u32).to_be_bytes());
        for r in self.regs {
            out.extend_from_slice(&r.to_be_bytes());
        }
        out.extend_from_slice(&self.data);
        out.extend_from_slice(&self.stack);
        out
    }

    /// Parses a core file.
    pub fn decode(bytes: &[u8]) -> Result<CoreFile, CoreError> {
        let word = |i: usize| -> Result<u32, CoreError> {
            bytes
                .get(i * 4..i * 4 + 4)
                .map(|b| u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
                .ok_or(CoreError::Truncated)
        };
        let magic = word(0)?;
        if magic != CORE_MAGIC {
            return Err(CoreError::BadMagic(magic));
        }
        let data_len = word(1)? as usize;
        let stack_len = word(2)? as usize;
        let mut regs = [0u32; 18];
        for (i, r) in regs.iter_mut().enumerate() {
            *r = word(3 + i)?;
        }
        let body = 12 + 18 * 4;
        let data = bytes
            .get(body..body + data_len)
            .ok_or(CoreError::Truncated)?
            .to_vec();
        let stack = bytes
            .get(body + data_len..body + data_len + stack_len)
            .ok_or(CoreError::Truncated)?
            .to_vec();
        Ok(CoreFile { regs, data, stack })
    }
}

/// Combines an executable and a core dump into a new executable whose
/// initialised data is the core's data segment — the classic `undump`.
///
/// The resulting program starts *from the beginning* (its entry point),
/// but every static variable holds the value it had when the core was
/// written. The dumped bss is folded into initialised data, so the new
/// header has `a_bss == 0`.
pub fn undump(executable: &[u8], core: &[u8]) -> Result<Vec<u8>, UndumpError> {
    let exe: Executable = parse_executable(executable).map_err(UndumpError::Aout)?;
    let core = CoreFile::decode(core).map_err(UndumpError::Core)?;
    let expected = exe.header.a_data as usize + exe.header.a_bss as usize;
    if core.data.len() != expected {
        return Err(UndumpError::SizeMismatch {
            core_data: core.data.len(),
            exe_data_bss: expected,
        });
    }
    Ok(crate::header::encode_executable(
        exe.text,
        &core.data,
        0,
        exe.header.a_entry,
        exe.isa(),
    ))
}

/// Why `undump` refused to combine its inputs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UndumpError {
    /// The executable did not parse.
    Aout(AoutError),
    /// The core did not parse.
    Core(CoreError),
    /// The core's data segment does not match the executable's data+bss.
    SizeMismatch {
        /// Bytes of data in the core.
        core_data: usize,
        /// Bytes of data+bss the executable expects.
        exe_data_bss: usize,
    },
}

impl core::fmt::Display for UndumpError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            UndumpError::Aout(e) => write!(f, "executable: {e}"),
            UndumpError::Core(e) => write!(f, "core: {e}"),
            UndumpError::SizeMismatch {
                core_data,
                exe_data_bss,
            } => write!(
                f,
                "core data ({core_data} bytes) does not match executable data+bss ({exe_data_bss} bytes)"
            ),
        }
    }
}

impl std::error::Error for UndumpError {}

/// Helper: the ISA level of an executable file without a full parse.
pub fn required_isa(executable: &[u8]) -> Result<IsaLevel, AoutError> {
    crate::header::AoutHeader::decode(executable)?.isa()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::encode_object;
    use m68vm::{assemble, Cpu, StepEvent};

    fn counting_program() -> Vec<u8> {
        encode_object(
            &assemble(
                r"
            start:  add.l   #1, counter
                    move.l  counter, d0
                    trap    #0
                    .data
            counter:.long   0
            ",
            )
            .unwrap(),
        )
    }

    fn run_once(file: &[u8]) -> (u32, CoreFile) {
        let exe = parse_executable(file).unwrap();
        let mut mem = exe.to_memory();
        let mut cpu = Cpu::at_entry(exe.header.a_entry);
        loop {
            match cpu.step(&mut mem, m68vm::IsaLevel::Isa2) {
                StepEvent::Executed { .. } => {}
                StepEvent::Trap { .. } => break,
                StepEvent::Faulted(f) => panic!("fault {f:?}"),
            }
        }
        let core = CoreFile {
            regs: cpu.to_regs(),
            data: mem.data().to_vec(),
            stack: mem.stack_from(cpu.sp()).unwrap().to_vec(),
        };
        (cpu.d[0], core)
    }

    #[test]
    fn core_round_trip() {
        let (_, core) = run_once(&counting_program());
        let bytes = core.encode();
        let back = CoreFile::decode(&bytes).unwrap();
        assert_eq!(core, back);
    }

    #[test]
    fn corrupt_core_rejected() {
        let (_, core) = run_once(&counting_program());
        let mut bytes = core.encode();
        bytes[0] = 0xff;
        assert!(matches!(
            CoreFile::decode(&bytes),
            Err(CoreError::BadMagic(_))
        ));
        let bytes = core.encode();
        assert_eq!(
            CoreFile::decode(&bytes[..bytes.len() - 1]),
            Err(CoreError::Truncated)
        );
    }

    #[test]
    fn undump_preserves_static_state() {
        let exe = counting_program();
        // First run: counter goes 0 -> 1.
        let (v1, core) = run_once(&exe);
        assert_eq!(v1, 1);
        // Undump and run again: counter continues 1 -> 2, "restarted from
        // the beginning, except that all static variables are initialised
        // to the values that they had when the process was killed".
        let merged = undump(&exe, &core.encode()).unwrap();
        let (v2, core2) = run_once(&merged);
        assert_eq!(v2, 2);
        // And it chains.
        let merged2 = undump(&merged, &core2.encode()).unwrap();
        let (v3, _) = run_once(&merged2);
        assert_eq!(v3, 3);
    }

    #[test]
    fn undump_size_mismatch_rejected() {
        let exe = counting_program();
        let (_, mut core) = run_once(&exe);
        core.data.push(0);
        assert!(matches!(
            undump(&exe, &core.encode()),
            Err(UndumpError::SizeMismatch { .. })
        ));
    }
}
