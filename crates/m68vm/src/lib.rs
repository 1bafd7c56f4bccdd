//! A 68k-flavoured virtual CPU, assembler and disassembler.
//!
//! The paper migrates real processes on MC68010 (Sun-2) and MC68020
//! (Sun-3) workstations. Migration transparency can only be demonstrated
//! if *actual machine state* — registers, stack, static data — is captured
//! mid-execution and resumes identically on another machine, so this crate
//! provides a small but genuine CPU:
//!
//! * big-endian memory split into text / data+bss / stack segments, like a
//!   4.2BSD process image;
//! * eight data registers `d0..d7`, eight address registers `a0..a7` (with
//!   `a7` as the stack pointer), a program counter and condition codes;
//! * a compact instruction encoding covering moves, ALU ops, compares,
//!   branches, subroutine calls and the `TRAP #0` system-call gate;
//! * two ISA levels: [`IsaLevel::Isa2`] is a strict superset of
//!   [`IsaLevel::Isa1`] (three extra instructions), reproducing the
//!   paper's §7 heterogeneity rule — a process may migrate 68010→68020
//!   but faults with an illegal-instruction trap in the other direction;
//! * a two-pass assembler and a disassembler, so guest workloads live in
//!   the repository as readable assembly sources.
//!
//! The system-call convention follows old Unix: the syscall number goes in
//! `d0`, arguments in `d1..d5`, then `TRAP #0`; on return `d0` holds the
//! result, with the carry flag set and `d0` holding the `errno` on failure.

pub mod asm;
pub mod cpu;
pub mod disasm;
pub mod encode;
pub mod icache;
pub mod isa;
pub mod mem;
pub mod object;
pub mod superblock;

pub use asm::{assemble, AsmError};
pub use cpu::{Cpu, Fault, StepEvent};
pub use disasm::disassemble_one;
pub use icache::{ICache, ICachePool};
pub use isa::{Instr, IsaLevel, Op, Operand, Size};
pub use mem::{Memory, MemoryLayout};
pub use object::Object;
pub use superblock::SbExit;
