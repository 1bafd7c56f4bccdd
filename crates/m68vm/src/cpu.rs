//! The CPU interpreter.

use crate::encode::{decode, CodecError};
use crate::icache::{ICache, Slot};
use crate::isa::{Instr, IsaLevel, Op, Operand, Size};
use crate::mem::{Memory, MemoryLayout};

/// Condition-code bits, laid out like the 68k CCR.
pub mod ccr {
    /// Carry.
    pub const C: u16 = 0x01;
    /// Overflow.
    pub const V: u16 = 0x02;
    /// Zero.
    pub const Z: u16 = 0x04;
    /// Negative.
    pub const N: u16 = 0x08;
}

/// A memory or execution fault, mapped to a signal by the kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Access to an unmapped address (`SIGSEGV`).
    Unmapped {
        /// The faulting address.
        addr: u32,
    },
    /// Write to the read-only text segment (`SIGBUS`).
    WriteToText {
        /// The faulting address.
        addr: u32,
    },
    /// Undecodable instruction word (`SIGILL`).
    IllegalInstruction {
        /// Program counter of the bad instruction.
        pc: u32,
    },
    /// An ISA-2 instruction executed on an ISA-1 CPU (`SIGILL`) — the
    /// paper's heterogeneity limitation surfacing at run time.
    IsaViolation {
        /// Program counter of the instruction.
        pc: u32,
        /// The instruction that is not implemented at this level.
        op: Op,
    },
    /// Integer division by zero (`SIGFPE`).
    DivZero {
        /// Program counter of the divide.
        pc: u32,
    },
    /// The stack pointer left the stack region (`SIGSEGV`).
    StackOverflow {
        /// The out-of-range stack pointer.
        sp: u32,
    },
    /// Access to a resident-elsewhere page of a demand-restored image.
    /// Not a signal: the kernel parks the process and fetches the page
    /// from the source dump, then replays the instruction. The fault is
    /// *precise* — every interpreter tier leaves the CPU exactly as it
    /// was before the instruction and charges nothing for it — so the
    /// replay needs no saved registers.
    PageAbsent {
        /// The first absent byte the access touched.
        addr: u32,
    },
}

/// The outcome of executing one instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepEvent {
    /// The instruction completed; `units` are simple-instruction cost
    /// units for the machine's cost model.
    Executed {
        /// Cost units consumed.
        units: u32,
    },
    /// A `TRAP #vector` executed; the program counter already points at
    /// the next instruction, so the kernel may resume after servicing it.
    Trap {
        /// The trap vector (0 is the system-call gate).
        vector: u8,
        /// Cost units consumed by the trap instruction itself.
        units: u32,
    },
    /// The instruction faulted; the program counter is left *at* the
    /// faulting instruction.
    Faulted(Fault),
}

/// The processor state: exactly what `SIGDUMP` writes into `stackXXXXX`
/// under "the contents of all the registers".
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cpu {
    /// Data registers `d0..d7`.
    pub d: [u32; 8],
    /// Address registers `a0..a7`; `a[7]` is the stack pointer.
    pub a: [u32; 8],
    /// Program counter.
    pub pc: u32,
    /// Status register (condition codes in the low byte).
    pub sr: u16,
}

impl Cpu {
    /// A CPU ready to run at `entry` with an empty stack.
    pub fn at_entry(entry: u32) -> Cpu {
        let mut a = [0u32; 8];
        a[7] = MemoryLayout::STACK_TOP;
        Cpu {
            d: [0; 8],
            a,
            pc: entry,
            sr: 0,
        }
    }

    /// The stack pointer.
    pub fn sp(&self) -> u32 {
        self.a[7]
    }

    /// Flattens the registers to the 18-word dump order:
    /// `d0..d7, a0..a7, pc, sr`.
    pub fn to_regs(&self) -> [u32; 18] {
        let mut r = [0u32; 18];
        r[..8].copy_from_slice(&self.d);
        r[8..16].copy_from_slice(&self.a);
        r[16] = self.pc;
        r[17] = self.sr as u32;
        r
    }

    /// Rebuilds the CPU from the 18-word dump order.
    pub fn from_regs(regs: &[u32; 18]) -> Cpu {
        let mut c = Cpu::at_entry(0);
        c.d.copy_from_slice(&regs[..8]);
        c.a.copy_from_slice(&regs[8..16]);
        c.pc = regs[16];
        c.sr = regs[17] as u16;
        c
    }

    fn set_flag(&mut self, bit: u16, on: bool) {
        if on {
            self.sr |= bit;
        } else {
            self.sr &= !bit;
        }
    }

    fn set_nz(&mut self, value: u32, size: Size) {
        let (msb, masked) = match size {
            Size::Byte => (0x80u32, value & 0xff),
            Size::Word => (0x8000, value & 0xffff),
            Size::Long => (0x8000_0000, value),
        };
        self.set_flag(ccr::N, masked & msb != 0);
        self.set_flag(ccr::Z, masked == 0);
    }

    /// Computes the effective address for a memory operand, applying
    /// post-increment/pre-decrement side effects exactly once.
    #[inline(always)]
    fn effective_addr(&mut self, op: Operand, size: Size) -> Option<u32> {
        match op {
            Operand::Abs(a) => Some(a),
            Operand::Ind(r) => Some(self.a[r as usize]),
            Operand::IndDisp(r, d) => Some(self.a[r as usize].wrapping_add(d as u32)),
            Operand::PostInc(r) => {
                let addr = self.a[r as usize];
                self.a[r as usize] = addr.wrapping_add(size.bytes());
                Some(addr)
            }
            Operand::PreDec(r) => {
                let addr = self.a[r as usize].wrapping_sub(size.bytes());
                self.a[r as usize] = addr;
                Some(addr)
            }
            _ => None,
        }
    }

    fn read_sized(mem: &Memory, addr: u32, size: Size) -> Result<u32, Fault> {
        Ok(match size {
            Size::Byte => mem.read_u8(addr)? as u32,
            Size::Word => mem.read_u16(addr)? as u32,
            Size::Long => mem.read_u32(addr)?,
        })
    }

    fn write_sized(mem: &mut Memory, addr: u32, size: Size, v: u32) -> Result<(), Fault> {
        match size {
            Size::Byte => mem.write_u8(addr, v as u8),
            Size::Word => mem.write_u16(addr, v as u16),
            Size::Long => mem.write_u32(addr, v),
        }
    }

    #[inline(always)]
    fn reg_write(&mut self, op: Operand, size: Size, v: u32) {
        let slot = match op {
            Operand::DReg(r) => &mut self.d[r as usize],
            Operand::AReg(r) => &mut self.a[r as usize],
            _ => unreachable!("reg_write on non-register operand"),
        };
        *slot = match size {
            Size::Byte => (*slot & !0xff) | (v & 0xff),
            Size::Word => (*slot & !0xffff) | (v & 0xffff),
            Size::Long => v,
        };
    }

    /// Reads an operand's value; `ea` caches a precomputed effective
    /// address so read-modify-write instructions apply side effects once.
    #[inline(always)]
    fn read_operand(
        &mut self,
        mem: &Memory,
        op: Operand,
        size: Size,
        ea: Option<u32>,
    ) -> Result<u32, Fault> {
        let raw = match op {
            Operand::DReg(r) => self.d[r as usize],
            Operand::AReg(r) => self.a[r as usize],
            Operand::Imm(v) => v,
            _ => {
                let addr = ea.expect("memory operand without effective address");
                return Self::read_sized(mem, addr, size);
            }
        };
        Ok(match size {
            Size::Byte => raw & 0xff,
            Size::Word => raw & 0xffff,
            Size::Long => raw,
        })
    }

    #[inline(always)]
    fn write_operand(
        &mut self,
        mem: &mut Memory,
        op: Operand,
        size: Size,
        ea: Option<u32>,
        v: u32,
    ) -> Result<(), Fault> {
        match op {
            Operand::DReg(_) | Operand::AReg(_) => {
                self.reg_write(op, size, v);
                Ok(())
            }
            Operand::Imm(_) | Operand::None => Err(Fault::IllegalInstruction { pc: self.pc }),
            _ => {
                let addr = ea.expect("memory operand without effective address");
                Self::write_sized(mem, addr, size, v)
            }
        }
    }

    fn push_u32(&mut self, mem: &mut Memory, v: u32) -> Result<(), Fault> {
        let sp = self.a[7].wrapping_sub(4);
        let base = MemoryLayout::STACK_TOP - MemoryLayout::STACK_MAX;
        if sp < base {
            return Err(Fault::StackOverflow { sp });
        }
        mem.write_u32(sp, v)?;
        self.a[7] = sp;
        Ok(())
    }

    fn pop_u32(&mut self, mem: &Memory) -> Result<u32, Fault> {
        let v = mem.read_u32(self.a[7])?;
        self.a[7] = self.a[7].wrapping_add(4);
        Ok(v)
    }

    /// Executes one instruction under the given ISA level.
    pub fn step(&mut self, mem: &mut Memory, level: IsaLevel) -> StepEvent {
        // Fetch up to 12 bytes (the maximum instruction length); an
        // instruction can end exactly at the end of its segment.
        let (window, hole) = match mem.read_window(self.pc, 12) {
            Ok(w) => w,
            Err(f) => return StepEvent::Faulted(f),
        };
        let (instr, ilen) = match decode(&window) {
            Ok(x) => x,
            Err(CodecError::BadOpcode(_)) | Err(CodecError::BadMode(_)) => {
                return StepEvent::Faulted(Fault::IllegalInstruction { pc: self.pc })
            }
            // An instruction that runs into a page still at the source
            // faults that page in; one that runs off its segment is an
            // overrun.
            Err(CodecError::Truncated) => {
                return StepEvent::Faulted(match hole {
                    Some(addr) => Fault::PageAbsent { addr },
                    None => Fault::Unmapped { addr: self.pc },
                })
            }
        };
        if !level.supports(instr.op.required_level()) {
            return StepEvent::Faulted(Fault::IsaViolation {
                pc: self.pc,
                op: instr.op,
            });
        }
        let next_pc = self.pc.wrapping_add(ilen);
        let units = instr.cost_units();
        match self.execute(mem, &instr, next_pc) {
            Ok(Flow::Next) => {
                self.pc = next_pc;
                StepEvent::Executed { units }
            }
            Ok(Flow::Jump(target)) => {
                self.pc = target;
                StepEvent::Executed { units }
            }
            Ok(Flow::Trap(vector)) => {
                self.pc = next_pc;
                StepEvent::Trap { vector, units }
            }
            Err(f) => StepEvent::Faulted(f),
        }
    }

    /// Executes one instruction through a predecoded text cache.
    ///
    /// Behaviourally identical to [`Cpu::step`] at the cache's ISA level
    /// (see `icache::tests`): cache slots reproduce the decode faults
    /// and the per-instruction `cost_units()` exactly, and a PC outside
    /// cacheable text (unaligned, or code running from data/stack)
    /// falls back to the live decoder. The ISA level travels with the
    /// cache — validation already happened at build time — which keeps
    /// the two from disagreeing.
    pub fn step_cached(&mut self, mem: &mut Memory, icache: &ICache) -> StepEvent {
        match icache.lookup(self.pc) {
            Some(Slot::Instr { instr, ilen, units }) => {
                let (ilen, units) = (*ilen, *units);
                let next_pc = self.pc.wrapping_add(ilen);
                match self.execute(mem, instr, next_pc) {
                    Ok(Flow::Next) => {
                        self.pc = next_pc;
                        StepEvent::Executed { units }
                    }
                    Ok(Flow::Jump(target)) => {
                        self.pc = target;
                        StepEvent::Executed { units }
                    }
                    Ok(Flow::Trap(vector)) => {
                        self.pc = next_pc;
                        StepEvent::Trap { vector, units }
                    }
                    Err(f) => StepEvent::Faulted(f),
                }
            }
            Some(Slot::Illegal) => StepEvent::Faulted(Fault::IllegalInstruction { pc: self.pc }),
            Some(Slot::Truncated) => StepEvent::Faulted(Fault::Unmapped { addr: self.pc }),
            Some(&Slot::IsaViolation(op)) => {
                StepEvent::Faulted(Fault::IsaViolation { pc: self.pc, op })
            }
            None => self.step(mem, icache.level()),
        }
    }

    /// The single execution engine behind `step`, `step_cached` and the
    /// superblock generic path: `self.pc` must point at the instruction
    /// (faults report it; `jsr` pushes `next_pc`), and the caller
    /// advances `pc` from the returned [`Flow`].
    ///
    /// [`Fault::PageAbsent`] is precise: memory is never written before
    /// the access that faults, and on that path alone the instruction's
    /// address-register side effects are undone (and `muls`/`divs` put
    /// the flags back), leaving the CPU as it was before the
    /// instruction.
    #[inline(always)]
    pub(crate) fn execute(
        &mut self,
        mem: &mut Memory,
        i: &Instr,
        next_pc: u32,
    ) -> Result<Flow, Fault> {
        let out = self.execute_ops(mem, i, next_pc);
        if let Err(Fault::PageAbsent { .. }) = out {
            self.undo_ea(i);
        }
        out
    }

    /// Reverses the post-increment/pre-decrement `effective_addr`
    /// applied to either operand of `i`.
    #[cold]
    fn undo_ea(&mut self, i: &Instr) {
        for op in [i.src, i.dst] {
            match op {
                Operand::PostInc(r) => {
                    self.a[r as usize] = self.a[r as usize].wrapping_sub(i.size.bytes());
                }
                Operand::PreDec(r) => {
                    self.a[r as usize] = self.a[r as usize].wrapping_add(i.size.bytes());
                }
                _ => {}
            }
        }
    }

    /// Sets the flags from a `muls`/`divs` result and stores it as a long
    /// word. A byte or word destination was read at its own size, so
    /// this wider store is the one access that can reach a page the read
    /// did not: if that page is absent the flags go back, keeping the
    /// fault precise. Only these two ops need the old flags, so no other
    /// instruction pays for holding them.
    #[inline(always)]
    fn store_product(
        &mut self,
        mem: &mut Memory,
        dst: Operand,
        ea: Option<u32>,
        r: u32,
    ) -> Result<(), Fault> {
        let sr = self.sr;
        self.sr = set_ccr(self.sr, false, false, r, Size::Long);
        let out = self.write_operand(mem, dst, Size::Long, ea, r);
        if let Err(Fault::PageAbsent { .. }) = out {
            self.sr = sr;
        }
        out
    }

    /// The instruction semantics behind [`Cpu::execute`]. Only the thin
    /// wrapper is forced inline: inlining this body into all three tiers
    /// as well measurably slowed the hog-heavy `storm` benchmark.
    #[inline]
    fn execute_ops(&mut self, mem: &mut Memory, i: &Instr, next_pc: u32) -> Result<Flow, Fault> {
        let size = i.size;
        let src_ea = self.effective_addr(i.src, size);
        let dst_ea = self.effective_addr(i.dst, size);
        match i.op {
            Op::Nop => Ok(Flow::Next),
            Op::Move => {
                let v = self.read_operand(mem, i.src, size, src_ea)?;
                self.write_operand(mem, i.dst, size, dst_ea, v)?;
                self.sr = set_ccr(self.sr, false, false, v, size);
                Ok(Flow::Next)
            }
            Op::Lea => {
                let addr = match i.src {
                    Operand::Abs(a) => a,
                    _ => src_ea.ok_or(Fault::IllegalInstruction { pc: self.pc })?,
                };
                match i.dst {
                    Operand::AReg(r) => self.a[r as usize] = addr,
                    Operand::DReg(r) => self.d[r as usize] = addr,
                    _ => return Err(Fault::IllegalInstruction { pc: self.pc }),
                }
                Ok(Flow::Next)
            }
            Op::Add | Op::Sub | Op::Cmp => {
                let s = self.read_operand(mem, i.src, size, src_ea)?;
                let d = self.read_operand(mem, i.dst, size, dst_ea)?;
                let (mask, msb) = size_mask(size);
                let (s, d) = (s & mask, d & mask);
                let result = if i.op == Op::Add {
                    d.wrapping_add(s)
                } else {
                    d.wrapping_sub(s)
                } & mask;
                let (c, v) = if i.op == Op::Add {
                    (
                        (d as u64 + s as u64) > mask as u64,
                        ((d ^ result) & (s ^ result) & msb) != 0,
                    )
                } else {
                    (s > d, ((d ^ s) & (d ^ result) & msb) != 0)
                };
                self.sr = set_ccr(self.sr, c, v, result, size);
                if i.op != Op::Cmp {
                    self.write_operand(mem, i.dst, size, dst_ea, result)?;
                }
                Ok(Flow::Next)
            }
            Op::Muls => {
                let s = self.read_operand(mem, i.src, size, src_ea)? as i32;
                let d = self.read_operand(mem, i.dst, size, dst_ea)? as i32;
                self.store_product(mem, i.dst, dst_ea, d.wrapping_mul(s) as u32)?;
                Ok(Flow::Next)
            }
            Op::Divs => {
                let s = self.read_operand(mem, i.src, size, src_ea)? as i32;
                if s == 0 {
                    return Err(Fault::DivZero { pc: self.pc });
                }
                let d = self.read_operand(mem, i.dst, size, dst_ea)? as i32;
                self.store_product(mem, i.dst, dst_ea, d.wrapping_div(s) as u32)?;
                Ok(Flow::Next)
            }
            Op::And | Op::Or | Op::Eor => {
                let s = self.read_operand(mem, i.src, size, src_ea)?;
                let d = self.read_operand(mem, i.dst, size, dst_ea)?;
                let r = match i.op {
                    Op::And => d & s,
                    Op::Or => d | s,
                    _ => d ^ s,
                };
                self.sr = set_ccr(self.sr, false, false, r, size);
                self.write_operand(mem, i.dst, size, dst_ea, r)?;
                Ok(Flow::Next)
            }
            Op::Not | Op::Neg => {
                let d = self.read_operand(mem, i.dst, size, dst_ea)?;
                let (mask, _) = size_mask(size);
                let r = if i.op == Op::Not {
                    !d & mask
                } else {
                    d.wrapping_neg() & mask
                };
                self.sr = set_ccr(self.sr, i.op == Op::Neg && r != 0, false, r, size);
                self.write_operand(mem, i.dst, size, dst_ea, r)?;
                Ok(Flow::Next)
            }
            Op::Lsl | Op::Lsr | Op::Asr => {
                let count = self.read_operand(mem, i.src, size, src_ea)? & 63;
                let d = self.read_operand(mem, i.dst, size, dst_ea)?;
                let (mask, _) = size_mask(size);
                let d = d & mask;
                let (r, c) = if count == 0 {
                    (d, false)
                } else if count >= 32 {
                    let c = match i.op {
                        Op::Asr => (d as i32) < 0,
                        _ => false,
                    };
                    let r = if i.op == Op::Asr && (d as i32) < 0 {
                        mask
                    } else {
                        0
                    };
                    (r, c)
                } else {
                    match i.op {
                        Op::Lsl => {
                            let c = (d >> (bits_of(size) as u32 - count.min(bits_of(size) as u32)))
                                & 1
                                != 0;
                            (
                                d.wrapping_shl(count) & mask,
                                c && count <= bits_of(size) as u32,
                            )
                        }
                        Op::Lsr => (d >> count, (d >> (count - 1)) & 1 != 0),
                        _ => {
                            let c = (d >> (count - 1)) & 1 != 0;
                            let sd = sign_extend(d, size);
                            (((sd >> count) as u32) & mask, c)
                        }
                    }
                };
                self.sr = set_ccr(self.sr, c, false, r, size);
                self.write_operand(mem, i.dst, size, dst_ea, r)?;
                Ok(Flow::Next)
            }
            Op::Tst => {
                let d = self.read_operand(mem, i.dst, size, dst_ea)?;
                self.sr = set_ccr(self.sr, false, false, d, size);
                Ok(Flow::Next)
            }
            op if op.is_branch() => {
                let target = match i.dst {
                    Operand::Abs(t) => t,
                    _ => return Err(Fault::IllegalInstruction { pc: self.pc }),
                };
                if branch_taken(self.sr, op) {
                    Ok(Flow::Jump(target))
                } else {
                    Ok(Flow::Next)
                }
            }
            Op::Jsr => {
                let target = match i.dst {
                    Operand::Abs(t) => t,
                    _ => dst_ea.ok_or(Fault::IllegalInstruction { pc: self.pc })?,
                };
                self.push_u32(mem, next_pc)?;
                Ok(Flow::Jump(target))
            }
            Op::Rts => {
                let ret = self.pop_u32(mem)?;
                Ok(Flow::Jump(ret))
            }
            Op::Trap => {
                let vector = match i.src {
                    Operand::Imm(v) => v as u8,
                    _ => return Err(Fault::IllegalInstruction { pc: self.pc }),
                };
                Ok(Flow::Trap(vector))
            }
            Op::Mac2 => {
                // dst += src * d0 (a tiny "multiply-accumulate" that only
                // exists so ISA-2 binaries genuinely differ).
                let s = self.read_operand(mem, i.src, Size::Long, src_ea)? as i32;
                let d = self.read_operand(mem, i.dst, Size::Long, dst_ea)? as i32;
                let r = d.wrapping_add(s.wrapping_mul(self.d[0] as i32)) as u32;
                self.set_nz(r, Size::Long);
                self.write_operand(mem, i.dst, Size::Long, dst_ea, r)?;
                Ok(Flow::Next)
            }
            Op::Bfextu2 => {
                // dst = (dst >> imm.low8) masked to imm.high8 bits.
                let spec = self.read_operand(mem, i.src, Size::Long, src_ea)?;
                let shift = spec & 0xff;
                let width = ((spec >> 8) & 0xff).min(32);
                let d = self.read_operand(mem, i.dst, Size::Long, dst_ea)?;
                let mask = if width >= 32 {
                    u32::MAX
                } else {
                    (1u32 << width) - 1
                };
                let r = (d >> shift.min(31)) & mask;
                self.set_nz(r, Size::Long);
                self.write_operand(mem, i.dst, Size::Long, dst_ea, r)?;
                Ok(Flow::Next)
            }
            Op::Extb2 => {
                let d = self.read_operand(mem, i.dst, Size::Long, dst_ea)?;
                let r = d as u8 as i8 as i32 as u32;
                self.set_nz(r, Size::Long);
                self.write_operand(mem, i.dst, Size::Long, dst_ea, r)?;
                Ok(Flow::Next)
            }
            _ => Err(Fault::IllegalInstruction { pc: self.pc }),
        }
    }
}

/// Control-flow outcome of [`Cpu::execute`].
pub(crate) enum Flow {
    Next,
    Jump(u32),
    Trap(u8),
}

/// The status register `sr` with all four condition codes replaced: C
/// and V as given, N and Z from `value` at `size`. One store where
/// `set_nz` and two `set_flag` calls would pay four read-modify-writes.
/// The slot path and the superblock executor both set flags through it,
/// so the two cannot drift apart.
#[inline(always)]
pub(crate) fn set_ccr(sr: u16, c: bool, v: bool, value: u32, size: Size) -> u16 {
    let (mask, msb) = size_mask(size);
    let masked = value & mask;
    let bits = (c as u16 * ccr::C)
        | (v as u16 * ccr::V)
        | if masked == 0 { ccr::Z } else { 0 }
        | if masked & msb != 0 { ccr::N } else { 0 };
    (sr & !(ccr::C | ccr::V | ccr::Z | ccr::N)) | bits
}

/// Whether branch `op` is taken under status register `sr`. Shared by
/// the slot path and the superblock executor, like [`set_ccr`].
#[inline(always)]
pub(crate) fn branch_taken(sr: u16, op: Op) -> bool {
    let flag = |bit| sr & bit != 0;
    let (n, z, v, c) = (flag(ccr::N), flag(ccr::Z), flag(ccr::V), flag(ccr::C));
    match op {
        Op::Bra => true,
        Op::Beq => z,
        Op::Bne => !z,
        Op::Blt => n != v,
        Op::Ble => z || (n != v),
        Op::Bgt => !z && (n == v),
        Op::Bge => n == v,
        Op::Bcs => c,
        Op::Bcc => !c,
        Op::Bmi => n,
        Op::Bpl => !n,
        _ => unreachable!("branch_taken on non-branch"),
    }
}

fn size_mask(size: Size) -> (u32, u32) {
    match size {
        Size::Byte => (0xff, 0x80),
        Size::Word => (0xffff, 0x8000),
        Size::Long => (u32::MAX, 0x8000_0000),
    }
}

fn bits_of(size: Size) -> u8 {
    match size {
        Size::Byte => 8,
        Size::Word => 16,
        Size::Long => 32,
    }
}

fn sign_extend(v: u32, size: Size) -> i32 {
    match size {
        Size::Byte => v as u8 as i8 as i32,
        Size::Word => v as u16 as i16 as i32,
        Size::Long => v as i32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode_all;
    use crate::isa::Operand::*;

    /// Runs instructions until a trap, fault or `max` steps.
    fn run(instrs: &[Instr], level: IsaLevel, max: usize) -> (Cpu, Memory, StepEvent) {
        let text = encode_all(instrs);
        let mut mem = Memory::new(text, vec![0; 256], 256);
        let mut cpu = Cpu::at_entry(MemoryLayout::TEXT_BASE);
        let mut last = StepEvent::Executed { units: 0 };
        for _ in 0..max {
            last = cpu.step(&mut mem, level);
            match last {
                StepEvent::Executed { .. } => continue,
                _ => break,
            }
        }
        (cpu, mem, last)
    }

    #[test]
    fn move_and_add_loop() {
        // d1 = 0; loop 10 times adding 3.
        let text_base = MemoryLayout::TEXT_BASE;
        let i0 = Instr::new(Op::Move, Size::Long, Imm(0), DReg(1)); // 8 bytes
        let i1 = Instr::new(Op::Move, Size::Long, Imm(0), DReg(2)); // 8 bytes
        let loop_pc = text_base + 16;
        let instrs = vec![
            i0,
            i1,
            Instr::new(Op::Add, Size::Long, Imm(3), DReg(1)),
            Instr::new(Op::Add, Size::Long, Imm(1), DReg(2)),
            Instr::new(Op::Cmp, Size::Long, Imm(10), DReg(2)),
            Instr::new(Op::Blt, Size::Long, None, Abs(loop_pc)),
            Instr::new(Op::Trap, Size::Long, Imm(0), None),
        ];
        let (cpu, _, ev) = run(&instrs, IsaLevel::Isa1, 1000);
        assert!(matches!(ev, StepEvent::Trap { vector: 0, .. }));
        assert_eq!(cpu.d[1], 30);
        assert_eq!(cpu.d[2], 10);
    }

    #[test]
    fn memory_counter_in_data_segment() {
        let data_base = MemoryLayout::data_base(3 * 12); // Computed below.
        let instrs = vec![
            Instr::new(Op::Add, Size::Long, Imm(1), Abs(data_base)),
            Instr::new(Op::Add, Size::Long, Imm(1), Abs(data_base)),
            Instr::new(Op::Trap, Size::Long, Imm(0), None),
        ];
        // Each Add Imm,Abs is 12 bytes; trap is 8; text = 32 < 0x2000 so
        // data_base is 0x2000 regardless.
        assert_eq!(data_base, 0x2000);
        let (_, mem, ev) = run(&instrs, IsaLevel::Isa1, 10);
        assert!(matches!(ev, StepEvent::Trap { .. }));
        assert_eq!(mem.read_u32(data_base).unwrap(), 2);
    }

    #[test]
    fn jsr_rts_round_trip() {
        let text_base = MemoryLayout::TEXT_BASE;
        // 0: jsr sub(=16); 8: trap; 16: move #7,d3; rts
        let sub = text_base + 16;
        let instrs = vec![
            Instr::new(Op::Jsr, Size::Long, None, Abs(sub)),
            Instr::new(Op::Trap, Size::Long, Imm(0), None),
            Instr::new(Op::Move, Size::Long, Imm(7), DReg(3)),
            Instr::new(Op::Rts, Size::Long, None, None),
        ];
        let (cpu, _, ev) = run(&instrs, IsaLevel::Isa1, 10);
        assert!(matches!(ev, StepEvent::Trap { .. }));
        assert_eq!(cpu.d[3], 7);
        assert_eq!(cpu.sp(), MemoryLayout::STACK_TOP); // Balanced stack.
    }

    #[test]
    fn push_pop_via_predec_postinc() {
        let instrs = vec![
            Instr::new(Op::Move, Size::Long, Imm(0x1234), PreDec(7)),
            Instr::new(Op::Move, Size::Long, PostInc(7), DReg(5)),
            Instr::new(Op::Trap, Size::Long, Imm(0), None),
        ];
        let (cpu, _, _) = run(&instrs, IsaLevel::Isa1, 10);
        assert_eq!(cpu.d[5], 0x1234);
        assert_eq!(cpu.sp(), MemoryLayout::STACK_TOP);
    }

    #[test]
    fn isa2_instruction_faults_on_isa1() {
        let instrs = vec![Instr::new(Op::Extb2, Size::Long, None, DReg(0))];
        let (_, _, ev) = run(&instrs, IsaLevel::Isa1, 2);
        assert!(matches!(
            ev,
            StepEvent::Faulted(Fault::IsaViolation { op: Op::Extb2, .. })
        ));
        // And it executes fine at Isa2:
        let instrs2 = vec![
            Instr::new(Op::Move, Size::Long, Imm(0xff), DReg(0)),
            Instr::new(Op::Extb2, Size::Long, None, DReg(0)),
            Instr::new(Op::Trap, Size::Long, Imm(0), None),
        ];
        let (cpu, _, ev2) = run(&instrs2, IsaLevel::Isa2, 5);
        assert!(matches!(ev2, StepEvent::Trap { .. }));
        assert_eq!(cpu.d[0], 0xffff_ffff); // Sign-extended.
    }

    #[test]
    fn div_by_zero_faults() {
        let instrs = vec![
            Instr::new(Op::Move, Size::Long, Imm(0), DReg(1)),
            Instr::new(Op::Divs, Size::Long, DReg(1), DReg(2)),
        ];
        let (_, _, ev) = run(&instrs, IsaLevel::Isa1, 5);
        assert!(matches!(ev, StepEvent::Faulted(Fault::DivZero { .. })));
    }

    #[test]
    fn null_deref_faults() {
        let instrs = vec![Instr::new(Op::Move, Size::Long, Abs(0), DReg(0))];
        let (_, _, ev) = run(&instrs, IsaLevel::Isa1, 2);
        assert!(matches!(ev, StepEvent::Faulted(Fault::Unmapped { .. })));
    }

    #[test]
    fn write_to_text_faults() {
        let instrs = vec![Instr::new(
            Op::Move,
            Size::Long,
            Imm(1),
            Abs(MemoryLayout::TEXT_BASE),
        )];
        let (_, _, ev) = run(&instrs, IsaLevel::Isa1, 2);
        assert!(matches!(ev, StepEvent::Faulted(Fault::WriteToText { .. })));
    }

    #[test]
    fn signed_compare_flags() {
        // -1 < 1 signed.
        let instrs = vec![
            Instr::new(Op::Move, Size::Long, Imm(-1i32 as u32), DReg(0)),
            Instr::new(Op::Cmp, Size::Long, Imm(1), DReg(0)),
            Instr::new(Op::Blt, Size::Long, None, Abs(MemoryLayout::TEXT_BASE + 32)),
            Instr::new(Op::Trap, Size::Long, Imm(0), None), // Not reached.
            Instr::new(Op::Move, Size::Long, Imm(42), DReg(6)),
            Instr::new(Op::Trap, Size::Long, Imm(0), None),
        ];
        let (cpu, _, _) = run(&instrs, IsaLevel::Isa1, 10);
        assert_eq!(cpu.d[6], 42);
    }

    #[test]
    fn register_state_round_trips_through_dump_order() {
        let mut cpu = Cpu::at_entry(0x1234);
        cpu.d = [1, 2, 3, 4, 5, 6, 7, 8];
        cpu.a = [9, 10, 11, 12, 13, 14, 15, 16];
        cpu.sr = 0x0F;
        let regs = cpu.to_regs();
        let back = Cpu::from_regs(&regs);
        assert_eq!(cpu, back);
    }

    #[test]
    fn byte_move_preserves_upper_register_bits() {
        let instrs = vec![
            Instr::new(Op::Move, Size::Long, Imm(0xAABBCCDD), DReg(0)),
            Instr::new(Op::Move, Size::Byte, Imm(0x11), DReg(0)),
            Instr::new(Op::Trap, Size::Long, Imm(0), None),
        ];
        let (cpu, _, _) = run(&instrs, IsaLevel::Isa1, 5);
        assert_eq!(cpu.d[0], 0xAABBCC11);
    }

    #[test]
    fn stack_overflow_detected_on_jsr() {
        let mut cpu = Cpu::at_entry(MemoryLayout::TEXT_BASE);
        cpu.a[7] = MemoryLayout::STACK_TOP - MemoryLayout::STACK_MAX + 2;
        let text = encode_all(&[Instr::new(
            Op::Jsr,
            Size::Long,
            None,
            Abs(MemoryLayout::TEXT_BASE),
        )]);
        let mut mem = Memory::new(text, vec![], 0);
        let ev = cpu.step(&mut mem, IsaLevel::Isa1);
        assert!(matches!(
            ev,
            StepEvent::Faulted(Fault::StackOverflow { .. })
        ));
    }
}
