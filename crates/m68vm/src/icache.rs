//! Per-text-segment predecoded instruction cache.
//!
//! Text is write-protected ([`Fault::WriteToText`]), so its decode work
//! can be done exactly once — at `a.out` load, `execve()` or
//! `rest_proc()` restore — instead of on every executed instruction.
//! Every instruction length is a multiple of four bytes and text starts
//! at the 4-aligned [`MemoryLayout::TEXT_BASE`], so the cache holds one
//! slot per four bytes of text, indexed directly by `(pc - TEXT_BASE) / 4`.
//! Decoding at *every* 4-byte offset (not just instruction starts
//! reachable from the entry point) means a jump into the middle of an
//! encoded instruction behaves bit-identically to the live decoder.
//!
//! The ISA-level check normally performed per step is also folded into
//! the build: a slot holding an instruction above the cache's level
//! becomes [`Slot::IsaViolation`] up front. A cache is therefore a pure
//! function of one `(text, IsaLevel)` pair, so an [`ICachePool`] keyed
//! by that pair hands every process running the same text on the same
//! machine model one shared cache — built on first use, never evicted.
//!
//! This is purely a host-side optimisation: the cached path charges the
//! same `cost_units()` per instruction as the decoding path, so
//! simulated time is unchanged.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::encode::{decode, CodecError};
use crate::isa::{Instr, IsaLevel, Op};
use crate::mem::MemoryLayout;
use crate::superblock::{SbCache, SbEntry, SuperBlock};

/// Maximum encoded instruction length (base word + two extensions).
const MAX_ILEN: usize = 12;

/// The predecoded outcome of fetching at one 4-byte text offset.
///
/// The non-`Instr` variants reproduce the exact fault the live decode
/// path would raise, so cached and uncached execution are
/// indistinguishable to the kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Slot {
    /// A decodable instruction supported at the cache's ISA level.
    Instr {
        instr: Instr,
        /// Encoded length in bytes; the fall-through PC is `pc + ilen`.
        ilen: u32,
        /// `instr.cost_units()`, precomputed for the charging loop.
        units: u32,
    },
    /// Undecodable bytes (`Fault::IllegalInstruction`).
    Illegal,
    /// The instruction runs off the end of text (`Fault::Unmapped`).
    Truncated,
    /// Decodable, but above the cache's ISA level (`Fault::IsaViolation`).
    IsaViolation(Op),
}

/// A predecoded text segment for one ISA level.
///
/// Also owns the lazily translated superblock cache
/// ([`crate::superblock`]): blocks are derived purely from the slots,
/// so sharing them through the same `Arc` and starting every clone
/// with a cold block cache keeps the two coherent by construction.
pub struct ICache {
    level: IsaLevel,
    text_len: u32,
    slots: Vec<Slot>,
    /// Superblock translations, built on first execution of each
    /// block-head slot. Pure cache: never cloned, never compared,
    /// never dumped.
    sb: SbCache,
}

impl Clone for ICache {
    /// Clones the predecoded slots with a *cold* superblock cache —
    /// translation state is pure cache, so a clone re-translating
    /// lazily is indistinguishable from one that inherited the blocks.
    fn clone(&self) -> ICache {
        ICache {
            level: self.level,
            text_len: self.text_len,
            slots: self.slots.clone(),
            sb: SbCache::new(self.slots.len()),
        }
    }
}

impl std::fmt::Debug for ICache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ICache")
            .field("level", &self.level)
            .field("text_len", &self.text_len)
            .field("slots", &self.slots.len())
            .field("translated_blocks", &self.sb.translated())
            .finish()
    }
}

impl ICache {
    /// Decodes an entire text segment for execution at `level`.
    pub fn build(text: &[u8], level: IsaLevel) -> ICache {
        let mut slots = Vec::with_capacity(text.len().div_ceil(4));
        for off in (0..text.len()).step_by(4) {
            let window = &text[off..(off + MAX_ILEN).min(text.len())];
            let slot = match decode(window) {
                Ok((instr, ilen)) => {
                    if level.supports(instr.op.required_level()) {
                        Slot::Instr {
                            instr,
                            ilen,
                            units: instr.cost_units(),
                        }
                    } else {
                        Slot::IsaViolation(instr.op)
                    }
                }
                Err(CodecError::BadOpcode(_)) | Err(CodecError::BadMode(_)) => Slot::Illegal,
                Err(CodecError::Truncated) => Slot::Truncated,
            };
            slots.push(slot);
        }
        let sb = SbCache::new(slots.len());
        ICache {
            level,
            text_len: text.len() as u32,
            slots,
            sb,
        }
    }

    /// The ISA level the cache was validated against (used by the
    /// uncached fallback path so both paths enforce the same level).
    pub fn level(&self) -> IsaLevel {
        self.level
    }

    /// Bytes of text covered by the cache.
    pub fn text_len(&self) -> u32 {
        self.text_len
    }

    /// The slot for `pc`, or `None` when `pc` is unaligned or outside
    /// text (code executing from data/stack falls back to live decode).
    #[inline]
    pub fn lookup(&self, pc: u32) -> Option<&Slot> {
        // An unsigned wrap for pc < TEXT_BASE lands far beyond text_len.
        let off = pc.wrapping_sub(MemoryLayout::TEXT_BASE);
        if off & 3 != 0 || off >= self.text_len {
            return None;
        }
        Some(&self.slots[(off >> 2) as usize])
    }

    /// The superblock starting at `pc`, translating it on first use.
    /// `None` outside text or where the slot path serves better
    /// (fault slots, malformed control transfers).
    #[inline]
    pub fn superblock(&self, pc: u32) -> Option<&SuperBlock> {
        let off = pc.wrapping_sub(MemoryLayout::TEXT_BASE);
        if off & 3 != 0 || off >= self.text_len {
            return None;
        }
        match self.sb.entry((off >> 2) as usize, self, pc) {
            SbEntry::Block(b) => Some(b),
            SbEntry::Bypass => None,
        }
    }

    /// How many slots currently hold a translation (lazy-build tests).
    pub fn translated_blocks(&self) -> usize {
        self.sb.translated()
    }

    /// The superblocks translated so far (corpus coverage tests).
    #[cfg(test)]
    pub(crate) fn blocks(&self) -> impl Iterator<Item = &SuperBlock> {
        self.sb.blocks()
    }
}

/// Icaches shared by content: one per `(IsaLevel, text bytes)` pair.
///
/// An icache and its superblocks derive only from that pair, so every
/// process that runs the same text at the same level — on any machine,
/// before or after a migration — can share one `Arc`. Entries live as
/// long as the pool, with no eviction: an installation runs a handful
/// of distinct texts, and a later exec or restore of one of them finds
/// its translation warm.
#[derive(Debug, Default)]
pub struct ICachePool {
    entries: BTreeMap<IsaLevel, BTreeMap<Box<[u8]>, Arc<ICache>>>,
}

impl ICachePool {
    /// The shared cache for `text` at `level`, built on first use.
    pub fn get(&mut self, text: &[u8], level: IsaLevel) -> Arc<ICache> {
        let texts = self.entries.entry(level).or_default();
        if let Some(ic) = texts.get(text) {
            return Arc::clone(ic);
        }
        let ic = Arc::new(ICache::build(text, level));
        texts.insert(text.into(), Arc::clone(&ic));
        ic
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::cpu::{Cpu, Fault, StepEvent};
    use crate::isa::Size;
    use crate::mem::Memory;

    const LOOP_SRC: &str = r"
        start:  move.l  #100, d6
        loop:   add.l   #1, d5
                eor.l   d5, d4
                lsr.l   #1, d4
                sub.l   #1, d6
                bgt     loop
                trap    #0
    ";

    #[test]
    fn cached_run_matches_uncached_bit_for_bit() {
        let obj = assemble(LOOP_SRC).unwrap();
        let icache = ICache::build(&obj.text, IsaLevel::Isa1);

        let mut mem_a = obj.to_memory();
        let mut cpu_a = Cpu::at_entry(obj.entry);
        let mut units_a = 0u64;
        let mut mem_b = obj.to_memory();
        let mut cpu_b = Cpu::at_entry(obj.entry);
        let mut units_b = 0u64;

        loop {
            let ea = cpu_a.step(&mut mem_a, IsaLevel::Isa1);
            let eb = cpu_b.step_cached(&mut mem_b, &icache);
            assert_eq!(ea, eb);
            match ea {
                StepEvent::Executed { units } => {
                    units_a += units as u64;
                    if let StepEvent::Executed { units } = eb {
                        units_b += units as u64;
                    }
                }
                _ => break,
            }
            assert_eq!(cpu_a, cpu_b);
        }
        assert_eq!(cpu_a, cpu_b);
        assert_eq!(units_a, units_b, "simtime charging must be identical");
    }

    #[test]
    fn every_offset_matches_live_decoder_semantics() {
        // Jumping into extension words must behave exactly like the
        // byte-window decoder; compare slot-by-slot against `step` from
        // a CPU parked at each 4-byte text offset.
        let obj = assemble(LOOP_SRC).unwrap();
        let icache = ICache::build(&obj.text, IsaLevel::Isa1);
        for off in (0..obj.text.len() as u32).step_by(4) {
            let pc = MemoryLayout::TEXT_BASE + off;
            let mut mem_a = obj.to_memory();
            let mut cpu_a = Cpu::at_entry(obj.entry);
            cpu_a.pc = pc;
            let mut mem_b = obj.to_memory();
            let mut cpu_b = cpu_a.clone();
            let ea = cpu_a.step(&mut mem_a, IsaLevel::Isa1);
            let eb = cpu_b.step_cached(&mut mem_b, &icache);
            assert_eq!(ea, eb, "divergence at text offset {off:#x}");
            assert_eq!(cpu_a, cpu_b, "state divergence at text offset {off:#x}");
        }
    }

    #[test]
    fn isa_violation_is_predecoded() {
        // bfextu2 requires ISA-2; an ISA-1 cache must fault identically
        // to the live path.
        let obj = assemble("start: bfextu2 #4, d1\n trap #0\n").unwrap();
        let icache = ICache::build(&obj.text, IsaLevel::Isa1);
        let mut mem = obj.to_memory();
        let mut cpu = Cpu::at_entry(obj.entry);
        let cached = cpu.step_cached(&mut mem, &icache);
        let mut mem2 = obj.to_memory();
        let mut cpu2 = Cpu::at_entry(obj.entry);
        let live = cpu2.step(&mut mem2, IsaLevel::Isa1);
        assert_eq!(cached, live);
        assert!(matches!(
            cached,
            StepEvent::Faulted(Fault::IsaViolation {
                op: Op::Bfextu2,
                ..
            })
        ));

        // The same text cached at ISA-2 executes it.
        let icache2 = ICache::build(&obj.text, IsaLevel::Isa2);
        let mut mem3 = obj.to_memory();
        let mut cpu3 = Cpu::at_entry(obj.entry);
        cpu3.d[1] = 0x1234_5678;
        assert!(matches!(
            cpu3.step_cached(&mut mem3, &icache2),
            StepEvent::Executed { .. }
        ));
    }

    #[test]
    fn illegal_and_truncated_slots_fault_like_live_decode() {
        // Text ending mid-instruction: a valid 8-byte instruction cut to
        // its base word decodes as Truncated at the segment edge.
        let instr = Instr {
            op: Op::Move,
            size: Size::Long,
            src: crate::isa::Operand::Imm(7),
            dst: crate::isa::Operand::DReg(1),
        };
        let mut truncated_text = crate::encode::encode_all(&[instr]);
        assert_eq!(truncated_text.len(), 8);
        truncated_text.truncate(4); // cut off the extension word
                                    // 0xFF is no opcode.
        let illegal_text = vec![0xFFu8, 0, 0, 0];

        for (text, expected) in [
            (truncated_text, Slot::Truncated),
            (illegal_text, Slot::Illegal),
        ] {
            let icache = ICache::build(&text, IsaLevel::Isa2);
            assert_eq!(icache.lookup(MemoryLayout::TEXT_BASE), Some(&expected));
            let pc = MemoryLayout::TEXT_BASE;
            let mut mem_a = Memory::new(text.clone(), vec![0; 16], 16);
            let mut cpu_a = Cpu::at_entry(pc);
            let mut mem_b = Memory::new(text.clone(), vec![0; 16], 16);
            let mut cpu_b = Cpu::at_entry(pc);
            assert_eq!(
                cpu_a.step(&mut mem_a, IsaLevel::Isa2),
                cpu_b.step_cached(&mut mem_b, &icache),
                "divergence for {expected:?}"
            );
        }
    }

    #[test]
    fn lookup_misses_outside_text_and_unaligned() {
        let obj = assemble(LOOP_SRC).unwrap();
        let icache = ICache::build(&obj.text, IsaLevel::Isa1);
        assert!(icache.lookup(MemoryLayout::TEXT_BASE - 4).is_none());
        assert!(icache.lookup(0).is_none());
        assert!(icache.lookup(MemoryLayout::TEXT_BASE + 2).is_none());
        assert!(icache
            .lookup(MemoryLayout::TEXT_BASE + obj.text.len() as u32)
            .is_none());
        assert!(icache
            .lookup(MemoryLayout::data_base(obj.text.len() as u32))
            .is_none());
    }

    #[test]
    fn code_in_data_segment_falls_back_to_live_decode() {
        // Place a `move.l #42, d3; trap #0` image in the data segment and
        // jump there: step_cached must execute it via the fallback.
        let obj = assemble(LOOP_SRC).unwrap();
        let icache = ICache::build(&obj.text, IsaLevel::Isa1);
        let code = assemble("start: move.l #42, d3\n trap #0\n").unwrap().text;
        // Build an image whose data segment *is* the code blob.
        let mut mem = Memory::new(obj.text.clone(), code.clone(), 0);
        let data_pc = mem.data_base();
        assert_eq!(
            mem.read_bytes(data_pc, code.len() as u32).unwrap(),
            &code[..]
        );
        let mut cpu = Cpu::at_entry(data_pc);
        assert!(matches!(
            cpu.step_cached(&mut mem, &icache),
            StepEvent::Executed { .. }
        ));
        assert_eq!(cpu.d[3], 42);
        assert!(matches!(
            cpu.step_cached(&mut mem, &icache),
            StepEvent::Trap { vector: 0, .. }
        ));
    }
}
