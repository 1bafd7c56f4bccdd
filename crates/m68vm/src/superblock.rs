//! Superblock translation: fused straight-line runs of icache slots.
//!
//! The predecoded icache (PR 1) removed the per-step decode; this tier
//! removes the per-step *dispatch*. A superblock is a straight-line run
//! of predecoded slots — starting at any pc the interpreter actually
//! reaches (branch targets, quantum entry points), ending at the first
//! branch, trap, subroutine call/return, undecodable slot or text-
//! segment boundary — translated once into a vector of micro-ops and
//! executed as a unit:
//!
//! * **direct-threaded dispatch** — each micro-op is a compact enum
//!   variant whose match arm compiles to one jump-table hop, instead of
//!   the slot lookup + full `Instr` operand analysis per step;
//! * **specialised micro-ops** — register/immediate `Size::Long` forms
//!   become variants whose source kind (inlined immediate or data
//!   register) and flag liveness are fixed at translation, so no arm
//!   tests either at run time; everything else falls back to the
//!   ordinary `execute` path as a [`SbOp::Generic`] micro-op;
//! * **fused condition codes** — a backward liveness scan marks each
//!   flag write dead when a later in-block write overwrites all four
//!   CCR bits before any consumer (a conditional branch, a possibly-
//!   faulting op, or the block exit) can observe it; a dead write picks
//!   the variant without the flag store, and a dead `cmp`/`tst` (like
//!   every `nop`) translates to no micro-op at all; a counted loop's
//!   closing `sub.l #imm, dN; b<cc>` is one terminator micro-op;
//! * **self-chaining** — [`Cpu::step_superblock`] computes how many
//!   whole passes of a block fit the budget, and an out-of-line pass
//!   loop runs them while each pass returns to the block's head (a
//!   counted loop), without the icache lookup and on a local copy of
//!   the data registers, SR and pc;
//! * **closed-form passes** — a counted loop whose pass is an affine
//!   map of the registers it writes ([`ClosedForm`]) retires every pass
//!   whose branch is provably taken at once, in O(log k) for k passes,
//!   and leaves the exit pass to the pass loop.
//!
//! Translation is **pure cache** in the Milanés sense (DESIGN.md §15):
//! blocks are derived from the immutable `(text, IsaLevel)` pair the
//! icache already owns, live exactly as long as that icache (in the
//! kernel, an entry of the world's [`crate::ICachePool`], keyed by ISA
//! level and text bytes and never invalidated or rebuilt), and never
//! hold guest state. The architected machine — registers, memory,
//! simtime charging — is bit-identical with the translator on or off:
//!
//! * the CCR is materialized before every point at which it is
//!   visible: block exits, traps, and every `Generic` op (which may
//!   fault and hand the registers to the kernel's dump path mid-block);
//! * cost units are charged per *architected instruction* from the same
//!   `cost_units()` table: a completed block charges the precomputed
//!   sum, a mid-block fault charges exactly the instructions that
//!   retired before it (the faulting one charges nothing, like the
//!   slot path);
//! * [`Cpu::step_superblock`] only retires a whole block — chained or
//!   looked up — when it fits the caller's remaining budget, and
//!   single-steps through the slot path otherwise, so quantum pauses
//!   land on the same instruction the slot-by-slot loop would pause on.
//!
//! Blocks never outrun the text segment: translation walks icache
//! slots only (never raw memory), ends with a [`SbOp::Stop`] at the
//! first pc past `text_len`, and the interpreter re-checks the segment
//! there — code copied to and executed from the data segment always
//! takes the live-decode fallback, bytes read fresh from `Memory`.

use std::sync::OnceLock;

use crate::cpu::{branch_taken, set_ccr, Cpu, Fault, Flow, StepEvent};
use crate::icache::{ICache, Slot};
use crate::isa::{Instr, Op, Operand, Size};
use crate::mem::Memory;

/// Longest straight-line run fused into one block. Capped so the
/// budget test in [`Cpu::step_superblock`] stays fine-grained: a block
/// is only retired whole, so its total cost bounds how far past a
/// quantum boundary the fused path could otherwise have to single-step.
pub const MAX_OPS: usize = 64;

/// A translated straight-line run. Built by [`ICache::superblock`],
/// executed by [`Cpu::step_superblock`].
#[derive(Debug)]
pub struct SuperBlock {
    /// Micro-ops; the last one always redirects control (branch, trap,
    /// stop, or a generic whose `Flow` leaves the block).
    ops: Vec<SbOp>,
    /// Side table for [`SbOp::Generic`] micro-ops.
    gens: Vec<GenOp>,
    /// Cost units charged when the whole block retires.
    total_units: u64,
    /// Instructions translated, the `Stop` boundary included — also
    /// the `nop`s and dead flag writes that left no micro-op.
    len: usize,
    /// The block's passes in closed form, when it is a counted loop of
    /// affine register arithmetic.
    closed: Option<ClosedForm>,
    /// Whether the terminator can branch back to the block's own head,
    /// so passes can chain.
    chains: bool,
}

impl SuperBlock {
    /// Cost units a full pass through the block charges.
    pub fn total_units(&self) -> u64 {
        self.total_units
    }

    /// Number of architected instructions the block covers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the block covers no instructions (never built).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// How many micro-ops carry a live (non-elided) flag update —
    /// exposed for the fused-flags tests.
    pub fn live_flag_writes(&self) -> usize {
        self.ops.iter().filter(|op| op.flags_live()).count()
    }

    /// How many micro-ops leave the fused path for `Cpu::execute` —
    /// exposed for the hot-loop tests.
    pub fn generic_ops(&self) -> usize {
        self.gens.len()
    }

    /// Whether the block ends in a flag write fused with the branch
    /// that reads it — exposed for the hot-loop tests.
    pub fn ends_in_fused_branch(&self) -> bool {
        self.ops.last().is_some_and(SbOp::is_closer)
    }

    /// Whether the block retires its passes in closed form — exposed
    /// for the corpus and hot-loop tests.
    pub fn has_closed_form(&self) -> bool {
        self.closed.is_some()
    }
}

/// Source operand of a fusable instruction.
#[derive(Clone, Copy, Debug)]
enum Src {
    /// Immediate, inlined at translation time.
    Imm(u32),
    /// Data register.
    D(u8),
}

/// A fusable instruction during translation: `Size::Long` `op` into
/// data register `d`. A unary op (`tst`, `not`, `neg`) takes `d` itself
/// as its source; a shift takes its pre-masked count as an immediate.
/// `flags` starts set, and the liveness scan clears it where the flag
/// write is dead.
#[derive(Clone, Copy, Debug)]
struct Fusable {
    op: Op,
    src: Src,
    d: u8,
    flags: bool,
}

/// One translated instruction, before specialisation.
#[derive(Clone, Copy, Debug)]
enum Step {
    Fused(Fusable),
    /// `nop`: charged in the block total, no micro-op.
    Nop,
    /// A generic op or a terminator, already in its final form.
    Op(SbOp),
}

/// Declares the micro-ops from one table: [`SbOp`], its translation
/// helpers and `Regs::run_op`. A `fused` row reads
/// `Variant = Op source flags semantics result`:
///
/// * `source` is `imm` (the variant's `s` is the inlined `u32`) or
///   `reg` (`s` is a data register number);
/// * `flags` is `live` (the op stores N, Z, V and C) or `dead`;
/// * `semantics` is a `fn(dN, src) -> (result, C, V)` below;
/// * `result` is `store` (written to dN) or `drop` (a pure flag write).
///
/// `branches` names the conditional branches, one variant each, so the
/// condition is fixed at translation too. A `closers` row,
/// `Variant = Op source semantics result Branch`, fuses a live flag
/// write with the conditional branch directly after it into one
/// terminator: the row's op, storing all four flags, then the branch
/// on the row's condition, read from the flags just stored.
macro_rules! specialised_ops {
    (
        fused { $( $v:ident = $op:ident $src:ident $flags:ident $sem:ident $result:ident; )* }
        branches { $( $b:ident )* }
        closers { $( $c:ident = $cop:ident $csrc:ident $csem:ident $cresult:ident $cb:ident; )* }
    ) => {
        /// One micro-op. Every fused variant is a `Size::Long` op into
        /// data register `d` from source `s` and cannot fault; its cost
        /// units count only into the block total. The other variants
        /// are the generic escape and the terminators.
        #[derive(Clone, Copy, Debug)]
        enum SbOp {
            $( $v { s: specialised_ops!(@ty $src), d: u8 }, )*
            /// Any other instruction, executed through [`Cpu::execute`]
            /// with the predecoded `Instr` from the side table. May
            /// fault, so it is a flag-liveness barrier.
            Generic(u16),
            /// `bra target` (terminator).
            Bra { target: u32 },
            $(
                /// Conditional branch (terminator) on its own condition;
                /// consumes the flags.
                $b { target: u32, next_pc: u32 },
            )*
            $(
                /// A flag write and the conditional branch that reads
                /// it (terminator).
                $c { s: specialised_ops!(@ty $csrc), d: u8, target: u32, next_pc: u32 },
            )*
            /// `trap #vector` (terminator); pc is left after the trap so
            /// the kernel can resume, exactly like the slot path.
            Trap { vector: u8, next_pc: u32 },
            /// Block boundary before `pc`: length cap, a slot the
            /// translator leaves to the slot path, or the end of text.
            /// Charges nothing — the instruction at `pc` has not run.
            Stop { pc: u32 },
        }

        /// Every specialised variant's name, for the corpus coverage
        /// test.
        #[cfg(test)]
        const SPECIALISED: &[&str] = &[
            $( stringify!($v), )* $( stringify!($b), )* $( stringify!($c), )*
        ];

        impl SbOp {
            /// The variant that runs `f`, or `None` for a pure flag
            /// write whose flags are dead.
            fn specialise(f: Fusable) -> Option<SbOp> {
                let Fusable { op, src, d, flags } = f;
                $(
                    if let (Op::$op, specialised_ops!(@pat $src s), specialised_ops!(@bool $flags)) =
                        (op, src, flags)
                    {
                        return Some(SbOp::$v { s, d });
                    }
                )*
                debug_assert!(!flags && matches!(op, Op::Cmp | Op::Tst), "no variant for {f:?}");
                None
            }

            /// The terminator that runs the live flag write `f` and then
            /// `branch`, if a `closers` row has one.
            fn close(f: Fusable, branch: SbOp) -> Option<SbOp> {
                let Fusable { op, src, d, flags } = f;
                $(
                    if let (Op::$cop, specialised_ops!(@pat $csrc s), true, SbOp::$cb { target, next_pc }) =
                        (op, src, flags, branch)
                    {
                        return Some(SbOp::$c { s, d, target, next_pc });
                    }
                )*
                None
            }

            /// Whether the op stores the condition codes.
            fn flags_live(&self) -> bool {
                match self {
                    $( SbOp::$v { .. } => specialised_ops!(@bool $flags), )*
                    $( SbOp::$c { .. } => true, )*
                    _ => false,
                }
            }

            /// Whether the op is a fused flag write and branch.
            fn is_closer(&self) -> bool {
                matches!(self, $( SbOp::$c { .. } )|*)
            }

            /// The conditional branch on `op`'s condition.
            fn branch(op: Op, target: u32, next_pc: u32) -> SbOp {
                match op {
                    $( Op::$b => SbOp::$b { target, next_pc }, )*
                    _ => unreachable!("{op:?} is not a conditional branch"),
                }
            }

            /// Whether the op is a conditional branch, which reads the
            /// flags.
            fn reads_flags(&self) -> bool {
                matches!(self, $( SbOp::$b { .. } )|*)
            }

            /// The branch target of a `bra`, conditional branch or
            /// closer; `None` for any other op.
            fn target(&self) -> Option<u32> {
                match *self {
                    SbOp::Bra { target }
                    $( | SbOp::$b { target, .. } )*
                    $( | SbOp::$c { target, .. } )* => Some(target),
                    _ => None,
                }
            }
        }

        impl Regs {
            /// Runs one micro-op on the register file and returns false;
            /// returns true, running nothing, for a `Generic` or a
            /// `Trap`, which need the whole `Cpu` ([`Cpu::escape`]).
            #[inline(always)]
            fn run_op(&mut self, op: &SbOp) -> bool {
                match *op {
                    $(
                        SbOp::$v { s, d } => {
                            let s = specialised_ops!(@val self $src s);
                            self.fused::<
                                { specialised_ops!(@bool $flags) },
                                { specialised_ops!(@bool $result) },
                            >(d, s, $sem)
                        }
                    )*
                    $(
                        SbOp::$b { target, next_pc } => {
                            self.pc = if branch_taken(self.sr(), Op::$b) { target } else { next_pc };
                        }
                    )*
                    $(
                        SbOp::$c { s, d, target, next_pc } => {
                            let s = specialised_ops!(@val self $csrc s);
                            self.fused::<true, { specialised_ops!(@bool $cresult) }>(d, s, $csem);
                            self.pc = if branch_taken(self.sr(), Op::$cb) { target } else { next_pc };
                        }
                    )*
                    SbOp::Bra { target } => self.pc = target,
                    SbOp::Stop { pc } => self.pc = pc,
                    SbOp::Generic(_) | SbOp::Trap { .. } => return true,
                }
                false
            }
        }
    };
    (@ty imm) => { u32 };
    (@ty reg) => { u8 };
    (@pat imm $s:ident) => { Src::Imm($s) };
    (@pat reg $s:ident) => { Src::D($s) };
    (@val $regs:ident imm $s:ident) => { $s };
    (@val $regs:ident reg $s:ident) => { $regs.d[($s & 7) as usize] };
    (@bool live) => { true };
    (@bool store) => { true };
    (@bool dead) => { false };
    (@bool drop) => { false };
}

specialised_ops! {
    fused {
        MoveI = Move imm dead mov store;
        MoveIF = Move imm live mov store;
        MoveD = Move reg dead mov store;
        MoveDF = Move reg live mov store;
        AddI = Add imm dead add store;
        AddIF = Add imm live add store;
        AddD = Add reg dead add store;
        AddDF = Add reg live add store;
        SubI = Sub imm dead sub store;
        SubIF = Sub imm live sub store;
        SubD = Sub reg dead sub store;
        SubDF = Sub reg live sub store;
        CmpIF = Cmp imm live sub drop;
        CmpDF = Cmp reg live sub drop;
        AndI = And imm dead and store;
        AndIF = And imm live and store;
        AndD = And reg dead and store;
        AndDF = And reg live and store;
        OrI = Or imm dead or store;
        OrIF = Or imm live or store;
        OrD = Or reg dead or store;
        OrDF = Or reg live or store;
        EorI = Eor imm dead eor store;
        EorIF = Eor imm live eor store;
        EorD = Eor reg dead eor store;
        EorDF = Eor reg live eor store;
        MulsI = Muls imm dead muls store;
        MulsIF = Muls imm live muls store;
        MulsD = Muls reg dead muls store;
        MulsDF = Muls reg live muls store;
        LslI = Lsl imm dead lsl store;
        LslIF = Lsl imm live lsl store;
        LsrI = Lsr imm dead lsr store;
        LsrIF = Lsr imm live lsr store;
        AsrI = Asr imm dead asr store;
        AsrIF = Asr imm live asr store;
        // `tst dN` is a move of dN to nowhere.
        TstDF = Tst reg live mov drop;
        NotD = Not reg dead not store;
        NotDF = Not reg live not store;
        NegD = Neg reg dead neg store;
        NegDF = Neg reg live neg store;
    }
    branches { Beq Bne Blt Ble Bgt Bge Bcs Bcc Bmi Bpl }
    // `sub.l #imm, dN; b<cc>`: the closing pair of a counted loop.
    closers {
        SubIBeq = Sub imm sub store Beq;
        SubIBne = Sub imm sub store Bne;
        SubIBlt = Sub imm sub store Blt;
        SubIBle = Sub imm sub store Ble;
        SubIBgt = Sub imm sub store Bgt;
        SubIBge = Sub imm sub store Bge;
        SubIBcs = Sub imm sub store Bcs;
        SubIBcc = Sub imm sub store Bcc;
        SubIBmi = Sub imm sub store Bmi;
        SubIBpl = Sub imm sub store Bpl;
    }
}

// The fused semantics: `(dN, src) -> (result, C, V)`, N and Z following
// from the result. Each mirrors `Cpu::execute`'s `Size::Long` arm for a
// register destination bit for bit (pinned by the equivalence tests).

fn mov(_: u32, s: u32) -> (u32, bool, bool) {
    (s, false, false)
}

fn add(d: u32, s: u32) -> (u32, bool, bool) {
    let r = d.wrapping_add(s);
    let c = (d as u64 + s as u64) > u32::MAX as u64;
    (r, c, ((d ^ r) & (s ^ r) & 0x8000_0000) != 0)
}

fn sub(d: u32, s: u32) -> (u32, bool, bool) {
    let r = d.wrapping_sub(s);
    (r, s > d, ((d ^ s) & (d ^ r) & 0x8000_0000) != 0)
}

fn and(d: u32, s: u32) -> (u32, bool, bool) {
    (d & s, false, false)
}

fn or(d: u32, s: u32) -> (u32, bool, bool) {
    (d | s, false, false)
}

fn eor(d: u32, s: u32) -> (u32, bool, bool) {
    (d ^ s, false, false)
}

/// The 32-bit wrapping product, C = V = 0.
fn muls(d: u32, s: u32) -> (u32, bool, bool) {
    ((d as i32).wrapping_mul(s as i32) as u32, false, false)
}

fn lsl(d: u32, n: u32) -> (u32, bool, bool) {
    let (r, c) = shift_long(Op::Lsl, d, n);
    (r, c, false)
}

fn lsr(d: u32, n: u32) -> (u32, bool, bool) {
    let (r, c) = shift_long(Op::Lsr, d, n);
    (r, c, false)
}

fn asr(d: u32, n: u32) -> (u32, bool, bool) {
    let (r, c) = shift_long(Op::Asr, d, n);
    (r, c, false)
}

fn not(_: u32, s: u32) -> (u32, bool, bool) {
    (!s, false, false)
}

fn neg(_: u32, s: u32) -> (u32, bool, bool) {
    let r = s.wrapping_neg();
    (r, r != 0, false)
}

/// The registers a run of chained passes works on, held in host locals
/// while the passes run: d0–d7 and the SR in `d`, and the pc. Fused ops
/// touch nothing else, and the pass loop writes them back to the
/// [`Cpu`] wherever guest state becomes visible: around a `Generic` op,
/// at a trap or a fault, and when the chain ends.
///
/// The SR sits in the data registers' array, at [`Regs::SR`], so that
/// it has one home: as a local of its own, the compiler kept about a
/// dozen copies of it in registers and stack slots and moved every copy
/// at each flag write, and a hog's pass ran slower than on the
/// `Cpu`-resident executor.
struct Regs {
    d: [u32; 9],
    pc: u32,
}

impl Regs {
    /// The SR's index in `d`.
    const SR: usize = 8;

    #[inline(always)]
    fn load(cpu: &Cpu) -> Regs {
        let mut d = [0; 9];
        d[..8].copy_from_slice(&cpu.d);
        d[Regs::SR] = cpu.sr as u32;
        Regs { d, pc: cpu.pc }
    }

    #[inline(always)]
    fn store(&self, cpu: &mut Cpu) {
        cpu.d.copy_from_slice(&self.d[..8]);
        cpu.sr = self.sr();
        cpu.pc = self.pc;
    }

    #[inline(always)]
    fn sr(&self) -> u16 {
        self.d[Regs::SR] as u16
    }

    /// `dN <- sem(dN, s)`: stores the result when `STORE` and the four
    /// condition codes when `FLAGS`; both are fixed per variant.
    #[inline(always)]
    fn fused<const FLAGS: bool, const STORE: bool>(
        &mut self,
        d: u8,
        s: u32,
        sem: impl Fn(u32, u32) -> (u32, bool, bool),
    ) {
        let d = (d & 7) as usize;
        let (r, c, v) = sem(self.d[d], s);
        if FLAGS {
            self.d[Regs::SR] = set_ccr(self.sr(), c, v, r, Size::Long) as u32;
        }
        if STORE {
            self.d[d] = r;
        }
    }
}

/// Side-table entry for a [`SbOp::Generic`] micro-op.
#[derive(Clone, Debug)]
struct GenOp {
    instr: Instr,
    /// The instruction's own pc (fault reporting, `execute` contract).
    pc: u32,
    /// Fall-through pc.
    next_pc: u32,
    /// `cost_units()` of this instruction.
    units: u32,
    /// Units of every op before this one — the charge when this op
    /// faults (the faulting instruction itself charges nothing).
    units_before: u64,
}

/// A translated cell: either a block or a marker that this slot is
/// better served by the slot path (fault slots, malformed control
/// transfers at the block head).
#[derive(Debug)]
pub(crate) enum SbEntry {
    Block(Box<SuperBlock>),
    Bypass,
}

/// Lazily translated blocks, one cell per 4-byte icache slot.
///
/// `OnceLock` keeps the read path lock-free and the cache shareable
/// across fork (and `Send`/`Sync`) through the icache's `Arc`; a racing
/// double translation is benign because `translate` is a pure function
/// of the immutable slots.
pub(crate) struct SbCache {
    cells: Vec<OnceLock<SbEntry>>,
}

impl SbCache {
    pub(crate) fn new(nslots: usize) -> SbCache {
        let mut cells = Vec::with_capacity(nslots);
        cells.resize_with(nslots, OnceLock::new);
        SbCache { cells }
    }

    /// The translated entry for slot `idx`, building it on first use.
    #[inline]
    pub(crate) fn entry<'a>(&'a self, idx: usize, ic: &'a ICache, pc: u32) -> &'a SbEntry {
        self.cells[idx].get_or_init(|| translate(ic, pc))
    }

    /// How many cells hold a translation (for Debug and tests).
    pub(crate) fn translated(&self) -> usize {
        self.cells.iter().filter(|c| c.get().is_some()).count()
    }

    /// The blocks translated so far (corpus coverage tests).
    #[cfg(test)]
    pub(crate) fn blocks(&self) -> impl Iterator<Item = &SuperBlock> {
        self.cells.iter().filter_map(|c| match c.get() {
            Some(SbEntry::Block(b)) => Some(&**b),
            _ => None,
        })
    }
}

/// Maps a slot instruction to its translation step, or `None` for the
/// generic path. Only register/immediate `Size::Long` forms fuse, and
/// only with no operand that has an effective address: `execute`
/// computes one for every operand before it dispatches, so a `(aN)+`
/// or `-(aN)` would move a register even on `nop`. `divs` stays generic
/// because a zero register divisor faults; `mac2`, word sizes and memory
/// forms stay generic because no hot loop runs them.
fn fuse(i: &Instr) -> Option<Step> {
    if i.op == Op::Nop {
        return (i.src == Operand::None && i.dst == Operand::None).then_some(Step::Nop);
    }
    if i.size != Size::Long {
        return None;
    }
    let Operand::DReg(d) = i.dst else {
        return None;
    };
    use Op::*;
    let src = match (i.op, i.src) {
        (Tst | Not | Neg, Operand::None) => Src::D(d),
        // A register count would fuse the same way (`execute` masks it
        // too), but the common encoding is immediate.
        (Lsl | Lsr | Asr, Operand::Imm(n)) => Src::Imm(n & 63),
        (Move | Add | Sub | Cmp | And | Or | Eor | Muls, Operand::Imm(v)) => Src::Imm(v),
        (Move | Add | Sub | Cmp | And | Or | Eor | Muls, Operand::DReg(r)) => Src::D(r),
        _ => return None,
    };
    Some(Step::Fused(Fusable {
        op: i.op,
        src,
        d,
        flags: true, // The liveness scan prunes these afterwards.
    }))
}

/// Translates the straight-line run starting at `pc` (which must be an
/// aligned in-text slot — the caller checked).
fn translate(ic: &ICache, start: u32) -> SbEntry {
    let mut steps: Vec<Step> = Vec::new();
    let mut gens: Vec<GenOp> = Vec::new();
    let mut total: u64 = 0;
    let mut pc = start;
    let stop = |pc| Step::Op(SbOp::Stop { pc });
    loop {
        if steps.len() >= MAX_OPS {
            steps.push(stop(pc));
            break;
        }
        let Some(&Slot::Instr { instr, ilen, units }) = ic.lookup(pc) else {
            // Fault slot or past text end: the slot path reproduces the
            // exact fault (or falls back to live decode past text_end).
            if steps.is_empty() {
                return SbEntry::Bypass;
            }
            steps.push(stop(pc));
            break;
        };
        let next_pc = pc.wrapping_add(ilen);
        if instr.op.is_branch() {
            if let Operand::Abs(target) = instr.dst {
                total += units as u64;
                steps.push(Step::Op(if instr.op == Op::Bra {
                    SbOp::Bra { target }
                } else {
                    SbOp::branch(instr.op, target, next_pc)
                }));
                break;
            }
            // A branch without an absolute target faults in `execute`;
            // leave it to the slot path.
            if steps.is_empty() {
                return SbEntry::Bypass;
            }
            steps.push(stop(pc));
            break;
        }
        if instr.op == Op::Trap {
            if let Operand::Imm(v) = instr.src {
                total += units as u64;
                steps.push(Step::Op(SbOp::Trap {
                    vector: v as u8,
                    next_pc,
                }));
                break;
            }
            if steps.is_empty() {
                return SbEntry::Bypass;
            }
            steps.push(stop(pc));
            break;
        }
        match fuse(&instr) {
            Some(step) => {
                total += units as u64;
                steps.push(step);
                pc = next_pc;
            }
            None => {
                gens.push(GenOp {
                    instr,
                    pc,
                    next_pc,
                    units,
                    units_before: total,
                });
                total += units as u64;
                steps.push(Step::Op(SbOp::Generic((gens.len() - 1) as u16)));
                if matches!(instr.op, Op::Jsr | Op::Rts) {
                    // Control leaves the straight line here.
                    break;
                }
                pc = next_pc;
            }
        }
    }
    elide_dead_flags(&mut steps);
    let len = steps.len();
    // A live flag write directly ahead of the branch that reads it
    // becomes one terminator, where a `closers` row has the pair.
    if let [.., Step::Fused(f), Step::Op(branch)] = steps[..] {
        if let Some(op) = SbOp::close(f, branch) {
            steps.pop();
            *steps.last_mut().expect("two steps") = Step::Op(op);
        }
    }
    let ops: Vec<SbOp> = steps
        .into_iter()
        .filter_map(|step| match step {
            Step::Fused(f) => SbOp::specialise(f),
            Step::Nop => None,
            Step::Op(op) => Some(op),
        })
        .collect();
    SbEntry::Block(Box::new(SuperBlock {
        closed: ClosedForm::of(&ops, start),
        chains: ops.last().and_then(SbOp::target) == Some(start),
        ops,
        gens,
        total_units: total,
        len,
    }))
}

/// Backward liveness scan over the condition codes.
///
/// Walking from the block exit toward the entry, the flags are *live*
/// wherever a consumer may observe them: the exit itself (the next
/// block, a dump, a kernel writeback may all read SR), a conditional
/// branch, and every `Generic` op — which can fault and expose the
/// registers mid-block. A fused op writes all four CCR bits and cannot
/// fault, so it keeps its update only when the flags are live there,
/// and makes every earlier write dead until the next barrier.
fn elide_dead_flags(steps: &mut [Step]) {
    let mut live = true;
    for step in steps.iter_mut().rev() {
        match step {
            Step::Fused(f) => {
                f.flags = live;
                live = false;
            }
            // Consumers and fault barriers; the rest are flag-neutral.
            Step::Op(op) if op.reads_flags() || matches!(op, SbOp::Generic(_)) => live = true,
            Step::Op(_) | Step::Nop => {}
        }
    }
}

/// `Size::Long` shift, mirroring `Cpu::execute`'s Lsl/Lsr/Asr arm
/// bit for bit (count already masked to 0..64). Returns `(result, c)`.
#[inline(always)]
fn shift_long(op: Op, d: u32, count: u32) -> (u32, bool) {
    if count == 0 {
        (d, false)
    } else if count >= 32 {
        match op {
            Op::Asr if (d as i32) < 0 => (u32::MAX, true),
            _ => (0, false),
        }
    } else {
        match op {
            Op::Lsl => (d.wrapping_shl(count), (d >> (32 - count)) & 1 != 0),
            Op::Lsr => (d >> count, (d >> (count - 1)) & 1 != 0),
            _ => ((((d as i32) >> count) as u32), (d >> (count - 1)) & 1 != 0),
        }
    }
}

/// A counted loop's passes in closed form.
///
/// A block has one when its terminator is a fused `sub.l #s, dC;
/// b<cc>` back to its own head, with cc one of `gt`, `ge`, `ne` and
/// `pl` and 0 < s < 2³¹, and every other micro-op is a dead-flag
/// `move`, `add`, `sub` or `muls.l` from an immediate or from a
/// register that no op of the block writes, or a `neg`, `not` or
/// `lsl.l #n`, on a register other than dC. A pass then touches no
/// memory, leaves the pc on the head while its branch is taken, sets
/// the flags only in its closer, and maps each register it writes by
/// `x ↦ a·x + b mod 2³²`, where `a` and `b` depend on the immediates
/// and on the source registers, whose values no pass changes. So k
/// passes are each map's k-th power, dC stepped k times and the k-th
/// closer's flags ([`Cpu::retire_closed`]).
#[derive(Debug)]
struct ClosedForm {
    /// The counter, dC.
    counter: u8,
    /// What the closer subtracts from dC, s.
    step: u32,
    /// The body, one affine step per micro-op, in order.
    body: Vec<Affine>,
    /// The registers the body writes, one bit each.
    written: u8,
}

/// A body op of a [`ClosedForm`] as an affine step of its register:
/// `dN ← m·dN + c mod 2³²`.
#[derive(Clone, Copy, Debug)]
struct Affine {
    d: u8,
    m: Term,
    c: Term,
}

/// A coefficient of an [`Affine`] step: an immediate, or a source
/// register (negated, for `sub`) read when the block is entered.
#[derive(Clone, Copy, Debug)]
enum Term {
    Imm(u32),
    D(u8),
    NegD(u8),
}

impl Term {
    /// The term's value under data registers `d`.
    fn value(self, d: &[u32; 8]) -> u32 {
        match self {
            Term::Imm(v) => v,
            Term::D(r) => d[(r & 7) as usize],
            Term::NegD(r) => d[(r & 7) as usize].wrapping_neg(),
        }
    }

    /// The register the term reads, as a bit.
    fn reads(self) -> u8 {
        match self {
            Term::Imm(_) => 0,
            Term::D(r) | Term::NegD(r) => 1 << (r & 7),
        }
    }
}

impl SbOp {
    /// The op as an affine step of its register, if it is one that a
    /// closed form takes.
    fn affine(&self) -> Option<Affine> {
        use Term::{Imm, NegD, D};
        let (d, m, c) = match *self {
            SbOp::MoveI { s, d } => (d, Imm(0), Imm(s)),
            SbOp::MoveD { s, d } => (d, Imm(0), D(s)),
            SbOp::AddI { s, d } => (d, Imm(1), Imm(s)),
            SbOp::AddD { s, d } => (d, Imm(1), D(s)),
            SbOp::SubI { s, d } => (d, Imm(1), Imm(s.wrapping_neg())),
            SbOp::SubD { s, d } => (d, Imm(1), NegD(s)),
            SbOp::MulsI { s, d } => (d, Imm(s), Imm(0)),
            SbOp::MulsD { s, d } => (d, D(s), Imm(0)),
            // −x, and !x = −x − 1.
            SbOp::NegD { d, .. } => (d, Imm(u32::MAX), Imm(0)),
            SbOp::NotD { d, .. } => (d, Imm(u32::MAX), Imm(u32::MAX)),
            // x << n is x·2ⁿ, and 0 from n = 32 on (`shift_long`).
            SbOp::LslI { s, d } => (d, Imm(1u32.checked_shl(s).unwrap_or(0)), Imm(0)),
            _ => return None,
        };
        Some(Affine { d: d & 7, m, c })
    }
}

impl ClosedForm {
    /// The closed form of the block `ops` headed at `head`, if it has
    /// one.
    fn of(ops: &[SbOp], head: u32) -> Option<ClosedForm> {
        let (closer, ops) = ops.split_last()?;
        let (SbOp::SubIBgt { s, d, target, .. }
        | SbOp::SubIBge { s, d, target, .. }
        | SbOp::SubIBne { s, d, target, .. }
        | SbOp::SubIBpl { s, d, target, .. }) = *closer
        else {
            return None;
        };
        if target != head || s == 0 || s >= 1 << 31 {
            return None;
        }
        let counter = d & 7;
        let body: Vec<Affine> = ops.iter().map(SbOp::affine).collect::<Option<_>>()?;
        let written = body.iter().fold(0u8, |w, a| w | 1 << a.d);
        let invariant = |t: Term| t.reads() & (written | 1 << counter) == 0;
        (written & 1 << counter == 0 && body.iter().all(|a| invariant(a.m) && invariant(a.c)))
            .then_some(ClosedForm {
                counter,
                step: s,
                body,
                written,
            })
    }

    /// How many of `passes` passes from data registers `d` retire in
    /// closed form: ⌊(dC − 1)/s⌋ of them at most, for a signed dC ≥ 1,
    /// and none otherwise. Pass i of those ends with dC − i·s ≥ 1, so
    /// its `sub` neither borrows nor overflows and its branch is taken
    /// on every condition a closed form allows; the exit pass is never
    /// among them.
    fn passes(&self, d: &[u32; 8], passes: u64) -> u64 {
        match d[self.counter as usize] as i32 {
            c @ 1.. => passes.min(u64::from((c as u32 - 1) / self.step)),
            _ => 0,
        }
    }

    /// Runs `k` passes, as [`ClosedForm::passes`] allows, on `cpu`.
    fn retire(&self, cpu: &mut Cpu, k: u64) {
        // One pass as a map per register, `x ↦ a·x + b`, read off the
        // body with the sources' values at entry.
        let mut maps = [(1u32, 0u32); 8];
        for step in &self.body {
            let (m, c) = (step.m.value(&cpu.d), step.c.value(&cpu.d));
            let (a, b) = maps[step.d as usize];
            maps[step.d as usize] = (m.wrapping_mul(a), m.wrapping_mul(b).wrapping_add(c));
        }
        for (r, &map) in maps.iter().enumerate() {
            if self.written & 1 << r != 0 {
                let (a, b) = affine_pow(map, k);
                cpu.d[r] = a.wrapping_mul(cpu.d[r]).wrapping_add(b);
            }
        }
        // k·s < dC < 2³¹, so none of this wraps. The k-th closer's
        // `sub` sets the flags and its branch is taken, so the pc stays
        // on the head.
        let c = self.counter as usize;
        let before = cpu.d[c] - (k as u32 - 1) * self.step;
        let (r, carry, overflow) = sub(before, self.step);
        cpu.d[c] = r;
        cpu.sr = set_ccr(cpu.sr, carry, overflow, r, Size::Long);
    }
}

/// The `k`-th power of `x ↦ a·x + b mod 2³²`, by square-and-multiply.
fn affine_pow((mut a, mut b): (u32, u32), mut k: u64) -> (u32, u32) {
    let (mut pa, mut pb) = (1u32, 0u32);
    while k > 0 {
        if k & 1 == 1 {
            (pa, pb) = (a.wrapping_mul(pa), a.wrapping_mul(pb).wrapping_add(b));
        }
        (a, b) = (a.wrapping_mul(a), a.wrapping_mul(b).wrapping_add(b));
        k >>= 1;
    }
    (pa, pb)
}

/// The debug-build closed-form audit: the same `k` passes of `sb`, run
/// through [`Regs::run_op`] from `entry`, must leave d0–d7, the SR and
/// the pc where [`ClosedForm::retire`] left `cpu`. Release builds carry
/// no audit.
#[cfg(debug_assertions)]
fn audit_closed_form(sb: &SuperBlock, mut r: Regs, cpu: &Cpu, k: u64) {
    let (head, entry) = (r.pc, r.d);
    for _ in 0..k {
        for op in &sb.ops {
            assert!(!r.run_op(op), "closed-form audit: {op:?} escaped");
        }
    }
    let closed = Regs::load(cpu);
    assert!(
        r.d == closed.d && r.pc == closed.pc,
        "closed-form audit: {k} passes of the block at {head:#x} from d0-d7, sr = {entry:x?}: \
         the pass loop gives {:x?}, pc {:#x}; the closed form {:x?}, pc {:#x}",
        r.d,
        r.pc,
        closed.d,
        closed.pc,
    );
}

/// How [`Cpu::step_superblock`] returned to the kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SbExit {
    /// The budget was reached. The pc sits exactly where the slot-by-
    /// slot loop would have paused.
    Paused,
    /// A trap retired (pc already past it); its units are included in
    /// the returned total, so the kernel must not charge them again.
    Trap {
        /// The trap vector.
        vector: u8,
    },
    /// A fault, pc left at the faulting instruction (charged nothing).
    Faulted(Fault),
}

/// How a run of chained passes ended.
enum ChainEnd {
    /// The pass count ran out, or a pass ended off the block's head.
    Done,
    /// A trap retired; the pc is past it.
    Trap(u8),
    /// A fault; the pc is on the faulting instruction.
    Faulted(Fault),
}

impl Cpu {
    /// Interprets through superblocks until `budget` cost units are
    /// retired or control leaves the straight-line world (trap, fault).
    ///
    /// Bit-identical to calling [`Cpu::step_cached`] in the kernel's
    /// slot loop with the same budget: a block is retired whole only
    /// when its entire cost fits the remaining budget; otherwise the
    /// slot path single-steps, so the pause lands on exactly the
    /// instruction the per-step loop would have paused on (the first
    /// one where the running total reaches `budget`). Like the slot
    /// loop, at least one instruction always retires.
    ///
    /// On entering a block it computes how many whole passes fit the
    /// remaining budget, at most one for a block whose terminator
    /// cannot branch back to its head. A block with a [`ClosedForm`]
    /// retires those of them whose branch is provably taken at once;
    /// the out-of-line pass loop runs the rest, the block again without
    /// the icache lookup as long as a pass ends back on its head (a loop
    /// whose branch targets its own block). So the exit pass, and any
    /// pause, trap or fault, runs on the pass loop as before.
    ///
    /// The returned `u64` is the units actually retired (a trap's own
    /// units included — the kernel must not add them again).
    pub fn step_superblock(&mut self, mem: &mut Memory, ic: &ICache, budget: u64) -> (u64, SbExit) {
        let mut used: u64 = 0;
        loop {
            if let Some(sb) = ic.superblock(self.pc) {
                // `used < budget` here, or an earlier step returned, so
                // the difference cannot wrap; every block charges at
                // least one unit. Only a block whose terminator can
                // branch back to its head runs more than one pass here,
                // so only such a block pays for the division.
                let left = budget - used;
                let passes = if sb.chains {
                    left / sb.total_units
                } else {
                    u64::from(sb.total_units <= left)
                };
                if passes > 0 {
                    let head = self.pc;
                    let closed = self.retire_closed(sb, passes);
                    used += closed * sb.total_units;
                    if closed < passes {
                        let (retired, end) = self.run_passes(mem, sb, passes - closed);
                        used += retired;
                        match end {
                            ChainEnd::Done => {}
                            ChainEnd::Trap(vector) => return (used, SbExit::Trap { vector }),
                            ChainEnd::Faulted(f) => return (used, SbExit::Faulted(f)),
                        }
                    }
                    if used >= budget {
                        return (used, SbExit::Paused);
                    }
                    // A chain that ends on the head ran out of passes:
                    // less than a pass of budget is left, so the slot
                    // path steps the rest. Anywhere else, and after the
                    // one pass of a block that cannot chain, look up the
                    // block that runs there.
                    if self.pc != head || !sb.chains {
                        continue;
                    }
                }
            }
            // Slot-by-slot: block missing (non-text pc, bypass slot) or
            // too big for the remaining budget.
            match self.step_cached(mem, ic) {
                StepEvent::Executed { units } => used += units as u64,
                StepEvent::Trap { vector, units } => {
                    return (used + units as u64, SbExit::Trap { vector });
                }
                StepEvent::Faulted(f) => return (used, SbExit::Faulted(f)),
            }
            if used >= budget {
                return (used, SbExit::Paused);
            }
        }
    }

    /// Retires as many of `passes` whole passes of `sb`, from its head
    /// at the pc, as its closed form allows, if it has one; returns how
    /// many. Debug builds check each retirement against the pass loop's
    /// own ops.
    #[inline]
    fn retire_closed(&mut self, sb: &SuperBlock, passes: u64) -> u64 {
        let Some(cf) = &sb.closed else {
            return 0;
        };
        let k = cf.passes(&self.d, passes);
        if k == 0 {
            return 0;
        }
        #[cfg(debug_assertions)]
        let entry = Regs::load(self);
        cf.retire(self, k);
        #[cfg(debug_assertions)]
        audit_closed_form(sb, entry, self, k);
        #[cfg(test)]
        tests::CLOSED_FORMS.with(|n| n.set(n.get() + 1));
        k
    }

    /// Runs up to `passes` whole passes of `sb` from its head, the pc,
    /// while each pass ends back on the head. Returns the units retired
    /// and how the chain ended.
    ///
    /// The passes work on a [`Regs`] copy of the data registers, SR and
    /// pc, written back to `self` around each `Generic` op, at a trap or
    /// a fault, and when the chain ends. Kept out of line: a prototype
    /// that inlined it into [`Cpu::step_superblock`] ran a hog's pass
    /// slower than the `Cpu`-resident executor it replaces.
    #[inline(never)]
    fn run_passes(&mut self, mem: &mut Memory, sb: &SuperBlock, passes: u64) -> (u64, ChainEnd) {
        let head = self.pc;
        let mut r = Regs::load(self);
        let mut done: u64 = 0;
        macro_rules! run {
            ($op:expr) => {
                if r.run_op($op) {
                    if let Some((units, end)) = self.escape(&mut r, mem, sb, $op) {
                        return (done * sb.total_units + units, end);
                    }
                }
            };
        }
        // Each of a block's first four micro-ops dispatches from a jump
        // of its own, so in a short loop body every jump has one target
        // and predicts from its own history alone; on the shared box one
        // jump for every op ran the hog's pass a third slower whenever
        // the host was busy. The rest share one jump.
        let (first, rest) = sb.ops.split_at(sb.ops.len().min(4));
        while done < passes {
            if let Some(op) = first.first() {
                run!(op);
            }
            if let Some(op) = first.get(1) {
                run!(op);
            }
            if let Some(op) = first.get(2) {
                run!(op);
            }
            if let Some(op) = first.get(3) {
                run!(op);
            }
            for op in rest {
                run!(op);
            }
            done += 1;
            if r.pc != head {
                break;
            }
        }
        r.store(self);
        (done * sb.total_units, ChainEnd::Done)
    }

    /// Runs a `Generic` or `Trap` micro-op of `sb` for the pass loop:
    /// writes `r` back, runs the op on the `Cpu`, and reloads `r`.
    /// Returns the units this pass retired and how the chain ended when
    /// it ends here, and `None` when the pass goes on.
    #[inline(always)]
    fn escape(
        &mut self,
        r: &mut Regs,
        mem: &mut Memory,
        sb: &SuperBlock,
        op: &SbOp,
    ) -> Option<(u64, ChainEnd)> {
        match *op {
            SbOp::Generic(i) => {
                let g = &sb.gens[i as usize];
                // `execute` reports fault pcs from `self.pc` and pushes
                // `next_pc` for jsr, exactly like the slot path: spill
                // with the architected pc.
                r.pc = g.pc;
                r.store(self);
                let out = self.execute(mem, &g.instr, g.next_pc);
                *r = Regs::load(self);
                match out {
                    Ok(Flow::Next) => r.pc = g.next_pc,
                    // jsr/rts, always the block's last op, so the pass
                    // retires the block total.
                    Ok(Flow::Jump(t)) => r.pc = t,
                    Ok(Flow::Trap(vector)) => {
                        self.pc = g.next_pc;
                        let units = g.units_before + g.units as u64;
                        return Some((units, ChainEnd::Trap(vector)));
                    }
                    Err(fault) => return Some((g.units_before, ChainEnd::Faulted(fault))),
                }
                None
            }
            SbOp::Trap { vector, next_pc } => {
                r.pc = next_pc;
                r.store(self);
                Some((sb.total_units, ChainEnd::Trap(vector)))
            }
            _ => unreachable!("{op:?} runs on the register file"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::icache::ICache;
    use crate::isa::IsaLevel;
    use crate::mem::MemoryLayout;
    use simtime::rng::SplitMix64;
    use std::cell::Cell;
    use std::collections::BTreeSet;

    thread_local! {
        /// Closed-form retirements on this thread, for the corpus's
        /// coverage check.
        pub(super) static CLOSED_FORMS: Cell<u64> = const { Cell::new(0) };
    }

    const LOOP_SRC: &str = r"
        start:  move.l  #100, d6
        loop:   add.l   #1, d5
                eor.l   d5, d4
                lsr.l   #1, d4
                sub.l   #1, d6
                bgt     loop
                trap    #0
    ";

    /// Mixed workload: fused ALU, shifts at edge counts, generic ops
    /// (memory, word size, mul/div, jsr/rts), both branch polarities.
    const MIXED_SRC: &str = r"
        start:  move.l  #0x80000001, d0
                lsl.l   #1, d0
                asr.l   #3, d0
                lsr.l   #0, d0
                not.l   d1
                neg.l   d1
                move.l  #25, d2
                muls.l  #3, d2
                divs.l  #5, d2
                move.w  #7, d3
                tst.l   d3
                beq     never
                lea     buf, a0
                move.l  d2, (a0)
                move.l  (a0), d4
                jsr     fn
                cmp.l   #1, d5
                bne     never
                trap    #0
        never:  trap    #1
        fn:     move.l  #1, d5
                rts
        buf:    .space  8
    ";

    /// Runs the slot path and superblocks side by side over an image
    /// whose `absent` pages are missing, comparing every terminal event.
    /// A page fault lands the page in both images (as the kernel's
    /// fetch would) and the run resumes, so the comparison covers each
    /// fault and the replay after it. Returns the page faults taken.
    fn lockstep(src: &str, level: IsaLevel, absent: &[u32]) -> usize {
        let obj = assemble(src).unwrap();
        let ic = ICache::build(&obj.text, level);
        let whole = obj.to_memory();

        // Reference: the slot path, one instruction at a time.
        let mut mem_a = whole.clone();
        mem_a.set_absent(absent.iter().copied());
        let mut cpu_a = Cpu::at_entry(obj.entry);
        // Superblocks, driven with a 1-unit budget so every return is
        // comparable to a handful of slot steps.
        let mut mem_b = mem_a.clone();
        let mut cpu_b = Cpu::at_entry(obj.entry);

        let mut units_a: u64 = 0;
        let mut units_b: u64 = 0;
        let mut faults = 0;
        loop {
            let mut end_a = None;
            let mut end_b = None;
            for _ in 0..100_000 {
                if end_a.is_none() {
                    match cpu_a.step_cached(&mut mem_a, &ic) {
                        StepEvent::Executed { units } => units_a += units as u64,
                        StepEvent::Trap { vector, units } => {
                            units_a += units as u64;
                            end_a = Some(SbExit::Trap { vector });
                        }
                        StepEvent::Faulted(f) => end_a = Some(SbExit::Faulted(f)),
                    }
                }
                if end_b.is_none() && units_b <= units_a {
                    let budget = (units_a - units_b).max(1);
                    let (u, exit) = cpu_b.step_superblock(&mut mem_b, &ic, budget);
                    units_b += u;
                    match exit {
                        SbExit::Paused => {}
                        other => end_b = Some(other),
                    }
                }
                if end_a.is_some() && end_b.is_some() {
                    break;
                }
            }
            assert_eq!(end_a, end_b, "terminal events must match");
            assert_eq!(units_a, units_b, "simtime charging must be identical");
            assert_eq!(cpu_a, cpu_b, "register file (incl. SR) must match");
            assert_eq!(mem_a, mem_b, "memory must match");
            let Some(SbExit::Faulted(Fault::PageAbsent { addr })) = end_a else {
                return faults;
            };
            faults += 1;
            let page = MemoryLayout::page_of(addr);
            let bytes = whole.page_slice(page).unwrap();
            assert!(mem_a.install_page(page, bytes) && mem_b.install_page(page, bytes));
        }
    }

    #[test]
    fn fused_run_matches_slot_path_bit_for_bit() {
        lockstep(LOOP_SRC, IsaLevel::Isa1, &[]);
    }

    #[test]
    fn mixed_generic_run_matches_slot_path_bit_for_bit() {
        lockstep(MIXED_SRC, IsaLevel::Isa2, &[]);
    }

    /// The hogs' loop shape: `muls.l` in both source forms between
    /// flag writes that die into the counter's `sub`.
    const MULS_LOOP_SRC: &str = r"
        start:  move.l  #40, d6
                move.l  #7, d4
        loop:   add.l   #1, d5
                muls.l  #3, d4
                muls.l  d5, d3
                sub.l   #1, d6
                bgt     loop
                trap    #0
    ";

    /// The kernel's slot loop under one budget: step until the running
    /// total reaches `budget`, or a trap or fault ends the run — the
    /// reference [`Cpu::step_superblock`] must match call for call.
    fn slot_run(cpu: &mut Cpu, mem: &mut Memory, ic: &ICache, budget: u64) -> (u64, SbExit) {
        let mut spent = 0u64;
        loop {
            match cpu.step_cached(mem, ic) {
                StepEvent::Executed { units } => spent += units as u64,
                StepEvent::Trap { vector, units } => {
                    return (spent + units as u64, SbExit::Trap { vector });
                }
                StepEvent::Faulted(f) => return (spent, SbExit::Faulted(f)),
            }
            if spent >= budget {
                return (spent, SbExit::Paused);
            }
        }
    }

    #[test]
    fn only_a_block_that_branches_to_its_own_head_chains() {
        let obj = assemble(MULS_LOOP_SRC).unwrap();
        let ic = ICache::build(&obj.text, IsaLevel::Isa1);
        let chains = |label: &str| ic.superblock(obj.symbols[label]).unwrap().chains;
        assert!(chains("loop"), "the loop closes on its own head");
        assert!(
            !chains("start"),
            "the entry block runs into the loop and branches to its head, not its own"
        );
    }

    #[test]
    fn every_budget_pauses_on_the_same_instruction() {
        // For every budget up to past the final trap, a superblock run
        // must stop with the same cpu state and charge as the slot loop
        // stopped at the first step where `spent >= budget`.
        for src in [LOOP_SRC, MULS_LOOP_SRC] {
            let obj = assemble(src).unwrap();
            let ic = ICache::build(&obj.text, IsaLevel::Isa1);
            let mut mem = obj.to_memory();
            let mut cpu = Cpu::at_entry(obj.entry);
            let (total, exit) = slot_run(&mut cpu, &mut mem, &ic, u64::MAX);
            assert_eq!(exit, SbExit::Trap { vector: 0 });
            for budget in 1..=total + 1 {
                let mut mem_a = obj.to_memory();
                let mut cpu_a = Cpu::at_entry(obj.entry);
                let out_a = slot_run(&mut cpu_a, &mut mem_a, &ic, budget);
                let mut mem_b = obj.to_memory();
                let mut cpu_b = Cpu::at_entry(obj.entry);
                let out_b = cpu_b.step_superblock(&mut mem_b, &ic, budget);
                assert_eq!(out_a, out_b, "budget {budget}: charge and exit");
                assert_eq!(cpu_a, cpu_b, "budget {budget}: cpu state");
            }
        }
    }

    /// Operands where the flag and overflow rules have their edges.
    const EDGES: [u32; 6] = [0, 1, u32::MAX, 0x7fff_ffff, 0x8000_0000, 0x0001_0000];

    /// The shapes of the [`random_loop`] corpus.
    #[derive(Clone, Copy, Debug)]
    enum Shape {
        /// Forward conditional branches split the body into blocks of
        /// varying length and flag liveness; a few trips.
        Split,
        /// One block that branches back to its own head, for hundreds
        /// of trips: chained passes cross the random budgets.
        SelfLoop,
        /// A self-loop whose body also loads and stores through `(a0)`
        /// and `d(a0)`: generic ops inside a chained body.
        Memory,
        /// A self-loop whose body pushes through `-(a7)`, loads and
        /// stores through `d(a7)` and walks `a7` down with `lea`, across
        /// several stack pages: the stack grows inside chained passes.
        Stack,
        /// The dirty hog's sweep: a self-loop that stores through `(a1)`
        /// and steps `a1` on every pass, so the pass loop spills and
        /// reloads its registers around generic ops on every pass.
        Sweep,
        /// A self-loop of affine register arithmetic that has a closed
        /// form ([`affine_op`], [`affine_closing`]); one in eight reads
        /// a register the loop writes, and has none.
        Affine,
    }

    /// The conditions a closed form allows.
    const AFFINE_CONDITIONS: [&str; 4] = ["bgt", "bge", "bne", "bpl"];

    /// One op of an `Affine` body: a `move`, `add`, `sub` or `muls.l`
    /// into one of `writes` from an immediate or from one of `reads`, a
    /// `neg`, `not` or `lsl.l`, a `nop`, or a `cmp` or `tst` whose flags
    /// the loop's closer overwrites.
    fn affine_op(rng: &mut SplitMix64, writes: &[u64], reads: &[u64]) -> String {
        let d = rng.pick(writes);
        let s = match reads {
            [] => format!("#{:#x}", rng.pick(&EDGES)),
            _ if rng.below(2) == 0 => format!("#{:#x}", rng.pick(&EDGES)),
            _ => format!("d{}", rng.pick(reads)),
        };
        match rng.below(10) {
            0 => format!("move.l {s}, d{d}"),
            1 => format!("add.l {s}, d{d}"),
            2 => format!("sub.l {s}, d{d}"),
            3 | 4 => format!("muls.l {s}, d{d}"),
            5 => format!("neg.l d{d}"),
            6 => format!("not.l d{d}"),
            7 => format!("lsl.l #{}, d{d}", rng.pick(&[0, 1, 5, 31, 32, 33, 63])),
            8 => "nop".to_string(),
            _ if rng.below(2) == 0 => format!("cmp.l {s}, d{}", rng.below(8)),
            _ => format!("tst.l d{}", rng.below(8)),
        }
    }

    /// An `Affine` loop's closing `sub.l #s, d7; <cc> loop` and d7's
    /// start: s is 1 or, in half the loops, up to 0x7fffffff on a log
    /// scale, and d7 starts at 1, 2, s − 1, s + 1, i32::MAX or i32::MIN.
    fn affine_closing(rng: &mut SplitMix64, cc: &str) -> (u32, String) {
        let step = match rng.below(2) {
            0 => 1,
            _ => {
                let scale = rng.below(31);
                1 + rng.below(0x7fff_ffff >> scale) as u32
            }
        };
        let start = rng.pick(&[1, 2, step - 1, step + 1, i32::MAX as u32, i32::MIN as u32]);
        (start, format!("sub.l #{step:#x}, d7\n{cc} loop\n"))
    }

    /// The conditions a loop can close on, one fused terminator each.
    const CONDITIONS: [&str; 10] = [
        "beq", "bne", "blt", "ble", "bgt", "bge", "bcs", "bcc", "bmi", "bpl",
    ];

    /// A loop's closing `sub.l #imm, d7; <cc> loop` for about `trips`
    /// trips, and d7's start. Conditions that hold while a count stays
    /// positive count d7 down by one; the others count it up from
    /// `-trips`. No count holds `beq` for more than a trip, so that loop
    /// closes on a flag it derives from a count kept in memory, `cnt`:
    /// 0 while trips remain, 1 after the last.
    fn closing(cc: &str, trips: u64) -> (u32, String) {
        match cc {
            "bne" | "bgt" | "bge" | "bcc" | "bpl" => (trips as u32, format!("sub.l #1, d7\n{cc} loop\n")),
            "blt" | "ble" | "bcs" | "bmi" => (
                (trips as u32).wrapping_neg(),
                format!("sub.l #0xffffffff, d7\n{cc} loop\n"),
            ),
            "beq" => (
                0,
                "sub.l #1, cnt\nmove.l cnt, d7\nsub.l #1, d7\nlsr.l #31, d7\nsub.l #0, d7\nbeq loop\n"
                    .to_string(),
            ),
            _ => unreachable!("{cc} is not a condition"),
        }
    }

    /// Marks the op of an `Affine` body that reads a register the loop
    /// writes, so the loop has no closed form.
    const NEAR_MISS: &str = "| reads a register the loop writes";

    /// A random terminating program: d0–d6 seeded from [`EDGES`], then
    /// a loop counted in d7, closed by [`closing`] on condition `cc`,
    /// whose body is random fused ops on d0–d6 (with a `Memory` shape,
    /// also generic memory and word-size ops; with a `Stack` shape,
    /// stack pushes, loads and stores; with a `Sweep` shape, one store
    /// and pointer step), with a source that is an immediate or a
    /// register at random. A `Split` body scatters forward conditional
    /// branches through it, so blocks split at varying points and flag
    /// writes vary between live and dead. An `Affine` loop is closed by
    /// [`affine_closing`] instead, may not terminate, and splits d0–d6
    /// into registers its body writes and registers it only reads.
    fn random_loop(rng: &mut SplitMix64, shape: Shape, cc: &str) -> String {
        use std::fmt::Write;
        let mut src = String::from("start:\n");
        for r in 0..7 {
            writeln!(src, "move.l #{:#x}, d{r}", rng.pick(&EDGES)).unwrap();
        }
        let trips = match shape {
            Shape::Split => 1 + rng.below(6),
            Shape::SelfLoop | Shape::Memory | Shape::Sweep => 100 + rng.below(900),
            Shape::Stack => 300 + rng.below(700),
            Shape::Affine => 0,
        };
        // A `Stack` loop starts 64 bytes down, so its `d(a7)` operands
        // stay below the top, and walks a7 down 96–160 bytes a trip
        // besides its pushes (at most 84 bytes): at least three pages
        // over the run, and never past the 256 KB limit.
        let walk = match shape {
            Shape::Stack => {
                src.push_str("lea -64(a7), a7\n");
                4 * (24 + rng.below(17))
            }
            _ => 0,
        };
        let (start, close) = match shape {
            Shape::Affine => affine_closing(rng, cc),
            _ => closing(cc, trips),
        };
        writeln!(
            src,
            "move.l #buf, a0\nmove.l #area, a1\nmove.l #{start:#x}, d7"
        )
        .unwrap();
        src.push_str("loop:\n");
        let len = 2 + rng.below(20) as usize;
        // Where a `Sweep` body stores and steps its pointer.
        let sweep_at = rng.below(len as u64) as usize;
        // The registers an `Affine` body writes (at least one) and the
        // ones it only reads, and where a near miss reads a written one.
        let (mut writes, mut reads) = (Vec::new(), Vec::new());
        let mut miss = None;
        if let Shape::Affine = shape {
            (writes, reads) = (0..7).partition(|_| rng.below(3) != 0);
            if writes.is_empty() {
                writes.push(reads.remove(0));
            }
            miss = (rng.below(8) == 0).then(|| rng.below(len as u64) as usize);
        }
        let mut targets = BTreeSet::new();
        for i in 0..len {
            if targets.contains(&i) {
                writeln!(src, "t{i}:").unwrap();
            }
            let d = rng.below(7);
            if matches!(shape, Shape::Sweep) && i == sweep_at {
                writeln!(src, "move.l d{d}, (a1)\nadd.l #4, a1").unwrap();
            }
            let s = if rng.below(2) == 0 {
                format!("#{:#x}", rng.pick(&EDGES))
            } else {
                format!("d{}", rng.below(7))
            };
            let line = match shape {
                Shape::Affine if miss == Some(i) => {
                    // Reads the counter, or a register it writes first.
                    let w = rng.pick(&[&writes[..], &[7]].concat());
                    let op = rng.pick(&["move", "add", "sub", "muls"]);
                    let d = rng.pick(&writes);
                    let write = if w == 7 {
                        String::new()
                    } else {
                        format!("not.l d{w}\n")
                    };
                    format!("{write}{op}.l d{w}, d{d} {NEAR_MISS}")
                }
                Shape::Affine => affine_op(rng, &writes, &reads),
                Shape::Memory if rng.below(4) == 0 => {
                    let disp = 4 * rng.below(8);
                    match rng.below(5) {
                        0 => format!("move.l d{d}, {disp}(a0)"),
                        1 => format!("move.l {disp}(a0), d{d}"),
                        2 => format!("add.l {disp}(a0), d{d}"),
                        3 => format!("eor.l d{d}, (a0)"),
                        _ => format!("move.w {s}, d{d}"),
                    }
                }
                Shape::Stack if rng.below(3) == 0 => {
                    let disp = 4 * rng.below(16) as i64 - 32;
                    match rng.below(4) {
                        0 => format!("move.l d{d}, -(a7)"),
                        1 => format!("move.l d{d}, {disp}(a7)"),
                        2 => format!("move.l {disp}(a7), d{d}"),
                        _ => format!("add.l {disp}(a7), d{d}"),
                    }
                }
                _ => match rng.below(14) {
                    0 => format!("move.l {s}, d{d}"),
                    1 => format!("add.l {s}, d{d}"),
                    2 => format!("sub.l {s}, d{d}"),
                    3 => format!("cmp.l {s}, d{d}"),
                    4 => format!("and.l {s}, d{d}"),
                    5 => format!("or.l {s}, d{d}"),
                    6 => format!("eor.l {s}, d{d}"),
                    7 => {
                        let op = rng.pick(&["lsl", "lsr", "asr"]);
                        let n = rng.pick(&[0, 1, 5, 31, 32, 33, 63]);
                        format!("{op}.l #{n}, d{d}")
                    }
                    8 => format!("tst.l d{d}"),
                    9 => format!("not.l d{d}"),
                    10 => format!("neg.l d{d}"),
                    11 => "nop".to_string(),
                    _ => format!("muls.l {s}, d{d}"),
                },
            };
            writeln!(src, "{line}").unwrap();
            if matches!(shape, Shape::Split) && rng.below(4) == 0 {
                let to = i + 1 + rng.below(4) as usize;
                writeln!(src, "{} t{to}", rng.pick(&CONDITIONS)).unwrap();
                targets.insert(to);
            }
        }
        for t in targets.range(len..) {
            writeln!(src, "t{t}:").unwrap();
        }
        if walk > 0 {
            writeln!(src, "lea -{walk}(a7), a7").unwrap();
        }
        src.push_str(&close);
        writeln!(
            src,
            "done: trap #0\n.data\nbuf: .space 32\ncnt: .long {trips}\n.bss\narea: .space 4096"
        )
        .unwrap();
        src
    }

    /// The variant name of a micro-op.
    fn variant(op: &SbOp) -> String {
        let name = format!("{op:?}");
        name.split([' ', '('])
            .next()
            .unwrap_or_default()
            .to_string()
    }

    /// Cost units the slot path retires from `obj`'s entry to the first
    /// time it reaches `pc`.
    fn units_to(obj: &crate::Object, ic: &ICache, pc: u32) -> u64 {
        let mut mem = obj.to_memory();
        let mut cpu = Cpu::at_entry(obj.entry);
        let mut units = 0;
        while cpu.pc != pc {
            match cpu.step_cached(&mut mem, ic) {
                StepEvent::Executed { units: u } => units += u as u64,
                ev => panic!("{ev:?} before {pc:#x}"),
            }
        }
        units
    }

    #[test]
    fn random_fused_loops_match_slot_path_at_random_budgets() {
        // Differential test of the fused tier: each seed's program runs
        // on the slot path and on superblocks under the same budgets,
        // and every return must agree on charge, exit, registers, SR
        // and memory. A `Split` program takes random budgets from one
        // unit to thousands. Every other shape is one block that chains
        // into itself, closed by a fused `sub.l #imm; <cc>` on each
        // condition in turn: its first call stops on the loop head, and
        // its budgets end exactly on a pass boundary, one unit short of
        // one, in mid-chain, or at random, so chains stop both inside
        // and at the edge of a budget, the `Stack` loops grow the stack
        // page by page inside chained passes, and the `Sweep` loops
        // spill and reload around a store on every pass. The `Affine`
        // loops retire passes in closed form, on each condition that
        // allows one, and stop after 40 calls if they have not ended.
        let mut translated = BTreeSet::new();
        // (condition, budget kind) pairs that stopped a running loop,
        // and those that retired passes in closed form.
        let mut closed = BTreeSet::new();
        let mut closed_forms = BTreeSet::new();
        for seed in 0..1600u64 {
            let mut rng = SplitMix64::new(seed);
            let shape = match seed {
                0..400 => Shape::Split,
                400..600 => Shape::SelfLoop,
                600..800 => Shape::Memory,
                800..1000 => Shape::Stack,
                1000..1200 => Shape::Sweep,
                _ => Shape::Affine,
            };
            let cc = match shape {
                Shape::Split | Shape::Stack => "bgt",
                Shape::Affine => AFFINE_CONDITIONS[seed as usize % AFFINE_CONDITIONS.len()],
                _ => CONDITIONS[seed as usize % CONDITIONS.len()],
            };
            let src = random_loop(&mut rng, shape, cc);
            let obj = assemble(&src).unwrap_or_else(|e| panic!("seed {seed}: {e:?}\n{src}"));
            let ic = ICache::build(&obj.text, IsaLevel::Isa1);
            let head = obj.symbols["loop"];
            // The pass units of a chained loop, and how far into a pass
            // the last call stopped.
            let chain = match shape {
                Shape::Split => None,
                _ => {
                    let sb = ic.superblock(head).expect("the loop translates");
                    assert!(sb.ends_in_fused_branch(), "seed {seed}\n{src}");
                    if let Shape::Affine = shape {
                        let want = !src.contains(NEAR_MISS);
                        assert_eq!(sb.has_closed_form(), want, "seed {seed}\n{src}");
                    }
                    Some((sb.total_units(), 0))
                }
            };
            let mut chain = chain;
            let mut mem_a = obj.to_memory();
            let mut cpu_a = Cpu::at_entry(obj.entry);
            let mut mem_b = mem_a.clone();
            let mut cpu_b = cpu_a.clone();
            let mut first = chain.is_some();
            for call in 0.. {
                if matches!(shape, Shape::Affine) && call == 40 {
                    break;
                }
                let random = match rng.below(4) {
                    0 => 1000,
                    1 => 1 + rng.below(5000),
                    _ => 1 + rng.below(30),
                };
                let (budget, kind) = match chain {
                    _ if first => (units_to(&obj, &ic, head), "to the head"),
                    Some((pass, into)) => {
                        // A pass boundary ahead, the next one or up to
                        // three passes beyond it.
                        let edge = (pass - into) % pass + pass * rng.below(4);
                        match rng.below(4) {
                            0 => (if edge == 0 { pass } else { edge }, "on a pass boundary"),
                            1 => (edge + pass - 1, "one unit short"),
                            2 => (edge + 1 + rng.below(pass - 1), "mid-chain"),
                            _ => (random, "random"),
                        }
                    }
                    None => (random, "random"),
                };
                first = false;
                let out_a = slot_run(&mut cpu_a, &mut mem_a, &ic, budget);
                let retired = CLOSED_FORMS.with(Cell::get);
                let out_b = cpu_b.step_superblock(&mut mem_b, &ic, budget);
                if CLOSED_FORMS.with(Cell::get) > retired {
                    closed_forms.insert((cc, kind));
                }
                let at = format!("seed {seed} ({shape:?}, {cc}), budget {budget} ({kind})");
                assert_eq!(out_a, out_b, "{at}: charge and exit\n{src}");
                assert_eq!(cpu_a, cpu_b, "{at}: registers and SR\n{src}");
                assert_eq!(mem_a, mem_b, "{at}: memory\n{src}");
                if out_a.1 != SbExit::Paused {
                    assert_eq!(out_a.1, SbExit::Trap { vector: 0 }, "seed {seed}\n{src}");
                    break;
                }
                if let Some((pass, into)) = &mut chain {
                    match kind {
                        "to the head" => *into = 0,
                        _ => *into = (*into + out_a.0) % *pass,
                    }
                    if kind == "to the head" || kind == "on a pass boundary" {
                        let after_last = obj.symbols["done"];
                        assert!(
                            cpu_b.pc == head || cpu_b.pc == after_last,
                            "{at}: stops on the head\n{src}"
                        );
                    }
                    if kind != "random" && kind != "to the head" {
                        closed.insert((cc, kind));
                    }
                }
            }
            translated.extend(ic.blocks().flat_map(|sb| sb.ops.iter().map(variant)));
        }
        // Every specialised variant, so every fused op with an
        // immediate and a register source and with live and dead
        // flags, and every fused terminator, was in a block the corpus
        // ran.
        let missing: Vec<&str> = SPECIALISED
            .iter()
            .copied()
            .filter(|v| !translated.contains(*v))
            .collect();
        assert!(
            missing.is_empty(),
            "the corpus never translated {missing:?}"
        );
        // Every condition closed a running chain under every budget
        // kind, and every condition that allows a closed form retired
        // one under each.
        for kind in ["on a pass boundary", "one unit short", "mid-chain"] {
            for cc in CONDITIONS {
                assert!(closed.contains(&(cc, kind)), "no {cc} loop stopped {kind}");
            }
            for cc in AFFINE_CONDITIONS {
                assert!(
                    closed_forms.contains(&(cc, kind)),
                    "no {cc} loop retired a closed form {kind}"
                );
            }
        }
    }

    #[test]
    fn mid_block_fault_charges_only_the_retired_prefix() {
        // Two fused ops, then a divide by zero: pc must sit at the
        // divide, the charge must cover exactly the two fused ops, and
        // the flags must reflect the *second* op (the generic divide is
        // a liveness barrier, so nothing before it may be elided).
        let src = r"
            start:  move.l #5, d1
                    add.l  #2, d1
                    divs.l d0, d1
                    trap   #0
        ";
        let obj = assemble(src).unwrap();
        let ic = ICache::build(&obj.text, IsaLevel::Isa1);

        let mut mem_a = obj.to_memory();
        let mut cpu_a = Cpu::at_entry(obj.entry);
        let mut spent_a = 0u64;
        let fault_a = loop {
            match cpu_a.step_cached(&mut mem_a, &ic) {
                StepEvent::Executed { units } => spent_a += units as u64,
                StepEvent::Faulted(f) => break f,
                ev => panic!("unexpected {ev:?}"),
            }
        };

        let mut mem_b = obj.to_memory();
        let mut cpu_b = Cpu::at_entry(obj.entry);
        let (used, exit) = cpu_b.step_superblock(&mut mem_b, &ic, u64::MAX);
        assert_eq!(exit, SbExit::Faulted(fault_a));
        assert_eq!(used, spent_a);
        assert_eq!(cpu_a, cpu_b, "pc at the divide, SR from the add");
    }

    /// Fused arithmetic, then a post-increment load that walks one long
    /// word into each data page: every first touch of a page faults
    /// from the middle of a block.
    const TOUCH_SRC: &str = r"
        start:  move.l  #buf, a0
                move.l  #4, d6
        loop:   move.l  #5, d1
                add.l   #2, d1
                add.l   (a0)+, d1
                add.l   d1, d3
                add.l   #0x1ffc, a0
                sub.l   #1, d6
                bgt     loop
                trap    #0
                .data
        buf:    .long   11
                .space  0x5ffc
                .long   13
    ";

    /// Every data page of `src`'s image.
    fn data_pages(src: &str) -> Vec<u32> {
        let mem = assemble(src).unwrap().to_memory();
        let first = MemoryLayout::page_of(mem.data_base());
        let n = (mem.data().len() as u32).div_ceil(MemoryLayout::PAGE);
        (first..first + n).collect()
    }

    #[test]
    fn absent_pages_fault_and_replay_in_lockstep() {
        let faults = lockstep(TOUCH_SRC, IsaLevel::Isa1, &data_pages(TOUCH_SRC));
        assert_eq!(faults, 4, "one fault per data page the loop touches");
    }

    #[test]
    fn mid_block_page_fault_is_precise() {
        // Whole blocks this time (unbounded budget): the load faults as
        // a Generic op after two fused ones, and the superblock engine
        // must stop exactly where the slot loop does — same fault, the
        // fused prefix charged and its flags materialized, the faulting
        // load undone — then replay identically once the page lands.
        let obj = assemble(TOUCH_SRC).unwrap();
        let ic = ICache::build(&obj.text, IsaLevel::Isa1);
        let whole = obj.to_memory();
        let mut mem_a = whole.clone();
        mem_a.set_absent(data_pages(TOUCH_SRC));
        let mut mem_b = mem_a.clone();
        let mut cpu_a = Cpu::at_entry(obj.entry);
        let mut cpu_b = Cpu::at_entry(obj.entry);
        let mut faults = 0;
        loop {
            let mut spent_a = 0u64;
            let end_a = loop {
                match cpu_a.step_cached(&mut mem_a, &ic) {
                    StepEvent::Executed { units } => spent_a += units as u64,
                    StepEvent::Trap { vector, units } => {
                        spent_a += units as u64;
                        break SbExit::Trap { vector };
                    }
                    StepEvent::Faulted(f) => break SbExit::Faulted(f),
                }
            };
            let (spent_b, end_b) = cpu_b.step_superblock(&mut mem_b, &ic, u64::MAX);
            assert_eq!(end_a, end_b);
            assert_eq!(spent_a, spent_b, "charge up to the event");
            assert_eq!(cpu_a, cpu_b);
            assert_eq!(mem_a, mem_b);
            let SbExit::Faulted(Fault::PageAbsent { addr }) = end_a else {
                assert_eq!(end_a, SbExit::Trap { vector: 0 });
                break;
            };
            // The faulting load sits after two fused ops of its block.
            assert_eq!(cpu_a.pc, obj.symbols["loop"] + 16);
            faults += 1;
            let page = MemoryLayout::page_of(addr);
            let bytes = whole.page_slice(page).unwrap();
            assert!(mem_a.install_page(page, bytes) && mem_b.install_page(page, bytes));
        }
        assert_eq!(faults, 4);
        assert_eq!(
            cpu_b.d[3],
            4 * 7 + 11 + 13,
            "the replayed loads saw the real bytes"
        );
    }

    /// The dirty hog's sweep: a store, a pointer bump and a count in a
    /// block that branches to its own head, one pass per ballast page.
    const SWEEP_SRC: &str = r"
        start:  move.l  #3, d7
        outer:  move.l  #ballast, a0
                move.l  #4, d3
        sweep:  move.l  d7, (a0)
                add.l   #0x2000, a0
                sub.l   #1, d3
                bgt     sweep
                sub.l   #1, d7
                bgt     outer
                trap    #0
                .bss
        ballast:
                .space  0x8000
    ";

    /// The sweep at a quarter-page stride with fused work ahead of the
    /// store: passes that stay on a page chain into the one that
    /// crosses onto the next, which faults mid-block.
    const STRIDE_SRC: &str = r"
        start:  move.l  #2, d7
        outer:  move.l  #ballast, a0
                move.l  #16, d3
        sweep:  add.l   #1, d5
                muls.l  #3, d4
                move.l  d5, (a0)
                add.l   #0x800, a0
                sub.l   #1, d3
                bgt     sweep
                sub.l   #1, d7
                bgt     outer
                trap    #0
                .bss
        ballast:
                .space  0x8000
    ";

    /// Runs `src` with every data page absent on the slot loop and on
    /// superblocks under the same budgets, comparing every return and
    /// landing each faulted page in both images. Returns the page
    /// faults, and how many of them a call took after retiring at least
    /// one whole pass of the `sweep` block — so on a chained pass.
    fn sweep_lockstep(src: &str, mut budget: impl FnMut() -> u64) -> (usize, usize) {
        let obj = assemble(src).unwrap();
        let ic = ICache::build(&obj.text, IsaLevel::Isa1);
        let pass = ic.superblock(obj.symbols["sweep"]).unwrap().total_units();
        let whole = obj.to_memory();
        let mut mem_a = whole.clone();
        mem_a.set_absent(data_pages(src));
        let mut mem_b = mem_a.clone();
        let mut cpu_a = Cpu::at_entry(obj.entry);
        let mut cpu_b = cpu_a.clone();
        let (mut faults, mut chained) = (0, 0);
        loop {
            let budget = budget();
            let out_a = slot_run(&mut cpu_a, &mut mem_a, &ic, budget);
            let out_b = cpu_b.step_superblock(&mut mem_b, &ic, budget);
            assert_eq!(out_a, out_b, "budget {budget}: charge and exit");
            assert_eq!(cpu_a, cpu_b, "budget {budget}: registers and SR");
            assert_eq!(mem_a, mem_b, "budget {budget}: memory");
            match out_a {
                (_, SbExit::Paused) => {}
                (used, SbExit::Faulted(Fault::PageAbsent { addr })) => {
                    faults += 1;
                    if used >= pass {
                        chained += 1;
                    }
                    let page = MemoryLayout::page_of(addr);
                    let bytes = whole.page_slice(page).unwrap();
                    assert!(mem_a.install_page(page, bytes) && mem_b.install_page(page, bytes));
                }
                (_, exit) => {
                    assert_eq!(exit, SbExit::Trap { vector: 0 });
                    return (faults, chained);
                }
            }
        }
    }

    #[test]
    fn page_faults_on_chained_passes_are_precise() {
        for src in [SWEEP_SRC, STRIDE_SRC] {
            // Unbounded: each call runs until the next fault, so every
            // fault after the first is taken on a chained pass.
            assert_eq!(sweep_lockstep(src, || u64::MAX), (4, 3));
            // Whole-block budgets: room for a few passes, so chains
            // also end at the budget, and a pass that no longer fits
            // single-steps to its pause.
            let mut rng = SplitMix64::new(7);
            let (faults, _) = sweep_lockstep(src, || 10 + rng.below(120));
            assert_eq!(faults, 4, "one fault per ballast page");
        }
    }

    #[test]
    fn operands_with_side_effects_stay_generic() {
        // `execute` applies a post-increment or pre-decrement for every
        // operand of every instruction, the ones an op ignores
        // included. The assembler never writes such an operand on
        // `nop`, `tst`, `not` or `neg`, but any text bytes can decode
        // to one, so those forms must not fuse.
        use Operand::{DReg, Imm, PostInc, PreDec};
        let code = [
            Instr::new(Op::Nop, Size::Long, PostInc(0), PreDec(1)),
            Instr::new(Op::Not, Size::Long, PostInc(2), DReg(1)),
            Instr::new(Op::Neg, Size::Long, PreDec(3), DReg(2)),
            Instr::new(Op::Tst, Size::Long, PostInc(4), DReg(2)),
            Instr::new(Op::Trap, Size::Long, Imm(0), Operand::None),
        ];
        let text = crate::encode::encode_all(&code);
        let ic = ICache::build(&text, IsaLevel::Isa1);
        assert_eq!(
            ic.superblock(MemoryLayout::TEXT_BASE)
                .unwrap()
                .generic_ops(),
            4
        );
        let mut mem_a = Memory::new(text, vec![0; 16], 16);
        let mut cpu_a = Cpu::at_entry(MemoryLayout::TEXT_BASE);
        cpu_a.d[1] = 5;
        let mut mem_b = mem_a.clone();
        let mut cpu_b = cpu_a.clone();
        let out_a = slot_run(&mut cpu_a, &mut mem_a, &ic, u64::MAX);
        let out_b = cpu_b.step_superblock(&mut mem_b, &ic, u64::MAX);
        assert_eq!(out_a, out_b);
        assert_eq!(cpu_a, cpu_b, "address registers moved on both paths");
        assert_eq!(cpu_b.a[..5], [4, 0xffff_fffc, 4, 0xffff_fffc, 4]);
    }

    #[test]
    fn dead_flags_are_elided_and_live_ones_kept() {
        // add, eor, lsr all die into sub's full CCR write; sub's flags
        // feed bgt. Only sub keeps its update.
        let obj = assemble(LOOP_SRC).unwrap();
        let ic = ICache::build(&obj.text, IsaLevel::Isa1);
        let loop_pc = obj.symbols["loop"];
        let sb = ic.superblock(loop_pc).expect("loop head translates");
        assert_eq!(sb.len(), 5, "add, eor, lsr, sub, bgt");
        assert_eq!(
            sb.live_flag_writes(),
            1,
            "only the sub feeding bgt keeps its flag update"
        );
        // The entry block ends at the same bgt but starts at move #100;
        // the move's flags also die into sub's write.
        let sb0 = ic.superblock(obj.entry).expect("entry translates");
        assert_eq!(sb0.live_flag_writes(), 1);
    }

    #[test]
    fn blocks_end_at_text_boundary_and_never_read_stale_bytes() {
        // A routine with no terminator runs straight to the end of
        // text: the block must Stop at text_end and the interpreter
        // must re-check the segment there (falling into the unmapped
        // gap exactly like the slot path), not run off cached slots.
        let src = r"
            start:  move.l #1, d0
                    add.l  #2, d0
        ";
        let obj = assemble(src).unwrap();
        let ic = ICache::build(&obj.text, IsaLevel::Isa1);
        let sb = ic.superblock(obj.entry).expect("translates");
        assert_eq!(sb.len(), 3, "two fused ops plus the Stop boundary");

        let mut mem_a = obj.to_memory();
        let mut cpu_a = Cpu::at_entry(obj.entry);
        let ev_a = loop {
            match cpu_a.step_cached(&mut mem_a, &ic) {
                StepEvent::Executed { .. } => {}
                ev => break ev,
            }
        };
        let mut mem_b = obj.to_memory();
        let mut cpu_b = Cpu::at_entry(obj.entry);
        let (_, exit) = cpu_b.step_superblock(&mut mem_b, &ic, u64::MAX);
        assert!(
            matches!(ev_a, StepEvent::Faulted(Fault::Unmapped { .. })),
            "running off text faults"
        );
        assert_eq!(
            SbExit::Faulted(match ev_a {
                StepEvent::Faulted(f) => f,
                _ => unreachable!(),
            }),
            exit
        );
        assert_eq!(cpu_a, cpu_b);
        assert_eq!(
            cpu_b.pc,
            MemoryLayout::TEXT_BASE + obj.text.len() as u32,
            "pc parked at the segment boundary"
        );
    }

    #[test]
    fn code_copied_to_data_segment_runs_identically() {
        // The data-segment fallback boundary: a routine copied into
        // and executed from the data segment must behave identically
        // with superblocks on and off — blocks are built from text
        // slots only, so a data-segment pc always takes the live
        // decoder against fresh memory bytes.
        let routine = assemble("start: move.l #42, d3\n add.l #1, d3\n trap #0\n")
            .unwrap()
            .text;
        let obj = assemble(LOOP_SRC).unwrap();
        let ic = ICache::build(&obj.text, IsaLevel::Isa1);
        let mut mem_a = Memory::new(obj.text.clone(), routine.clone(), 0);
        let data_pc = mem_a.data_base();
        let mut cpu_a = Cpu::at_entry(data_pc);
        let mut mem_b = mem_a.clone();
        let mut cpu_b = cpu_a.clone();

        let mut spent_a = 0u64;
        let trap_a = loop {
            match cpu_a.step_cached(&mut mem_a, &ic) {
                StepEvent::Executed { units } => spent_a += units as u64,
                StepEvent::Trap { vector, units } => break (vector, spent_a + units as u64),
                ev => panic!("unexpected {ev:?}"),
            }
        };
        let (used, exit) = cpu_b.step_superblock(&mut mem_b, &ic, u64::MAX);
        assert_eq!(exit, SbExit::Trap { vector: trap_a.0 });
        assert_eq!(used, trap_a.1);
        assert_eq!(cpu_a, cpu_b);
        assert_eq!(cpu_b.d[3], 43);
        assert!(
            ic.superblock(data_pc).is_none(),
            "no superblock exists outside text"
        );
    }

    #[test]
    fn bypass_slots_fall_back_to_the_slot_path() {
        // An illegal word at the block head: superblock() must yield
        // Bypass and step_superblock must fault exactly like the slot
        // path.
        let text = vec![0xFFu8, 0, 0, 0];
        let ic = ICache::build(&text, IsaLevel::Isa1);
        assert!(ic.superblock(MemoryLayout::TEXT_BASE).is_none());
        let mut mem = Memory::new(text, vec![0; 16], 16);
        let mut cpu = Cpu::at_entry(MemoryLayout::TEXT_BASE);
        let (used, exit) = cpu.step_superblock(&mut mem, &ic, u64::MAX);
        assert_eq!(used, 0);
        assert_eq!(
            exit,
            SbExit::Faulted(Fault::IllegalInstruction {
                pc: MemoryLayout::TEXT_BASE
            })
        );
    }

    #[test]
    fn jump_into_extension_words_matches_slot_semantics() {
        // Superblocks can start at any 4-byte offset, including the
        // middle of an encoded instruction; every offset must agree
        // with the slot path (which already agrees with live decode).
        let obj = assemble(MIXED_SRC).unwrap();
        let ic = ICache::build(&obj.text, IsaLevel::Isa2);
        for off in (0..obj.text.len() as u32).step_by(4) {
            let pc = MemoryLayout::TEXT_BASE + off;
            let mut mem_a = obj.to_memory();
            let mut cpu_a = Cpu::at_entry(obj.entry);
            cpu_a.pc = pc;
            let mut mem_b = obj.to_memory();
            let mut cpu_b = cpu_a.clone();
            // One slot step vs a 1-unit superblock budget: both retire
            // at least one instruction and stop.
            let ea = cpu_a.step_cached(&mut mem_a, &ic);
            let (used_b, eb) = cpu_b.step_superblock(&mut mem_b, &ic, 1);
            match ea {
                StepEvent::Executed { units } => {
                    // The superblock may legally retire more than one
                    // instruction here only if a whole block fit in
                    // budget 1 — impossible, so it must stop after one.
                    assert_eq!(eb, SbExit::Paused, "offset {off:#x}");
                    assert_eq!(used_b, units as u64, "offset {off:#x}");
                    assert_eq!(cpu_a, cpu_b, "offset {off:#x}");
                }
                StepEvent::Trap { vector, units } => {
                    assert_eq!(eb, SbExit::Trap { vector }, "offset {off:#x}");
                    assert_eq!(used_b, units as u64, "offset {off:#x}");
                    assert_eq!(cpu_a, cpu_b, "offset {off:#x}");
                }
                StepEvent::Faulted(f) => {
                    assert_eq!(eb, SbExit::Faulted(f), "offset {off:#x}");
                    assert_eq!(cpu_a, cpu_b, "offset {off:#x}");
                }
            }
        }
    }

    #[test]
    fn block_cache_is_shared_and_lazy() {
        let obj = assemble(LOOP_SRC).unwrap();
        let ic = ICache::build(&obj.text, IsaLevel::Isa1);
        assert_eq!(ic.translated_blocks(), 0, "translation is lazy");
        let mut mem = obj.to_memory();
        let mut cpu = Cpu::at_entry(obj.entry);
        let (_, exit) = cpu.step_superblock(&mut mem, &ic, u64::MAX);
        assert_eq!(exit, SbExit::Trap { vector: 0 });
        let n = ic.translated_blocks();
        assert!(n >= 2, "entry + loop head translated, got {n}");
        // A clone starts cold again.
        assert_eq!(ic.clone().translated_blocks(), 0);
    }
}
