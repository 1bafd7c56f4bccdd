//! The precise-fault contract for demand-restored images: an access
//! that reaches an absent page leaves the CPU exactly as it was before
//! the instruction and charges nothing for it, on every interpreter
//! tier, so the kernel can park the process and run the instruction
//! again once the page lands.

use m68vm::encode::encode_all;
use m68vm::isa::Operand::{self, *};
use m68vm::{
    Cpu, Fault, ICache, Instr, IsaLevel, Memory, MemoryLayout, Op, SbExit, Size, StepEvent,
};

const PAGE: u32 = MemoryLayout::PAGE;
/// Data base of an image whose text is under one page.
const DATA: u32 = 0x2000;
/// First byte of the second data page, the one left absent.
const HOLE: u32 = DATA + PAGE;

fn mov(size: Size, src: Operand, dst: Operand) -> Instr {
    Instr::new(Op::Move, size, src, dst)
}

/// A two-page data image holding a byte ramp, with the second page
/// absent when `hole` is set.
fn data_image(text: &[u8], hole: bool) -> Memory {
    let data: Vec<u8> = (0..2 * PAGE).map(|i| (i * 7 + 3) as u8).collect();
    let mut mem = Memory::new(text.to_vec(), data, 0);
    assert_eq!(mem.data_base(), DATA);
    if hole {
        mem.set_absent([MemoryLayout::page_of(HOLE)]);
    }
    mem
}

/// The CPU every case starts from: distinct data registers, `a0` at
/// the case's address, and every condition code set, so a stray flag
/// update shows.
fn start_cpu(a0: u32) -> Cpu {
    let mut cpu = Cpu::at_entry(MemoryLayout::TEXT_BASE);
    for (i, d) in cpu.d.iter_mut().enumerate() {
        *d = 0x0101_0101 * (i as u32 + 1);
    }
    cpu.a[0] = a0;
    cpu.sr = 0x0f;
    cpu
}

/// Runs `instr` against the absent page on each tier, then installs
/// the page and checks that the replay matches a run on a whole image.
fn check(name: &str, instr: Instr, a0: u32, hole: u32) {
    let trap = Instr::new(Op::Trap, Size::Long, Imm(0), Operand::None);
    let text = encode_all(&[instr, trap]);
    let ic = ICache::build(&text, IsaLevel::Isa1);
    let before = start_cpu(a0);
    let fault = Fault::PageAbsent { addr: hole };
    let pristine = data_image(&text, true);

    let mut cpu = before.clone();
    let mut mem = pristine.clone();
    assert_eq!(
        cpu.step(&mut mem, IsaLevel::Isa1),
        StepEvent::Faulted(fault),
        "{name}: step"
    );
    assert_eq!(cpu, before, "{name}: step left the CPU changed");
    assert_eq!(mem, pristine, "{name}: step wrote memory before faulting");

    let mut cpu = before.clone();
    let mut mem = pristine.clone();
    assert_eq!(
        cpu.step_cached(&mut mem, &ic),
        StepEvent::Faulted(fault),
        "{name}: step_cached"
    );
    assert_eq!(cpu, before, "{name}: step_cached left the CPU changed");
    assert_eq!(
        mem, pristine,
        "{name}: step_cached wrote memory before faulting"
    );

    let mut cpu = before.clone();
    let mut mem = pristine.clone();
    let (used, exit) = cpu.step_superblock(&mut mem, &ic, u64::MAX);
    assert_eq!(exit, SbExit::Faulted(fault), "{name}: step_superblock");
    assert_eq!(
        used, 0,
        "{name}: the faulting instruction must charge nothing"
    );
    assert_eq!(cpu, before, "{name}: step_superblock left the CPU changed");
    assert_eq!(
        mem, pristine,
        "{name}: step_superblock wrote memory before faulting"
    );

    // Replay: land the page, run the instruction again, and compare
    // against the same instruction on an image that never had a hole.
    let mut whole = data_image(&text, false);
    let mut want = before.clone();
    let ev = want.step(&mut whole, IsaLevel::Isa1);
    assert!(
        matches!(ev, StepEvent::Executed { .. }),
        "{name}: reference run {ev:?}"
    );
    let page = MemoryLayout::page_of(HOLE);
    let original = data_image(&text, false);
    assert!(mem.install_page(page, original.page_slice(page).unwrap()));
    assert_eq!(cpu.step(&mut mem, IsaLevel::Isa1), ev, "{name}: replay");
    assert_eq!(cpu, want, "{name}: replay registers");
    assert_eq!(mem, whole, "{name}: replay memory");
}

#[test]
fn every_memory_operand_form_faults_precisely() {
    let d1 = DReg(1);
    let cases: [(&str, Instr, u32, u32); 12] = [
        ("abs src", mov(Size::Long, Abs(HOLE - 2), d1), 0, HOLE),
        ("abs dst", mov(Size::Long, d1, Abs(HOLE)), 0, HOLE),
        ("ind src", mov(Size::Long, Ind(0), d1), HOLE + 16, HOLE + 16),
        ("ind dst", mov(Size::Long, d1, Ind(0)), HOLE - 1, HOLE),
        (
            "disp src",
            mov(Size::Long, IndDisp(0, 8), d1),
            HOLE - 8,
            HOLE,
        ),
        (
            "disp dst",
            mov(Size::Long, d1, IndDisp(0, -4)),
            HOLE + 6,
            HOLE + 2,
        ),
        (
            "postinc src",
            mov(Size::Long, PostInc(0), d1),
            HOLE - 2,
            HOLE,
        ),
        ("postinc dst", mov(Size::Word, d1, PostInc(0)), HOLE, HOLE),
        ("predec src", mov(Size::Long, PreDec(0), d1), HOLE + 4, HOLE),
        ("predec dst", mov(Size::Long, d1, PreDec(0)), HOLE + 2, HOLE),
        // The source read lands in the resident page and bumps a0 onto
        // the hole; the destination write faults there. Both
        // increments must be undone.
        (
            "postinc both",
            mov(Size::Long, PostInc(0), PostInc(0)),
            HOLE - 4,
            HOLE,
        ),
        (
            "predec src postinc dst",
            mov(Size::Long, PreDec(0), PostInc(0)),
            HOLE + 4,
            HOLE,
        ),
    ];
    for (name, instr, a0, hole) in cases {
        check(name, instr, a0, hole);
    }
}

#[test]
fn read_modify_write_forms_fault_precisely() {
    let cases: [(&str, Instr, u32, u32); 4] = [
        (
            "add to postinc",
            Instr::new(Op::Add, Size::Long, DReg(1), PostInc(0)),
            HOLE,
            HOLE,
        ),
        (
            "add from predec",
            Instr::new(Op::Add, Size::Long, PreDec(0), DReg(1)),
            HOLE + 4,
            HOLE,
        ),
        (
            "not predec",
            Instr::new(Op::Not, Size::Long, Operand::None, PreDec(0)),
            HOLE + 4,
            HOLE,
        ),
        (
            "tst postinc",
            Instr::new(Op::Tst, Size::Word, Operand::None, PostInc(0)),
            HOLE,
            HOLE,
        ),
    ];
    for (name, instr, a0, hole) in cases {
        check(name, instr, a0, hole);
    }
}

#[test]
fn wide_product_write_into_a_hole_restores_the_flags() {
    // muls.w/divs.w read their memory destination as a word, set the
    // flags, then store a long word: the store is the access that
    // reaches the absent page, after the flags have changed.
    let cases: [(&str, Instr, u32, u32); 4] = [
        (
            "muls.w ind",
            Instr::new(Op::Muls, Size::Word, Imm(3), Ind(0)),
            HOLE - 2,
            HOLE,
        ),
        (
            "muls.w postinc",
            Instr::new(Op::Muls, Size::Word, Imm(3), PostInc(0)),
            HOLE - 2,
            HOLE,
        ),
        (
            "divs.w ind",
            Instr::new(Op::Divs, Size::Word, Imm(3), Ind(0)),
            HOLE - 2,
            HOLE,
        ),
        (
            "divs.w predec",
            Instr::new(Op::Divs, Size::Word, Imm(3), PreDec(0)),
            HOLE,
            HOLE,
        ),
    ];
    for (name, instr, a0, hole) in cases {
        check(name, instr, a0, hole);
    }
}

#[test]
fn fetch_stops_at_an_absent_page() {
    // An 8-byte `move.l #imm, d3` placed 4 bytes before the boundary
    // between a resident data page and an absent one: the opcode words
    // are resident, the immediate is not.
    let imm = 0x1234_5678;
    let insn = encode_all(&[mov(Size::Long, Imm(imm), DReg(3))]);
    assert_eq!(insn.len(), 8);
    let text = encode_all(&[Instr::new(
        Op::Nop,
        Size::Long,
        Operand::None,
        Operand::None,
    )]);
    let pc = HOLE - 4;
    let mut data = vec![0u8; 2 * PAGE as usize];
    data[(pc - DATA) as usize..][..8].copy_from_slice(&insn);
    let whole = Memory::new(text.clone(), data.clone(), 0);
    // A demand restore leaves zeros where the absent page will land.
    data[PAGE as usize..].fill(0);
    let mut mem = Memory::new(text, data, 0);
    let page = MemoryLayout::page_of(HOLE);
    mem.set_absent([page]);
    let mut cpu = start_cpu(0);
    cpu.pc = pc;
    let before = cpu.clone();
    assert_eq!(
        cpu.step(&mut mem, IsaLevel::Isa1),
        StepEvent::Faulted(Fault::PageAbsent { addr: HOLE })
    );
    assert_eq!(cpu, before, "a truncated fetch changes nothing");
    assert!(mem.install_page(page, whole.page_slice(page).unwrap()));
    assert!(matches!(
        cpu.step(&mut mem, IsaLevel::Isa1),
        StepEvent::Executed { .. }
    ));
    assert_eq!(cpu.d[3], imm);
    assert_eq!(cpu.pc, HOLE + 4);
}
