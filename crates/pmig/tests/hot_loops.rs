//! The workloads' hot loops stay on the superblock tier's fused path:
//! no micro-op of their blocks falls back to `Cpu::execute`, the
//! blocks still charge what the slot path charges, and the hogs' inner
//! loops close on one fused `sub.l #1; bgt` terminator and retire their
//! passes in closed form. Loops that are not affine register arithmetic
//! have no closed form.

use m68vm::{assemble, ICache, IsaLevel};
use pmig::workloads;

/// The superblock at `label` of `src`: (generic ops, total units,
/// whether it ends in a fused flag write and branch, whether it has a
/// closed form).
fn block_at(src: &str, label: &str) -> (usize, u64, bool, bool) {
    let obj = assemble(src).unwrap();
    let ic = ICache::build(&obj.text, IsaLevel::Isa1);
    let sb = ic
        .superblock(obj.symbols[label])
        .unwrap_or_else(|| panic!("{label} translates"));
    (
        sb.generic_ops(),
        sb.total_units(),
        sb.ends_in_fused_branch(),
        sb.has_closed_form(),
    )
}

#[test]
fn hog_inner_loops_are_fully_fused() {
    // add.l #1 (1) + muls.l #3 (6) + sub.l #1 (1) + bgt (2: its
    // absolute target is an operand that touches memory) — the total
    // the block charged when muls still ran through `Cpu::execute`.
    for src in [
        workloads::cpu_hog_program(10),
        workloads::dirty_hog_program(10, 4 * 0x2000),
    ] {
        assert_eq!(block_at(&src, "inner"), (0, 10, true, true));
    }
}

#[test]
fn cluster_ticker_is_fully_fused() {
    // Three moves and the sleep trap.
    let src = workloads::cluster_tick_program(10);
    assert_eq!(block_at(&src, "start"), (0, 4, false, false));
}

#[test]
fn loops_that_are_not_affine_have_no_closed_form() {
    // The dirty hog's sweep stores, so it holds a `Generic` op.
    let dirty = workloads::dirty_hog_program(10, 4 * 0x2000);
    assert!(!block_at(&dirty, "sweep").3);
    // `figures interp`'s arithmetic loop: `eor` and `lsr` are not
    // affine.
    assert!(!block_at(workloads::ARITH_LOOP_PROGRAM, "loop").3);
}
