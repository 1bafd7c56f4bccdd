//! Property tests pinning the interpreter's arithmetic to Rust's
//! wrapping semantics, and source-level assembler round trips.

use m68vm::{assemble, Cpu, IsaLevel, StepEvent};
use simtime::rng::SplitMix64;
use std::iter::repeat_with;

/// Cases per property.
const CASES: u32 = 64;

/// Runs a freshly assembled program until its first trap and returns the
/// CPU state.
fn run(src: &str) -> Cpu {
    let obj = assemble(src).expect("assemble");
    let mut mem = obj.to_memory();
    let mut cpu = Cpu::at_entry(obj.entry);
    for _ in 0..10_000 {
        match cpu.step(&mut mem, IsaLevel::Isa2) {
            StepEvent::Executed { .. } => {}
            StepEvent::Trap { .. } => return cpu,
            StepEvent::Faulted(f) => panic!("fault {f:?}"),
        }
    }
    panic!("no trap");
}

#[test]
fn add_matches_wrapping_add() {
    let mut rng = SplitMix64::new(1);
    for case in 0..CASES {
        let (a, b): (i32, i32) = (rng.int(), rng.int());
        let cpu = run(&format!(
            "start: move.l #{a}, d1\n add.l #{b}, d1\n trap #0\n"
        ));
        let want = (a as u32).wrapping_add(b as u32);
        assert_eq!(cpu.d[1], want, "case {case}: a={a} b={b}");
    }
}

#[test]
fn sub_matches_wrapping_sub() {
    let mut rng = SplitMix64::new(2);
    for case in 0..CASES {
        let (a, b): (i32, i32) = (rng.int(), rng.int());
        let cpu = run(&format!(
            "start: move.l #{a}, d1\n sub.l #{b}, d1\n trap #0\n"
        ));
        let want = (a as u32).wrapping_sub(b as u32);
        assert_eq!(cpu.d[1], want, "case {case}: a={a} b={b}");
    }
}

#[test]
fn muls_matches_wrapping_mul() {
    let mut rng = SplitMix64::new(3);
    for case in 0..CASES {
        let (a, b): (i32, i32) = (rng.int(), rng.int());
        let cpu = run(&format!(
            "start: move.l #{a}, d1\n muls.l #{b}, d1\n trap #0\n"
        ));
        let want = a.wrapping_mul(b) as u32;
        assert_eq!(cpu.d[1], want, "case {case}: a={a} b={b}");
    }
}

#[test]
fn divs_matches_rust_division() {
    let mut rng = SplitMix64::new(4);
    for case in 0..CASES {
        // i32::MIN / -1 overflows in Rust; the VM wraps. Case 0 runs it.
        let (a, b): (i32, i32) = if case == 0 {
            (i32::MIN, -1)
        } else {
            // A zero divisor is redrawn.
            let a = rng.int();
            (a, repeat_with(|| rng.int()).find(|&b| b != 0).unwrap())
        };
        let cpu = run(&format!(
            "start: move.l #{a}, d1\n divs.l #{b}, d1\n trap #0\n"
        ));
        let want = a.wrapping_div(b) as u32;
        assert_eq!(cpu.d[1], want, "case {case}: a={a} b={b}");
    }
}

#[test]
fn logic_ops_match() {
    let mut rng = SplitMix64::new(5);
    for case in 0..CASES {
        let (a, b): (u32, u32) = (rng.int(), rng.int());
        let cpu = run(&format!(
            "start: move.l #{a}, d1\n move.l #{a}, d2\n move.l #{a}, d3\n \
             and.l #{b}, d1\n or.l #{b}, d2\n eor.l #{b}, d3\n trap #0\n"
        ));
        let got = (cpu.d[1], cpu.d[2], cpu.d[3]);
        assert_eq!(got, (a & b, a | b, a ^ b), "case {case}: a={a} b={b}");
    }
}

#[test]
fn shifts_match() {
    let mut rng = SplitMix64::new(6);
    for case in 0..CASES {
        let (a, n): (u32, u32) = (rng.int(), rng.below(32) as u32);
        let cpu = run(&format!(
            "start: move.l #{a}, d1\n move.l #{a}, d2\n move.l #{a}, d3\n \
             lsl.l #{n}, d1\n lsr.l #{n}, d2\n asr.l #{n}, d3\n trap #0\n"
        ));
        let got = (cpu.d[1], cpu.d[2], cpu.d[3]);
        let want = (a.wrapping_shl(n), a >> n, ((a as i32) >> n) as u32);
        assert_eq!(got, want, "case {case}: a={a} n={n}");
    }
}

#[test]
fn signed_comparisons_agree_with_rust() {
    let mut rng = SplitMix64::new(7);
    for case in 0..CASES {
        let (a, b): (i32, i32) = (rng.int(), rng.int());
        // blt taken iff a < b  (cmp.l #b, d1 compares d1 against b).
        let cpu = run(&format!(
            "start: move.l #{a}, d1\n cmp.l #{b}, d1\n blt yes\n \
             move.l #0, d7\n trap #0\n yes: move.l #1, d7\n trap #0\n"
        ));
        assert_eq!(cpu.d[7] == 1, a < b, "case {case}: a={a} b={b}");
    }
}

#[test]
fn unsigned_comparisons_agree_with_rust() {
    let mut rng = SplitMix64::new(8);
    for case in 0..CASES {
        let (a, b): (u32, u32) = (rng.int(), rng.int());
        // bcs after cmp = borrow = unsigned less-than.
        let cpu = run(&format!(
            "start: move.l #{}, d1\n cmp.l #{}, d1\n bcs yes\n \
             move.l #0, d7\n trap #0\n yes: move.l #1, d7\n trap #0\n",
            a as i32, b as i32
        ));
        assert_eq!(cpu.d[7] == 1, a < b, "case {case}: a={a} b={b}");
    }
}

#[test]
fn memory_round_trip_through_stack() {
    let mut rng = SplitMix64::new(9);
    for case in 0..CASES {
        let v: u32 = rng.int();
        let cpu = run(&format!(
            "start: move.l #{}, -(sp)\n move.l (sp)+, d4\n trap #0\n",
            v as i32
        ));
        assert_eq!(cpu.d[4], v, "case {case}: v={v}");
    }
}

#[test]
fn isa2_bitfield_extract_semantics() {
    // bfextu2 spec = (width << 8) | shift.
    let spec: u32 = (8 << 8) | 4;
    let cpu = run(&format!(
        "start: move.l #0x12345678, d1\n bfextu2 #{spec}, d1\n trap #0\n"
    ));
    assert_eq!(cpu.d[1], (0x1234_5678u32 >> 4) & 0xff);
}

#[test]
fn mac2_multiplies_and_accumulates() {
    let cpu = run("start: move.l #3, d0\n move.l #10, d1\n move.l #5, d2\n \
         mac2 d2, d1\n trap #0\n");
    // d1 += d2 * d0 = 10 + 5*3.
    assert_eq!(cpu.d[1], 25);
}
