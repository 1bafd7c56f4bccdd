//! The stack limit, end to end.
//!
//! Three guests pin what a process sees at the edges of its stack, each
//! run with superblocks on and off:
//!
//! * one recurses until its last push lands exactly on the limit
//!   (`STACK_TOP - STACK_MAX`): its registers and `stackXXXXX` bytes
//!   are checked, and after a restart on a second machine it resumes
//!   with an identical stack;
//! * one recurses one push past the limit: the push faults with
//!   `StackOverflow` at the pushed address, the kernel delivers it as
//!   `SIGSEGV`, and the core holds the registers at the fault;
//! * one moves `a7` down past pages it never touched: its dump holds
//!   zeros for them;
//! * one catches `SIGINT` with its stack full: the 12-byte signal frame
//!   does not fit, so, as 4.2BSD's `sendsig` does, the kernel resets
//!   `SIGILL` to its default action, unblocks and posts it, and the
//!   process dies with a core.

use aout::core_dump::CoreFile;
use dumpfmt::stack_file::StackFile;
use m68vm::{assemble, Cpu, Fault, ICache, IsaLevel, MemoryLayout, Object, SbExit, StepEvent};
use pmig::api;
use pmig::commands::RestartArgs;
use sysdefs::{Credentials, Gid, Pid, Signal, Uid};
use ukernel::{Body, KernelConfig, MachineId, World};

fn alice() -> Credentials {
    Credentials::user(Uid(100), Gid(10))
}

/// The lowest address a push may write.
const LIMIT: u32 = MemoryLayout::STACK_TOP - MemoryLayout::STACK_MAX;

/// Recursion levels that fill the stack exactly: each pushes a return
/// address and its counter, 8 bytes.
const LEVELS: u32 = MemoryLayout::STACK_MAX / 8;

/// A guest that recurses [`LEVELS`] deep and then runs `bottom`.
fn recursion(bottom: &str) -> String {
    format!(
        r"
start:  move.l  #{LEVELS}, d0
        move.l  #0x5a5a5a5a, d3
        jsr     rec
first:  bra     first
rec:    move.l  d0, -(a7)
        sub.l   #1, d0
        beq     bottom
        jsr     rec
inner:  bra     inner
bottom: {bottom}
spin:   bra     spin
"
    )
}

/// Stops with the stack full: the last push wrote the limit.
fn full_guest() -> String {
    recursion("nop")
}

/// One push more than [`full_guest`]: a `jsr` with the stack full.
fn over_guest() -> String {
    recursion("jsr spin")
}

/// Installs a `SIGINT` handler, then fills the stack exactly as
/// [`full_guest`] does and spins: a `SIGINT` at `spin` has no room for
/// its frame.
fn caught_guest() -> String {
    format!(
        r"
start:  move.l  #108, d0
        move.l  #2, d1
        move.l  #handler, d2
        trap    #0
        move.l  #{LEVELS}, d0
        jsr     rec
first:  bra     first
rec:    move.l  d0, -(a7)
        sub.l   #1, d0
        beq     spin
        jsr     rec
inner:  bra     inner
spin:   bra     spin
handler:
        move.l  #139, d0
        trap    #0
"
    )
}

/// Pushes one long word, then moves `a7` down seven pages with `lea`
/// and `sub.l` without touching them.
const SKIP_GUEST: &str = r"
start:  move.l  #0x11223344, -(a7)
        lea     -0x6000(a7), a7
        sub.l   #0x8000, a7
spin:   bra     spin
";

/// The stack [`full_guest`] holds at `spin`, from the limit up: each
/// level's counter below its return address, deepest level first.
fn full_stack(obj: &Object) -> Vec<u8> {
    let (first, inner) = (obj.symbol("first").unwrap(), obj.symbol("inner").unwrap());
    let mut stack = Vec::with_capacity(MemoryLayout::STACK_MAX as usize);
    for level in (1..=LEVELS).rev() {
        stack.extend((LEVELS - level + 1).to_be_bytes());
        stack.extend(if level == 1 { first } else { inner }.to_be_bytes());
    }
    stack
}

/// The registers at the guest's `spin`, or at its terminal fault, on
/// the slot path and on superblocks; the two must agree.
fn cpu_run(obj: &Object) -> (Cpu, Option<Fault>) {
    let ic = ICache::build(&obj.text, IsaLevel::Isa1);
    let spin = obj.symbol("spin").unwrap();
    let mut slot = (Cpu::at_entry(obj.entry), obj.to_memory());
    let slot_fault = loop {
        if slot.0.pc == spin {
            break None;
        }
        match slot.0.step_cached(&mut slot.1, &ic) {
            StepEvent::Executed { .. } => {}
            StepEvent::Faulted(f) => break Some(f),
            ev => panic!("unexpected {ev:?}"),
        }
    };
    let mut sb = (Cpu::at_entry(obj.entry), obj.to_memory());
    let sb_fault = loop {
        let (_, exit) = sb.0.step_superblock(&mut sb.1, &ic, 1000);
        match exit {
            SbExit::Paused if sb.0.pc == spin => break None,
            SbExit::Paused => {}
            SbExit::Faulted(f) => break Some(f),
            other => panic!("unexpected {other:?}"),
        }
    };
    assert_eq!(slot_fault, sb_fault, "fault: slot path vs superblocks");
    assert_eq!(slot.0, sb.0, "registers: slot path vs superblocks");
    (slot.0, slot_fault)
}

fn boot(use_superblocks: bool) -> (World, MachineId, MachineId) {
    let mut cfg = KernelConfig::paper();
    cfg.use_superblocks = use_superblocks;
    let mut w = World::new(cfg);
    let brick = w.add_machine("brick", IsaLevel::Isa1);
    let schooner = w.add_machine("schooner", IsaLevel::Isa1);
    (w, brick, schooner)
}

/// The live registers of a VM process.
fn regs(w: &World, mid: MachineId, pid: Pid) -> [u32; 18] {
    match w.proc_ref(mid, pid).map(|p| &p.body) {
        Some(Body::Vm(vm)) => vm.cpu.to_regs(),
        _ => panic!("pid {pid:?} is not a live VM process"),
    }
}

/// Runs until the process sits at `spin`.
fn run_to(w: &mut World, mid: MachineId, pid: Pid, spin: u32) {
    for _ in 0..10_000 {
        if regs(w, mid, pid)[16] == spin {
            return;
        }
        w.run_slices(1);
    }
    panic!("the guest never reached spin");
}

/// Dumps the process with `dumpproc` and decodes its `stackXXXXX`.
fn dump(w: &mut World, mid: MachineId, pid: Pid) -> StackFile {
    assert_eq!(api::run_dumpproc(w, mid, pid, alice()), Ok(0));
    let path = dumpfmt::dump_file_names(pid).stack;
    StackFile::decode(&w.host_read_file(mid, &path).unwrap()).unwrap()
}

/// Runs `src` on brick to its `spin`, dumps it, restarts the dump on
/// schooner, lets it run and dumps it again there. Returns the
/// registers at `spin` and both dumps.
fn dump_restart_redump(src: &str, use_superblocks: bool) -> ([u32; 18], StackFile, StackFile) {
    let obj = assemble(src).unwrap();
    let spin = obj.symbol("spin").unwrap();
    let (mut w, brick, schooner) = boot(use_superblocks);
    w.install_program(brick, "/bin/guest", &obj).unwrap();
    let pid = w.spawn_vm_proc(brick, "/bin/guest", None, alice()).unwrap();
    run_to(&mut w, brick, pid, spin);
    let at_spin = regs(&w, brick, pid);
    let first = dump(&mut w, brick, pid);
    let restarted = api::run_restart(
        &mut w,
        schooner,
        RestartArgs {
            pid,
            dump_host: Some("brick".into()),
            demand: false,
        },
        None,
        alice(),
    )
    .unwrap();
    w.run_slices(20);
    assert_eq!(regs(&w, schooner, restarted)[16], spin, "resumes at spin");
    let second = dump(&mut w, schooner, restarted);
    (at_spin, first, second)
}

#[test]
fn recursion_to_the_limit_dumps_and_resumes_with_an_identical_stack() {
    let obj = assemble(&full_guest()).unwrap();
    let (cpu, fault) = cpu_run(&obj);
    assert_eq!(fault, None);
    assert_eq!(cpu.a[7], LIMIT, "the last push wrote the limit");
    assert_eq!(cpu.d[0], 0);
    assert_eq!(cpu.d[3], 0x5a5a_5a5a);
    assert_eq!(cpu.pc, obj.symbol("spin").unwrap());
    let stack = full_stack(&obj);
    assert_eq!(stack.len(), MemoryLayout::STACK_MAX as usize);
    for sb in [true, false] {
        let (at_spin, first, second) = dump_restart_redump(&full_guest(), sb);
        assert_eq!(at_spin, cpu.to_regs(), "superblocks {sb}: registers");
        assert_eq!(first.regs, at_spin, "superblocks {sb}: dumped registers");
        assert!(first.stack == stack, "superblocks {sb}: stackXXXXX bytes");
        assert_eq!(
            second.regs, first.regs,
            "superblocks {sb}: resumed registers"
        );
        assert!(
            second.stack == first.stack,
            "superblocks {sb}: resumed stack"
        );
    }
}

#[test]
fn one_push_past_the_limit_faults_as_sigsegv() {
    let obj = assemble(&over_guest()).unwrap();
    let (cpu, fault) = cpu_run(&obj);
    assert_eq!(fault, Some(Fault::StackOverflow { sp: LIMIT - 4 }));
    assert_eq!(cpu.a[7], LIMIT, "the faulting push leaves a7 alone");
    assert_eq!(cpu.d[0], 0);
    assert_eq!(cpu.pc, obj.symbol("bottom").unwrap(), "pc at the jsr");
    for sb in [true, false] {
        let (mut w, brick, _) = boot(sb);
        w.install_program(brick, "/bin/guest", &obj).unwrap();
        let pid = w.spawn_vm_proc(brick, "/bin/guest", None, alice()).unwrap();
        let exit = w
            .run_until_exit(brick, pid, 10_000)
            .expect("the guest dies");
        assert_eq!(
            exit.status,
            128 + Signal::SIGSEGV.number(),
            "superblocks {sb}"
        );
        let path = format!("{}/core{:05}", sysdefs::limits::DUMP_DIR, pid.as_u32());
        let core = CoreFile::decode(&w.host_read_file(brick, &path).unwrap()).unwrap();
        assert_eq!(
            core.regs,
            cpu.to_regs(),
            "superblocks {sb}: registers at the fault"
        );
        assert!(
            core.stack == full_stack(&obj),
            "superblocks {sb}: stack at the fault"
        );
    }
}

#[test]
fn moving_sp_past_untouched_pages_dumps_zeros() {
    let obj = assemble(SKIP_GUEST).unwrap();
    let (cpu, fault) = cpu_run(&obj);
    assert_eq!(fault, None);
    let depth = 4 + 0x6000 + 0x8000;
    assert_eq!(cpu.a[7], MemoryLayout::STACK_TOP - depth);
    let mut stack = vec![0; depth as usize - 4];
    stack.extend(0x1122_3344_u32.to_be_bytes());
    for sb in [true, false] {
        let (at_spin, first, second) = dump_restart_redump(SKIP_GUEST, sb);
        assert_eq!(at_spin, cpu.to_regs(), "superblocks {sb}: registers");
        assert_eq!(first.regs, at_spin, "superblocks {sb}: dumped registers");
        assert!(
            first.stack == stack,
            "superblocks {sb}: untouched pages dump as zeros"
        );
        assert_eq!(
            second.regs, first.regs,
            "superblocks {sb}: resumed registers"
        );
        assert!(
            second.stack == first.stack,
            "superblocks {sb}: resumed stack"
        );
    }
}

#[test]
fn a_caught_signal_without_room_for_its_frame_kills_with_sigill() {
    let obj = assemble(&caught_guest()).unwrap();
    let spin = obj.symbol("spin").unwrap();
    for sb in [true, false] {
        let (mut w, brick, _) = boot(sb);
        w.install_program(brick, "/bin/guest", &obj).unwrap();
        let pid = w.spawn_vm_proc(brick, "/bin/guest", None, alice()).unwrap();
        run_to(&mut w, brick, pid, spin);
        let at_spin = regs(&w, brick, pid);
        assert_eq!(at_spin[15], LIMIT, "superblocks {sb}: the stack is full");
        w.host_post_signal(brick, pid, Signal::SIGINT);
        let exit = w
            .run_until_exit(brick, pid, 10_000)
            .unwrap_or_else(|| panic!("superblocks {sb}: the process survives its lost frame"));
        assert_eq!(
            exit.status,
            128 + Signal::SIGILL.number(),
            "superblocks {sb}"
        );
        let path = format!("{}/core{:05}", sysdefs::limits::DUMP_DIR, pid.as_u32());
        let core = CoreFile::decode(&w.host_read_file(brick, &path).unwrap()).unwrap();
        assert_eq!(
            core.regs, at_spin,
            "superblocks {sb}: registers at spin, no frame"
        );
    }
}
