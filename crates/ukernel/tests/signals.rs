//! Signal-handling tests: VM handlers, `sigreturn`, EINTR semantics,
//! masks, stop/continue, and the dump/restore of dispositions that
//! `stackXXXXX` carries.

use m68vm::{assemble, IsaLevel};
use sysdefs::{Credentials, Disposition, Gid, Pid, Signal, Uid};
use ukernel::{KernelConfig, World};

fn alice() -> Credentials {
    Credentials::user(Uid(100), Gid(10))
}

fn world() -> (World, usize) {
    let mut w = World::new(KernelConfig::paper());
    let m = w.add_machine("brick", IsaLevel::Isa1);
    (w, m)
}

/// A program that catches SIGUSR1 in a handler which increments a
/// counter, then prints the count each time its terminal read is
/// interrupted or satisfied.
const HANDLER_PROGRAM: &str = r#"
start:  move.l  #108, d0            | sigvec(SIGUSR1=30, handler)
        move.l  #30, d1
        move.l  #onusr1, d2
        trap    #0
loop:   move.l  #3, d0              | read the terminal (blocks)
        move.l  #0, d1
        move.l  #buf, d2
        move.l  #32, d3
        trap    #0
        bcs     poked               | EINTR: a signal interrupted us
        tst.l   d0
        beq     out                 | EOF
        bra     loop
poked:  move.l  hits, d4            | print '0'+hits
        add.l   #'0', d4
        move.b  d4, digit
        move.l  #4, d0
        move.l  #1, d1
        move.l  #digit, d2
        move.l  #2, d3
        trap    #0
        bra     loop
out:    move.l  #1, d0
        move.l  hits, d1            | exit status = handler hits
        trap    #0

| SIGUSR1 handler: count the hit, then sigreturn.
onusr1: add.l   #1, hits
        move.l  #139, d0            | sigreturn
        trap    #0
        | (not reached)

        .data
hits:   .long   0
digit:  .byte   '0'
        .byte   '\n'
        .bss
buf:    .space  32
"#;

#[test]
fn vm_handler_runs_and_sigreturn_resumes() {
    let (mut w, m) = world();
    let obj = assemble(HANDLER_PROGRAM).unwrap();
    w.install_program(m, "/bin/handler", &obj).unwrap();
    let (tty, console) = w.add_terminal(m);
    let pid = w
        .spawn_vm_proc(m, "/bin/handler", Some(tty), alice())
        .unwrap();
    w.run_slices(20_000); // Blocked in read.

    // Poke it twice: each SIGUSR1 aborts the read with EINTR, runs the
    // handler, and the main loop prints the running count.
    w.host_post_signal(m, pid, Signal::SIGUSR1);
    w.run_slices(20_000);
    w.host_post_signal(m, pid, Signal::SIGUSR1);
    w.run_slices(20_000);
    let out = console.output_text();
    assert!(
        out.contains('1') && out.contains('2'),
        "handler counted: {out:?}"
    );

    // Ordinary input still works after handlers.
    console.type_input("hello\n");
    w.run_slices(20_000);
    console.with(|t| t.close());
    let info = w.run_until_exit(m, pid, 50_000).expect("clean exit");
    assert_eq!(info.status, 2, "two handler hits");
}

#[test]
fn handler_survives_migration_via_stack_file() {
    // The §4.3 stackXXXXX contents include "which functions are handling
    // those signals that are caught" — after rest_proc the handler
    // address must still work (the text segment is identical).
    let (mut w, m) = world();
    let obj = assemble(HANDLER_PROGRAM).unwrap();
    w.install_program(m, "/bin/handler", &obj).unwrap();
    let (tty, _console) = w.add_terminal(m);
    let pid = w
        .spawn_vm_proc(m, "/bin/handler", Some(tty), alice())
        .unwrap();
    w.run_slices(20_000);
    // One hit before migration.
    w.host_post_signal(m, pid, Signal::SIGUSR1);
    w.run_slices(20_000);

    let status = pmig::api::run_dumpproc(&mut w, m, pid, alice()).unwrap();
    assert_eq!(status, 0);
    // The dumped dispositions record the handler.
    let names = dumpfmt::dump_file_names(pid);
    let stack = dumpfmt::StackFile::decode(&w.host_read_file(m, &names.stack).unwrap()).unwrap();
    match stack.sigs.dispositions[(Signal::SIGUSR1.number() - 1) as usize] {
        Disposition::Handler(addr) => assert!(addr >= m68vm::MemoryLayout::TEXT_BASE),
        other => panic!("handler disposition not dumped: {other:?}"),
    }

    let (tty2, console2) = w.add_terminal(m);
    let new_pid = pmig::api::run_restart(
        &mut w,
        m,
        pmig::commands::RestartArgs {
            pid,
            dump_host: None,
            demand: false,
        },
        Some(tty2),
        alice(),
    )
    .expect("restart");
    w.run_slices(50_000);
    // Poke the restored process: the handler must still fire.
    w.host_post_signal(m, new_pid, Signal::SIGUSR1);
    w.run_slices(50_000);
    console2.with(|t| t.close());
    let info = w.run_until_exit(m, new_pid, 100_000).expect("exits");
    assert_eq!(info.status, 2, "one hit before + one after migration");
}

#[test]
fn ignored_signals_survive_migration() {
    // Disposition::Ignore is also part of the dumped signal state.
    let (mut w, m) = world();
    let obj = assemble(
        r#"
        start:  move.l  #108, d0    | sigvec(SIGTERM=15, ignore)
                move.l  #15, d1
                move.l  #1, d2
                trap    #0
        loop:   move.l  #3, d0      | block on the terminal
                move.l  #0, d1
                move.l  #buf, d2
                move.l  #16, d3
                trap    #0
                bcs     loop
                tst.l   d0
                bne     loop
                move.l  #1, d0
                move.l  #0, d1
                trap    #0
                .bss
        buf:    .space  16
        "#,
    )
    .unwrap();
    w.install_program(m, "/bin/stoic", &obj).unwrap();
    let (tty, _c) = w.add_terminal(m);
    let pid = w
        .spawn_vm_proc(m, "/bin/stoic", Some(tty), alice())
        .unwrap();
    w.run_slices(20_000);
    // SIGTERM is shrugged off before migration...
    w.host_post_signal(m, pid, Signal::SIGTERM);
    w.run_slices(20_000);
    assert!(w.proc_ref(m, pid).is_some(), "ignored before migration");

    let status = pmig::api::run_dumpproc(&mut w, m, pid, alice()).unwrap();
    assert_eq!(status, 0);
    let (tty2, console2) = w.add_terminal(m);
    let new_pid = pmig::api::run_restart(
        &mut w,
        m,
        pmig::commands::RestartArgs {
            pid,
            dump_host: None,
            demand: false,
        },
        Some(tty2),
        alice(),
    )
    .expect("restart");
    w.run_slices(50_000);
    // ...and after.
    w.host_post_signal(m, new_pid, Signal::SIGTERM);
    w.run_slices(50_000);
    assert!(
        w.proc_ref(m, new_pid).is_some(),
        "still ignored after migration"
    );
    console2.with(|t| t.close());
    let info = w.run_until_exit(m, new_pid, 100_000).expect("EOF exit");
    assert_eq!(info.status, 0);
}

#[test]
fn stop_and_continue() {
    let (mut w, m) = world();
    let obj = assemble(&pmig::workloads::cpu_hog_program(50)).unwrap();
    w.install_program(m, "/bin/hog", &obj).unwrap();
    let pid = w.spawn_vm_proc(m, "/bin/hog", None, alice()).unwrap();
    w.run_slices(10);
    w.host_post_signal(m, pid, Signal::SIGSTOP);
    w.run_slices(100);
    assert!(matches!(
        w.proc_ref(m, pid).unwrap().state,
        ukernel::ProcState::Stopped
    ));
    let clock_before = w.machine(m).now;
    w.run_slices(1_000);
    // A stopped machine with no other work is idle: no progress burned.
    assert_eq!(w.machine(m).now, clock_before);
    w.host_post_signal(m, pid, Signal::SIGCONT);
    let info = w.run_until_exit(m, pid, 50_000_000).expect("finishes");
    assert_eq!(info.status, 0);
}

#[test]
fn sigkill_cannot_be_caught() {
    let (mut w, m) = world();
    // A program that tries to catch and ignore SIGKILL.
    let obj = assemble(
        r#"
        start:  move.l  #108, d0    | sigvec(SIGKILL=9, ignore) -> EINVAL
                move.l  #9, d1
                move.l  #1, d2
                trap    #0
                bcs     good
                move.l  #1, d0      | exit(1): kernel let us!
                move.l  #1, d1
                trap    #0
        good:   bra     good        | spin until killed
        "#,
    )
    .unwrap();
    w.install_program(m, "/bin/immortal", &obj).unwrap();
    let pid = w.spawn_vm_proc(m, "/bin/immortal", None, alice()).unwrap();
    w.run_slices(50);
    w.host_post_signal(m, pid, Signal::SIGKILL);
    let info = w.run_until_exit(m, pid, 10_000).expect("killed");
    assert_eq!(info.status, 128 + Signal::SIGKILL.number());
}

#[test]
fn fault_signals_map_correctly() {
    let (mut w, m) = world();
    for (src, sig) in [
        ("start: move.l 0, d0\n", Signal::SIGSEGV),
        ("start: move.l #0, d1\n divs.l d1, d2\n", Signal::SIGFPE),
        (
            "start: move.l #1, 0x1000\n", // Text base: write to text.
            Signal::SIGBUS,
        ),
        ("start: extb2 d0\n", Signal::SIGILL), // ISA-2 op on ISA-1 CPU.
    ] {
        let obj = assemble(src).unwrap();
        // Force the object to load on the ISA-1 machine even when it
        // contains ISA-2 instructions, to exercise the runtime fault:
        // encode with the baseline machine id.
        let file =
            aout::encode_executable(&obj.text, &obj.data, obj.bss_len, obj.entry, IsaLevel::Isa1);
        w.host_write_file(m, "/bin/faulty", &file).unwrap();
        let pid = w.spawn_vm_proc(m, "/bin/faulty", None, alice()).unwrap();
        let info = w.run_until_exit(m, pid, 10_000).expect("faults and dies");
        assert_eq!(info.status, 128 + sig.number(), "wrong signal for {src:?}");
    }
}

#[test]
fn unknown_trap_vector_dies_of_sigsys_with_a_core() {
    const BAD_TRAP: &str = r#"
start:  move.l  #7, d2
        trap    #1
after:  move.l  #1, d0              | exit(0): never reached
        move.l  #0, d1
        trap    #0
"#;
    let obj = assemble(BAD_TRAP).unwrap();
    // Every tier of the quantum loop: superblocks, the cached slot
    // loop and the live decoder.
    for (use_icache, use_superblocks) in [(true, true), (true, false), (false, false)] {
        let tier = format!("icache {use_icache}, superblocks {use_superblocks}");
        let mut w = World::new(KernelConfig {
            use_icache,
            use_superblocks,
            ..KernelConfig::paper()
        });
        let m = w.add_machine("brick", IsaLevel::Isa1);
        w.install_program(m, "/bin/badtrap", &obj).unwrap();
        let pid = w.spawn_vm_proc(m, "/bin/badtrap", None, alice()).unwrap();
        let info = w.run_until_exit(m, pid, 10_000).expect("trap #1 kills");
        assert_eq!(info.status, 128 + Signal::SIGSYS.number(), "{tier}");
        let core = w
            .host_read_file(m, &format!("/usr/tmp/core{:05}", pid.as_u32()))
            .unwrap_or_else(|e| panic!("{tier}: no core file: {e:?}"));
        let core = aout::CoreFile::decode(&core).expect("a well-formed core");
        assert_eq!(core.regs[2], 7, "{tier}: d2 as the guest left it");
        assert_eq!(
            core.regs[16], obj.symbols["after"],
            "{tier}: pc past the trap"
        );
    }
}

#[test]
fn sigpipe_on_write_to_closed_pipe() {
    let (mut w, m) = world();
    let obj = assemble(
        r#"
        start:  move.l  #42, d0     | pipe()
                trap    #0
                move.l  d0, d5
                and.l   #0xffff, d5 | read end
                move.l  d0, d6
                lsr.l   #16, d6     | write end
                move.l  #6, d0      | close the read end
                move.l  d5, d1
                trap    #0
                move.l  #4, d0      | write -> EPIPE + SIGPIPE
                move.l  d6, d1
                move.l  #msg, d2
                move.l  #4, d3
                trap    #0
                bra     start       | not reached: SIGPIPE kills us
                .data
        msg:    .ascii  "data"
        "#,
    )
    .unwrap();
    w.install_program(m, "/bin/pipewriter", &obj).unwrap();
    let pid = w
        .spawn_vm_proc(m, "/bin/pipewriter", None, alice())
        .unwrap();
    let info = w.run_until_exit(m, pid, 10_000).expect("dies of SIGPIPE");
    assert_eq!(info.status, 128 + Signal::SIGPIPE.number());
}

#[test]
fn pending_signal_mask_survives_dump() {
    // The blocked mask travels in the stack file too.
    let (mut w, m) = world();
    let obj = assemble(HANDLER_PROGRAM).unwrap();
    w.install_program(m, "/bin/handler", &obj).unwrap();
    let (tty, _c) = w.add_terminal(m);
    let pid = w
        .spawn_vm_proc(m, "/bin/handler", Some(tty), alice())
        .unwrap();
    w.run_slices(20_000);
    // Block SIGUSR2 by hand (as a sigsetmask would).
    w.proc_mut(m, pid).unwrap().user.sigs.blocked = 1 << (Signal::SIGUSR2.number() - 1);
    let status = pmig::api::run_dumpproc(&mut w, m, pid, alice()).unwrap();
    assert_eq!(status, 0);
    let names = dumpfmt::dump_file_names(pid);
    let stack = dumpfmt::StackFile::decode(&w.host_read_file(m, &names.stack).unwrap()).unwrap();
    assert_eq!(
        stack.sigs.blocked,
        1 << (Signal::SIGUSR2.number() - 1),
        "blocked mask dumped"
    );
    let _ = Pid(0);
}

#[test]
fn alarm_posts_sigalrm_and_interrupts_sleep() {
    let (mut w, m) = world();
    // A program that arms a 2-second alarm with a handler, then sleeps
    // 10 seconds; the alarm handler lets it exit early with status 7.
    let obj = assemble(
        r#"
        start:  move.l  #108, d0    | sigvec(SIGALRM=14, handler)
                move.l  #14, d1
                move.l  #onalrm, d2
                trap    #0
                move.l  #27, d0     | alarm(2)
                move.l  #2, d1
                trap    #0
                move.l  #150, d0    | sleep(10s)
                move.l  #10000000, d1
                trap    #0
                bcs     early       | EINTR from the alarm
                move.l  #1, d0      | slept the whole way: status 1
                move.l  #1, d1
                trap    #0
        early:  tst.l   rang
                beq     bad
                move.l  #1, d0      | exit(7): handler ran + sleep cut
                move.l  #7, d1
                trap    #0
        bad:    move.l  #1, d0
                move.l  #2, d1
                trap    #0
        onalrm: move.l  #1, rang
                move.l  #139, d0    | sigreturn
                trap    #0
                .data
        rang:   .long   0
        "#,
    )
    .unwrap();
    w.install_program(m, "/bin/alarming", &obj).unwrap();
    let pid = w.spawn_vm_proc(m, "/bin/alarming", None, alice()).unwrap();
    let t0 = w.machine(m).now;
    let info = w.run_until_exit(m, pid, 1_000_000).expect("exits");
    assert_eq!(info.status, 7, "alarm handler ran and sleep was cut short");
    let elapsed = w.machine(m).now.since(t0);
    assert!(
        elapsed >= simtime::SimDuration::secs(2) && elapsed < simtime::SimDuration::secs(5),
        "woke at the alarm, not the sleep: {elapsed}"
    );
}

#[test]
fn a_zombie_keeps_no_alarm() {
    let (mut w, m) = world();
    let (tty, _console) = w.add_terminal(m);
    // The child arms a 60-second alarm and exits; the parent blocks on
    // its terminal and never waits, so the child stays a zombie.
    let obj = assemble(
        r#"
        start:  move.l  #2, d0      | fork
                trap    #0
                tst.l   d0
                beq     child
                move.l  #3, d0      | parent: read the terminal, for good
                move.l  #0, d1
                move.l  #buf, d2
                move.l  #16, d3
                trap    #0
                move.l  #1, d0
                move.l  #0, d1
                trap    #0
        child:  move.l  #27, d0     | alarm(60)
                move.l  #60, d1
                trap    #0
                move.l  #1, d0      | exit(0)
                move.l  #0, d1
                trap    #0
                .bss
        buf:    .space  16
        "#,
    )
    .unwrap();
    w.install_program(m, "/bin/orphaner", &obj).unwrap();
    let parent = w
        .spawn_vm_proc(m, "/bin/orphaner", Some(tty), alice())
        .unwrap();
    assert_eq!(w.run_slices(10_000), ukernel::RunOutcome::Idle);
    let child = Pid(parent.as_u32() + 1);
    let zombie = w.proc_ref(m, child).expect("the child is not reaped");
    assert_eq!(zombie.state, ukernel::ProcState::Zombie { status: 0 });
    assert_eq!(zombie.alarm_at, None, "exit cancels the alarm");
    assert_eq!(zombie.sig_pending, 0, "no SIGALRM for the dead");
    assert!(
        w.clock().since(simtime::SimTime::BOOT) < simtime::SimDuration::secs(1),
        "no clock jump to the alarm: {}",
        w.clock()
    );
}

#[test]
fn sigsetmask_defers_delivery() {
    let (mut w, m) = world();
    let obj = assemble(
        r#"
        start:  move.l  #108, d0    | sigvec(SIGUSR1=30, handler)
                move.l  #30, d1
                move.l  #onusr, d2
                trap    #0
                move.l  #110, d0    | sigsetmask(block SIGUSR1)
                move.l  #0x20000000, d1
                trap    #0
                move.l  #150, d0    | sleep 3s while the signal arrives
                move.l  #3000000, d1
                trap    #0
                tst.l   hits
                bne     bad         | delivered while blocked!
                move.l  #110, d0    | unblock: delivery happens now
                move.l  #0, d1
                trap    #0
                move.l  #150, d0    | give the kernel a beat
                move.l  #1000, d1
                trap    #0
                move.l  #1, d0
                move.l  hits, d1    | exit status = hits (want 1)
                trap    #0
        bad:    move.l  #1, d0
                move.l  #9, d1
                trap    #0
        onusr:  add.l   #1, hits
                move.l  #139, d0
                trap    #0
                .data
        hits:   .long   0
        "#,
    )
    .unwrap();
    w.install_program(m, "/bin/masker", &obj).unwrap();
    let pid = w.spawn_vm_proc(m, "/bin/masker", None, alice()).unwrap();
    // Step until the process is parked in its first sleep, so the
    // signal demonstrably arrives while SIGUSR1 is blocked.
    for _ in 0..10_000 {
        if matches!(
            w.proc_ref(m, pid).map(|p| &p.state),
            Some(ukernel::ProcState::Sleeping { .. })
        ) {
            break;
        }
        w.run_slices(1);
    }
    assert!(matches!(
        w.proc_ref(m, pid).unwrap().state,
        ukernel::ProcState::Sleeping { .. }
    ));
    w.host_post_signal(m, pid, Signal::SIGUSR1);
    let info = w.run_until_exit(m, pid, 1_000_000).expect("exits");
    assert_eq!(info.status, 1, "delivered exactly once, after unblocking");
}
