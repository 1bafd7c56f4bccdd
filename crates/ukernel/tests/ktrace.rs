//! Blocked→retry and signal-interruption coverage for the kernel entry
//! path, asserted through the `ktrace` ring.
//!
//! The dispatcher parks a blocked call (`pending_syscall`), and every
//! re-issue is a full dispatch attempt: trap charge, stats bump, an
//! `enter retry` trace record. A signal caught while parked aborts the
//! call with `EINTR` (4.2BSD semantics), which surfaces as a `complete
//! err=EINTR` record cut by `complete_pending`. These tests pin both
//! behaviours, and every assertion failure dumps the machine's trace
//! ring so the syscall tail is attached to the report.

use m68vm::{assemble, IsaLevel};
use sysdefs::{Credentials, Errno, Gid, Pid, Signal, Uid};
use ukernel::{KernelConfig, KtraceEvent, KtraceResult, World};

fn alice() -> Credentials {
    Credentials::user(Uid(100), Gid(10))
}

fn world() -> (World, usize) {
    let mut w = World::new(KernelConfig::paper());
    let m = w.add_machine("brick", IsaLevel::Isa1);
    (w, m)
}

/// The dump-on-failure helper: asserts `cond`, attaching the machine's
/// ktrace ring to the panic message so a failing run reports the
/// syscall tail that led up to it.
#[track_caller]
fn assert_traced(w: &World, m: usize, cond: bool, msg: &str) {
    assert!(
        cond,
        "{msg}\n--- ktrace (machine {m}) ---\n{}",
        w.machine(m).ktrace.render(None)
    );
}

/// `run_until_exit` with the same trace dump when the process fails to
/// finish in budget.
fn exit_traced(w: &mut World, m: usize, pid: Pid, slices: u64) -> u32 {
    match w.run_until_exit(m, pid, slices) {
        Some(info) => info.status,
        None => panic!(
            "pid {pid} did not exit\n--- ktrace (machine {m}) ---\n{}",
            w.machine(m).ktrace.render(None)
        ),
    }
}

/// Counts ring records for syscall `name` matching `pred`.
fn count_records(w: &World, m: usize, name: &str, pred: impl Fn(&KtraceEvent) -> bool) -> usize {
    w.machine(m)
        .ktrace
        .records()
        .filter(|r| r.name == name && pred(&r.ev))
        .count()
}

#[test]
fn parked_read_charges_trap_per_dispatch_attempt() {
    let (mut w, m) = world();
    // read(0) into a buffer, then exit(bytes-read).
    let obj = assemble(
        r#"
        start:  move.l  #3, d0      | read(0, buf, 8): parks on the tty
                move.l  #0, d1
                move.l  #buf, d2
                move.l  #8, d3
                trap    #0
                move.l  d0, d1      | exit(bytes read)
                move.l  #1, d0
                trap    #0
                .bss
        buf:    .space  8
        "#,
    )
    .unwrap();
    w.install_program(m, "/bin/reader", &obj).unwrap();
    let (tty, handle) = w.add_terminal(m);
    let pid = w
        .spawn_vm_proc(m, "/bin/reader", Some(tty), alice())
        .unwrap();
    w.run_slices(50_000);

    // Parked: one dispatch attempt so far, ending blocked.
    let first_try = count_records(&w, m, "read", |ev| {
        matches!(ev, KtraceEvent::Enter { retry: false })
    });
    assert_traced(
        &w,
        m,
        first_try == 1,
        "expected exactly one initial read attempt",
    );
    let blocked_charged = w.machine(m).ktrace.records().find_map(|r| match r.ev {
        KtraceEvent::Exit {
            result: KtraceResult::Blocked,
            charged_us,
        } if r.name == "read" => Some(charged_us),
        _ => None,
    });
    assert_traced(
        &w,
        m,
        blocked_charged.is_some_and(|us| us > 0),
        "the blocked attempt must still charge (trap cost at minimum)",
    );
    let agg_parked = w.machine(m).stats.per_syscall["read"];
    assert_eq!(agg_parked.count, 1, "one attempt folded into the aggregate");
    let syscalls_parked = w.machine(m).stats.syscalls;

    // Wake it: the retry is a second full dispatch attempt.
    handle.type_input("hi\n");
    let status = exit_traced(&mut w, m, pid, 100_000);
    assert_eq!(status, 3, "read returns the 3 typed bytes");

    let retries = count_records(&w, m, "read", |ev| {
        matches!(ev, KtraceEvent::Enter { retry: true })
    });
    assert_traced(
        &w,
        m,
        retries == 1,
        "the wakeup re-issues the parked read once",
    );
    let agg = w.machine(m).stats.per_syscall["read"];
    assert_eq!(agg.count, 2, "blocked attempt + retry each charged");
    assert!(agg.total_us >= 2 * blocked_charged.unwrap().min(1));
    // Per-attempt accounting in the machine counter too: the retry and
    // the final exit are the only dispatches after the park.
    assert_eq!(w.machine(m).stats.syscalls, syscalls_parked + 2);
    // The retry completes the parked call: exactly one ok completion.
    let completions = count_records(&w, m, "read", |ev| {
        matches!(
            ev,
            KtraceEvent::Complete {
                result: KtraceResult::Ok(3)
            }
        )
    });
    assert_traced(&w, m, completions == 1, "parked read completes with ok=3");
}

#[test]
fn parked_wait_is_reissued_after_child_exit() {
    let (mut w, m) = world();
    // Parent forks and waits; the child sleeps first so the wait has to
    // park and be re-dispatched when the child finally exits.
    let obj = assemble(
        r#"
        start:  move.l  #2, d0      | fork
                trap    #0
                tst.l   d0
                beq     child
                move.l  #7, d0      | wait: parks (child is asleep)
                move.l  #0, d1
                trap    #0
                move.l  #1, d0      | exit 0
                move.l  #0, d1
                trap    #0
        child:  move.l  #150, d0    | sleep 5000us
                move.l  #5000, d1
                trap    #0
                move.l  #1, d0      | exit 9
                move.l  #9, d1
                trap    #0
        "#,
    )
    .unwrap();
    w.install_program(m, "/bin/waiter", &obj).unwrap();
    let pid = w.spawn_vm_proc(m, "/bin/waiter", None, alice()).unwrap();
    let status = exit_traced(&mut w, m, pid, 500_000);
    assert_eq!(status, 0);

    let first = count_records(&w, m, "wait", |ev| {
        matches!(ev, KtraceEvent::Enter { retry: false })
    });
    let retries = count_records(&w, m, "wait", |ev| {
        matches!(ev, KtraceEvent::Enter { retry: true })
    });
    assert_traced(&w, m, first == 1, "one initial wait attempt");
    assert_traced(&w, m, retries >= 1, "child exit re-issues the parked wait");
    let agg = w.machine(m).stats.per_syscall["wait"];
    assert_eq!(
        agg.count as usize,
        first + retries,
        "every dispatch attempt of wait lands in the aggregate"
    );
    // The child's sleep parked too and completed on timer expiry,
    // outside dispatch.
    let sleep_done = count_records(&w, m, "sleep", |ev| {
        matches!(
            ev,
            KtraceEvent::Complete {
                result: KtraceResult::Ok(_)
            }
        )
    });
    assert_traced(&w, m, sleep_done == 1, "sleep completes via its timer");
}

#[test]
fn signal_while_parked_surfaces_eintr() {
    let (mut w, m) = world();
    // Install a SIGINT handler, then park on a tty read. The signal
    // must abort the read with EINTR (not restart it), run the handler,
    // and return into the mainline with the error visible.
    let obj = assemble(
        r#"
        start:  move.l  #108, d0    | sigvec(SIGINT, handler)
                move.l  #2, d1
                move.l  #handler, d2
                trap    #0
                move.l  #3, d0      | read(0, buf, 8): parks
                move.l  #0, d1
                move.l  #buf, d2
                move.l  #8, d3
                trap    #0
                move.l  d6, d1      | exit(errno the handler saw in d0)
                move.l  #1, d0
                trap    #0
        handler:
                move.l  d0, d6      | the frame restores pc/sr only, so
                move.l  #139, d0    | stash the EINTR before sigreturn
                trap    #0
                .bss
        buf:    .space  8
        "#,
    )
    .unwrap();
    w.install_program(m, "/bin/victim", &obj).unwrap();
    let (tty, _handle) = w.add_terminal(m);
    let victim = w
        .spawn_vm_proc(m, "/bin/victim", Some(tty), alice())
        .unwrap();
    w.run_slices(50_000);
    assert_traced(
        &w,
        m,
        count_records(&w, m, "read", |ev| {
            matches!(
                ev,
                KtraceEvent::Exit {
                    result: KtraceResult::Blocked,
                    ..
                }
            )
        }) == 1,
        "victim parked on the read",
    );

    // Another process interrupts it.
    let killer = w.spawn_native_proc(
        m,
        "killer",
        None,
        Credentials::root(),
        move |sys| async move {
            match sys.kill(victim, Signal::SIGINT).await {
                Ok(()) => 0,
                Err(e) => e.as_u16() as u32,
            }
        },
    );
    assert_eq!(exit_traced(&mut w, m, killer, 100_000), 0, "kill succeeds");

    let status = exit_traced(&mut w, m, victim, 100_000);
    assert_eq!(
        status,
        Errno::EINTR.as_u16() as u32,
        "the aborted read hands EINTR back to the program"
    );
    // The abort happened outside dispatch, cut by complete_pending.
    let eintr = count_records(&w, m, "read", |ev| {
        matches!(
            ev,
            KtraceEvent::Complete {
                result: KtraceResult::Err(Errno::EINTR)
            }
        )
    });
    assert_traced(
        &w,
        m,
        eintr == 1,
        "signal abort cuts a complete err=EINTR record",
    );
    // No retry: an EINTR-aborted call is not re-issued.
    let retries = count_records(&w, m, "read", |ev| {
        matches!(ev, KtraceEvent::Enter { retry: true })
    });
    assert_traced(&w, m, retries == 0, "aborted call must not be retried");
}
