//! Regression tests for the PR-7 wake-poke fixes.
//!
//! PR 5's event scheduler shipped with a conservative `enter_run`
//! sweep: every run call poked every blocked process on every machine,
//! papering over any mutation site that lacked its own poke. That
//! sweep is now narrowed to the one genuinely hook-less host channel
//! (terminal handles), and the sites it was hiding — fork, execve
//! overlay, `alarm` — poke explicitly, enforced statically by simlint's
//! `wake-poke` rule; a `sleep`'s deadline reaches the ready index when
//! the scheduler re-keys the machine after the slice. These tests pin the dynamic behavior:
//! each wait class must wake on an otherwise idle machine, where a
//! missing poke stalls the run, while the debug-build wake audit
//! checks every pick on the way.
//!
//! The last test is the snapshot-coverage oracle check: perturbing any
//! of the newly folded fields must change `common::snapshot_world`,
//! proving a divergence in them is no longer invisible to the
//! dual-run tests.

mod common;

use m68vm::{assemble, IsaLevel};
use sysdefs::{Credentials, Gid, Signal, Uid};
use ukernel::{KernelConfig, World};

fn alice() -> Credentials {
    Credentials::user(Uid(100), Gid(10))
}

fn world() -> World {
    World::new(KernelConfig::paper())
}

/// Two sleeps then exit — wakes ride purely on the timer heap and the
/// re-key that follows each slice.
const SLEEPER_PROGRAM: &str = r#"
start:  move.l  #150, d0
        move.l  #2000, d1
        trap    #0
        move.l  #150, d0
        move.l  #2500, d1
        trap    #0
        move.l  #1, d0
        move.l  #0, d1
        trap    #0
"#;

/// alarm(1s) into a 2s sleep: SIGALRM terminates the sleeper at 1s,
/// exercising `sys_alarm`'s timer poke.
const ALARM_PROGRAM: &str = r#"
start:  move.l  #27, d0
        move.l  #1, d1
        trap    #0
        move.l  #150, d0
        move.l  #2000000, d1
        trap    #0
        move.l  #1, d0
        move.l  #0, d1
        trap    #0
"#;

/// pipe() + fork(): the child blocks reading, the parent sleeps then
/// writes — fork's poke (new runnable child) and the pipe write's
/// queue poke both on the line.
const PIPE_PING_PROGRAM: &str = r#"
start:  move.l  #42, d0
        trap    #0
        move.l  d0, d5
        and.l   #0xffff, d5
        move.l  d0, d6
        lsr.l   #16, d6
        move.l  #2, d0
        trap    #0
        tst.l   d0
        beq     child
        move.l  #150, d0
        move.l  #3000, d1
        trap    #0
        move.l  #4, d0
        move.l  d6, d1
        move.l  #msg, d2
        move.l  #4, d3
        trap    #0
        move.l  #7, d0
        move.l  #0, d1
        trap    #0
        move.l  #1, d0
        move.l  #0, d1
        trap    #0
child:  move.l  #3, d0
        move.l  d5, d1
        move.l  #buf, d2
        move.l  #4, d3
        trap    #0
        move.l  #1, d0
        move.l  #0, d1
        trap    #0
        .data
msg:    .byte   'p'
        .byte   'o'
        .byte   'k'
        .byte   'e'
        .bss
buf:    .space  8
"#;

/// Runs `prog` to completion on a single machine and returns the
/// superset snapshot. The machine is otherwise idle, so every wake must
/// come from the poke under test — there is no background slice traffic
/// to mask a stall.
fn run_program(prog: &str) -> String {
    let mut w = world();
    let mid = w.add_machine("host", IsaLevel::Isa1);
    let obj = assemble(prog).unwrap();
    w.install_program(mid, "/bin/prog", &obj).unwrap();
    let pid = w.spawn_vm_proc(mid, "/bin/prog", None, alice()).unwrap();
    let info = w
        .run_until_exit(mid, pid, 30_000_000)
        .expect("program exits — a stall here means a wake-poke went missing");
    assert_eq!(info.status, 0);
    common::snapshot_world(&w)
}

#[test]
fn sleep_wakes_without_the_conservative_sweep() {
    run_program(SLEEPER_PROGRAM);
}

/// 50 us sleeps in a loop: each is shorter than the 100 us timer-setup
/// charge, so its deadline is already due when the slice that armed it
/// ends.
const SHORT_SLEEP_LOOP: &str = r#"
start:  move.l  #150, d0
        move.l  #50, d1
        trap    #0
        bra     start
"#;

#[test]
fn a_sleep_due_when_its_slice_ends_completes_before_the_run_call_returns() {
    // Such a slice leaves its machine queued for a wake pass, and the
    // next pick's drain completes the sleep before the ready index is
    // asked, so the sleep completes even when the run call's deadline
    // stops any further slice.
    let mut w = world();
    let mid = w.add_machine("host", IsaLevel::Isa1);
    let obj = assemble(SHORT_SLEEP_LOOP).unwrap();
    w.install_program(mid, "/bin/prog", &obj).unwrap();
    let pid = w.spawn_vm_proc(mid, "/bin/prog", None, alice()).unwrap();
    let deadline = w.machine(mid).now + simtime::SimDuration::micros(10_000);
    w.run_until_time(deadline, 1_000_000);
    let p = w.proc_ref(mid, pid).unwrap();
    assert!(
        p.state.is_runnable() && p.pending_syscall.is_none(),
        "the due sleep is still parked: {:?}",
        p.state
    );
}

#[test]
fn alarm_fires_without_the_conservative_sweep() {
    let mut w = world();
    let mid = w.add_machine("host", IsaLevel::Isa1);
    let obj = assemble(ALARM_PROGRAM).unwrap();
    w.install_program(mid, "/bin/prog", &obj).unwrap();
    let pid = w.spawn_vm_proc(mid, "/bin/prog", None, alice()).unwrap();
    // SIGALRM's default action kills the sleeper mid-sleep; exit status
    // is therefore nonzero, but the process must *finish*.
    w.run_until_exit(mid, pid, 30_000_000)
        .expect("alarm must fire on an otherwise-idle machine");
}

#[test]
fn fork_and_pipe_wake_without_the_conservative_sweep() {
    let snapshot = run_program(PIPE_PING_PROGRAM);
    assert!(snapshot.contains("fork=1"), "scenario must actually fork");
}

/// Typed terminal input arrives through the `TtyHandle`'s shared
/// `Rc<RefCell<Terminal>>` — the one host mutation the `World` cannot
/// hook. The narrowed `enter_run` covers it by poking registered tty
/// waiters at run entry; this pins that a reader parked across a run
/// boundary still wakes.
#[test]
fn tty_input_between_runs_wakes_the_reader() {
    let mut w = world();
    let mid = w.add_machine("host", IsaLevel::Isa1);
    let obj = assemble(pmig::workloads::TEST_PROGRAM).unwrap();
    w.install_program(mid, "/bin/testprog", &obj).unwrap();
    let (tty, console) = w.add_terminal(mid);
    let pid = w
        .spawn_vm_proc(mid, "/bin/testprog", Some(tty), alice())
        .unwrap();
    // Park the program at its prompt, then type from the host side
    // between run calls, then close for EOF.
    w.run_slices(50_000);
    console.type_input("ping\n");
    w.run_slices(50_000);
    console.with(|t| t.close());
    let info = w
        .run_until_exit(mid, pid, 30_000_000)
        .expect("tty reader must wake on host-typed input");
    assert_eq!(info.status, 0);
}

/// Demand-restore parking: a demand-restarted process whose data pages
/// are absent faults on first touch, parks in the `PageWait` class, and
/// is woken by the kernel's page-fetch completion poke. An otherwise
/// idle pair of machines means every wake rides that poke alone — a
/// missing one stalls the run.
#[test]
fn demand_page_fault_parks_and_wakes_without_the_sweep() {
    let mut w = world();
    let brick = w.add_machine("brick", IsaLevel::Isa1);
    let schooner = w.add_machine("schooner", IsaLevel::Isa1);
    let obj = assemble(&pmig::workloads::dirty_hog_program(50, 4 * 0x2000)).unwrap();
    w.install_program(brick, "/bin/hog", &obj).unwrap();
    let pid = w.spawn_vm_proc(brick, "/bin/hog", None, alice()).unwrap();
    w.run_slices(3);
    let status = pmig::api::run_dumpproc(&mut w, brick, pid, alice()).unwrap();
    assert_eq!(status, 0);
    let new_pid = pmig::api::run_restart(
        &mut w,
        schooner,
        pmig::RestartArgs {
            pid,
            dump_host: Some("brick".into()),
            demand: true,
        },
        None,
        alice(),
    )
    .expect("demand restart");
    let info = w
        .run_until_exit(schooner, new_pid, 60_000_000)
        .expect("the faulting hog must wake from PageWait and finish");
    assert_eq!(info.status, 0);
    assert!(
        w.machine(schooner).stats.pages_fetched > 0,
        "the hog must actually page-fault"
    );
}

/// The snapshot-coverage half of the contract, checked dynamically:
/// perturbing each newly folded field must change the snapshot. Before
/// this PR every one of these edits left the oracle string untouched.
#[test]
fn snapshot_sees_the_newly_folded_fields() {
    let mut w = world();
    let mid = w.add_machine("host", IsaLevel::Isa1);
    let base = common::snapshot_world(&w);

    let mut w2 = world();
    let mid2 = w2.add_machine("host", IsaLevel::Isa1);
    assert_eq!(base, common::snapshot_world(&w2), "identical worlds match");

    w2.ether.frames_sent += 1;
    let after_ether = common::snapshot_world(&w2);
    assert_ne!(base, after_ether, "ether counters now folded");

    w2.machine_mut(mid2).exec_mig_flag = true;
    let after_flag = common::snapshot_world(&w2);
    assert_ne!(after_ether, after_flag, "exec_mig_flag now folded");

    w2.machine_mut(mid2).pipes.push(Some(Default::default()));
    let after_pipe = common::snapshot_world(&w2);
    assert_ne!(after_flag, after_pipe, "pipe slots now folded");

    w2.machine_mut(mid2).run_queue.push_back(sysdefs::Pid(99));
    let after_rq = common::snapshot_world(&w2);
    assert_ne!(after_pipe, after_rq, "run queue now folded");

    let _ = mid;
}

/// A fresh scan of `/usr/tmp` for dump artifacts, returning the pids
/// they belong to. A name's pid is written `{pid:05}`: five digits, or
/// more without a leading zero.
fn scan_dump_pids(w: &World, mid: usize) -> Vec<u32> {
    let m = w.machine(mid);
    let names = m.fs.readdir(m.dump_dir).expect("dump dir readable");
    let mut pids: Vec<u32> = names
        .iter()
        .filter_map(|n| {
            let s = ["a.out", "files", "stack", "delta"]
                .iter()
                .find_map(|p| n.strip_prefix(p))?;
            let width_ok = s.len() == 5 || (s.len() > 5 && !s.starts_with('0'));
            if width_ok && s.bytes().all(|b| b.is_ascii_digit()) {
                s.parse().ok()
            } else {
                None
            }
        })
        .collect();
    pids.sort_unstable();
    pids.dedup();
    pids
}

/// A dump leaves the victim's triple in `/usr/tmp`, and
/// `host_reap_orphan_dumps` sweeps exactly that triple, leaving nothing
/// for a second sweep.
#[test]
fn the_reaper_sweeps_exactly_the_dumped_triple() {
    let mut w = world();
    let mid = w.add_machine("host", IsaLevel::Isa1);
    let obj = assemble(SLEEPER_PROGRAM).unwrap();
    w.install_program(mid, "/bin/prog", &obj).unwrap();
    let victim = w.spawn_vm_proc(mid, "/bin/prog", None, alice()).unwrap();
    assert!(scan_dump_pids(&w, mid).is_empty());

    let dumper = w.spawn_native_proc(mid, "dumpproc", None, alice(), move |sys| async move {
        match pmig::commands::dumpproc(&sys, victim).await {
            Ok(()) => 0,
            Err(e) => e.as_u16() as u32,
        }
    });
    let info = w
        .run_until_exit(mid, dumper, 10_000_000)
        .expect("dumpproc exits");
    assert_eq!(info.status, 0, "dumpproc failed");
    assert_eq!(scan_dump_pids(&w, mid), vec![victim.as_u32()]);

    let reaped = w.host_reap_orphan_dumps(mid);
    assert_eq!(
        reaped,
        vec![
            format!("a.out{:05}", victim.as_u32()),
            format!("files{:05}", victim.as_u32()),
            format!("stack{:05}", victim.as_u32()),
        ]
    );
    assert!(scan_dump_pids(&w, mid).is_empty());
    assert!(w.host_reap_orphan_dumps(mid).is_empty());
}

/// Dump names widen with the pid (`a.out{pid:05}`), so a machine that
/// has handed out 100,000 pids writes `a.out100002`. The reaper must
/// take that name for an artifact too, or it never sweeps the triple.
#[test]
fn the_reaper_sweeps_dumps_of_pids_past_99999() {
    let mut w = world();
    let mid = w.add_machine("host", IsaLevel::Isa1);
    let obj = assemble(SLEEPER_PROGRAM).unwrap();
    w.install_program(mid, "/bin/prog", &obj).unwrap();
    while w.machine(mid).next_pid() < 100_002 {
        w.machine_mut(mid).alloc_pid();
    }
    let victim = w.spawn_vm_proc(mid, "/bin/prog", None, alice()).unwrap();
    assert_eq!(victim.as_u32(), 100_002);
    w.host_post_signal(mid, victim, Signal::SIGDUMP);
    w.run_until_exit(mid, victim, 1_000_000)
        .expect("SIGDUMP ends the victim");
    assert_eq!(scan_dump_pids(&w, mid), vec![100_002]);
    assert_eq!(
        w.host_reap_orphan_dumps(mid),
        vec!["a.out100002", "files100002", "stack100002"]
    );
    assert!(w.host_read_file(mid, "/usr/tmp/a.out100002").is_err());
    assert!(scan_dump_pids(&w, mid).is_empty());
}

/// A guest's creat(2) of an artifact-shaped name in `/usr/tmp` is swept
/// by the reaper, and once the guest unlink(2)s a second such file the
/// reaper finds nothing.
#[test]
fn the_reaper_sweeps_a_guest_creat_and_nothing_after_its_unlink() {
    const CREAT_PROGRAM: &str = r#"
start:  move.l  #8, d0
        move.l  #fname, d1
        move.l  #384, d2
        trap    #0
        move.l  #1, d0
        move.l  #0, d1
        trap    #0
        .data
fname:  .asciz  "/usr/tmp/stack00042"
"#;
    const UNLINK_PROGRAM: &str = r#"
start:  move.l  #10, d0
        move.l  #fname, d1
        trap    #0
        move.l  #1, d0
        move.l  #0, d1
        trap    #0
        .data
fname:  .asciz  "/usr/tmp/stack00042"
"#;
    let mut w = world();
    let mid = w.add_machine("host", IsaLevel::Isa1);
    let c = assemble(CREAT_PROGRAM).unwrap();
    w.install_program(mid, "/bin/c", &c).unwrap();
    let u = assemble(UNLINK_PROGRAM).unwrap();
    w.install_program(mid, "/bin/u", &u).unwrap();

    let p = w.spawn_vm_proc(mid, "/bin/c", None, alice()).unwrap();
    let info = w.run_until_exit(mid, p, 1_000_000).expect("creat exits");
    assert_eq!(info.status, 0);
    assert_eq!(scan_dump_pids(&w, mid), vec![42]);
    assert_eq!(w.host_reap_orphan_dumps(mid), vec!["stack00042"]);
    assert!(scan_dump_pids(&w, mid).is_empty());

    let p = w.spawn_vm_proc(mid, "/bin/c", None, alice()).unwrap();
    let info = w.run_until_exit(mid, p, 1_000_000).expect("creat exits");
    assert_eq!(info.status, 0);
    assert_eq!(scan_dump_pids(&w, mid), vec![42]);
    let p = w.spawn_vm_proc(mid, "/bin/u", None, alice()).unwrap();
    let info = w.run_until_exit(mid, p, 1_000_000).expect("unlink exits");
    assert_eq!(info.status, 0);
    assert!(scan_dump_pids(&w, mid).is_empty());
    assert!(w.host_reap_orphan_dumps(mid).is_empty());
}

/// A name `link(2)` makes in `/usr/tmp` is a directory entry like any
/// other: the reaper sweeps it, and the file keeps its first name.
#[test]
fn the_reaper_sweeps_an_artifact_name_made_by_link() {
    let mut w = world();
    let mid = w.add_machine("host", IsaLevel::Isa1);
    let linker = w.spawn_native_proc(mid, "linker", None, alice(), |sys| async move {
        let made = async {
            let fd = sys.creat("/tmp/image", 0o644).await?;
            sys.write(fd, b"not a dump").await?;
            sys.close(fd).await?;
            sys.link("/tmp/image", "/usr/tmp/a.out00042").await
        };
        match made.await {
            Ok(()) => 0,
            Err(e) => e.as_u16() as u32,
        }
    });
    let info = w
        .run_until_exit(mid, linker, 1_000_000)
        .expect("the linker exits");
    assert_eq!(info.status, 0, "creat, write or link failed");
    assert_eq!(scan_dump_pids(&w, mid), vec![42]);
    assert_eq!(w.host_reap_orphan_dumps(mid), vec!["a.out00042"]);
    assert!(scan_dump_pids(&w, mid).is_empty());
    assert_eq!(
        w.host_read_file(mid, "/tmp/image")
            .expect("first name kept")[..],
        b"not a dump"[..]
    );
}
