//! Wake semantics at cluster scale.
//!
//! The scheduler wakes only poked processes and due timers. Its design
//! invariant is that over-poking is harmless (a false wake condition
//! evaluates to no action) while a *missed* poke stalls a wakeup. In
//! debug builds the wake audit checks that invariant at every pick:
//! it panics the moment a blocked process's wake condition holds
//! without a poke, or the ready index disagrees with the machines that
//! have work. These scenarios give it the most to check, and two runs
//! of each must also produce **bit-identical** snapshots: same wake
//! order, clock charges, ktrace records and terminal transcripts.
//!
//! The scenario is a cluster of 100+ hosts exercising every wait class
//! at once: sleep expiry, a sleep already due when its slice ends,
//! alarm expiry mid-sleep, tty reads woken by typed input / close /
//! SIGINT, pipe readers woken by writes, parents in `wait()`,
//! rsh/run_local remote completions, and a full daemon-scripted
//! migration — plus a faulty variant, since injected faults are
//! simulation events the audit must cover too.
//!
//! Two runs of one binary agreeing cannot catch a scheduler change
//! that moves both runs the same way, so each test also pins its
//! snapshot's FNV-1a digest. A change that moves the trajectory on
//! purpose records the new digests the failing assertion prints.

mod common;

use m68vm::{assemble, IsaLevel};
use sysdefs::{Credentials, Gid, Signal, Uid};
use tty::TtyHandle;
use ukernel::{KernelConfig, World};

fn alice() -> Credentials {
    Credentials::user(Uid(100), Gid(10))
}

/// Number of numbered hosts; the migrate pair (`brick`, `schooner`)
/// rides on top, so the world holds `HOSTS + 2 >= 100` machines.
const HOSTS: usize = 104;

/// pipe() + fork(): the child blocks reading the empty pipe, the parent
/// sleeps, writes four bytes (waking the child), then reaps it.
const PIPE_PING_PROGRAM: &str = r#"
start:  move.l  #42, d0     | pipe()
        trap    #0
        move.l  d0, d5
        and.l   #0xffff, d5 | read end
        move.l  d0, d6
        lsr.l   #16, d6     | write end
        move.l  #2, d0      | fork
        trap    #0
        tst.l   d0
        beq     child
        move.l  #150, d0    | parent: sleep before writing, so the
        move.l  #3000, d1   | child is parked in PipeWait by then
        trap    #0
        move.l  #4, d0      | write 4 bytes: wakes the blocked reader
        move.l  d6, d1
        move.l  #msg, d2
        move.l  #4, d3
        trap    #0
        move.l  #7, d0      | wait() for the child
        move.l  #0, d1
        trap    #0
        move.l  #1, d0      | exit(0)
        move.l  #0, d1
        trap    #0
child:  move.l  #3, d0      | read pipe: blocks until the parent writes
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

/// Two consecutive sleeps, then exit: pure timer-heap wakeups.
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

/// Twenty 50 us sleeps, then exit. Each sleep is shorter than the
/// 100 us timer-setup charge, so its deadline is already due when the
/// slice that armed it ends.
const SHORT_SLEEPER_PROGRAM: &str = r#"
start:  move.l  #20, d7
again:  move.l  #150, d0
        move.l  #50, d1
        trap    #0
        sub.l   #1, d7
        bne     again
        move.l  #1, d0
        move.l  #0, d1
        trap    #0
"#;

/// alarm(1s) then a 2s sleep: SIGALRM fires mid-sleep and terminates
/// the process (default action), exercising the alarm-before-wake
/// ordering of the wake pass.
const ALARM_PROGRAM: &str = r#"
start:  move.l  #27, d0     | alarm(1)
        move.l  #1, d1
        trap    #0
        move.l  #150, d0    | sleep 2s; SIGALRM lands at 1s
        move.l  #2000000, d1
        trap    #0
        move.l  #1, d0      | never reached
        move.l  #0, d1
        trap    #0
"#;

/// Runs the cluster scenario and renders the final world into one
/// canonical string, the snapshot every dual-run test compares.
fn run_scenario(faults: simnet::FaultPlan, require_success: bool) -> String {
    let mut w = World::new(KernelConfig::paper());
    w.faults = faults;

    let hog = assemble(&pmig::workloads::cpu_hog_program(20)).unwrap();
    let pipe_ping = assemble(PIPE_PING_PROGRAM).unwrap();
    let sleeper = assemble(SLEEPER_PROGRAM).unwrap();
    let short_sleeper = assemble(SHORT_SLEEPER_PROGRAM).unwrap();
    let alarmer = assemble(ALARM_PROGRAM).unwrap();
    let testprog = assemble(pmig::workloads::TEST_PROGRAM).unwrap();
    let waiting_parent = assemble(pmig::workloads::WAITING_PARENT_PROGRAM).unwrap();

    let mut consoles: Vec<TtyHandle> = Vec::new();
    // Tty-blocked readers to feed, close, or interrupt later.
    let mut tty_readers = Vec::new();
    let mut interrupt_targets = Vec::new();

    for i in 0..HOSTS {
        let name = format!("h{i:03}");
        let mid = w.add_machine(&name, IsaLevel::Isa1);
        match i % 8 {
            0 => {
                w.install_program(mid, "/bin/hog", &hog).unwrap();
                w.spawn_vm_proc(mid, "/bin/hog", None, alice()).unwrap();
            }
            1 => {
                w.install_program(mid, "/bin/pipeping", &pipe_ping).unwrap();
                w.spawn_vm_proc(mid, "/bin/pipeping", None, alice())
                    .unwrap();
            }
            2 => {
                w.install_program(mid, "/bin/sleeper", &sleeper).unwrap();
                w.spawn_vm_proc(mid, "/bin/sleeper", None, alice()).unwrap();
                w.install_program(mid, "/bin/shortsleep", &short_sleeper)
                    .unwrap();
                w.spawn_vm_proc(mid, "/bin/shortsleep", None, alice())
                    .unwrap();
            }
            3 => {
                w.install_program(mid, "/bin/alarmer", &alarmer).unwrap();
                w.spawn_vm_proc(mid, "/bin/alarmer", None, alice()).unwrap();
            }
            4 => {
                w.install_program(mid, "/bin/testprog", &testprog).unwrap();
                let (tty, console) = w.add_terminal(mid);
                let pid = w
                    .spawn_vm_proc(mid, "/bin/testprog", Some(tty), alice())
                    .unwrap();
                consoles.push(console);
                if i % 16 == 4 {
                    interrupt_targets.push((mid, pid));
                } else {
                    tty_readers.push(consoles.len() - 1);
                }
            }
            5 => {
                w.install_program(mid, "/bin/waiter", &waiting_parent)
                    .unwrap();
                let (tty, console) = w.add_terminal(mid);
                w.spawn_vm_proc(mid, "/bin/waiter", Some(tty), alice())
                    .unwrap();
                consoles.push(console);
                tty_readers.push(consoles.len() - 1);
            }
            6 => {
                // Native worker: a local child, a sleep, then a remote
                // command on the next host — RemoteWait both ways.
                let peer = format!("h{:03}", i + 1);
                w.spawn_native_proc(mid, "worker", None, alice(), move |sys| async move {
                    let _ = sys.sleep_us(1_500).await;
                    let _ = sys
                        .run_local("localchild", |s| async move {
                            let _ = s.compute(500).await;
                            0
                        })
                        .await;
                    sys.rsh(&peer, "remotechild", |s| async move {
                        let _ = s.sleep_us(700).await;
                        7
                    })
                    .await
                    .unwrap_or(111)
                });
            }
            _ => {} // Idle host: exercises ready-index eviction.
        }
    }

    // The Figure-4 migrate pair on top of the numbered hosts.
    let brick = w.add_machine("brick", IsaLevel::Isa1);
    let schooner = w.add_machine("schooner", IsaLevel::Isa1);
    w.install_program(brick, "/bin/testprog", &testprog)
        .unwrap();
    let (vtty, _victim_console) = w.add_terminal(brick);
    let victim = w
        .spawn_vm_proc(brick, "/bin/testprog", Some(vtty), alice())
        .unwrap();

    w.run_slices(60_000);

    // Host-side pokes between runs: typed input, SIGINT, then EOF.
    for &ci in &tty_readers {
        consoles[ci].type_input("ping\n");
    }
    for &(mid, pid) in &interrupt_targets {
        w.host_post_signal(mid, pid, Signal::SIGINT);
    }
    w.run_slices(60_000);
    for &ci in &tty_readers {
        consoles[ci].with(|t| t.close());
    }
    w.run_slices(60_000);

    // The remote-command migrate with the most moving parts, pulled
    // across the cluster while the background workload drains.
    let cmd = w.spawn_native_proc(schooner, "migrate", None, alice(), move |sys| async move {
        match pmig::migrate(&sys, victim, "brick", "schooner", pmig::RemoteRunner::Rsh).await {
            Ok(status) => status,
            Err(e) => e.as_u16() as u32,
        }
    });
    let info = w
        .run_until_exit(schooner, cmd, 30_000_000)
        .expect("migrate command exits");
    if require_success {
        assert_eq!(info.status, 0, "migrate must succeed");
    }
    w.run_slices(400_000);

    common::snapshot_world(&w)
}

/// Checks a snapshot's FNV-1a digest against its pinned value.
fn assert_digest(snapshot: &str, pinned: u64, which: &str) {
    let mut got = common::FNV_OFFSET;
    common::fnv_bytes(&mut got, snapshot.as_bytes());
    assert_eq!(
        got, pinned,
        "the {which} snapshot digest moved: {got:#018x}, pinned {pinned:#018x}"
    );
}

/// The fault-free scenario's snapshot digest.
const CLEAN_DIGEST: u64 = 0xc88e_caa4_a984_0608;

/// The faulty scenario's snapshot digest.
const FAULTY_DIGEST: u64 = 0x4366_0efc_9055_0073;

#[test]
fn cluster_wake_scenario_is_bit_identical_across_runs() {
    let first = run_scenario(simnet::FaultPlan::none(), true);
    assert!(
        first.contains("machine 104 brick") && first.contains("dump"),
        "snapshot looks degenerate:\n{}",
        &first[..first.len().min(4000)]
    );
    let second = run_scenario(simnet::FaultPlan::none(), true);
    assert_eq!(first, second, "two runs diverged at cluster scale");
    assert_digest(&first, CLEAN_DIGEST, "fault-free");
}

#[test]
fn faulty_cluster_wake_scenario_is_bit_identical_across_runs() {
    use simnet::{FaultPlan, FaultSite, FaultSpec};
    let plan = || {
        FaultPlan::seeded(0xFEED)
            .with(FaultSpec::always(FaultSite::MidDumpCrash, 1))
            .with(FaultSpec::always(FaultSite::NfsOp, 2))
    };
    let first = run_scenario(plan(), false);
    assert!(
        first.contains(" fault "),
        "injected faults must appear in the snapshot"
    );
    let second = run_scenario(plan(), false);
    assert_eq!(first, second, "two faulty runs diverged");
    assert_digest(&first, FAULTY_DIGEST, "faulty");
}
