//! The wake audit has teeth: each test plants, from the host side, a
//! state change that flips a wait condition (or a deadline, or the
//! ready index's view of a machine) without the poke or enrolment the
//! kernel's own mutation sites perform. The next pick must panic with a
//! message naming the machine, pid, wait state and condition. The audit
//! is compiled only into debug builds, so these tests are ignored
//! without `debug_assertions`.

use m68vm::{assemble, IsaLevel};
use simtime::{SimDuration, SimTime};
use sysdefs::{Credentials, Gid, Pid, Signal, Uid};
use ukernel::{ExitInfo, KernelConfig, ProcState, World};

fn alice() -> Credentials {
    Credentials::user(Uid(100), Gid(10))
}

/// pipe() + fork(): the child (pid 3) blocks reading the empty pipe,
/// whose write ends both processes keep open, and the parent (pid 2)
/// blocks in `wait()` for it. The world then goes idle for good.
const PARKED_PAIR: &str = r#"
start:  move.l  #42, d0     | pipe()
        trap    #0
        move.l  d0, d5
        and.l   #0xffff, d5 | read end
        move.l  #2, d0      | fork
        trap    #0
        tst.l   d0
        beq     child
        move.l  #7, d0      | parent: wait()
        move.l  #0, d1
        trap    #0
        move.l  #1, d0
        move.l  #0, d1
        trap    #0
child:  move.l  #3, d0      | child: read the empty pipe
        move.l  d5, d1
        move.l  #buf, d2
        move.l  #4, d3
        trap    #0
        move.l  #1, d0
        move.l  #0, d1
        trap    #0
        .bss
buf:    .space  4
"#;

const PARENT: Pid = Pid(2);
const CHILD: Pid = Pid(3);

/// Boots one machine and runs [`PARKED_PAIR`] until the world is idle
/// with the parent in `ChildWait` and the child in `PipeWait`.
fn parked_pair() -> (World, usize) {
    let mut w = World::new(KernelConfig::paper());
    let mid = w.add_machine("host", IsaLevel::Isa1);
    let obj = assemble(PARKED_PAIR).unwrap();
    w.install_program(mid, "/bin/pair", &obj).unwrap();
    let pid = w.spawn_vm_proc(mid, "/bin/pair", None, alice()).unwrap();
    assert_eq!(pid, PARENT);
    assert_eq!(w.run_slices(10_000), ukernel::RunOutcome::Idle);
    assert_eq!(w.proc_ref(mid, PARENT).unwrap().state, ProcState::ChildWait);
    assert_eq!(w.proc_ref(mid, CHILD).unwrap().state, ProcState::PipeWait);
    (w, mid)
}

#[test]
#[cfg_attr(not(debug_assertions), ignore)]
#[should_panic(
    expected = "wake audit: machine 0 (host) pid 2 in ChildWait: a child exit or reap holds"
)]
fn child_removed_without_host_reap_is_caught() {
    let (mut w, mid) = parked_pair();
    w.machine_mut(mid).procs.remove(&CHILD.as_u32());
    w.run_slices(1);
}

#[test]
#[cfg_attr(not(debug_assertions), ignore)]
#[should_panic(
    expected = "wake audit: machine 0 (host) pid 2 in ChildWait: a deliverable signal holds"
)]
fn signal_posted_to_a_waiting_parent_without_a_poke_is_caught() {
    let (mut w, mid) = parked_pair();
    w.proc_mut(mid, PARENT)
        .unwrap()
        .post_signal(Signal::SIGTERM);
    w.run_slices(1);
}

#[test]
#[cfg_attr(not(debug_assertions), ignore)]
#[should_panic(
    expected = "wake audit: machine 0 (host) pid 3 in PipeWait: a deliverable signal holds"
)]
fn signal_posted_to_a_pipe_reader_without_a_poke_is_caught() {
    let (mut w, mid) = parked_pair();
    w.proc_mut(mid, CHILD).unwrap().post_signal(Signal::SIGTERM);
    w.run_slices(1);
}

#[test]
#[cfg_attr(not(debug_assertions), ignore)]
#[should_panic(
    expected = "wake audit: machine 0 (host) pid 3 in PipeWait: pipe or socket readiness holds"
)]
fn pipe_bytes_appended_without_wakeup_are_caught() {
    let (mut w, mid) = parked_pair();
    let pipe = w.machine_mut(mid).pipes[0].as_mut().unwrap();
    pipe.data.extend(*b"late");
    w.run_slices(1);
}

#[test]
#[cfg_attr(not(debug_assertions), ignore)]
#[should_panic(expected = "wake audit: machine 0 (host) pid 3 in Sleeping { until: ")]
fn sleep_without_a_timer_entry_is_caught() {
    let (mut w, mid) = parked_pair();
    let until = w.machine(mid).now + SimDuration::secs(1);
    w.proc_mut(mid, CHILD).unwrap().state = ProcState::Sleeping { until };
    w.run_slices(1);
}

#[test]
#[cfg_attr(not(debug_assertions), ignore)]
#[should_panic(
    expected = "wake audit: machine 0 (host) has work (run queue [Pid(3)]) but is missing from the ready index"
)]
fn run_queue_push_without_enrolment_is_caught() {
    let (mut w, mid) = parked_pair();
    let m = w.machine_mut(mid);
    m.proc_mut(CHILD).unwrap().state = ProcState::Runnable;
    m.run_queue.push_back(CHILD);
    w.run_slices(1);
}

#[test]
#[cfg_attr(not(debug_assertions), ignore)]
#[should_panic(expected = "in RemoteWait { server: 0, pid: Pid(3) }: remote completion holds")]
fn remote_exit_recorded_without_a_poke_is_caught() {
    let mut w = World::new(KernelConfig::paper());
    let mid = w.add_machine("host", IsaLevel::Isa1);
    let (tty, _console) = w.add_terminal(mid);
    // The local child blocks reading the terminal nobody types on; its
    // caller parks in RemoteWait on it.
    let caller = w.spawn_native_proc(mid, "caller", Some(tty), alice(), |sys| async move {
        sys.run_local("reader", |s| async move {
            let _ = s.read(0, 16).await;
            0
        })
        .await
        .unwrap_or(1)
    });
    assert_eq!(w.run_slices(10_000), ukernel::RunOutcome::Idle);
    let state = w.proc_ref(mid, caller).unwrap().state.clone();
    let ProcState::RemoteWait { server, pid } = state else {
        panic!("caller should be in RemoteWait, is {state:?}");
    };
    w.finished.insert(
        (server, pid.as_u32()),
        ExitInfo {
            status: 0,
            utime: SimDuration::ZERO,
            stime: SimDuration::ZERO,
            started: SimTime::BOOT,
            ended: SimTime::BOOT,
        },
    );
    w.run_slices(1);
}
