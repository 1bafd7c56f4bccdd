//! The host clock: a VM process the host spawns onto an idle machine is
//! born at the world clock of the host's last run call, not at that
//! machine's own older clock. A busy machine keeps its clock, and
//! spawns made before any run call leave every clock where its own
//! work put it.

use m68vm::{assemble, IsaLevel};
use simtime::{SimDuration, SimTime};
use sysdefs::{Credentials, Gid, Pid, Uid};
use ukernel::{KernelConfig, MachineId, ProcState, World};

fn alice() -> Credentials {
    Credentials::user(Uid(100), Gid(10))
}

/// Spins forever without a system call: every slice is a full quantum.
const SPIN: &str = "start: bra start\n";

/// Naps one simulated second at a time, forever.
const NAPPER: &str = r"
start:  move.l  #150, d0
        move.l  #1000000, d1
        trap    #0
        bra     start
";

/// `n` machines, each with the spinner and the napper installed.
fn world(n: usize) -> World {
    let mut w = World::new(KernelConfig::paper());
    let spin = assemble(SPIN).unwrap();
    let nap = assemble(NAPPER).unwrap();
    for i in 0..n {
        let m = w.add_machine(&format!("node{i}"), IsaLevel::Isa1);
        w.install_program(m, "/bin/spin", &spin).unwrap();
        w.install_program(m, "/bin/nap", &nap).unwrap();
    }
    w
}

fn spawn(w: &mut World, mid: MachineId, path: &str) -> Pid {
    w.spawn_vm_proc(mid, path, None, alice()).unwrap()
}

fn start_time(w: &World, mid: MachineId, pid: Pid) -> SimTime {
    w.proc_ref(mid, pid).expect("process exists").start_time
}

#[test]
fn spawn_on_an_idle_lagging_machine_starts_at_the_host_clock() {
    let mut w = world(2);
    assert_eq!(w.host_clock(), SimTime::BOOT, "no run call yet");
    // node1 spins for five simulated seconds while node0 sits idle.
    spawn(&mut w, 1, "/bin/spin");
    w.run_slices(50);
    let host = w.host_clock();
    assert_eq!(
        host,
        w.clock(),
        "the host clock is the world clock at return"
    );
    let lag = host.since(w.machine(0).now);
    assert!(lag > SimDuration::secs(4), "node0 lags by only {lag}");

    let pid = spawn(&mut w, 0, "/bin/spin");
    assert_eq!(start_time(&w, 0, pid), host);

    // 50 ms past the world clock buys the newcomer that much CPU, plus
    // at most the one quantum the scheduler may overshoot a deadline
    // by — not the seconds node0 had fallen behind.
    w.run_until_time(w.clock() + SimDuration::millis(50), 1_000_000);
    let quantum = SimDuration::micros(w.config.cost.quantum_us);
    let utime = w.proc_ref(0, pid).unwrap().utime;
    assert!(
        utime >= SimDuration::millis(50) && utime <= SimDuration::millis(50) + quantum,
        "the newcomer ran {utime} for a 50 ms span (node0 lagged {lag})"
    );
}

#[test]
fn spawns_before_any_run_call_keep_their_own_exec_charge() {
    let mut w = world(4);
    for m in 0..4 {
        spawn(&mut w, m, "/bin/spin");
    }
    assert_eq!(w.host_clock(), SimTime::BOOT);
    let charge = w.machine(0).now;
    assert!(charge > SimTime::BOOT, "exec charges the machine's clock");
    for m in 1..4 {
        assert_eq!(
            w.machine(m).now,
            charge,
            "node{m} pays its own exec, not the earlier spawns'"
        );
    }
}

#[test]
fn spawn_on_a_runnable_lagging_machine_keeps_its_clock() {
    let mut w = world(2);
    spawn(&mut w, 0, "/bin/spin");
    spawn(&mut w, 1, "/bin/spin");
    // One slice: node0 runs a quantum, node1's spinner waits its turn.
    w.run_slices(1);
    let before = w.machine(1).now;
    assert!(before < w.host_clock(), "node1 lags the host clock");
    let pid = spawn(&mut w, 1, "/bin/spin");
    assert_eq!(start_time(&w, 1, pid), before);
}

#[test]
fn spawn_on_a_machine_with_only_a_live_timer_keeps_its_clock() {
    let mut w = world(2);
    spawn(&mut w, 0, "/bin/spin");
    let napper = spawn(&mut w, 1, "/bin/nap");
    // Step until node1's napper sleeps on an empty run queue while the
    // spinner has carried the host clock past node1's.
    let lagging = (0..100).any(|_| {
        w.run_slices(1);
        let m = w.machine(1);
        m.run_queue.is_empty()
            && matches!(
                w.proc_ref(1, napper).unwrap().state,
                ProcState::Sleeping { .. }
            )
            && m.now < w.host_clock()
    });
    assert!(
        lagging,
        "node1 never idled behind the host clock on a timer"
    );
    let before = w.machine(1).now;
    let pid = spawn(&mut w, 1, "/bin/spin");
    assert_eq!(start_time(&w, 1, pid), before);
}
