//! The run loop ends only when no machine has work, when the caller's
//! condition holds, or when the slice budget is spent. A slice that
//! wakes nothing does not make the world idle: here one machine's
//! terminal reader, which ignores `SIGALRM`, takes its alarm while a
//! worker on another machine still has sleeps to go.

use m68vm::IsaLevel;
use sysdefs::{Credentials, Disposition, Gid, Pid, Signal, Uid};
use tty::TtyHandle;
use ukernel::{KernelConfig, MachineId, RunOutcome, World};

fn alice() -> Credentials {
    Credentials::user(Uid(100), Gid(10))
}

/// Machine `a` runs a native terminal reader that ignores `SIGALRM`,
/// arms `alarm(1)` and blocks in `read`; machine `b` runs a native
/// worker that sleeps 100 ms ten times and exits 7. Returns the world,
/// the reader's terminal, `b` and the worker's pid.
fn alarm_beside_a_worker() -> (World, TtyHandle, MachineId, Pid) {
    let mut w = World::new(KernelConfig::paper());
    let a = w.add_machine("a", IsaLevel::Isa1);
    let b = w.add_machine("b", IsaLevel::Isa1);
    let (tty, console) = w.add_terminal(a);
    w.spawn_native_proc(a, "reader", Some(tty), alice(), |sys| async move {
        sys.sigvec(Signal::SIGALRM, Disposition::Ignore)
            .await
            .unwrap();
        sys.alarm(1).await.unwrap();
        let _ = sys.read(0, 16).await;
        0
    });
    let worker = w.spawn_native_proc(b, "worker", None, alice(), |sys| async move {
        for _ in 0..10 {
            sys.sleep_us(100_000).await.unwrap();
        }
        7
    });
    (w, console, b, worker)
}

#[test]
fn run_until_exit_runs_past_an_alarm_that_wakes_nothing() {
    let (mut w, _console, b, worker) = alarm_beside_a_worker();
    let info = w.run_until_exit(b, worker, 1_000_000);
    assert_eq!(info.map(|i| i.status), Some(7), "clock {}", w.clock());
}

#[test]
fn run_slices_runs_past_an_alarm_that_wakes_nothing() {
    let (mut w, _console, b, worker) = alarm_beside_a_worker();
    assert_eq!(w.run_slices(1_000_000), RunOutcome::Idle);
    let status = w.finished.get(&(b, worker.as_u32())).map(|i| i.status);
    assert_eq!(status, Some(7), "clock {}", w.clock());
}
