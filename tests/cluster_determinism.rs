//! The dual-run determinism contract on an eight-host cluster.
//!
//! `tests/determinism.rs` runs the Figure-4 migrate twice on three
//! machines. This scenario widens the same check to every kind of
//! cross-machine traffic at once, run twice in one process with fault
//! injection off *and* on (the dump/NFS sites plus demand-restore page
//! fetches): both runs must end in bit-identical worlds.
//!
//! The scenario mixes every cross-machine path the kernel has:
//!   - tickers on every host: plain VM sleep/wake traffic;
//!   - a remote writer and a remote open/close reader: VM syscalls
//!     that hit a *foreign* filesystem over the NFS mount
//!     (creat/write/unlink on `/n/h0/...`);
//!   - the Figure-4 migrate thread: a tty-blocked test program pulled
//!     between hosts by a native `migrate` command (rsh daemons,
//!     SIGDUMP, NFS dump traffic);
//!   - a dump + demand-restore pair: the restored process fetches its
//!     residual pages from the dump host on first touch, so the
//!     `PageFetch` fault site actually fires under the faulty plan.
//!
//! Everything is driven by `run_until_time` deadlines, which park every
//! machine clock at the same instant, so later spawns happen at fixed
//! simulated times.

mod common;

use m68vm::{assemble, IsaLevel};
use simtime::{SimDuration, SimTime};
use sysdefs::{Credentials, Gid, Uid};
use ukernel::{KernelConfig, RunOutcome, World};

const HOSTS: usize = 8;

fn alice() -> Credentials {
    Credentials::user(Uid(100), Gid(10))
}

/// A sleep-loop ticker that outlives the scenario: background
/// scheduling work on every host, with no filesystem traffic.
fn ticker_program(beats: u32) -> String {
    format!(
        r#"
start:  move.l  #{beats}, d7
beat:   move.l  #150, d0            | sleep(2000us)
        move.l  #2000, d1
        trap    #0
        sub.l   #1, d7
        bgt     beat
        move.l  #1, d0
        move.l  #0, d1
        trap    #0
"#
    )
}

/// Creats a file on a *foreign* host, appends to it `n` times with a
/// sleep between writes, then unlinks it: every call mutates the
/// server's filesystem.
fn remote_writer_program(path: &str, n: u32) -> String {
    format!(
        r#"
start:  move.l  #8, d0              | creat(path, 0644)
        move.l  #fname, d1
        move.l  #420, d2
        trap    #0
        bcs     fail
        move.l  d0, d7
        move.l  #{n}, d6
wr:     move.l  #4, d0              | write(fd, msg, msglen)
        move.l  d7, d1
        move.l  #msg, d2
        move.l  #msglen, d3
        trap    #0
        bcs     fail
        move.l  #150, d0            | sleep(700us)
        move.l  #700, d1
        trap    #0
        sub.l   #1, d6
        bgt     wr
        move.l  #6, d0              | close(fd)
        move.l  d7, d1
        trap    #0
        move.l  #10, d0             | unlink(path)
        move.l  #fname, d1
        trap    #0
        move.l  #1, d0              | exit(0)
        move.l  #0, d1
        trap    #0
fail:   move.l  #1, d0              | exit(2)
        move.l  #2, d1
        trap    #0
        .data
fname:  .asciz  "{path}"
msg:    .ascii  "seam\n"
        .equ    msglen, 5
"#
    )
}

/// Open/close loop against a foreign path: every open resolves through
/// the client's `/n` mount and reads the server's directories.
fn remote_openclose_program(path: &str, n: u32) -> String {
    format!(
        r#"
start:  move.l  #{n}, d6
loop:   move.l  #5, d0              | open(path, RDONLY)
        move.l  #fname, d1
        move.l  #0, d2
        trap    #0
        bcs     fail
        move.l  d0, d1              | close(fd)
        move.l  #6, d0
        trap    #0
        move.l  #150, d0            | sleep(900us)
        move.l  #900, d1
        trap    #0
        sub.l   #1, d6
        bgt     loop
        move.l  #1, d0              | exit(0)
        move.l  #0, d1
        trap    #0
fail:   move.l  #1, d0              | exit(1)
        move.l  #1, d1
        trap    #0
        .data
fname:  .asciz  "{path}"
"#
    )
}

/// Runs the cluster scenario and renders the final world into the
/// canonical snapshot. `require_success` is on for fault-free runs
/// only: under injected faults the migrate may legitimately end with
/// the process back at the source.
fn run_cluster(faults: simnet::FaultPlan, require_success: bool) -> String {
    let mut w = World::new(KernelConfig::paper());
    w.faults = faults;
    for i in 0..HOSTS {
        w.add_machine(&format!("h{i}"), IsaLevel::Isa1);
    }

    // Background load on every host.
    let tick = assemble(&ticker_program(5_000)).unwrap();
    for i in 0..HOSTS {
        w.install_program(i, "/bin/tick", &tick).unwrap();
        w.spawn_vm_proc(i, "/bin/tick", None, alice()).unwrap();
    }

    // NFS traffic into h0's filesystem from h1 and h2.
    let writer = assemble(&remote_writer_program("/n/h0/tmp/rw", 24)).unwrap();
    w.install_program(1, "/bin/rwrite", &writer).unwrap();
    w.spawn_vm_proc(1, "/bin/rwrite", None, alice()).unwrap();
    let reader = assemble(&remote_openclose_program("/n/h0/bin/tick", 30)).unwrap();
    w.install_program(2, "/bin/ropen", &reader).unwrap();
    w.spawn_vm_proc(2, "/bin/ropen", None, alice()).unwrap();

    // The Figure-4 migrate thread: test program at its prompt on h6.
    let testprog = assemble(pmig::workloads::TEST_PROGRAM).unwrap();
    w.install_program(6, "/bin/testprog", &testprog).unwrap();
    let (tty, _handle) = w.add_terminal(6);
    let victim = w
        .spawn_vm_proc(6, "/bin/testprog", Some(tty), alice())
        .unwrap();

    // The demand-restore pair: a dirty hog on h4 whose dump h5 will
    // restore with `-d`, fetching residual pages over the wire.
    let hog = assemble(&pmig::workloads::dirty_hog_program(200_000, 10 * 0x2000)).unwrap();
    w.install_program(4, "/bin/hog", &hog).unwrap();
    let hog_pid = w.spawn_vm_proc(4, "/bin/hog", None, alice()).unwrap();

    // Let everything reach steady state (the test program blocks at
    // its prompt, the hog dirties its pages, the NFS traffic flows).
    let budget = 50_000_000;
    assert_eq!(
        w.run_until_time(SimTime::BOOT + SimDuration::millis(100), budget),
        RunOutcome::Idle,
        "phase 1 must drain within budget"
    );

    // Kick off the migrate (h6 -> h7, driven from h7) and the dump.
    let cmd = w.spawn_native_proc(7, "migrate", None, alice(), move |sys| async move {
        match pmig::migrate(&sys, victim, "h6", "h7", pmig::RemoteRunner::Rsh).await {
            Ok(status) => status,
            Err(e) => e.as_u16() as u32,
        }
    });
    let dumper = w.spawn_native_proc(4, "dumpproc", None, alice(), move |sys| async move {
        match pmig::commands::dumpproc(&sys, hog_pid).await {
            Ok(()) => 0,
            Err(e) => e.as_u16() as u32,
        }
    });
    assert_eq!(
        w.run_until_time(SimTime::BOOT + SimDuration::millis(500), budget),
        RunOutcome::Idle,
        "phase 2 must drain within budget"
    );

    // Demand-restore the hog on h5 from h4's dump files.
    let restarter = w.spawn_native_proc(5, "restart", None, alice(), move |sys| async move {
        let args = pmig::commands::RestartArgs {
            pid: hog_pid,
            dump_host: Some("h4".to_string()),
            demand: true,
        };
        pmig::commands::restart(&sys, &args).await.as_u16() as u32
    });
    // The rsh-driven migrate takes ~11.6s of simulated time (daemon
    // connect phases and dump/restart backoffs), so the final deadline
    // sits well past it.
    assert_eq!(
        w.run_until_time(SimTime::BOOT + SimDuration::secs(14), budget),
        RunOutcome::Idle,
        "phase 3 must drain within budget"
    );

    if require_success {
        let info = w
            .finished
            .get(&(7, cmd.0))
            .expect("migrate command finishes before the final deadline");
        assert_eq!(info.status, 0, "migrate must succeed in the fault-free run");
        let info = w
            .finished
            .get(&(4, dumper.0))
            .expect("dumpproc finishes before the final deadline");
        assert_eq!(
            info.status, 0,
            "dumpproc must succeed in the fault-free run"
        );
        // The restarter never *returns* on success — it became the
        // restored hog — so success is it not having exited with an
        // errno status.
        assert!(
            !w.finished.contains_key(&(5, restarter.0)),
            "restart must not fail in the fault-free run"
        );
        assert!(
            w.machine(5).stats.pages_fetched > 0,
            "the demand-restored hog must actually fetch residual pages"
        );
    }

    common::snapshot_world(&w)
}

/// The faulty plan: the PR-4 dump/NFS sites plus the demand-restore
/// page-fetch site, all on one seed. The dump crash is scoped to the
/// migrate thread's source host so the h4 dump survives and the demand
/// restore still runs far enough for `PageFetch` to be eligible.
fn faulty_plan() -> simnet::FaultPlan {
    use simnet::{FaultPlan, FaultSite, FaultSpec};
    FaultPlan::seeded(0xDECAF)
        .with(FaultSpec {
            machine: Some(6),
            ..FaultSpec::always(FaultSite::MidDumpCrash, 1)
        })
        .with(FaultSpec::always(FaultSite::NfsOp, 2))
        .with(FaultSpec::always(FaultSite::PageFetch, 1))
}

#[test]
fn cluster_scenario_is_bit_identical_across_runs() {
    let first = run_cluster(simnet::FaultPlan::none(), true);
    assert!(
        first.contains("machine 0 h0") && first.contains("machine 7 h7"),
        "snapshot looks degenerate:\n{first}"
    );
    let second = run_cluster(simnet::FaultPlan::none(), true);
    assert_eq!(first, second, "two identical cluster runs diverged");
}

#[test]
fn faulty_cluster_scenario_is_bit_identical_across_runs() {
    let first = run_cluster(faulty_plan(), false);
    // The bounded ktrace ring has long since evicted the fault records
    // by the 14s deadline; the per-machine `faults=` counters in the
    // stats rows prove the plan actually fired.
    let injected: u64 = first
        .lines()
        .filter_map(|l| l.split("faults=").nth(1))
        .filter_map(|rest| rest.split_whitespace().next())
        .filter_map(|n| n.parse::<u64>().ok())
        .sum();
    assert!(
        injected > 0,
        "injected faults must show in the stats counters:\n{first}"
    );
    let second = run_cluster(faulty_plan(), false);
    assert_eq!(
        first, second,
        "two cluster runs with the same fault seed diverged"
    );
}
