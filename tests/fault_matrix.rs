//! The failure-atomicity contract under corruption and injected faults.
//!
//! The invariant (ISSUE 5, after Milanés et al.): a migration, however
//! it fails, must leave **exactly one** live copy of the process —
//! source or target, never neither, never both — and must not strand
//! dump files in `/usr/tmp`.
//!
//! Three angles:
//! * a corruption matrix for `restart` — every way a dump file can lie
//!   (bad magic, truncated body, fd-count/stack-length mismatch, torn
//!   write from an injected mid-dump crash) fails cleanly with the
//!   right errno and leaves no process or descriptor residue;
//! * the orphan-dump reaper sweeps exactly the `a.outXXXXX` /
//!   `filesXXXXX` / `stackXXXXX` triples and nothing else;
//! * the full soak matrix (every injection site × a remote-remote
//!   `migrate`) holds the one-live-copy / zero-dumps invariant.

use m68vm::{assemble, IsaLevel};
use simnet::{FaultPlan, FaultSite, FaultSpec};
use simtime::SimDuration;
use sysdefs::{Credentials, Errno, Gid, Pid, Uid};
use ukernel::{KernelConfig, World};

fn alice() -> Credentials {
    Credentials::user(Uid(100), Gid(10))
}

/// One machine with the §6.2 test program stopped at its first prompt.
fn world_with_victim() -> (World, usize, Pid) {
    let mut w = World::new(KernelConfig::paper());
    let m = w.add_machine("brick", IsaLevel::Isa1);
    let obj = assemble(pmig::workloads::TEST_PROGRAM).unwrap();
    w.install_program(m, "/bin/testprog", &obj).unwrap();
    let (tty, _handle) = w.add_terminal(m);
    let victim = w
        .spawn_vm_proc(m, "/bin/testprog", Some(tty), alice())
        .unwrap();
    w.run_slices(50_000);
    (w, m, victim)
}

/// [`world_with_victim`] plus a completed `dumpproc`, so the three dump
/// files sit in `/usr/tmp` ready to be corrupted.
fn dumped_world() -> (World, usize, Pid) {
    let (mut w, m, victim) = world_with_victim();
    let status = pmig::api::run_dumpproc(&mut w, m, victim, alice()).unwrap();
    assert_eq!(status, 0, "clean dumpproc must succeed");
    (w, m, victim)
}

/// Applies `corrupt` to the dump files, runs `restart`, and checks it
/// fails with exactly `want` — leaving no half-restarted process behind
/// and the dump files still in place for a later recovery attempt.
fn restart_must_fail(
    corrupt: impl FnOnce(&mut World, usize, &dumpfmt::DumpFileNames),
    want: Errno,
) {
    let (mut w, m, victim) = dumped_world();
    let names = dumpfmt::dump_file_names(victim);
    corrupt(&mut w, m, &names);
    let err = pmig::api::run_restart(
        &mut w,
        m,
        pmig::RestartArgs {
            pid: victim,
            dump_host: None,
            demand: false,
        },
        None,
        alice(),
    )
    .expect_err("restart of corrupt dumps must fail");
    match err {
        pmig::MigrationError::Failed(status) => {
            assert_eq!(
                status,
                want.as_u16() as u32,
                "wrong errno for this corruption"
            );
        }
        other => panic!("unexpected failure mode: {other}"),
    }
    assert!(
        w.machine(m)
            .procs
            .values()
            .all(|p| p.comm != "restart" && !p.comm.starts_with("a.out")),
        "a failed restart must leave no process residue"
    );
    // restart never deletes dumps — that is migrate's job, and only
    // after it has settled where the live copy is.
    assert!(w.host_read_file(m, &names.a_out).is_ok());
    assert!(w.host_read_file(m, &names.files).is_ok());
    assert!(w.host_read_file(m, &names.stack).is_ok());
}

fn patch(w: &mut World, m: usize, path: &str, f: impl FnOnce(Vec<u8>) -> Vec<u8>) {
    let bytes = w.host_read_file(m, path).unwrap().to_vec();
    w.host_write_file(m, path, f(bytes)).unwrap();
}

#[test]
fn restart_rejects_bad_aout_magic() {
    restart_must_fail(
        |w, m, names| {
            patch(w, m, &names.a_out, |mut b| {
                b[0] ^= 0xff;
                b
            })
        },
        Errno::ENOEXEC,
    );
}

#[test]
fn restart_rejects_truncated_aout_body() {
    // The header survives, the text/data segments do not: restart's own
    // magic check passes and rest_proc's full parse catches the tear.
    restart_must_fail(
        |w, m, names| {
            patch(w, m, &names.a_out, |mut b| {
                b.truncate(40);
                b
            })
        },
        Errno::ENOEXEC,
    );
}

#[test]
fn restart_rejects_bad_files_magic() {
    restart_must_fail(
        |w, m, names| {
            patch(w, m, &names.files, |mut b| {
                b[1] ^= 0xff;
                b
            })
        },
        Errno::EINVAL,
    );
}

#[test]
fn restart_rejects_truncated_files_body() {
    restart_must_fail(
        |w, m, names| {
            patch(w, m, &names.files, |mut b| {
                b.truncate(b.len() - 3);
                b
            })
        },
        Errno::EINVAL,
    );
}

#[test]
fn restart_rejects_fd_count_mismatch() {
    // Inflate the on-wire fd count past the records actually present;
    // the decoder must read it as a truncation, not index off the end.
    restart_must_fail(
        |w, m, names| {
            patch(w, m, &names.files, |mut b| {
                let host_len = u16::from_be_bytes([b[2], b[3]]) as usize;
                let cwd_off = 4 + host_len;
                let cwd_len = u16::from_be_bytes([b[cwd_off], b[cwd_off + 1]]) as usize;
                let count_off = cwd_off + 2 + cwd_len;
                let count = u16::from_be_bytes([b[count_off], b[count_off + 1]]);
                b[count_off..count_off + 2].copy_from_slice(&(count + 5).to_be_bytes());
                b
            })
        },
        Errno::EINVAL,
    );
}

#[test]
fn restart_rejects_bad_stack_magic() {
    restart_must_fail(
        |w, m, names| {
            patch(w, m, &names.stack, |mut b| {
                b[1] ^= 0xff;
                b
            })
        },
        Errno::EINVAL,
    );
}

#[test]
fn restart_rejects_stack_length_mismatch() {
    // The credentials header is intact, so restart's user-level peek
    // passes; the kernel's full decode inside rest_proc must flag the
    // inflated stack length as a truncated file.
    restart_must_fail(
        |w, m, names| {
            patch(w, m, &names.stack, |mut b| {
                let len_off = 2 + 16;
                let len = u32::from_be_bytes([
                    b[len_off],
                    b[len_off + 1],
                    b[len_off + 2],
                    b[len_off + 3],
                ]);
                b[len_off..len_off + 4].copy_from_slice(&(len + 100).to_be_bytes());
                b
            })
        },
        Errno::ENOEXEC,
    );
}

#[test]
fn torn_write_from_injected_mid_dump_crash_fails_cleanly() {
    let (mut w, m, victim) = world_with_victim();
    w.faults = FaultPlan::seeded(7).with(FaultSpec::always(FaultSite::MidDumpCrash, 1));
    let status = pmig::api::run_dumpproc(&mut w, m, victim, alice()).unwrap();
    // The injected crash tears one of the three files mid-write. Which
    // one decides what dumpproc sees (a missing file, a corrupt table,
    // or — when the stack tore — nothing at all); every branch must
    // fail cleanly downstream.
    if status != 0 {
        assert!(
            w.proc_ref(m, victim).is_some(),
            "the kernel must not kill a process it could not save"
        );
    }
    let r = pmig::api::run_restart(
        &mut w,
        m,
        pmig::RestartArgs {
            pid: victim,
            dump_host: None,
            demand: false,
        },
        None,
        alice(),
    );
    match r {
        Err(pmig::MigrationError::Failed(s)) => assert_ne!(s, 0),
        Err(other) => panic!("unexpected failure mode: {other}"),
        Ok(pid) => panic!("restart of a torn dump must not succeed (got pid {pid})"),
    }
    assert!(
        w.machine(m)
            .procs
            .values()
            .all(|p| !p.comm.starts_with("a.out")),
        "no half-restarted residue"
    );
    // The reaper clears whatever the tear left behind; a second sweep
    // finds nothing.
    w.host_reap_orphan_dumps(m);
    assert!(w.host_reap_orphan_dumps(m).is_empty());
}

#[test]
fn dumpproc_times_out_when_dump_never_appears() {
    let (mut w, m, victim) = world_with_victim();
    // Every dump attempt dies of ENOSPC, so a.outXXXXX never appears;
    // the poll must give up on its simtime deadline instead of spinning
    // on ENOENT forever.
    w.faults = FaultPlan::seeded(1).with(FaultSpec::always(FaultSite::DumpEnospc, u32::MAX));
    let status = pmig::api::run_dumpproc(&mut w, m, victim, alice()).unwrap();
    assert_eq!(status, Errno::ETIMEDOUT.as_u16() as u32);
    assert!(w.proc_ref(m, victim).is_some(), "victim keeps running");
    // The ENOSPC path unlinks its own partial files.
    assert!(w.host_reap_orphan_dumps(m).is_empty());
}

#[test]
fn reaper_sweeps_only_orphan_dump_files() {
    let mut w = World::new(KernelConfig::paper());
    let m = w.add_machine("brick", IsaLevel::Isa1);
    w.host_write_file(m, "/usr/tmp/a.out00042", b"torn")
        .unwrap();
    w.host_write_file(m, "/usr/tmp/files00042", b"torn")
        .unwrap();
    w.host_write_file(m, "/usr/tmp/stack00042", b"").unwrap();
    w.host_write_file(m, "/usr/tmp/a.out-not-a-dump", b"keep")
        .unwrap();
    w.host_write_file(m, "/usr/tmp/notes.txt", b"keep").unwrap();
    let reaped = w.host_reap_orphan_dumps(m);
    assert_eq!(reaped, vec!["a.out00042", "files00042", "stack00042"]);
    assert!(w.host_read_file(m, "/usr/tmp/notes.txt").is_ok());
    assert!(w.host_read_file(m, "/usr/tmp/a.out-not-a-dump").is_ok());
    assert!(w.host_read_file(m, "/usr/tmp/a.out00042").is_err());
    assert!(w.host_reap_orphan_dumps(m).is_empty());
}

#[test]
fn loadbal_survives_target_down() {
    // Three machines, CPU hogs piled on node0, and a daemon transport
    // that never comes back: every balancing migration fails, yet every
    // job must still run to completion at the source and nothing may be
    // stranded in /usr/tmp.
    let mut w = World::new(KernelConfig::paper());
    let a = w.add_machine("node0", IsaLevel::Isa1);
    let _ = w.add_machine("node1", IsaLevel::Isa1);
    let _ = w.add_machine("node2", IsaLevel::Isa1);
    let obj = assemble(&pmig::workloads::cpu_hog_program(60)).unwrap();
    w.install_program(a, "/bin/hog", &obj).unwrap();
    let mut pids = Vec::new();
    for _ in 0..4 {
        pids.push(w.spawn_vm_proc(a, "/bin/hog", None, alice()).unwrap());
    }
    w.faults = FaultPlan::seeded(3).with(FaultSpec::always(FaultSite::Rsh, u32::MAX));
    let mut engine = apps::PolicyEngine::new(apps::LoadGradient {
        min_age: SimDuration::millis(100),
        imbalance_threshold: 2,
    });
    let all_done = |w: &World| {
        (0..w.machine_count()).all(|m| {
            !w.machine(m)
                .procs
                .values()
                .any(|p| p.comm.contains("hog") || p.comm.starts_with("a.out"))
        })
    };
    engine.run(&mut w, 300_000, 200, all_done);
    assert!(
        engine.records.is_empty(),
        "no migration can succeed with the transport down"
    );
    assert!(engine.failures >= 1, "the failed-transport path never ran");
    for pid in pids {
        let info = w
            .finished
            .get(&(a, pid.as_u32()))
            .expect("every hog finishes at the source");
        assert_eq!(info.status, 0);
    }
    for m in 0..w.machine_count() {
        assert!(w.host_reap_orphan_dumps(m).is_empty());
    }
}

/// The protocol-engine half of the soak: every live-migration protocol
/// against every injection site it can meet — NFS drops, a failed
/// daemon dispatch, a mid-dump crash, dump ENOSPC, and dropped demand
/// page fetches, once below and once at the kernel's three-strike
/// limit — is 3 × 6 = 18 cases.
/// However a case lands (migrated, aborted, recovered), the invariant
/// is the same: exactly one live copy, zero stranded dumps.
#[test]
fn protocol_matrix_preserves_failure_atomicity() {
    use pmig::proto::{migrate_proto, Protocol};

    let sites: [(&str, FaultSite, u32); 6] = [
        ("nfs", FaultSite::NfsOp, 3),
        // Daemon dispatch fires the rsh site in `connect_remote`.
        ("daemon", FaultSite::Rsh, 1),
        ("middump", FaultSite::MidDumpCrash, 1),
        ("enospc", FaultSite::DumpEnospc, 1),
        ("page-fetch", FaultSite::PageFetch, 2),
        // Three consecutive drops: the kernel kills the demand-restored
        // copy, and the engine must bring the process back from the
        // source dump.
        ("page-fetch-kill", FaultSite::PageFetch, 3),
    ];
    for proto in Protocol::ALL {
        for (label, site, budget) in sites {
            let case = format!("{}/{}", proto.name(), label);
            let mut w = World::new(KernelConfig::paper());
            let brick = w.add_machine("brick", IsaLevel::Isa1);
            let schooner = w.add_machine("schooner", IsaLevel::Isa1);
            // Long enough that the victim cannot finish by itself even
            // under the injected timeouts and the engine's backoffs.
            let obj = assemble(&pmig::workloads::dirty_hog_program(6_000, 10 * 0x2000)).unwrap();
            w.install_program(brick, "/bin/hog", &obj).unwrap();
            let victim = w.spawn_vm_proc(brick, "/bin/hog", None, alice()).unwrap();
            w.run_slices(10);
            w.faults = FaultPlan::seeded(0xD1CE).with(FaultSpec::always(site, budget));

            let report = migrate_proto(&mut w, victim, brick, schooner, proto, alice())
                .unwrap_or_else(|e| panic!("{case}: engine wedged: {e}"));
            assert_ne!(
                report.survivor,
                pmig::Survivor::Lost,
                "{case}: process lost ({report:?})"
            );
            // Page fetches only happen under demand-restore, and only
            // eager's `migrate` reaches another machine through the
            // daemon: pre-copy and demand run each step on the machine
            // that holds its files. Every other protocol must sail past
            // an armed fault it cannot meet.
            let injected: u64 = (0..w.machine_count())
                .map(|m| w.machine(m).stats.faults_injected)
                .sum();
            let meets = match site {
                FaultSite::PageFetch => proto == Protocol::Demand,
                FaultSite::Rsh => proto == Protocol::Eager,
                _ => true,
            };
            if meets {
                assert!(injected >= 1, "{case}: the fault never fired");
            }
            if proto == Protocol::Demand && budget >= 3 && site == FaultSite::PageFetch {
                let killed = &w.machine(schooner).residual_kills;
                assert_eq!(
                    killed.len(),
                    1,
                    "{case}: the kernel's third strike never came"
                );
                let copy = *killed.iter().next().unwrap();
                let status = w.finished.get(&(schooner, copy)).map(|i| i.status);
                assert_eq!(
                    status,
                    Some(137),
                    "{case}: the target copy must die by SIGKILL"
                );
                assert_eq!(
                    report.survivor,
                    pmig::Survivor::Source,
                    "{case}: {report:?}"
                );
            }

            assert_one_copy_no_dumps(&mut w, [brick, schooner], victim, &case, &report);
        }
    }
}

/// The failure-atomicity invariant after a protocol run moving `victim`
/// off `machines[0]`: exactly one live copy, no dump files anywhere.
fn assert_one_copy_no_dumps(
    w: &mut World,
    machines: [usize; 2],
    victim: Pid,
    case: &str,
    report: &pmig::proto::MigrationReport,
) {
    // `find_restarted` matches only what `rest_proc()` overlaid as
    // `a.outXXXXX`, which the original never is — so the original and a
    // restored incarnation can't double-count, even when pid numbers
    // collide across machines.
    let src = machines[0];
    let src_alive = w
        .proc_ref(src, victim)
        .is_some_and(|p| !p.comm.starts_with("a.out"))
        && !w.finished.contains_key(&(src, victim.as_u32()));
    let mut live = src_alive as usize;
    for m in machines {
        if let Some(p) = pmig::find_restarted(w, m, victim) {
            if w.proc_ref(m, p).is_some() && !w.finished.contains_key(&(m, p.as_u32())) {
                live += 1;
            }
        }
    }
    assert_eq!(live, 1, "{case}: {live} live copies ({report:?})");
    for m in 0..w.machine_count() {
        let stranded = w.host_reap_orphan_dumps(m);
        assert!(
            stranded.is_empty(),
            "{case}: dump files stranded on machine {m}: {stranded:?}"
        );
    }
}

/// A VM program that creates `path` and keeps it open, dozing in 1 ms
/// naps `naps` times before it exits.
fn holder_program(path: &str, naps: u32) -> String {
    format!(
        r#"
start:  move.l  #8, d0              | creat(path, 0644)
        move.l  #fname, d1
        move.l  #420, d2
        trap    #0
        bcs     fail
        move.l  #{naps}, d6
nap:    move.l  #150, d0            | sleep(1000us)
        move.l  #1000, d1
        trap    #0
        sub.l   #1, d6
        bgt     nap
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

/// A `dumpproc` can fail *after* its `SIGDUMP` wrote the dumps and
/// ended the victim: here the victim holds a file open on the target's
/// disk, and the source drops the NFS `readlink` dumpproc sends while it
/// rewrites that file's name. The dumps are then the process's last
/// copy. Every protocol must see the victim is gone and restart it at
/// the source from them — not sweep them for a retry that can only
/// fail with `ESRCH`, which loses the process.
#[test]
fn dumpproc_failing_after_its_sigdump_recovers_at_the_source() {
    use pmig::proto::{migrate_proto, Protocol};

    for proto in Protocol::ALL {
        let case = proto.name();
        let mut w = World::new(KernelConfig::paper());
        let brick = w.add_machine("brick", IsaLevel::Isa1);
        let schooner = w.add_machine("schooner", IsaLevel::Isa1);
        let obj = assemble(&holder_program("/n/schooner/tmp/held", 100_000)).unwrap();
        w.install_program(brick, "/bin/holder", &obj).unwrap();
        let victim = w
            .spawn_vm_proc(brick, "/bin/holder", None, alice())
            .unwrap();
        w.run_slices(10);
        assert!(w.host_read_file(schooner, "/tmp/held").is_ok());
        // Only the source's own RPCs drop, and only from half a second
        // on. Pre-copy's page stream (source-side NFS writes) is done by
        // then, and dumpproc's poll sleeps a second after its SIGDUMP:
        // under every protocol the first RPC to drop is dumpproc's
        // readlink.
        let quiet = w.machine(brick).now.as_micros() + 500_000;
        w.faults = FaultPlan::seeded(0xB0A7).with(FaultSpec {
            machine: Some(brick),
            from_us: quiet,
            ..FaultSpec::always(FaultSite::NfsOp, 1)
        });

        let report = migrate_proto(&mut w, victim, brick, schooner, proto, alice())
            .unwrap_or_else(|e| panic!("{case}: engine wedged: {e}"));
        assert_eq!(w.faults.injected, 1, "{case}: the fault never fired");
        assert_eq!(
            report.status,
            Errno::ETIMEDOUT.as_u16() as u32,
            "{case}: {report:?}"
        );
        assert_eq!(
            report.survivor,
            pmig::Survivor::Source,
            "{case}: {report:?}"
        );
        assert!(
            report.new_pid.is_some() && w.proc_ref(brick, victim).is_none(),
            "{case}: the live copy must be a restart from the dumps ({report:?})"
        );
        assert_one_copy_no_dumps(&mut w, [brick, schooner], victim, case, &report);
    }
}

#[test]
fn fault_soak_matrix_preserves_failure_atomicity() {
    for row in bench::fault_soak(0xF00D) {
        assert!(row.injected >= 1, "{}: the fault never fired", row.case);
        assert_eq!(
            row.live_copies, 1,
            "{}: failure atomicity broken — {} live copies (survivor={}, status={})",
            row.case, row.live_copies, row.survivor, row.status
        );
        assert_eq!(
            row.dumps_left, 0,
            "{}: {} dump files stranded in /usr/tmp",
            row.case, row.dumps_left
        );
        assert_ne!(row.survivor, "lost", "{}: process lost", row.case);
    }
}
