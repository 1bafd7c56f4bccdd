//! Integration tests for the §8 applications.

use m68vm::{assemble, IsaLevel};
use pmig::workloads;
use simtime::SimDuration;
use sysdefs::{Credentials, Gid, Pid, Uid};
use ukernel::{KernelConfig, World};

fn alice() -> Credentials {
    Credentials::user(Uid(100), Gid(10))
}

#[test]
fn checkpointer_takes_snapshots_and_restore_resumes() {
    let mut w = World::new(KernelConfig::paper());
    let m = w.add_machine("brick", IsaLevel::Isa1);
    let obj = assemble(workloads::TEST_PROGRAM).unwrap();
    w.install_program(m, "/bin/testprog", &obj).unwrap();
    let (tty, handle) = w.add_terminal(m);
    let pid = w
        .spawn_vm_proc(m, "/bin/testprog", Some(tty), alice())
        .unwrap();
    w.run_slices(20_000);
    handle.type_input("before ckpt\n");
    w.run_slices(20_000);
    assert!(handle.output_text().contains("R2 S2 K2"));

    // Take two snapshots, 5 simulated seconds apart.
    let plan = apps::CheckpointPlan {
        pid,
        interval_us: 5_000_000,
        count: 2,
        dir: "/u/ckpts".into(),
    };
    let plan2 = plan.clone();
    let daemon = w.spawn_native_proc(
        m,
        "checkpointd",
        Some(tty),
        alice(),
        move |sys| async move {
            match apps::run_checkpointer(&sys, &plan2).await {
                Ok((records, _final_pid)) => {
                    assert_eq!(records.len(), 2);
                    0
                }
                Err(e) => e.as_u16() as u32,
            }
        },
    );
    let info = w.run_until_exit(m, daemon, 3_000_000).expect("daemon done");
    assert_eq!(info.status, 0, "checkpointer must succeed");

    // The archives exist.
    for n in 1..=2 {
        for f in ["a.out", "files", "stack"] {
            assert!(
                w.host_read_file(m, &format!("/u/ckpts/ckpt{n:03}/{f}"))
                    .is_ok(),
                "archive {n}/{f} missing"
            );
        }
    }
    // The surviving incarnation is still running; find and stop it.
    let live: Vec<Pid> = w
        .machine(m)
        .procs
        .values()
        .filter(|p| p.comm.starts_with("a.out"))
        .map(|p| p.pid)
        .collect();
    assert_eq!(live.len(), 1, "exactly one live incarnation");

    // Restore checkpoint 1 on a fresh terminal: the program resumes at
    // its dumped prompt with the counters it had then.
    let pid_at_dump = pid; // Checkpoint 1 dumped the original incarnation.
    let (tty2, handle2) = w.add_terminal(m);
    let restorer = w.spawn_native_proc(m, "restore", Some(tty2), alice(), move |sys| async move {
        apps::restore_checkpoint(&sys, "/u/ckpts", 1, pid_at_dump)
            .await
            .as_u16() as u32
    });
    w.run_slices(100_000);
    handle2.type_input("after restore\n");
    w.run_slices(100_000);
    let out = handle2.output_text();
    assert!(
        out.contains("R3 S3 K3"),
        "restored from checkpoint 1 continues at the dumped state: {out:?}"
    );
    let _ = restorer;
}

#[test]
fn checkpoint_preserves_consistent_file_copies() {
    // The restored program must see the output file as it was at the
    // checkpoint, even though the live program kept appending afterwards.
    let mut w = World::new(KernelConfig::paper());
    let m = w.add_machine("brick", IsaLevel::Isa1);
    let obj = assemble(workloads::TEST_PROGRAM).unwrap();
    w.install_program(m, "/bin/testprog", &obj).unwrap();
    let (tty, handle) = w.add_terminal(m);
    let pid = w
        .spawn_vm_proc(m, "/bin/testprog", Some(tty), alice())
        .unwrap();
    w.run_slices(20_000);
    handle.type_input("one\n");
    w.run_slices(20_000);

    let plan = apps::CheckpointPlan {
        pid,
        interval_us: 1_000_000,
        count: 1,
        dir: "/u/cc".into(),
    };
    let daemon = w.spawn_native_proc(
        m,
        "checkpointd",
        Some(tty),
        alice(),
        move |sys| async move {
            match apps::run_checkpointer(&sys, &plan).await {
                Ok(_) => 0,
                Err(e) => e.as_u16() as u32,
            }
        },
    );
    let info = w.run_until_exit(m, daemon, 3_000_000).expect("done");
    assert_eq!(info.status, 0);
    // Live program keeps appending through the (possibly new) terminal.
    let archived = w.host_read_file(m, "/u/cc/ckpt001/file00").unwrap();
    assert_eq!(
        String::from_utf8_lossy(&archived),
        "one\n",
        "the copy holds the checkpoint-time contents"
    );
}

#[test]
fn load_balancer_improves_makespan_on_unbalanced_cluster() {
    // Six CPU hogs on one of three machines: balanced vs unbalanced
    // completion time. The balanced run must finish significantly
    // earlier (who-wins shape; the exact factor depends on migration
    // overhead).
    fn build(n_jobs: u32) -> (World, Vec<Pid>) {
        let mut w = World::new(KernelConfig::paper());
        let a = w.add_machine("node0", IsaLevel::Isa1);
        let _b = w.add_machine("node1", IsaLevel::Isa1);
        let _c = w.add_machine("node2", IsaLevel::Isa1);
        let obj = assemble(&pmig::workloads::cpu_hog_program(120)).unwrap();
        w.install_program(a, "/bin/hog", &obj).unwrap();
        let pids = (0..n_jobs)
            .map(|_| w.spawn_vm_proc(a, "/bin/hog", None, alice()).unwrap())
            .collect();
        (w, pids)
    }
    let all_hogs_done = |w: &World| -> bool {
        (0..w.machine_count()).all(|m| {
            !w.machine(m)
                .procs
                .values()
                .any(|p| p.comm.contains("hog") || p.comm.starts_with("a.out"))
        })
    };

    // Unbalanced run.
    let (mut w1, _) = build(6);
    for _ in 0..200 {
        if all_hogs_done(&w1) {
            break;
        }
        let t = w1.machine(0).now + SimDuration::secs(2);
        w1.run_until_time(t, 10_000_000);
    }
    assert!(all_hogs_done(&w1), "unbalanced jobs finish");
    let unbalanced = w1.machine(0).now;

    // Balanced run.
    let (mut w2, _) = build(6);
    let mut engine = apps::PolicyEngine::new(apps::LoadGradient {
        min_age: SimDuration::millis(500),
        imbalance_threshold: 2,
    });
    engine.run(&mut w2, 2_000_000, 200, all_hogs_done);
    assert!(all_hogs_done(&w2), "balanced jobs finish");
    let balanced = w2.clock();

    assert!(
        balanced < unbalanced,
        "balancing must win: balanced {balanced}, unbalanced {unbalanced}"
    );
}

#[test]
fn daemon_migration_is_much_faster_than_rsh() {
    // A1 ablation: same remote->remote migration, rsh vs daemon.
    fn timed_migration(use_daemon: bool) -> SimDuration {
        let mut w = World::new(KernelConfig::paper());
        let brick = w.add_machine("brick", IsaLevel::Isa1);
        let schooner = w.add_machine("schooner", IsaLevel::Isa1);
        let obj = assemble(workloads::TEST_PROGRAM).unwrap();
        w.install_program(brick, "/bin/testprog", &obj).unwrap();
        let (tty, handle) = w.add_terminal(brick);
        let pid = w
            .spawn_vm_proc(brick, "/bin/testprog", Some(tty), alice())
            .unwrap();
        w.run_slices(20_000);
        handle.type_input("x\n");
        w.run_slices(20_000);
        // Issue the command from a third machine so both halves are
        // remote (the paper's worst case).
        let third = w.add_machine("third", IsaLevel::Isa1);
        let start = w.machine(third).now;
        let runner = if use_daemon {
            pmig::RemoteRunner::Daemon
        } else {
            pmig::RemoteRunner::Rsh
        };
        let new_pid = pmig::migrate_process(
            &mut w,
            pid,
            brick,
            schooner,
            third,
            None,
            Credentials::root(),
            runner,
        )
        .ok();
        assert!(new_pid.is_some(), "migration must succeed");
        w.machine(third)
            .now
            .since(start)
            .max(w.machine(schooner).now.since(start))
    }
    let rsh_time = timed_migration(false);
    let daemon_time = timed_migration(true);
    assert!(
        rsh_time > daemon_time.times(3),
        "daemon must be several times faster: rsh {rsh_time}, daemon {daemon_time}"
    );
}

#[test]
fn nightbatch_spreads_jobs_at_night() {
    let mut w = World::new(KernelConfig::paper());
    let a = w.add_machine("node0", IsaLevel::Isa1);
    let _b = w.add_machine("node1", IsaLevel::Isa1);
    let _c = w.add_machine("node2", IsaLevel::Isa1);
    let obj = assemble(&pmig::workloads::cpu_hog_program(2000)).unwrap();
    w.install_program(a, "/bin/hog", &obj).unwrap();
    let mut batch = apps::NightBatch::new(a);
    let mut pids = Vec::new();
    for _ in 0..3 {
        let pid = w.spawn_vm_proc(a, "/bin/hog", None, alice()).unwrap();
        batch.submit(&mut w, pid);
        pids.push(pid);
    }
    // During the day the jobs are stopped.
    let t = w.machine(a).now + SimDuration::secs(5);
    w.run_until_time(t, 1_000_000);
    for pid in &pids {
        assert!(
            !w.finished.contains_key(&(a, pid.as_u32())),
            "stopped jobs make no progress during the day"
        );
    }
    // Nightfall: one job per machine.
    let placements = batch.nightfall(&mut w);
    assert_eq!(placements.len(), 3);
    let machines: std::collections::BTreeSet<usize> =
        placements.iter().map(|(_, m, _)| *m).collect();
    assert_eq!(machines.len(), 3, "jobs spread across all machines");
    // They all finish.
    for (_, m, pid) in &placements {
        assert!(
            w.run_until_exit(*m, *pid, 10_000_000).is_some(),
            "job on machine {m} finishes"
        );
    }
}
