//! Checkpointing a long computation (§8).
//!
//! A checkpoint daemon snapshots a running program every few simulated
//! seconds, archiving the dump files plus consistent copies of its open
//! files. When the machine "crashes", we restore the latest checkpoint
//! and the program continues from there instead of from the beginning.
//!
//! ```text
//! cargo run --example checkpoint_restart
//! ```

use m68vm::{assemble, IsaLevel};
use pmig::workloads;
use sysdefs::{Credentials, Gid, Signal, Uid};
use ukernel::{KernelConfig, World};

fn main() {
    let alice = Credentials::user(Uid(100), Gid(10));
    let mut w = World::new(KernelConfig::paper());
    let brick = w.add_machine("brick", IsaLevel::Isa1);

    let obj = assemble(workloads::TEST_PROGRAM).unwrap();
    w.install_program(brick, "/bin/job", &obj).unwrap();
    let (tty, console) = w.add_terminal(brick);
    let pid = w
        .spawn_vm_proc(brick, "/bin/job", Some(tty), alice.clone())
        .unwrap();
    println!("long-running job started on brick as pid {pid}");
    w.run_slices(50_000);
    console.type_input("result batch 1\n");
    w.run_slices(50_000);
    console.type_input("result batch 2\n");
    w.run_slices(50_000);
    println!("job progress so far:\n{}", console.output_text());

    // Checkpoint every 3 simulated seconds, twice.
    let plan = apps::CheckpointPlan {
        pid,
        interval_us: 3_000_000,
        count: 2,
        dir: "/u/checkpoints".into(),
    };
    let plan2 = plan.clone();
    let daemon = w.spawn_native_proc(
        brick,
        "checkpointd",
        Some(tty),
        alice.clone(),
        move |sys| async move {
            match apps::run_checkpointer(&sys, &plan2).await {
                Ok((records, final_pid)) => {
                    for r in &records {
                        eprintln!("  checkpoint {} archived in {}", r.n, r.dir);
                    }
                    eprintln!("  job continues as pid {final_pid}");
                    0
                }
                Err(e) => e.as_u16() as u32,
            }
        },
    );
    let dinfo = w
        .run_until_exit(brick, daemon, 5_000_000)
        .expect("checkpointd finishes");
    assert_eq!(dinfo.status, 0, "checkpointing failed");
    println!("two checkpoints taken (see /u/checkpoints)");

    // Disaster: the machine loses the live job (simulated crash).
    let live: Vec<_> = w
        .machine(brick)
        .procs
        .values()
        .filter(|p| p.comm.starts_with("a.out"))
        .map(|p| p.pid)
        .collect();
    for victim in live {
        println!("CRASH: killing live job pid {victim}");
        w.host_post_signal(brick, victim, Signal::SIGKILL);
    }
    w.run_slices(50_000);

    // Restore checkpoint 1: the program resumes at the state it had at
    // the first snapshot, seeing the snapshot-consistent files.
    println!("restoring checkpoint 1 ...");
    let (tty2, console2) = w.add_terminal(brick);
    let pid_at_dump = pid;
    let _restorer =
        w.spawn_native_proc(brick, "restore", Some(tty2), alice, move |sys| async move {
            apps::restore_checkpoint(&sys, "/u/checkpoints", 1, pid_at_dump)
                .await
                .as_u16() as u32
        });
    w.run_slices(200_000);
    console2.type_input("result batch 3 (after restore)\n");
    w.run_slices(200_000);
    console2.with(|t| t.close());
    w.run_slices(200_000);
    println!(
        "restored job output (note the counters continue from the checkpoint):\n{}",
        console2.output_text()
    );
    println!(
        "Without the checkpoint the job would have restarted at R1; with it,\n\
         only the work since the snapshot was lost."
    );
}
