//! Load balancing and the night-batch scheduler (§8).
//!
//! Part 1: six CPU-bound jobs land on one machine of a three-machine
//! network; the load balancer migrates aged jobs to idle machines and
//! the makespan drops.
//!
//! Part 2: the "CPU hogs" scenario — jobs submitted during the day are
//! held stopped, then spread across the network at nightfall.
//!
//! ```text
//! cargo run --release --example load_balancing
//! ```

use m68vm::{assemble, IsaLevel};
use pmig::workloads;
use simtime::SimDuration;
use sysdefs::{Credentials, Gid, Uid};
use ukernel::{KernelConfig, World};

fn alice() -> Credentials {
    Credentials::user(Uid(100), Gid(10))
}

fn build_cluster(jobs: u32) -> World {
    let mut w = World::new(KernelConfig::paper());
    let a = w.add_machine("node0", IsaLevel::Isa1);
    let _ = w.add_machine("node1", IsaLevel::Isa1);
    let _ = w.add_machine("node2", IsaLevel::Isa1);
    let obj = assemble(&workloads::cpu_hog_program(60)).unwrap();
    w.install_program(a, "/bin/hog", &obj).unwrap();
    for _ in 0..jobs {
        w.spawn_vm_proc(a, "/bin/hog", None, alice()).unwrap();
    }
    w
}

fn all_done(w: &World) -> bool {
    (0..w.machine_count()).all(|m| {
        !w.machine(m)
            .procs
            .values()
            .any(|p| p.comm.contains("hog") || p.comm.starts_with("a.out"))
    })
}

fn makespan(w: &World) -> SimDuration {
    w.clock().since(simtime::SimTime::BOOT)
}

fn main() {
    println!("== Part 1: load balancing 6 CPU hogs on 3 machines ==");
    // Without balancing.
    let mut w1 = build_cluster(6);
    while !all_done(&w1) {
        let t = w1.machine(0).now + SimDuration::secs(2);
        if w1.run_until_time(t, 50_000_000) == ukernel::RunOutcome::BudgetExhausted {
            break;
        }
    }
    let unbalanced = makespan(&w1);
    println!("  no balancing:   all jobs done at {unbalanced}");

    // With the balancer migrating aged jobs off the busy node.
    let mut w2 = build_cluster(6);
    let mut engine = apps::PolicyEngine::new(apps::LoadGradient {
        min_age: SimDuration::millis(500),
        imbalance_threshold: 2,
    });
    let migrations = engine.run(&mut w2, 1_500_000, 300, all_done);
    let balanced = makespan(&w2);
    println!("  with balancing: all jobs done at {balanced} ({migrations} migrations)");
    for r in &engine.records {
        println!(
            "    moved pid {} node{} -> node{} (now pid {})",
            r.old_pid, r.from, r.to, r.new_pid
        );
    }
    println!(
        "  speed-up: {:.2}x",
        unbalanced.as_secs_f64() / balanced.as_secs_f64().max(1e-9)
    );

    println!("\n== Part 2: night batch for CPU hogs ==");
    let mut w = World::new(KernelConfig::paper());
    let day = w.add_machine("node0", IsaLevel::Isa1);
    let _ = w.add_machine("node1", IsaLevel::Isa1);
    let _ = w.add_machine("node2", IsaLevel::Isa1);
    let obj = assemble(&workloads::cpu_hog_program(40)).unwrap();
    w.install_program(day, "/bin/hog", &obj).unwrap();
    let mut batch = apps::NightBatch::new(day);
    for i in 0..3 {
        let pid = w.spawn_vm_proc(day, "/bin/hog", None, alice()).unwrap();
        batch.submit(&mut w, pid);
        println!("  submitted job {i} (pid {pid}) — held until nightfall");
    }
    // The working day passes; the jobs make no progress.
    let t = w.machine(day).now + SimDuration::secs(10);
    w.run_until_time(t, 10_000_000);
    println!(
        "  daytime over at {}, jobs still queued",
        w.machine(day).now
    );

    let placements = batch.nightfall(&mut w);
    println!("  nightfall: jobs spread across the network");
    for (old, machine, new) in &placements {
        println!("    job {old} -> node{machine} (pid {new})");
    }
    for (_, machine, pid) in &placements {
        w.run_until_exit(*machine, *pid, 50_000_000)
            .expect("job finishes overnight");
    }
    println!("  all batch jobs finished by {}", makespan(&w));
}
