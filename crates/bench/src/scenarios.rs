//! Scenario implementations for Figures 1-4 and the ablations.

use crate::json::impl_to_json;
use m68vm::{assemble, IsaLevel};
use pmig::commands::RestartArgs;
use pmig::{api, workloads};
use simtime::{SimDuration, SimTime};
use sysdefs::{Credentials, Gid, Pid, Signal, Uid};
use ukernel::{KernelConfig, World};

fn alice() -> Credentials {
    Credentials::user(Uid(100), Gid(10))
}

fn ms(d: SimDuration) -> f64 {
    d.as_millis_f64()
}

// ---------------------------------------------------------------------
// Figure 1: overhead of the modified system calls.
// ---------------------------------------------------------------------

/// One bar pair of Figure 1.
#[derive(Clone, Debug)]
pub struct Fig1Row {
    /// Which system call(s).
    pub syscall: String,
    /// Per-operation system CPU time on the original kernel (ms).
    pub original_ms: f64,
    /// Per-operation system CPU time on the modified kernel (ms).
    pub modified_ms: f64,
    /// modified / original.
    pub ratio: f64,
    /// The paper's measured ratio.
    pub paper_ratio: f64,
}

/// Runs one Figure-1 workload and returns the marginal system CPU time
/// per operation set, in simulated time.
fn fig1_measure(config: &KernelConfig, source_of: impl Fn(u32) -> String) -> SimDuration {
    let run = |iters: u32| -> SimDuration {
        let mut w = World::new(config.clone());
        let m = w.add_machine("brick", IsaLevel::Isa1);
        w.host_write_file(m, "/tmp/f", b"x").unwrap();
        let obj = assemble(&source_of(iters)).expect("assemble fig1 workload");
        w.install_program(m, "/bin/bench", &obj).unwrap();
        let pid = w.spawn_vm_proc(m, "/bin/bench", None, alice()).unwrap();
        let info = w.run_until_exit(m, pid, 10_000_000).expect("bench exits");
        assert_eq!(info.status, 0, "fig1 workload must succeed");
        info.stime
    };
    // Marginal cost: difference between 110 and 10 iterations, per
    // operation — this cancels program start-up exactly, like the
    // paper's per-iteration averaging.
    let hi = run(110);
    let lo = run(10);
    SimDuration::micros(hi.saturating_sub(lo).as_micros() / 100)
}

/// Figure 1: "our measurements show an overhead of about forty per cent
/// (44% for open()/close(), 36% for chdir())".
pub fn fig1() -> Vec<Fig1Row> {
    let orig = KernelConfig::original();
    let paper = KernelConfig::paper();
    let mut rows = Vec::new();
    let oc_orig = fig1_measure(&orig, workloads::openclose_program);
    let oc_mod = fig1_measure(&paper, workloads::openclose_program);
    rows.push(Fig1Row {
        syscall: "open()/close() pair".into(),
        original_ms: ms(oc_orig),
        modified_ms: ms(oc_mod),
        ratio: oc_mod.ratio_to(oc_orig),
        paper_ratio: 1.44,
    });
    let cd_orig = fig1_measure(&orig, workloads::chdir_program);
    let cd_mod = fig1_measure(&paper, workloads::chdir_program);
    rows.push(Fig1Row {
        syscall: "chdir() triple".into(),
        original_ms: ms(cd_orig),
        modified_ms: ms(cd_mod),
        ratio: cd_mod.ratio_to(cd_orig),
        paper_ratio: 1.36,
    });
    rows
}

// ---------------------------------------------------------------------
// Figure 2: dumping a process.
// ---------------------------------------------------------------------

/// One bar pair of Figure 2.
#[derive(Clone, Debug)]
pub struct Fig2Row {
    /// SIGQUIT, SIGDUMP or dumpproc.
    pub case: String,
    /// CPU time (ms).
    pub cpu_ms: f64,
    /// Real time (ms).
    pub real_ms: f64,
    /// CPU normalised to SIGQUIT.
    pub cpu_ratio: f64,
    /// Real normalised to SIGQUIT.
    pub real_ratio: f64,
    /// The paper's approximate ratios (read off Fig. 2).
    pub paper_cpu_ratio: f64,
    /// Paper real-time ratio.
    pub paper_real_ratio: f64,
}

/// Builds the standard victim: the §6.2 test program stopped at its
/// first input prompt.
fn victim_at_first_prompt(w: &mut World, m: usize) -> (Pid, tty::TtyHandle) {
    let obj = assemble(workloads::TEST_PROGRAM).unwrap();
    w.install_program(m, "/bin/testprog", &obj).unwrap();
    let (tty, handle) = w.add_terminal(m);
    let pid = w
        .spawn_vm_proc(m, "/bin/testprog", Some(tty), alice())
        .unwrap();
    w.run_slices(50_000);
    (pid, handle)
}

/// Measures one Figure-2 kill variant: (cpu, real) in simulated time.
fn fig2_measure(kind: &str) -> (SimDuration, SimDuration) {
    let mut w = World::new(KernelConfig::paper());
    let m = w.add_machine("brick", IsaLevel::Isa1);
    let (victim, _handle) = victim_at_first_prompt(&mut w, m);
    let victim_cpu_before = w.proc_ref(m, victim).unwrap().cpu_time();
    let t0 = w.machine(m).now;
    match kind {
        "SIGQUIT" | "SIGDUMP" => {
            let sig = if kind == "SIGQUIT" {
                Signal::SIGQUIT
            } else {
                Signal::SIGDUMP
            };
            let killer = w.spawn_native_proc(m, "kill", None, alice(), move |sys| async move {
                match sys.kill(victim, sig).await {
                    Ok(()) => 0,
                    Err(e) => e.as_u16() as u32,
                }
            });
            let vinfo = w.run_until_exit(m, victim, 1_000_000).expect("victim dies");
            let kinfo = w
                .run_until_exit(m, killer, 1_000_000)
                .expect("killer exits");
            let cpu = vinfo.cpu().saturating_sub(victim_cpu_before) + kinfo.cpu();
            let real = vinfo.ended.since(t0);
            (cpu, real)
        }
        "dumpproc" => {
            let cmd = w.spawn_native_proc(m, "dumpproc", None, alice(), move |sys| async move {
                match pmig::dumpproc(&sys, victim).await {
                    Ok(()) => 0,
                    Err(e) => e.as_u16() as u32,
                }
            });
            let dinfo = w.run_until_exit(m, cmd, 2_000_000).expect("dumpproc exits");
            assert_eq!(dinfo.status, 0, "dumpproc must succeed");
            let vinfo = w.finished[&(m, victim.as_u32())].clone();
            let cpu = vinfo.cpu().saturating_sub(victim_cpu_before) + dinfo.cpu();
            let real = dinfo.ended.since(t0);
            (cpu, real)
        }
        other => unreachable!("unknown fig2 case {other}"),
    }
}

/// Figure 2: SIGDUMP ≈ 3x SIGQUIT; dumpproc ≈ 4x CPU / 6x real.
pub fn fig2() -> Vec<Fig2Row> {
    let (q_cpu, q_real) = fig2_measure("SIGQUIT");
    let mut rows = vec![Fig2Row {
        case: "SIGQUIT".into(),
        cpu_ms: ms(q_cpu),
        real_ms: ms(q_real),
        cpu_ratio: 1.0,
        real_ratio: 1.0,
        paper_cpu_ratio: 1.0,
        paper_real_ratio: 1.0,
    }];
    for (case, paper_cpu, paper_real) in [("SIGDUMP", 3.0, 3.0), ("dumpproc", 4.0, 6.0)] {
        let (cpu, real) = fig2_measure(case);
        rows.push(Fig2Row {
            case: case.into(),
            cpu_ms: ms(cpu),
            real_ms: ms(real),
            cpu_ratio: cpu.ratio_to(q_cpu),
            real_ratio: real.ratio_to(q_real),
            paper_cpu_ratio: paper_cpu,
            paper_real_ratio: paper_real,
        });
    }
    rows
}

// ---------------------------------------------------------------------
// Figure 3: restarting a process.
// ---------------------------------------------------------------------

/// One bar pair of Figure 3.
#[derive(Clone, Debug)]
pub struct Fig3Row {
    /// execve(), rest_proc() or restart.
    pub case: String,
    /// CPU time (ms).
    pub cpu_ms: f64,
    /// Real time (ms).
    pub real_ms: f64,
    /// CPU normalised to execve().
    pub cpu_ratio: f64,
    /// Real normalised to execve().
    pub real_ratio: f64,
    /// Paper CPU ratio (approximate, read off Fig. 3).
    pub paper_cpu_ratio: f64,
    /// Paper real ratio.
    pub paper_real_ratio: f64,
}

/// Figure 3: rest_proc() slightly above execve(); the restart
/// application ≈ 5x CPU / 6x real.
pub fn fig3() -> Vec<Fig3Row> {
    // Shared setup: dump the test program so the a.outXXXXX exists.
    let mut w = World::new(KernelConfig::paper());
    let m = w.add_machine("brick", IsaLevel::Isa1);
    let (victim, _handle) = victim_at_first_prompt(&mut w, m);
    let status = api::run_dumpproc(&mut w, m, victim, alice()).expect("dumpproc runs");
    assert_eq!(status, 0);
    let names = dumpfmt::dump_file_names(victim);

    // execve() of the dumped a.out, timed inside the kernel.
    let aout = names.a_out.clone();
    let (tty_e, _he) = w.add_terminal(m);
    let runner = w.spawn_native_proc(m, "execrun", Some(tty_e), alice(), move |sys| async move {
        let e = sys.execve(&aout).await;
        e.as_u16() as u32
    });
    w.run_slices(200_000);
    let exec_t = w.machine(m).last_execve.expect("execve timed");
    // The exec'ed program now runs from scratch; stop it.
    w.host_post_signal(m, runner, Signal::SIGKILL);
    w.run_slices(50_000);

    // restart (and rest_proc inside it), timed both ways.
    let (tty_r, _hr) = w.add_terminal(m);
    let restored = api::run_restart(
        &mut w,
        m,
        RestartArgs {
            pid: victim,
            dump_host: None,
            demand: false,
        },
        Some(tty_r),
        alice(),
    )
    .expect("restart succeeds");
    let rest_t = w.machine(m).last_rest_proc.expect("rest_proc timed");
    let caller_t = w.machine(m).last_rest_caller.expect("restart app timed");
    w.host_post_signal(m, restored, Signal::SIGKILL);
    w.run_slices(50_000);

    let restart_cpu = rest_t.cpu + caller_t.cpu;
    let restart_real = rest_t.real + caller_t.real;
    vec![
        Fig3Row {
            case: "execve()".into(),
            cpu_ms: ms(exec_t.cpu),
            real_ms: ms(exec_t.real),
            cpu_ratio: 1.0,
            real_ratio: 1.0,
            paper_cpu_ratio: 1.0,
            paper_real_ratio: 1.0,
        },
        Fig3Row {
            case: "rest_proc()".into(),
            cpu_ms: ms(rest_t.cpu),
            real_ms: ms(rest_t.real),
            cpu_ratio: rest_t.cpu.ratio_to(exec_t.cpu),
            real_ratio: rest_t.real.ratio_to(exec_t.real),
            paper_cpu_ratio: 1.2,
            paper_real_ratio: 1.2,
        },
        Fig3Row {
            case: "restart".into(),
            cpu_ms: ms(restart_cpu),
            real_ms: ms(restart_real),
            cpu_ratio: restart_cpu.ratio_to(exec_t.cpu),
            real_ratio: restart_real.ratio_to(exec_t.real),
            paper_cpu_ratio: 5.0,
            paper_real_ratio: 6.0,
        },
    ]
}

// ---------------------------------------------------------------------
// Figure 4: the migrate application.
// ---------------------------------------------------------------------

/// One bar of Figure 4.
#[derive(Clone, Debug)]
pub struct Fig4Row {
    /// Where dumpproc and restart execute relative to the migrate
    /// command: L-L, L-R, R-L or R-R.
    pub case: String,
    /// Real time of the whole migration (ms).
    pub real_ms: f64,
    /// Normalised to the dumpproc+restart baseline.
    pub ratio: f64,
    /// Paper ratio (approximate; the text gives "as much as ten times"
    /// for the worst case, "almost half a minute").
    pub paper_ratio: f64,
}

/// Builds the two-machine world with a dumped-ready victim on brick.
fn fig4_world() -> (World, usize, usize, usize, Pid) {
    let mut w = World::new(KernelConfig::paper());
    let brick = w.add_machine("brick", IsaLevel::Isa1);
    let schooner = w.add_machine("schooner", IsaLevel::Isa1);
    let third = w.add_machine("third", IsaLevel::Isa1);
    let (victim, _h) = victim_at_first_prompt(&mut w, brick);
    (w, brick, schooner, third, victim)
}

/// The baseline: dumpproc then restart "on the appropriate machines",
/// no migrate wrapper. Returns total real time.
fn fig4_baseline() -> SimDuration {
    let (mut w, brick, schooner, _third, victim) = fig4_world();
    let t0 = w.machine(brick).now;
    let status = api::run_dumpproc(&mut w, brick, victim, alice()).unwrap();
    assert_eq!(status, 0);
    let dump_done = w.machine(brick).now;
    let (tty, _h) = w.add_terminal(schooner);
    api::run_restart(
        &mut w,
        schooner,
        RestartArgs {
            pid: victim,
            dump_host: Some("brick".into()),
            demand: false,
        },
        Some(tty),
        alice(),
    )
    .expect("baseline restart");
    let rt = w.machine(schooner).last_rest_proc.expect("timed");
    let ct = w.machine(schooner).last_rest_caller.expect("timed");
    dump_done.since(t0) + rt.real + ct.real
}

/// One migrate case. `from`/`to`/`cmd` pick the machines.
fn fig4_case(case: &str) -> SimDuration {
    let (mut w, brick, schooner, third, victim) = fig4_world();
    let (from, to, cmd_machine) = match case {
        "L-L" => (brick, brick, brick),
        "L-R" => (brick, schooner, brick),
        "R-L" => (brick, schooner, schooner),
        "R-R" => (brick, schooner, third),
        other => unreachable!("unknown fig4 case {other}"),
    };
    let from_name = w.machine(from).name.clone();
    let to_name = w.machine(to).name.clone();
    let cmd = w.spawn_native_proc(
        cmd_machine,
        "migrate",
        None,
        alice(),
        move |sys| async move {
            match pmig::migrate(&sys, victim, &from_name, &to_name, pmig::RemoteRunner::Rsh).await {
                Ok(status) => status,
                Err(e) => e.as_u16() as u32,
            }
        },
    );
    let info = w
        .run_until_exit(cmd_machine, cmd, 8_000_000)
        .expect("migrate exits");
    assert_eq!(info.status, 0, "migrate ({case}) must succeed");
    info.real()
}

/// Figure 4: migrate vs dumpproc+restart, by command placement.
pub fn fig4() -> Vec<Fig4Row> {
    let baseline = fig4_baseline();
    let mut rows = vec![Fig4Row {
        case: "dumpproc+restart".into(),
        real_ms: ms(baseline),
        ratio: 1.0,
        paper_ratio: 1.0,
    }];
    for (case, paper_ratio) in [("L-L", 1.3), ("L-R", 5.0), ("R-L", 6.0), ("R-R", 10.0)] {
        let real = fig4_case(case);
        rows.push(Fig4Row {
            case: case.into(),
            real_ms: ms(real),
            ratio: real.ratio_to(baseline),
            paper_ratio,
        });
    }
    rows
}

// ---------------------------------------------------------------------
// Ablations.
// ---------------------------------------------------------------------

/// A1: migrate over rsh vs over the §6.4 daemon (both halves remote).
#[derive(Clone, Debug)]
pub struct AblationDaemonRow {
    /// Transport used.
    pub transport: String,
    /// Real time (ms).
    pub real_ms: f64,
}

/// A1: rsh vs daemon transport for a remote-remote migration.
pub fn ablation_daemon() -> Vec<AblationDaemonRow> {
    let mut rows = Vec::new();
    for (transport, runner) in [
        ("rsh", pmig::RemoteRunner::Rsh),
        ("daemon", pmig::RemoteRunner::Daemon),
    ] {
        let (mut w, brick, schooner, third, victim) = fig4_world();
        let from_name = w.machine(brick).name.clone();
        let to_name = w.machine(schooner).name.clone();
        let cmd = w.spawn_native_proc(third, "migrate", None, alice(), move |sys| async move {
            match pmig::migrate(&sys, victim, &from_name, &to_name, runner).await {
                Ok(status) => status,
                Err(e) => e.as_u16() as u32,
            }
        });
        let info = w
            .run_until_exit(third, cmd, 8_000_000)
            .expect("migrate exits");
        assert_eq!(info.status, 0);
        rows.push(AblationDaemonRow {
            transport: transport.into(),
            real_ms: ms(info.real()),
        });
    }
    rows
}

/// A2: does the pid-dependent program survive migration?
#[derive(Clone, Debug)]
pub struct AblationVirtRow {
    /// Kernel flavour.
    pub kernel: String,
    /// Exit status of the migrated pid-dependent program (0 = survived,
    /// 3 = lost its temp file).
    pub status: u32,
}

/// A2: §7 id virtualization on vs off, same-machine migration of the
/// pid-tempfile program.
pub fn ablation_virt() -> Vec<AblationVirtRow> {
    let mut rows = Vec::new();
    for (label, config) in [
        ("stock", KernelConfig::paper()),
        ("virtualized", KernelConfig::with_virtualized_ids()),
    ] {
        let mut w = World::new(config);
        let m = w.add_machine("brick", IsaLevel::Isa1);
        let obj = assemble(workloads::PID_TEMPFILE_PROGRAM).unwrap();
        w.install_program(m, "/bin/pidprog", &obj).unwrap();
        let (tty, handle) = w.add_terminal(m);
        let pid = w
            .spawn_vm_proc(m, "/bin/pidprog", Some(tty), alice())
            .unwrap();
        w.run_slices(50_000);
        handle.type_input("go\n");
        w.run_slices(50_000);
        let status = api::run_dumpproc(&mut w, m, pid, alice()).unwrap();
        assert_eq!(status, 0);
        let (tty2, handle2) = w.add_terminal(m);
        let new_pid = api::run_restart(
            &mut w,
            m,
            RestartArgs {
                pid,
                dump_host: None,
                demand: false,
            },
            Some(tty2),
            alice(),
        )
        .expect("restart runs");
        w.run_slices(100_000);
        handle2.type_input("go\n");
        w.run_slices(100_000);
        handle2.with(|t| t.close());
        let info = w.run_until_exit(m, new_pid, 1_000_000).expect("exits");
        rows.push(AblationVirtRow {
            kernel: label.into(),
            status: info.status,
        });
    }
    rows
}

/// A3: kernel memory for name strings, dynamic vs fixed-size.
#[derive(Clone, Debug)]
pub struct AblationNamesRow {
    /// Allocation strategy.
    pub strategy: String,
    /// Peak kernel bytes pinned by open-file name strings.
    pub peak_bytes: usize,
}

/// A3: the §5.1 dynamic-vs-fixed name-string memory argument.
pub fn ablation_names() -> Vec<AblationNamesRow> {
    let mut rows = Vec::new();
    for (label, fixed) in [("dynamic", false), ("fixed MAXPATHLEN", true)] {
        let mut config = KernelConfig::paper();
        config.fixed_name_strings = fixed;
        let mut w = World::new(config);
        let m = w.add_machine("brick", IsaLevel::Isa1);
        // Twenty processes each holding five open files with typical
        // short-ish names.
        for i in 0..20 {
            let holder = w.spawn_native_proc(
                m,
                "holder",
                None,
                Credentials::root(),
                move |sys| async move {
                    sys.mkdir(&format!("/u/dir{i}"), 0o777).await.ok();
                    for j in 0..5 {
                        let path = format!("/u/dir{i}/data-file-{j}");
                        let _ = sys.creat(&path, 0o644).await;
                    }
                    // Hold them open while the measurement happens.
                    let _ = sys.sleep_us(5_000_000).await;
                    0
                },
            );
            let _ = holder;
        }
        w.run_slices(200_000);
        let peak = w.machine(m).name_bytes_peak;
        w.run_until_time(w.machine(m).now + SimDuration::secs(10), 2_000_000);
        rows.push(AblationNamesRow {
            strategy: label.into(),
            peak_bytes: peak,
        });
    }
    rows
}

/// A4: checkpoint interval sweep.
#[derive(Clone, Debug)]
pub struct AblationCheckpointRow {
    /// Interval between snapshots (ms), 0 = no checkpointing.
    pub interval_ms: u64,
    /// Job completion time (ms).
    pub completion_ms: f64,
    /// Overhead vs the unprotected run (fraction).
    pub overhead: f64,
    /// Expected recomputation lost to a crash at a random instant (ms):
    /// half the interval with checkpoints, half the runtime without.
    pub expected_loss_ms: f64,
}

/// A4: snapshot cost vs recomputation saved, over the interval.
pub fn ablation_checkpoint() -> Vec<AblationCheckpointRow> {
    fn run_hog(interval_us: u64) -> SimDuration {
        let mut w = World::new(KernelConfig::paper());
        let m = w.add_machine("brick", IsaLevel::Isa1);
        let obj = assemble(&workloads::cpu_hog_program(300)).unwrap();
        w.install_program(m, "/bin/hog", &obj).unwrap();
        let pid = w.spawn_vm_proc(m, "/bin/hog", None, alice()).unwrap();
        let t0 = w.machine(m).now;
        if interval_us == 0 {
            w.run_until_exit(m, pid, 50_000_000).expect("hog exits");
            return w.machine(m).now.since(t0);
        }
        // Snapshot for the job's whole life: shorter intervals mean
        // more snapshots.
        let count = ((26_000_000 / interval_us) as u32).clamp(1, 12);
        let plan = apps::CheckpointPlan {
            pid,
            interval_us,
            count,
            dir: "/u/ck".into(),
        };
        let daemon = w.spawn_native_proc(
            m,
            "checkpointd",
            None,
            Credentials::root(),
            move |sys| async move {
                match apps::run_checkpointer(&sys, &plan).await {
                    Ok(_) => 0,
                    Err(e) => e.as_u16() as u32,
                }
            },
        );
        let dinfo = w.run_until_exit(m, daemon, 50_000_000).expect("daemon");
        assert_eq!(dinfo.status, 0, "checkpointer must succeed");
        // Let the final incarnation finish.
        for _ in 0..10_000 {
            let done = !w
                .machine(m)
                .procs
                .values()
                .any(|p| p.comm.contains("hog") || p.comm.starts_with("a.out"));
            if done {
                break;
            }
            w.run_slices(10_000);
        }
        w.machine(m).now.since(t0)
    }
    let base = run_hog(0);
    let mut rows = vec![AblationCheckpointRow {
        interval_ms: 0,
        completion_ms: ms(base),
        overhead: 0.0,
        expected_loss_ms: ms(base) / 2.0,
    }];
    for interval_ms in [2_000u64, 4_000, 8_000] {
        let total = run_hog(interval_ms * 1_000);
        rows.push(AblationCheckpointRow {
            interval_ms,
            completion_ms: ms(total),
            overhead: (ms(total) - ms(base)) / ms(base),
            expected_loss_ms: interval_ms as f64 / 2.0,
        });
    }
    rows
}

/// A5: load balancing makespan.
#[derive(Clone, Debug)]
pub struct AblationLoadbalRow {
    /// Scheduling policy.
    pub policy: String,
    /// Time until all jobs finish (ms).
    pub makespan_ms: f64,
    /// Migrations performed.
    pub migrations: usize,
}

/// A5: six CPU hogs on one of three machines, with and without the
/// balancer.
pub fn ablation_loadbal() -> Vec<AblationLoadbalRow> {
    fn build() -> World {
        let mut w = World::new(KernelConfig::paper());
        let a = w.add_machine("node0", IsaLevel::Isa1);
        let _ = w.add_machine("node1", IsaLevel::Isa1);
        let _ = w.add_machine("node2", IsaLevel::Isa1);
        let obj = assemble(&workloads::cpu_hog_program(80)).unwrap();
        w.install_program(a, "/bin/hog", &obj).unwrap();
        for _ in 0..6 {
            w.spawn_vm_proc(a, "/bin/hog", None, alice()).unwrap();
        }
        w
    }
    let all_done = |w: &World| -> bool {
        (0..w.machine_count()).all(|m| {
            !w.machine(m)
                .procs
                .values()
                .any(|p| p.comm.contains("hog") || p.comm.starts_with("a.out"))
        })
    };

    let mut w1 = build();
    while !all_done(&w1) {
        let t = w1.machine(0).now + SimDuration::secs(2);
        if w1.run_until_time(t, 50_000_000) == ukernel::RunOutcome::BudgetExhausted {
            break;
        }
    }
    let unbalanced = w1.clock();

    let mut w2 = build();
    let mut engine = apps::PolicyEngine::new(apps::LoadGradient {
        min_age: SimDuration::millis(500),
        imbalance_threshold: 2,
    });
    let migrations = engine.run(&mut w2, 1_500_000, 300, all_done);
    let balanced = w2.clock();

    vec![
        AblationLoadbalRow {
            policy: "unbalanced".into(),
            makespan_ms: ms(unbalanced.since(SimTime::BOOT)),
            migrations: 0,
        },
        AblationLoadbalRow {
            policy: "balanced".into(),
            makespan_ms: ms(balanced.since(SimTime::BOOT)),
            migrations,
        },
    ]
}

// ---------------------------------------------------------------------
// Fault soak: failure atomicity of migrate under injected faults.
// ---------------------------------------------------------------------

/// One row of the fault-injection soak matrix: a remote-remote `migrate`
/// run against one injection site, with the failure-atomicity invariant
/// ("exactly one live copy, no dump files left behind") measured after
/// the dust settles.
#[derive(Clone, Debug)]
pub struct FaultSoakRow {
    /// Injection case label (site, plus `-persistent` for an unbounded
    /// fault budget).
    pub case: String,
    /// The migrate command's exit status (0 = migrated).
    pub status: u32,
    /// Where the live copy ended up: `target`, `source` or `lost`.
    pub survivor: String,
    /// Faults actually injected, summed over all machines.
    pub injected: u64,
    /// Live copies of the victim afterwards — the invariant demands
    /// exactly 1.
    pub live_copies: usize,
    /// Dump files left in `/usr/tmp` on any machine afterwards — the
    /// invariant demands 0 (counted by the orphan reaper, which also
    /// removes them).
    pub dumps_left: usize,
}

/// Runs the fault matrix: every injection site against a remote-remote
/// migration (command on a third machine, the paper's worst case), each
/// with a bounded fault budget, plus one persistent-rsh case where the
/// transport never comes back.
pub fn fault_soak(seed: u64) -> Vec<FaultSoakRow> {
    use simnet::{FaultPlan, FaultSite, FaultSpec};
    let cases: [(&str, FaultSite, u32); 5] = [
        ("nfs", FaultSite::NfsOp, 3),
        ("rsh", FaultSite::Rsh, 1),
        ("middump", FaultSite::MidDumpCrash, 1),
        ("enospc", FaultSite::DumpEnospc, 1),
        ("rsh-persistent", FaultSite::Rsh, u32::MAX),
    ];
    let mut rows = Vec::new();
    for (label, site, max_hits) in cases {
        let (mut w, brick, schooner, third, victim) = fig4_world();
        w.faults = FaultPlan::seeded(seed).with(FaultSpec::always(site, max_hits));
        let from_name = w.machine(brick).name.clone();
        let to_name = w.machine(schooner).name.clone();
        let cmd = w.spawn_native_proc(third, "migrate", None, alice(), move |sys| async move {
            match pmig::migrate(&sys, victim, &from_name, &to_name, pmig::RemoteRunner::Rsh).await {
                Ok(status) => status,
                Err(e) => e.as_u16() as u32,
            }
        });
        // Generous budget: injected NFS timeouts (2.1 s each) and the
        // engine's backoffs stretch the faulty runs well past Fig. 4.
        let info = w
            .run_until_exit(third, cmd, 60_000_000)
            .expect("migrate exits even under faults");
        let src_alive = w.proc_ref(brick, victim).is_some();
        let on_target = api::find_restarted(&w, schooner, victim).is_some();
        let back_on_source = api::find_restarted(&w, brick, victim).is_some();
        let live_copies = src_alive as usize + on_target as usize + back_on_source as usize;
        let survivor = if on_target {
            "target"
        } else if src_alive || back_on_source {
            "source"
        } else {
            "lost"
        };
        let injected: u64 = (0..w.machine_count())
            .map(|m| w.machine(m).stats.faults_injected)
            .sum();
        let dumps_left: usize = (0..w.machine_count())
            .map(|m| w.host_reap_orphan_dumps(m).len())
            .sum();
        rows.push(FaultSoakRow {
            case: label.into(),
            status: info.status,
            survivor: survivor.into(),
            injected,
            live_copies,
            dumps_left,
        });
    }
    rows
}

// ---------------------------------------------------------------------
// Cluster-scale scheduler bench: events/sec and migrations/sec as the
// installation grows.
// ---------------------------------------------------------------------

/// One host-count cell of the cluster bench.
#[derive(Clone, Debug)]
pub struct ClusterRow {
    /// Number of simulated hosts in the installation.
    pub hosts: u64,
    /// Migrations the load-gradient policy completed.
    pub migrations: u64,
    /// Migration attempts the engine evicted after a pipeline failure.
    pub failures: u64,
    /// Host wall-clock spent in the migration phase, seconds (the
    /// median over rounds).
    pub mig_host_secs: f64,
    /// Completed migrations per host second of the migration phase.
    pub migrations_per_sec: f64,
    /// Scheduling slices executed in the steady-state phase.
    pub slices: u64,
    /// Host wall-clock spent in the steady-state phase, seconds (the
    /// median over rounds).
    pub host_secs: f64,
    /// Simulated events per host second.
    pub events_per_sec: f64,
    /// Host microseconds per simulated event — the per-slice scheduler
    /// cost, near-flat across host counts.
    pub us_per_event: f64,
}

/// Builds an N-host installation: every host runs one ticker and four
/// tty readers blocked at their terminals (dead weight the scheduler
/// must not touch until input arrives), and every sixteenth host
/// carries three CPU hogs — the load imbalance the gradient policy then
/// works off. All workloads outlive the measured window, so the process
/// population stays constant.
fn cluster_world(hosts: usize) -> World {
    let mut w = World::new(KernelConfig::paper());
    for i in 0..hosts {
        w.add_machine(&format!("h{i}"), IsaLevel::Isa1);
    }
    let hog = assemble(&workloads::cpu_hog_program(1_000_000)).expect("assemble hog");
    let tick = assemble(&workloads::cluster_tick_program(100_000)).expect("assemble tick");
    let reader = assemble(workloads::TEST_PROGRAM).expect("assemble reader");
    for i in 0..hosts {
        if i % 16 == 0 {
            w.install_program(i, "/bin/hog", &hog).unwrap();
            for _ in 0..3 {
                w.spawn_vm_proc(i, "/bin/hog", None, alice()).unwrap();
            }
        }
        w.install_program(i, "/bin/tick", &tick).unwrap();
        w.spawn_vm_proc(i, "/bin/tick", None, alice()).unwrap();
        w.install_program(i, "/bin/reader", &reader).unwrap();
        for _ in 0..4 {
            let (tty, _handle) = w.add_terminal(i);
            w.spawn_vm_proc(i, "/bin/reader", Some(tty), alice())
                .unwrap();
        }
    }
    w
}

/// Live workload processes across the whole installation. Restarted
/// incarnations come back named `a.out`, like in the A5 ablation.
fn cluster_live_procs(w: &World) -> u64 {
    (0..w.machine_count())
        .map(|m| {
            w.machine(m)
                .procs
                .values()
                .filter(|p| {
                    ["hog", "tick", "reader"].iter().any(|c| p.comm.contains(c))
                        || p.comm.starts_with("a.out")
                })
                .count() as u64
        })
        .sum()
}

fn cluster_engine() -> apps::PolicyEngine<apps::LoadGradient> {
    apps::PolicyEngine::new(apps::LoadGradient {
        min_age: SimDuration::millis(200),
        imbalance_threshold: 2,
    })
}

impl ClusterRow {
    /// A row from its simulated columns and its two phases' host times.
    fn new(
        hosts: u64,
        migrations: u64,
        failures: u64,
        mig_host_secs: f64,
        slices: u64,
        host_secs: f64,
    ) -> ClusterRow {
        ClusterRow {
            hosts,
            migrations,
            failures,
            mig_host_secs,
            migrations_per_sec: migrations as f64 / mig_host_secs,
            slices,
            host_secs,
            events_per_sec: slices as f64 / host_secs,
            us_per_event: host_secs * 1e6 / slices.max(1) as f64,
        }
    }

    /// One cell's row from its rounds: the simulated columns, which
    /// every round must repeat, and the median host time of each phase.
    fn median_of(rounds: Vec<ClusterRow>) -> ClusterRow {
        let first = &rounds[0];
        let sim = |r: &ClusterRow| (r.migrations, r.failures, r.slices);
        for r in &rounds {
            assert_eq!(sim(r), sim(first), "{} hosts: rounds disagree", first.hosts);
        }
        let secs =
            |f: fn(&ClusterRow) -> f64| crate::interp::median(rounds.iter().map(f).collect());
        ClusterRow::new(
            first.hosts,
            first.migrations,
            first.failures,
            secs(|r| r.mig_host_secs),
            first.slices,
            secs(|r| r.host_secs),
        )
    }
}

/// One round of a cell on a freshly built installation, measured in two
/// phases: the load-gradient engine runs `rounds` decision rounds of
/// `period_us` each (migration throughput), then one second of
/// steady-state simulated time is timed on its own (scheduling
/// throughput) so the per-slice scheduler cost is not buried under the
/// migration pipeline's native-process overhead.
fn cluster_run(hosts: usize, rounds: u32, period_us: u64) -> ClusterRow {
    let mut w = cluster_world(hosts);
    let mut engine = cluster_engine();
    let sw = crate::hostclock::HostStopwatch::start();
    let migrations = engine.run(&mut w, period_us, rounds, |_| false) as u64;
    let mig_host_secs = sw.elapsed_secs().max(1e-9);

    let slices_before = w.slices;
    let deadline = w.clock() + SimDuration::secs(1);
    let sw = crate::hostclock::HostStopwatch::start();
    w.run_until_time(deadline, 50_000_000);
    let host_secs = sw.elapsed_secs().max(1e-9);
    ClusterRow::new(
        hosts as u64,
        migrations,
        engine.failures,
        mig_host_secs,
        w.slices - slices_before,
        host_secs,
    )
}

/// The cluster bench: one row per installation size in `sizes`. The
/// sizes take turns over rotated rounds (`interp::rotate`), each round
/// on installations built afresh, and each row records the median host
/// time of each phase.
pub fn cluster(sizes: &[usize]) -> Vec<ClusterRow> {
    let mut cells: Vec<_> = sizes
        .iter()
        .map(|&n| move || cluster_run(n, 6, 500_000))
        .collect();
    crate::interp::rotate(&mut cells)
        .into_iter()
        .map(ClusterRow::median_of)
        .collect()
}

/// One fault-site row of the at-scale soak.
#[derive(Clone, Debug)]
pub struct ClusterSoakRow {
    /// Injection site label.
    pub case: String,
    /// Installation size.
    pub hosts: u64,
    /// Migrations the engine completed despite the faults.
    pub migrations: u64,
    /// Attempts that failed (candidate evicted).
    pub failures: u64,
    /// Faults actually injected across all machines.
    pub injected: u64,
    /// Live workload copies after the dust settles.
    pub live: u64,
    /// Workload copies there should be — one per spawned process, no
    /// loss and no duplication, whatever the pipeline hit.
    pub expected: u64,
    /// Orphaned dump files left in any /usr/tmp.
    pub dumps_left: u64,
}

/// The PR-4 failure-atomicity soak run inside the cluster scenario:
/// the policy engine keeps migrating while each fault site fires, and
/// afterwards every hog must still exist exactly once with no dump
/// litter anywhere in the installation.
pub fn cluster_soak(seed: u64) -> Vec<ClusterSoakRow> {
    use simnet::{FaultPlan, FaultSite, FaultSpec};
    const HOSTS: usize = 16;
    let cases: [(&str, FaultSite, u32); 4] = [
        ("nfs", FaultSite::NfsOp, 3),
        ("rsh", FaultSite::Rsh, 2),
        ("middump", FaultSite::MidDumpCrash, 2),
        ("enospc", FaultSite::DumpEnospc, 2),
    ];
    let mut rows = Vec::new();
    for (label, site, budget) in cases {
        let mut w = cluster_world(HOSTS);
        w.faults = FaultPlan::seeded(seed).with(FaultSpec::always(site, budget));
        let expected = cluster_live_procs(&w);
        let mut engine = cluster_engine();
        engine.run(&mut w, 500_000, 10, |_| false);
        let injected: u64 = (0..w.machine_count())
            .map(|m| w.machine(m).stats.faults_injected)
            .sum();
        let dumps_left: u64 = (0..w.machine_count())
            .map(|m| w.host_reap_orphan_dumps(m).len() as u64)
            .sum();
        rows.push(ClusterSoakRow {
            case: label.into(),
            hosts: HOSTS as u64,
            migrations: engine.records.len() as u64,
            failures: engine.failures,
            injected,
            live: cluster_live_procs(&w),
            expected,
            dumps_left,
        });
    }
    rows
}

// ---------------------------------------------------------------------
// Kernel-side per-syscall aggregates.
// ---------------------------------------------------------------------

/// One row of the dispatcher's per-syscall accounting table
/// (`Machine::stats.per_syscall`, maintained by the exit hook).
#[derive(Clone, Debug)]
pub struct KernelSyscallRow {
    /// Trap-table name.
    pub syscall: String,
    /// Dispatch attempts (blocked retries count separately).
    pub count: u64,
    /// Total simulated time charged across attempts, micro-seconds.
    pub total_us: u64,
    /// The single most expensive attempt, micro-seconds.
    pub max_us: u64,
}

/// Runs the Figure-1 workloads (100 open/close pairs, then 100 chdir
/// triples) on the modified kernel and returns the dispatcher's
/// exit-hook aggregates — kernel-side numbers to sit beside the
/// bench-side timings in the figures JSON. Everything here is simulated
/// state, so the table is deterministic row for row.
pub fn kernel_syscalls() -> Vec<KernelSyscallRow> {
    let mut w = World::new(KernelConfig::paper());
    let m = w.add_machine("brick", IsaLevel::Isa1);
    w.host_write_file(m, "/tmp/f", b"x").unwrap();
    for (path, src) in [
        ("/bin/openclose", workloads::openclose_program(100)),
        ("/bin/chdir", workloads::chdir_program(100)),
    ] {
        let obj = assemble(&src).expect("assemble kernel-syscall workload");
        w.install_program(m, path, &obj).unwrap();
        let pid = w.spawn_vm_proc(m, path, None, alice()).unwrap();
        let info = w
            .run_until_exit(m, pid, 10_000_000)
            .expect("workload exits");
        assert_eq!(info.status, 0, "kernel-syscall workload must succeed");
    }
    w.machine(m)
        .stats
        .per_syscall
        .iter()
        .map(|(name, agg)| KernelSyscallRow {
            syscall: (*name).to_string(),
            count: agg.count,
            total_us: agg.total_us,
            max_us: agg.max_us,
        })
        .collect()
}

// ---------------------------------------------------------------------
// Live-migration protocol comparison: downtime vs total per protocol.
// ---------------------------------------------------------------------

/// One protocol's run of the live-migration comparison: the dirty-page
/// hog moved off the loaded machine of a three-node installation.
#[derive(Clone, Debug)]
pub struct MigrationRow {
    /// `eager`, `precopy` or `demand`.
    pub protocol: String,
    /// Freeze-to-runnable: how long no copy of the hog could run.
    pub downtime_ms: f64,
    /// Engine start to finish, including pre-copy rounds and the
    /// residual drain.
    pub total_ms: f64,
    /// Pre-copy rounds run (0 for the other protocols).
    pub rounds: u32,
    /// Pages streamed live before the freeze.
    pub pages_precopied: u64,
    /// Residual pages the engine pulled after the restart.
    pub pages_fetched: u64,
    /// Page payload moved outside the dump files, bytes.
    pub bytes_sent: u64,
    /// Where the live copy ended up.
    pub survivor: String,
    /// Engine status (0 = migrated).
    pub status: u32,
}

/// Runs each protocol against a fresh copy of the load-balancing shape:
/// three machines, the dirty-page hog on `node0`, migrated to the idle
/// `node1`. Identical worlds per protocol, so downtime and total are
/// directly comparable.
pub fn migration(smoke: bool) -> Vec<MigrationRow> {
    use pmig::proto::{migrate_proto, Protocol};
    use pmig::Survivor;
    // The full tier carries four times the ballast the smoke tier does:
    // enough that eager's frozen copy of the whole image visibly costs.
    let (rounds, ballast) = if smoke {
        (1_500u32, 10 * 0x2000u32)
    } else {
        (6_000u32, 40 * 0x2000u32)
    };
    let mut out = Vec::new();
    for proto in Protocol::ALL {
        let mut w = World::new(KernelConfig::paper());
        let node0 = w.add_machine("node0", IsaLevel::Isa1);
        let node1 = w.add_machine("node1", IsaLevel::Isa1);
        let _ = w.add_machine("node2", IsaLevel::Isa1);
        let obj = assemble(&workloads::dirty_hog_program(rounds, ballast)).unwrap();
        w.install_program(node0, "/bin/hog", &obj).unwrap();
        let pid = w.spawn_vm_proc(node0, "/bin/hog", None, alice()).unwrap();
        w.run_slices(10);
        let report =
            migrate_proto(&mut w, pid, node0, node1, proto, alice()).expect("engine completes");
        let survivor = match report.survivor {
            Survivor::Target => "target",
            Survivor::Source => "source",
            Survivor::Lost => "lost",
        };
        out.push(MigrationRow {
            protocol: proto.name().into(),
            downtime_ms: report.downtime_us as f64 / 1_000.0,
            total_ms: report.total_us as f64 / 1_000.0,
            rounds: report.rounds,
            pages_precopied: report.pages_precopied,
            pages_fetched: report.pages_fetched,
            bytes_sent: report.bytes_sent,
            survivor: survivor.into(),
            status: report.status,
        });
    }
    out
}

// ---------------------------------------------------------------------
// JSON field listings for the `figures --json` output.
// ---------------------------------------------------------------------

impl_to_json!(Fig1Row {
    syscall,
    original_ms,
    modified_ms,
    ratio,
    paper_ratio
});
impl_to_json!(Fig2Row {
    case,
    cpu_ms,
    real_ms,
    cpu_ratio,
    real_ratio,
    paper_cpu_ratio,
    paper_real_ratio
});
impl_to_json!(Fig3Row {
    case,
    cpu_ms,
    real_ms,
    cpu_ratio,
    real_ratio,
    paper_cpu_ratio,
    paper_real_ratio
});
impl_to_json!(Fig4Row {
    case,
    real_ms,
    ratio,
    paper_ratio
});
impl_to_json!(AblationDaemonRow { transport, real_ms });
impl_to_json!(AblationVirtRow { kernel, status });
impl_to_json!(AblationNamesRow {
    strategy,
    peak_bytes
});
impl_to_json!(AblationCheckpointRow {
    interval_ms,
    completion_ms,
    overhead,
    expected_loss_ms
});
impl_to_json!(AblationLoadbalRow {
    policy,
    makespan_ms,
    migrations
});
impl_to_json!(KernelSyscallRow {
    syscall,
    count,
    total_us,
    max_us
});
impl_to_json!(FaultSoakRow {
    case,
    status,
    survivor,
    injected,
    live_copies,
    dumps_left
});
impl_to_json!(MigrationRow {
    protocol,
    downtime_ms,
    total_ms,
    rounds,
    pages_precopied,
    pages_fetched,
    bytes_sent,
    survivor,
    status,
});
impl_to_json!(ClusterRow {
    hosts,
    migrations,
    failures,
    mig_host_secs,
    migrations_per_sec,
    slices,
    host_secs,
    events_per_sec,
    us_per_event
});
impl_to_json!(ClusterSoakRow {
    case,
    hosts,
    migrations,
    failures,
    injected,
    live,
    expected,
    dumps_left
});
