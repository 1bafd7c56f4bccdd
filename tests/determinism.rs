//! The dynamic half of the determinism contract.
//!
//! simlint statically forbids the usual sources of run-to-run variation
//! (hash-ordered containers, host clocks, ambient randomness); this
//! test checks the property those rules exist to protect: running the
//! same migration scenario twice in one process produces **bit-identical**
//! final world state. HashMap's `RandomState` reseeds per process *and*
//! per instance, so two in-process runs diverging is exactly the
//! symptom an iteration-order bug would show.
//!
//! The scenario is the Figure-4 "R-L" shape — the remote-command
//! migrate with the most moving parts: three machines, the §6.2 test
//! program stopped at its first prompt on `brick`, and a `migrate`
//! command run on `schooner` pulling it over.
//!
//! The snapshot itself lives in `common::snapshot_world`, shared with
//! the host-poke regression tests and statically checked for field
//! coverage by simlint's `snapshot-coverage` rule.

mod common;

use m68vm::{assemble, IsaLevel};
use sysdefs::{Credentials, Gid, Uid};
use ukernel::{KernelConfig, World};

fn alice() -> Credentials {
    Credentials::user(Uid(100), Gid(10))
}

/// Runs the full migrate scenario and renders everything observable
/// about the final world into one canonical string.
fn run_scenario() -> String {
    run_scenario_with(simnet::FaultPlan::none(), true)
}

/// The same scenario under an injected-fault plan. `require_success`
/// is off for faulty runs: the engine may legitimately finish with the
/// process back at the source; determinism is about the *trajectory*
/// being identical, not about it being the happy path.
fn run_scenario_with(faults: simnet::FaultPlan, require_success: bool) -> String {
    run_scenario_cfg(KernelConfig::paper(), faults, require_success)
}

/// The same scenario under an explicit kernel configuration, for the
/// host-accelerator toggles (superblocks) whose on/off runs must be
/// bit-identical even mid-fault.
fn run_scenario_cfg(cfg: KernelConfig, faults: simnet::FaultPlan, require_success: bool) -> String {
    let mut w = World::new(cfg);
    w.faults = faults;
    let brick = w.add_machine("brick", IsaLevel::Isa1);
    let schooner = w.add_machine("schooner", IsaLevel::Isa1);
    let _third = w.add_machine("third", IsaLevel::Isa1);

    let obj = assemble(pmig::workloads::TEST_PROGRAM).unwrap();
    w.install_program(brick, "/bin/testprog", &obj).unwrap();
    let (tty, _victim_tty) = w.add_terminal(brick);
    let victim = w
        .spawn_vm_proc(brick, "/bin/testprog", Some(tty), alice())
        .unwrap();
    w.run_slices(50_000);

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

    common::snapshot_world(&w)
}

#[test]
fn migrate_scenario_is_bit_identical_across_runs() {
    let first = run_scenario();
    let second = run_scenario();
    assert!(
        !first.is_empty() && first.contains("dump") && first.contains("machine 0 brick"),
        "snapshot looks degenerate:\n{first}"
    );
    assert_eq!(
        first, second,
        "two identical runs diverged — a nondeterminism bug simlint's rules exist to prevent"
    );
}

/// The injected-fault extension of the same contract: with a nonzero
/// fault seed in the plan, two runs must still be bit-identical — the
/// injected faults themselves are simulation events, recorded in the
/// ktrace ring the snapshot includes.
#[test]
fn faulty_migrate_with_same_fault_seed_is_bit_identical() {
    use simnet::{FaultPlan, FaultSite, FaultSpec};
    let plan = || {
        FaultPlan::seeded(0xDECAF)
            .with(FaultSpec::always(FaultSite::MidDumpCrash, 1))
            .with(FaultSpec::always(FaultSite::NfsOp, 2))
    };
    let first = run_scenario_with(plan(), false);
    let second = run_scenario_with(plan(), false);
    assert!(
        first.contains(" fault "),
        "injected faults must appear in the ktrace snapshot:\n{first}"
    );
    assert_eq!(
        first, second,
        "two runs with the same fault seed diverged — injected faults must be deterministic"
    );
}

/// Cross-toggle extension of the faulty contract: the same seeded
/// fault plan with superblock translation on versus **off** must end
/// in bit-identical worlds. Stronger than the dual-run test above —
/// it pins the fused interpreter to the slot-by-slot trajectory even
/// when injected faults interrupt dumps mid-flight, and it holds
/// because every superblock pause, trap and fault lands on exactly
/// the instruction the slot loop would have produced.
#[test]
fn faulty_migrate_is_bit_identical_with_superblocks_toggled() {
    use simnet::{FaultPlan, FaultSite, FaultSpec};
    let plan = || {
        FaultPlan::seeded(0xDECAF)
            .with(FaultSpec::always(FaultSite::MidDumpCrash, 1))
            .with(FaultSpec::always(FaultSite::NfsOp, 2))
    };
    let cfg = |use_superblocks: bool| {
        let mut c = KernelConfig::paper();
        c.use_superblocks = use_superblocks;
        c
    };
    let fused = run_scenario_cfg(cfg(true), plan(), false);
    let slots = run_scenario_cfg(cfg(false), plan(), false);
    assert!(
        fused.contains(" fault "),
        "injected faults must appear in the ktrace snapshot:\n{fused}"
    );
    assert_eq!(
        fused, slots,
        "superblock toggle changed a faulty trajectory — the fused path leaked into guest-visible state"
    );
}

/// The same contract with the pre-copy engine in the loop: dirty-page
/// tracking, per-page streaming, the delta freeze, and the engine's
/// failure recovery must all be simulation events — two faulty pre-copy
/// runs with one seed end in bit-identical worlds.
fn run_precopy_scenario(faults: simnet::FaultPlan) -> String {
    use pmig::proto::{migrate_proto, Protocol};
    let mut w = World::new(KernelConfig::paper());
    w.faults = faults;
    let brick = w.add_machine("brick", IsaLevel::Isa1);
    let schooner = w.add_machine("schooner", IsaLevel::Isa1);
    let obj = assemble(&pmig::workloads::dirty_hog_program(3_000, 10 * 0x2000)).unwrap();
    w.install_program(brick, "/bin/hog", &obj).unwrap();
    let victim = w.spawn_vm_proc(brick, "/bin/hog", None, alice()).unwrap();
    w.run_slices(10);
    let report = migrate_proto(&mut w, victim, brick, schooner, Protocol::PreCopy, alice())
        .expect("engine completes");
    format!("{:?}\n{}", report, common::snapshot_world(&w))
}

#[test]
fn faulty_precopy_with_same_fault_seed_is_bit_identical() {
    use simnet::{FaultPlan, FaultSite, FaultSpec};
    let plan = || {
        FaultPlan::seeded(0xC0FFEE)
            .with(FaultSpec::always(FaultSite::NfsOp, 3))
            .with(FaultSpec::always(FaultSite::MidDumpCrash, 1))
    };
    let first = run_precopy_scenario(plan());
    let second = run_precopy_scenario(plan());
    assert!(
        first.contains(" fault "),
        "injected faults must appear in the ktrace snapshot:\n{first}"
    );
    assert_eq!(
        first, second,
        "two pre-copy runs with the same fault seed diverged"
    );
}

/// A demand-restore victim that sweeps its data pages through `(a0)+`:
/// each page's first touch is a load (then a store) sitting in the
/// middle of a superblock, after fused ops, so on the target every page
/// fault surfaces from inside a block.
const DEMAND_TOUCH_PROGRAM: &str = r"
start:  move.l  #400, d7
outer:  move.l  #buf, a0
        move.l  #8, d6
touch:  move.l  #5, d1
        add.l   d7, d1
        add.l   (a0)+, d1
        move.l  d1, (a0)+
        add.l   d1, d3
        add.l   #0x1ff8, a0
        sub.l   #1, d6
        bgt     touch
        move.l  #3000, d5
spin:   sub.l   #1, d5
        bgt     spin
        sub.l   #1, d7
        bgt     outer
        and.l   #0x7f, d3
        move.l  #1, d0
        move.l  d3, d1
        trap    #0
        .data
buf:    .long   1
        .space  0xe004
";

/// The sweeper's exit status when it never migrates.
fn sweeper_status_unmigrated() -> u32 {
    let mut w = World::new(KernelConfig::paper());
    let brick = w.add_machine("brick", IsaLevel::Isa1);
    let obj = assemble(DEMAND_TOUCH_PROGRAM).unwrap();
    w.install_program(brick, "/bin/sweep", &obj).unwrap();
    let pid = w.spawn_vm_proc(brick, "/bin/sweep", None, alice()).unwrap();
    w.run_until_exit(brick, pid, 200_000)
        .expect("sweeper exits")
        .status
}

/// Demand-migrates the page sweeper under `faults` and runs it to its
/// exit, returning the report and the full world snapshot, how many
/// pages the victim faulted in itself (the target's fetches minus the
/// engine's prefetches), and the target copy's exit status.
fn run_demand_scenario(use_superblocks: bool, faults: simnet::FaultPlan) -> (String, u64, u32) {
    use pmig::proto::{migrate_proto, Protocol};
    let mut cfg = KernelConfig::paper();
    cfg.use_superblocks = use_superblocks;
    let mut w = World::new(cfg);
    w.faults = faults;
    let brick = w.add_machine("brick", IsaLevel::Isa1);
    let schooner = w.add_machine("schooner", IsaLevel::Isa1);
    let obj = assemble(DEMAND_TOUCH_PROGRAM).unwrap();
    w.install_program(brick, "/bin/sweep", &obj).unwrap();
    let victim = w.spawn_vm_proc(brick, "/bin/sweep", None, alice()).unwrap();
    w.run_slices(10);
    let report = migrate_proto(&mut w, victim, brick, schooner, Protocol::Demand, alice())
        .expect("engine completes");
    let new_pid = report.new_pid.expect("the sweeper survives");
    let status = w
        .run_until_exit(schooner, new_pid, 200_000)
        .expect("the sweeper exits on the target")
        .status;
    let faulted_in = w.machine(schooner).stats.pages_fetched - report.pages_fetched;
    let snapshot = format!("{:?}\n{}", report, common::snapshot_world(&w));
    (snapshot, faulted_in, status)
}

/// The precise page-fault contract end to end: a demand-restored image
/// runs on superblocks, and every page fault — taken mid-block, under
/// dropped page fetches and NFS RPCs — must land on exactly the state
/// the slot loop produces, so the whole world ends bit-identical with
/// translation on and off.
#[test]
fn demand_migrate_is_bit_identical_with_superblocks_toggled() {
    use simnet::{FaultPlan, FaultSite, FaultSpec};
    let plan = || {
        FaultPlan::seeded(0xC0DE)
            .with(FaultSpec {
                per_mille: 400,
                ..FaultSpec::always(FaultSite::PageFetch, 3)
            })
            .with(FaultSpec {
                per_mille: 300,
                ..FaultSpec::always(FaultSite::NfsOp, 2)
            })
    };
    let (fused, fused_faults, fused_status) = run_demand_scenario(true, plan());
    let (slots, slot_faults, slot_status) = run_demand_scenario(false, plan());
    assert!(
        fused.contains(" fault nfs ") && fused.contains(" fault page-fetch "),
        "both injected sites must appear in the ktrace snapshot:\n{fused}"
    );
    assert!(
        fused_faults > 0,
        "the victim must fault pages in itself:\n{fused}"
    );
    assert_eq!(fused_faults, slot_faults);
    // Every replayed access saw the real bytes: the sweep's checksum is
    // the one a run that never migrated computes.
    let want = sweeper_status_unmigrated();
    assert_eq!(
        fused_status, want,
        "superblocks: wrong checksum after replay"
    );
    assert_eq!(slot_status, want, "slot loop: wrong checksum after replay");
    assert_eq!(
        fused, slots,
        "superblock toggle changed a demand-restore trajectory"
    );
}

/// The eager protocol is the paper's command, not a copy of it: the
/// engine's eager run and the §7 daemon `migrate` issued from the
/// target after the same clock sync leave bit-identical worlds.
#[test]
fn eager_protocol_is_the_daemon_migrate_command() {
    use pmig::proto::{migrate_proto, Protocol};
    let world = || {
        let mut w = World::new(KernelConfig::paper());
        let node0 = w.add_machine("node0", IsaLevel::Isa1);
        let node1 = w.add_machine("node1", IsaLevel::Isa1);
        let _ = w.add_machine("node2", IsaLevel::Isa1);
        let obj = assemble(&pmig::workloads::dirty_hog_program(1_500, 10 * 0x2000)).unwrap();
        w.install_program(node0, "/bin/hog", &obj).unwrap();
        let victim = w.spawn_vm_proc(node0, "/bin/hog", None, alice()).unwrap();
        w.run_slices(10);
        (w, node0, node1, victim)
    };

    let (mut engine, from, to, victim) = world();
    let report = migrate_proto(&mut engine, victim, from, to, Protocol::Eager, alice())
        .expect("engine completes");
    assert_eq!(report.survivor, pmig::Survivor::Target, "{report:?}");

    let (mut command, from, to, victim) = world();
    command.run_until_time(command.clock(), 2_000_000);
    let new_pid = pmig::migrate_process(
        &mut command,
        victim,
        from,
        to,
        to,
        None,
        alice(),
        pmig::RemoteRunner::Daemon,
    )
    .expect("migrate succeeds");

    assert_eq!(report.new_pid, Some(new_pid));
    assert!(report.downtime_us < report.total_us, "{report:?}");
    assert_eq!(
        common::snapshot_world(&engine),
        common::snapshot_world(&command),
        "the eager protocol diverged from the daemon migrate command"
    );
}
