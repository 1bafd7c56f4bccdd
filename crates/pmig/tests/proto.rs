//! The live-migration protocol engine end to end: all three protocols
//! move a process, downtime ordering holds, dirty tracking is pure
//! cache, and every exit path cleans `/usr/tmp`.

use m68vm::assemble;
use m68vm::IsaLevel;
use pmig::proto::{migrate_proto, MigrationReport, Protocol};
use pmig::{api, workloads, RemoteRunner, Survivor};
use simtime::SimDuration;
use sysdefs::{Credentials, Gid, Pid, Uid};
use ukernel::{KernelConfig, World};

fn alice() -> Credentials {
    Credentials::user(Uid(100), Gid(10))
}

/// Ten pages of ballast: big enough that copying it frozen visibly
/// costs, small enough to keep the tests quick.
const BALLAST: u32 = 10 * 0x2000;

/// Boots the two-machine installation with a dirty-page hog running on
/// `brick`, warmed up past its first progress increments.
fn hog_world() -> (World, usize, usize, Pid) {
    let mut w = World::new(KernelConfig::paper());
    let brick = w.add_machine("brick", IsaLevel::Isa1);
    let schooner = w.add_machine("schooner", IsaLevel::Isa1);
    let obj = assemble(&workloads::dirty_hog_program(1_500, BALLAST)).unwrap();
    w.install_program(brick, "/bin/hog", &obj).unwrap();
    let pid = w.spawn_vm_proc(brick, "/bin/hog", None, alice()).unwrap();
    w.run_slices(10);
    (w, brick, schooner, pid)
}

/// Asserts no dump file of `pid` survives anywhere in the world.
fn assert_no_dumps(w: &World, pid: Pid) {
    let names = dumpfmt::dump_file_names(pid);
    for mid in 0..w.machine_count() {
        for name in [&names.a_out, &names.files, &names.stack, &names.delta] {
            assert!(
                w.host_read_file(mid, name).is_err(),
                "machine {mid} still holds {name}"
            );
        }
    }
}

/// Counts the live copies of the hog across the world: the original
/// (still running as `hog` on its source) plus restored incarnations
/// (running as `a.outXXXXX`) anywhere. The two comm shapes are
/// disjoint, so pid-number collisions across machines can't
/// double-count.
fn live_copies(w: &World, pid: Pid) -> usize {
    let mut n = 0;
    for mid in 0..w.machine_count() {
        if w.proc_ref(mid, pid).is_some()
            && !w.finished.contains_key(&(mid, pid.as_u32()))
            && w.proc_ref(mid, pid)
                .is_some_and(|p| !p.comm.starts_with("a.out"))
        {
            n += 1;
        }
        if let Some(restored) = api::find_restarted(w, mid, pid) {
            if w.proc_ref(mid, restored).is_some()
                && !w.finished.contains_key(&(mid, restored.as_u32()))
            {
                n += 1;
            }
        }
    }
    n
}

#[test]
fn every_protocol_migrates_the_hog() {
    for proto in Protocol::ALL {
        let (mut w, brick, schooner, pid) = hog_world();
        let report = migrate_proto(&mut w, pid, brick, schooner, proto, alice())
            .unwrap_or_else(|e| panic!("{}: {e}", proto.name()));
        assert_eq!(report.status, 0, "{}: {report:?}", proto.name());
        assert_eq!(report.survivor, Survivor::Target, "{}", proto.name());
        let new_pid = report.new_pid.expect("target pid");
        assert!(report.downtime_us > 0, "{}: {report:?}", proto.name());
        assert!(
            report.total_us >= report.downtime_us,
            "{}: {report:?}",
            proto.name()
        );
        // The moved process is alive on the target and no dump remains.
        assert!(w.proc_ref(schooner, new_pid).is_some(), "{}", proto.name());
        assert_eq!(live_copies(&w, pid), 1, "{}", proto.name());
        assert_no_dumps(&w, pid);
        // It keeps running there.
        let info = w
            .run_until_exit(schooner, new_pid, 30_000_000)
            .expect("hog finishes on schooner");
        assert_eq!(info.status, 0, "{}", proto.name());
    }
}

#[test]
fn precopy_streams_and_freezes_small() {
    let (mut w, brick, schooner, pid) = hog_world();
    let report = migrate_proto(&mut w, pid, brick, schooner, Protocol::PreCopy, alice()).unwrap();
    assert_eq!(report.survivor, Survivor::Target);
    assert!(report.rounds >= 2, "{report:?}");
    // Round 1 streams the whole image: at least the ballast pages.
    assert!(report.pages_precopied >= 10, "{report:?}");
    assert!(w.machine(brick).stats.pages_precopied >= 10);
}

#[test]
fn demand_restart_fetches_residual_pages() {
    let (mut w, brick, schooner, pid) = hog_world();
    let report = migrate_proto(&mut w, pid, brick, schooner, Protocol::Demand, alice()).unwrap();
    assert_eq!(report.survivor, Survivor::Target);
    let new_pid = report.new_pid.unwrap();
    // The drain finished: the image is whole, and pages moved after the
    // restart (engine prefetches and/or kernel page faults).
    assert!(!w.host_has_absent_pages(schooner, new_pid));
    let kernel_fetched = w.machine(schooner).stats.pages_fetched;
    assert!(
        report.pages_fetched + kernel_fetched > 0,
        "{report:?} kernel={kernel_fetched}"
    );
}

#[test]
fn a_victim_spawned_on_the_idle_source_after_demand_runs_its_asked_span() {
    let (mut w, brick, schooner, pid) = hog_world();
    let report = migrate_proto(&mut w, pid, brick, schooner, Protocol::Demand, alice()).unwrap();
    assert_eq!(report.survivor, Survivor::Target);
    // The drain ran on schooner, so brick idled behind the world clock.
    let lag = w.clock().since(w.machine(brick).now);
    assert!(lag > SimDuration::secs(1), "brick lags by only {lag}");

    let victim = w.spawn_vm_proc(brick, "/bin/hog", None, alice()).unwrap();
    assert_eq!(
        w.proc_ref(brick, victim).unwrap().start_time,
        w.host_clock()
    );
    // Running 50 ms past the world clock gives the newcomer that span,
    // plus at most the quantum a deadline may be overshot by, and not
    // a replay of the seconds brick had fallen behind.
    w.run_until_time(w.clock() + SimDuration::millis(50), 2_000_000);
    let quantum = SimDuration::micros(w.config.cost.quantum_us);
    let cpu = w.proc_ref(brick, victim).unwrap().utime;
    assert!(
        cpu >= SimDuration::millis(50) && cpu <= SimDuration::millis(50) + quantum,
        "the victim ran {cpu} for a 50 ms span (brick lagged {lag})"
    );
}

#[test]
fn precopy_downtime_strictly_below_eager() {
    let (mut w_e, brick_e, schooner_e, pid_e) = hog_world();
    let eager = migrate_proto(
        &mut w_e,
        pid_e,
        brick_e,
        schooner_e,
        Protocol::Eager,
        alice(),
    )
    .unwrap();
    let (mut w_p, brick_p, schooner_p, pid_p) = hog_world();
    let precopy = migrate_proto(
        &mut w_p,
        pid_p,
        brick_p,
        schooner_p,
        Protocol::PreCopy,
        alice(),
    )
    .unwrap();
    assert_eq!(eager.survivor, Survivor::Target);
    assert_eq!(precopy.survivor, Survivor::Target);
    assert!(
        precopy.downtime_us < eager.downtime_us,
        "precopy {} must be below eager {}",
        precopy.downtime_us,
        eager.downtime_us
    );
}

#[test]
fn demand_preserves_test_program_continuity() {
    // The §4.2 continuity check under demand-restore: the counters live
    // in the (initially absent) data segment, so the first iteration on
    // the target page-faults them in from the source dump.
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
    for i in 1..3 {
        handle.type_input(&format!("line {i}\n"));
        w.run_slices(20_000);
    }
    assert!(handle.output_text().contains("R3 S3 K3"));

    let report = migrate_proto(&mut w, pid, brick, schooner, Protocol::Demand, alice()).unwrap();
    assert_eq!(report.survivor, Survivor::Target, "{report:?}");
    let new_pid = report.new_pid.unwrap();

    // The restored process needs a terminal to keep prompting; restart
    // ran without one, so its reads hit /dev/null placeholders — the
    // data-segment counter continuity is what we can still check via
    // the output file the program appends to.
    let _ = new_pid;
    w.run_slices(200_000);
    let outfile = w.host_read_file(brick, "/tmp/testout").unwrap();
    let text = String::from_utf8_lossy(&outfile);
    assert!(
        text.starts_with("line 1\nline 2\n"),
        "pre-migration appends survive: {text:?}"
    );
}

#[test]
fn dirty_tracking_is_pure_cache_for_dumps() {
    // The Milanés contract: arming dirty tracking must not change a
    // byte of the dump (or anything else the migration moves). Two
    // identical worlds, one with tracking armed, produce bit-identical
    // dump triples.
    let run = |track: bool| -> (Vec<u8>, Vec<u8>, Vec<u8>) {
        let (mut w, brick, _schooner, pid) = hog_world();
        if track {
            assert!(w.host_set_dirty_tracking(brick, pid, true));
        }
        let status = api::run_dumpproc(&mut w, brick, pid, alice()).unwrap();
        assert_eq!(status, 0);
        let names = dumpfmt::dump_file_names(pid);
        (
            w.host_read_file(brick, &names.a_out).unwrap().to_vec(),
            w.host_read_file(brick, &names.files).unwrap().to_vec(),
            w.host_read_file(brick, &names.stack).unwrap().to_vec(),
        )
    };
    let (a0, f0, s0) = run(false);
    let (a1, f1, s1) = run(true);
    assert_eq!(a0, a1, "a.outXXXXX must not see the dirty bitmap");
    assert_eq!(f0, f1);
    assert_eq!(s0, s1);
}

#[test]
fn tracked_and_untracked_migrations_restore_identically() {
    // Dump → migrate → restore with tracking on vs off: the restored
    // process's image and observable behaviour must match bit for bit.
    let run = |track: bool| -> (String, u32) {
        let (mut w, brick, schooner, pid) = hog_world();
        if track {
            assert!(w.host_set_dirty_tracking(brick, pid, true));
        }
        let new_pid = api::migrate_process(
            &mut w,
            pid,
            brick,
            schooner,
            schooner,
            None,
            alice(),
            RemoteRunner::Rsh,
        )
        .expect("migrates");
        let info = w
            .run_until_exit(schooner, new_pid, 30_000_000)
            .expect("finishes");
        (w.ps(schooner), info.status)
    };
    let (ps0, st0) = run(false);
    let (ps1, st1) = run(true);
    assert_eq!(st0, st1);
    assert_eq!(ps0, ps1);
}

#[test]
fn protocol_flag_parses() {
    assert_eq!(Protocol::parse("eager"), Some(Protocol::Eager));
    assert_eq!(Protocol::parse("precopy"), Some(Protocol::PreCopy));
    assert_eq!(Protocol::parse("demand"), Some(Protocol::Demand));
    assert_eq!(Protocol::parse("lazy"), None);
    for p in Protocol::ALL {
        assert_eq!(Protocol::parse(p.name()), Some(p));
    }
}

/// Sim-time the residual-dependency programs below spin before their
/// system call: long enough that the dump lands mid-spin, short enough
/// that the call runs while the drain is still far from their data.
const SPIN: u32 = 2_000_000;

/// Thirty-two pages of padding ahead of the data the programs use, so
/// the engine's in-order drain has not reached it when the call runs.
const PAD: u32 = 32 * 0x2000;

/// Runs `src` on `brick`, migrates it to `schooner` under `proto` once
/// warmed up, and runs it to its exit there. Returns the report and the
/// world.
fn migrate_program(src: &str, proto: Protocol) -> (MigrationReport, World, Pid) {
    let mut w = World::new(KernelConfig::paper());
    let brick = w.add_machine("brick", IsaLevel::Isa1);
    let schooner = w.add_machine("schooner", IsaLevel::Isa1);
    let obj = assemble(src).unwrap();
    w.install_program(brick, "/bin/prog", &obj).unwrap();
    let pid = w.spawn_vm_proc(brick, "/bin/prog", None, alice()).unwrap();
    w.run_slices(10);
    let report = migrate_proto(&mut w, pid, brick, schooner, proto, alice())
        .unwrap_or_else(|e| panic!("{}: {e}", proto.name()));
    (report, w, pid)
}

/// The target copy's exit status after migrating `src` under `proto`.
fn target_exit_status(src: &str, proto: Protocol) -> u32 {
    let (report, mut w, pid) = migrate_program(src, proto);
    assert_eq!(report.status, 0, "{}: {report:?}", proto.name());
    assert_eq!(
        report.survivor,
        Survivor::Target,
        "{}: {report:?}",
        proto.name()
    );
    let new_pid = report.new_pid.expect("target pid");
    let info = w
        .run_until_exit(1, new_pid, 1_000_000)
        .unwrap_or_else(|| panic!("{}: the program never exits", proto.name()));
    assert_eq!(live_copies(&w, pid), 0, "{}", proto.name());
    assert_no_dumps(&w, pid);
    info.status
}

#[test]
fn demand_restore_faults_in_a_path_argument() {
    // chdir("/tmp") with the path in a page the program never touched:
    // on a demand-restored image that page is still at the source when
    // the call copies the path in.
    let src = format!(
        r#"
start:  move.l  #{SPIN}, d7
spin:   sub.l   #1, d7
        bgt     spin
        move.l  #12, d0
        move.l  #path, d1
        trap    #0
        bcs     fail
        move.l  #0, d0
fail:   move.l  d0, d1
        move.l  #1, d0
        trap    #0
        .data
pad:    .space  {PAD}
path:   .asciz  "/tmp"
"#
    );
    let eager = target_exit_status(&src, Protocol::Eager);
    assert_eq!(eager, 0, "chdir succeeds after an eager migration");
    assert_eq!(target_exit_status(&src, Protocol::Demand), eager);
}

#[test]
fn demand_restore_faults_in_a_copy_out_buffer() {
    // gethostname into a buffer in an untouched page, then exit with
    // the buffer's first byte: the copy-out must land in the buffer,
    // not vanish into the absent page.
    let src = format!(
        r#"
start:  move.l  #{SPIN}, d7
spin:   sub.l   #1, d7
        bgt     spin
        move.l  #87, d0
        move.l  #buf, d1
        move.l  #32, d2
        trap    #0
        move.l  #0, d1
        move.b  buf, d1
        move.l  #1, d0
        trap    #0
        .data
pad:    .space  {PAD}
buf:    .space  32
"#
    );
    let eager = target_exit_status(&src, Protocol::Eager);
    assert_ne!(eager, 0, "the buffer holds a host name");
    assert_eq!(target_exit_status(&src, Protocol::Demand), eager);
}

#[test]
fn demand_target_exit_during_the_drain_completes_the_migration() {
    // The program exits 3 on the target while the engine is still
    // draining its pages. That is its own history, not a residual
    // failure: the migration is complete, and nothing may run it again
    // at the source.
    let src = format!(
        r#"
start:  move.l  #{SPIN}, d7
spin:   sub.l   #1, d7
        bgt     spin
        move.l  #1, d0
        move.l  #3, d1
        trap    #0
        .data
pad:    .space  {PAD}
"#
    );
    let (report, w, pid) = migrate_program(&src, Protocol::Demand);
    assert_eq!(report.status, 0, "{report:?}");
    assert_eq!(report.survivor, Survivor::Target, "{report:?}");
    let new_pid = report.new_pid.expect("target pid");
    let exits: Vec<_> = w
        .finished
        .iter()
        .filter(|(_, info)| info.status == 3)
        .map(|(&key, _)| key)
        .collect();
    assert_eq!(exits, vec![(1, new_pid.as_u32())], "exactly one exit(3)");
    assert!(w.machine(1).residual_kills.is_empty());
    assert_eq!(live_copies(&w, pid), 0);
    assert_no_dumps(&w, pid);
}

/// True while `pid` runs on `mid`: present and not yet exited.
fn running(w: &World, mid: usize, pid: Pid) -> bool {
    w.proc_ref(mid, pid).is_some() && !w.finished.contains_key(&(mid, pid.as_u32()))
}

#[test]
fn a_restart_is_identified_by_its_own_command_not_its_name() {
    // Pid numbers start at 2 on every machine, so victims moved from
    // two sources onto one target both restore as `a.out00002`. The
    // second move must find its own restart, not the first namesake:
    // it lands on the target at once and leaves the first copy alone.
    for proto in Protocol::ALL {
        let mut w = World::new(KernelConfig::paper());
        let a = w.add_machine("a", IsaLevel::Isa1);
        let b = w.add_machine("b", IsaLevel::Isa1);
        let c = w.add_machine("c", IsaLevel::Isa1);
        let obj = assemble(&workloads::dirty_hog_program(100_000, BALLAST)).unwrap();
        w.install_program(a, "/bin/hog", &obj).unwrap();
        w.install_program(c, "/bin/hog", &obj).unwrap();
        let pid = w.spawn_vm_proc(a, "/bin/hog", None, alice()).unwrap();
        assert_eq!(w.spawn_vm_proc(c, "/bin/hog", None, alice()).unwrap(), pid);
        w.run_slices(10);
        let first = migrate_proto(&mut w, pid, a, b, Protocol::Eager, alice()).unwrap();
        assert_eq!(first.survivor, Survivor::Target, "{first:?}");
        let namesake = first.new_pid.expect("first copy on b");

        let slices = w.slices;
        let second = migrate_proto(&mut w, pid, c, b, proto, alice()).unwrap();
        let stepped = w.slices - slices;
        let name = proto.name();
        assert_eq!(second.survivor, Survivor::Target, "{name}: {second:?}");
        let new_pid = second.new_pid.expect("second copy on b");
        assert_ne!(new_pid, namesake, "{name}: the report names the first copy");
        assert!(
            running(&w, b, new_pid),
            "{name}: the new copy is not running"
        );
        assert!(
            running(&w, b, namesake),
            "{name}: the first copy was disturbed"
        );
        for p in [namesake, new_pid] {
            assert_eq!(w.proc_ref(b, p).unwrap().comm, "a.out00002", "{name}");
        }
        assert!(
            stepped < 1_000,
            "{name}: the second move stepped {stepped} slices"
        );
        assert!(!running(&w, c, pid), "{name}: the original still runs on c");
        assert_eq!(api::find_restarted(&w, c, pid), None, "{name}: a copy on c");
    }
}
