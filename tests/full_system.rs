//! Whole-system integration tests spanning every crate: the complete
//! paper narrative end to end.

use m68vm::{assemble, IsaLevel};
use pmig::commands::RestartArgs;
use pmig::{api, workloads, RemoteRunner};
use simtime::SimDuration;
use sysdefs::{Credentials, Gid, Uid};
use ukernel::{KernelConfig, World};

fn alice() -> Credentials {
    Credentials::user(Uid(100), Gid(10))
}

/// The complete abstract, in one test: "processes that do not communicate
/// with other processes and that do not take actions that depend on
/// knowledge of the execution environment, can be moved from one machine
/// to another while running, in a transparent way."
#[test]
fn abstract_claim_end_to_end() {
    let mut w = World::new(KernelConfig::paper());
    let brick = w.add_machine("brick", IsaLevel::Isa1);
    let schooner = w.add_machine("schooner", IsaLevel::Isa1);
    let obj = assemble(workloads::TEST_PROGRAM).unwrap();
    w.install_program(brick, "/bin/testprog", &obj).unwrap();
    let (tty, console) = w.add_terminal(brick);
    let pid = w
        .spawn_vm_proc(brick, "/bin/testprog", Some(tty), alice())
        .unwrap();
    w.run_slices(50_000);
    console.type_input("alpha\n");
    w.run_slices(50_000);

    // The machine is "about to go down": move the process away. The
    // command is typed on a schooner terminal, where the process will
    // reattach.
    let (cmd_tty, _cmd_console) = w.add_terminal(schooner);
    let new_pid = api::migrate_process(
        &mut w,
        pid,
        brick,
        schooner,
        schooner,
        Some(cmd_tty),
        alice(),
        RemoteRunner::Rsh,
    )
    .expect("migration succeeds");

    // The process keeps working on schooner, its state intact.
    w.run_slices(100_000);
    let p = w.proc_ref(schooner, new_pid).expect("alive on schooner");
    let tty2 = p.user.tty.expect("attached to a terminal");
    let console2 = w.terminal(tty2);
    console2.type_input("beta\n");
    w.run_slices(100_000);
    assert!(
        console2.output_text().contains("R3 S3 K3"),
        "state carried over: {:?}",
        console2.output_text()
    );
    console2.with(|t| t.close());
    let info = w
        .run_until_exit(schooner, new_pid, 200_000)
        .expect("finishes normally");
    assert_eq!(info.status, 0);
    // Both lines are in the (brick-local) output file, reached over NFS
    // after the move.
    let out = w.host_read_file(brick, "/tmp/testout").unwrap();
    assert_eq!(String::from_utf8_lossy(&out), "alpha\nbeta\n");
}

/// §3's naming convention in action: the same file seen from both
/// machines, plus the paper's symlink trap and its readlink fix.
#[test]
fn nfs_namespace_and_the_symlink_trap() {
    let mut w = World::new(KernelConfig::paper());
    let classic = w.add_machine("classic", IsaLevel::Isa1);
    let brador = w.add_machine("brador", IsaLevel::Isa1);
    // /usr2 on classic is really brador's disk (the footnote's example:
    // user directories live on the file server).
    w.host_mkdir_p(brador, "/export/u2/alice").unwrap();
    w.host_write_file(brador, "/export/u2/alice/thesis.tex", b"\\title{Migration}")
        .unwrap();
    let setup = w.spawn_native_proc(
        classic,
        "setup",
        None,
        Credentials::root(),
        move |sys| async move {
            sys.symlink("/n/brador/export/u2", "/u2").await.unwrap();
            // A program on classic opens the file by its convenient name.
            let fd = sys.open("/u2/alice/thesis.tex", 0, 0).await.unwrap();
            let contents = sys.read_all(fd).await.unwrap();
            assert_eq!(contents, b"\\title{Migration}");
            sys.close(fd).await.unwrap();
            // The naive rewrite /n/classic/u2/... would die with EREMOTE
            // on another machine; the readlink-based rewrite gives the
            // correct brador name.
            let fixed =
                pmig::resolve::rewrite_for_migration(&sys, "/u2/alice/thesis.tex", "classic")
                    .await
                    .unwrap();
            assert_eq!(fixed, "/n/brador/export/u2/alice/thesis.tex");
            0
        },
    );
    let info = w.run_until_exit(classic, setup, 500_000).expect("setup");
    assert_eq!(info.status, 0);
    // And the naive name really does fail from elsewhere.
    let prober = w.spawn_native_proc(
        brador,
        "probe",
        None,
        Credentials::root(),
        move |sys| async move {
            match sys.open("/n/classic/u2/alice/thesis.tex", 0, 0).await {
                Err(sysdefs::Errno::EREMOTE) => 0,
                other => {
                    let _ = other;
                    1
                }
            }
        },
    );
    let info = w.run_until_exit(brador, prober, 500_000).expect("probe");
    assert_eq!(info.status, 0, "NFS must refuse the double-hop name");
}

/// The conclusion's performance claim: "stopping a process and
/// restarting it on another machine requires a time comparable to that
/// of killing the process to obtain a core dump and then restarting the
/// process at the beginning ... using the standard UNIX system calls."
#[test]
fn conclusion_comparable_cost_claim() {
    // Cost of the migration machinery (SIGDUMP + rest_proc, kernel side).
    let fig2 = bench::fig2();
    let fig3 = bench::fig3();
    let sigquit_real = fig2[0].real_ms;
    let sigdump_real = fig2[1].real_ms;
    let execve_real = fig3[0].real_ms;
    let restproc_real = fig3[1].real_ms;
    // "Comparable": the same order of magnitude, within ~4x.
    assert!(sigdump_real < 4.0 * sigquit_real);
    assert!(restproc_real < 4.0 * execve_real);
}

/// Process accounting sanity across a migration: CPU time restarts on
/// the new machine, ages are tracked per incarnation.
#[test]
fn accounting_across_migration() {
    let mut w = World::new(KernelConfig::paper());
    let brick = w.add_machine("brick", IsaLevel::Isa1);
    let schooner = w.add_machine("schooner", IsaLevel::Isa1);
    let obj = assemble(&workloads::cpu_hog_program(30)).unwrap();
    w.install_program(brick, "/bin/hog", &obj).unwrap();
    let pid = w.spawn_vm_proc(brick, "/bin/hog", None, alice()).unwrap();
    w.run_until_time(w.machine(brick).now + SimDuration::millis(400), 1_000_000);
    let before = w.proc_ref(brick, pid).expect("running").cpu_time();
    assert!(before > SimDuration::millis(100), "hog is burning cpu");

    let status = api::run_dumpproc(&mut w, brick, pid, alice()).unwrap();
    assert_eq!(status, 0);
    let new_pid = api::run_restart(
        &mut w,
        schooner,
        RestartArgs {
            pid,
            dump_host: Some("brick".into()),
            demand: false,
        },
        None,
        alice(),
    )
    .expect("restart");
    let info = w
        .run_until_exit(schooner, new_pid, 50_000_000)
        .expect("hog finishes on schooner");
    assert_eq!(info.status, 0);
    assert!(
        info.cpu() > SimDuration::millis(200),
        "the remaining computation happened on schooner"
    );
    // Machine stats recorded the event stream.
    assert_eq!(w.machine(brick).stats.dumps, 1);
    assert_eq!(w.machine(schooner).stats.restores, 1);
}

/// A chain of migrations: brick -> schooner -> brick, state preserved
/// across both hops.
#[test]
fn double_migration_round_trip() {
    let mut w = World::new(KernelConfig::paper());
    let brick = w.add_machine("brick", IsaLevel::Isa1);
    let schooner = w.add_machine("schooner", IsaLevel::Isa1);
    let obj = assemble(workloads::TEST_PROGRAM).unwrap();
    w.install_program(brick, "/bin/testprog", &obj).unwrap();
    let (tty, console) = w.add_terminal(brick);
    let pid = w
        .spawn_vm_proc(brick, "/bin/testprog", Some(tty), alice())
        .unwrap();
    w.run_slices(50_000);
    console.type_input("one\n");
    w.run_slices(50_000);

    let (tty_s, _cs) = w.add_terminal(schooner);
    let on_schooner = api::migrate_process(
        &mut w,
        pid,
        brick,
        schooner,
        schooner,
        Some(tty_s),
        alice(),
        RemoteRunner::Rsh,
    )
    .expect("first hop");
    w.run_slices(100_000);
    let t2 = w
        .proc_ref(schooner, on_schooner)
        .and_then(|p| p.user.tty)
        .expect("tty on schooner");
    w.terminal(t2).type_input("two\n");
    w.run_slices(100_000);

    let (tty_b, _cb) = w.add_terminal(brick);
    let back_home = api::migrate_process(
        &mut w,
        on_schooner,
        schooner,
        brick,
        brick,
        Some(tty_b),
        alice(),
        RemoteRunner::Rsh,
    )
    .expect("second hop");
    w.run_slices(100_000);
    let t3 = w
        .proc_ref(brick, back_home)
        .and_then(|p| p.user.tty)
        .expect("tty back on brick");
    let c3 = w.terminal(t3);
    c3.type_input("three\n");
    w.run_slices(100_000);
    assert!(
        c3.output_text().contains("R4 S4 K4"),
        "two hops, counters intact: {:?}",
        c3.output_text()
    );
    c3.with(|t| t.close());
    let info = w.run_until_exit(brick, back_home, 200_000).expect("done");
    assert_eq!(info.status, 0);
    let out = w.host_read_file(brick, "/tmp/testout").unwrap();
    assert_eq!(String::from_utf8_lossy(&out), "one\ntwo\nthree\n");
}

/// Pipes share the socket limitation: a shell-style pipeline cannot be
/// migrated, but each endpoint degrades to /dev/null instead of
/// corrupting anything.
#[test]
fn pipeline_degrades_cleanly() {
    let mut w = World::new(KernelConfig::paper());
    let brick = w.add_machine("brick", IsaLevel::Isa1);
    let schooner = w.add_machine("schooner", IsaLevel::Isa1);
    // A producer writing into a pipe it created, then reading the tty.
    let obj = assemble(
        r#"
        start:  move.l  #42, d0     | pipe()
                trap    #0
                move.l  d0, d5
                and.l   #0xffff, d5 | read end
                move.l  d0, d6
                lsr.l   #16, d6     | write end
        loop:   move.l  #4, d0      | write a byte into the pipe
                move.l  d6, d1
                move.l  #mark, d2
                move.l  #1, d3
                trap    #0
                move.l  #3, d0      | wait for terminal input
                move.l  #0, d1
                move.l  #buf, d2
                move.l  #16, d3
                trap    #0
                bcs     out
                tst.l   d0
                beq     out
                bra     loop
        out:    move.l  #1, d0
                move.l  #0, d1
                trap    #0
                .data
        mark:   .byte   '#'
                .bss
        buf:    .space  16
        "#,
    )
    .unwrap();
    w.install_program(brick, "/bin/piper", &obj).unwrap();
    let (tty, console) = w.add_terminal(brick);
    let pid = w
        .spawn_vm_proc(brick, "/bin/piper", Some(tty), alice())
        .unwrap();
    w.run_slices(50_000);

    let status = api::run_dumpproc(&mut w, brick, pid, alice()).unwrap();
    assert_eq!(status, 0);
    // The dump tags both pipe fds as sockets.
    let names = dumpfmt::dump_file_names(pid);
    let files =
        dumpfmt::FilesFile::decode(&w.host_read_file(brick, &names.files).unwrap()).unwrap();
    let sockets = files
        .fds
        .iter()
        .filter(|f| matches!(f, dumpfmt::FdRecord::Socket))
        .count();
    assert_eq!(sockets, 2, "both pipe ends dumped as sockets");

    let (tty2, console2) = w.add_terminal(schooner);
    let new_pid = api::run_restart(
        &mut w,
        schooner,
        RestartArgs {
            pid,
            dump_host: Some("brick".into()),
            demand: false,
        },
        Some(tty2),
        alice(),
    )
    .expect("restart despite pipes");
    // The restored program writes its marks into /dev/null now but is
    // otherwise alive and interactive.
    w.run_slices(100_000);
    console2.type_input("tick\n");
    w.run_slices(100_000);
    console2.with(|t| t.close());
    let info = w.run_until_exit(schooner, new_pid, 200_000).expect("exits");
    assert_eq!(info.status, 0);
    let _ = console;
}
