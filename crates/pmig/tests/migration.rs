//! End-to-end migration tests: the paper's §4.2 example (move a running
//! program from `brick` to `schooner`), the command layer, and the §7
//! limitations.

use m68vm::{assemble, IsaLevel};
use pmig::commands::RestartArgs;
use pmig::{api, workloads, RemoteRunner};
use sysdefs::{Credentials, Gid, Pid, Signal, Uid};
use ukernel::{KernelConfig, World};

fn alice() -> Credentials {
    Credentials::user(Uid(100), Gid(10))
}

/// Boot the paper's two-machine installation.
fn brick_and_schooner() -> (World, usize, usize) {
    let mut w = World::new(KernelConfig::paper());
    let brick = w.add_machine("brick", IsaLevel::Isa1);
    let schooner = w.add_machine("schooner", IsaLevel::Isa1);
    (w, brick, schooner)
}

/// Spawns the §6.2 test program on a machine, runs it up to its `n`-th
/// input prompt, and returns (pid, tty handle).
fn start_test_program(w: &mut World, mid: usize, prompts: u32) -> (Pid, tty::TtyHandle) {
    let obj = assemble(workloads::TEST_PROGRAM).unwrap();
    w.install_program(mid, "/bin/testprog", &obj).unwrap();
    let (tty, handle) = w.add_terminal(mid);
    let pid = w
        .spawn_vm_proc(mid, "/bin/testprog", Some(tty), alice())
        .unwrap();
    w.run_slices(20_000);
    for i in 1..prompts {
        handle.type_input(&format!("line {i}\n"));
        w.run_slices(20_000);
    }
    (pid, handle)
}

#[test]
fn paper_section_4_2_dumpproc_then_restart_on_schooner() {
    let (mut w, brick, schooner) = brick_and_schooner();
    let (pid, handle) = start_test_program(&mut w, brick, 3);
    assert!(handle.output_text().contains("R3 S3 K3"));

    // "Type dumpproc -p 1234 on a terminal on brick."
    let status = api::run_dumpproc(&mut w, brick, pid, alice()).expect("dumpproc runs");
    assert_eq!(status, 0, "dumpproc must succeed");

    // The rewritten filesXXXXX now carries /n/brick-prefixed names.
    let names = dumpfmt::dump_file_names(pid);
    let files =
        dumpfmt::FilesFile::decode(&w.host_read_file(brick, &names.files).unwrap()).unwrap();
    match &files.fds[3] {
        dumpfmt::FdRecord::File { path, .. } => {
            assert_eq!(path, "/n/brick/tmp/testout");
        }
        other => panic!("fd3: {other:?}"),
    }
    assert_eq!(files.cwd, "/n/brick");
    match &files.fds[0] {
        dumpfmt::FdRecord::File { path, .. } => assert_eq!(path, "/dev/tty"),
        other => panic!("fd0: {other:?}"),
    }

    // "Then type restart -p 1234 -h brick on a terminal on schooner."
    let (tty2, handle2) = w.add_terminal(schooner);
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
    .expect("restart succeeds");

    // The process continues on schooner: counters pick up at 4 and the
    // appended line lands in brick's file over NFS.
    w.run_slices(50_000);
    handle2.type_input("line from schooner\n");
    w.run_slices(50_000);
    let out = handle2.output_text();
    assert!(out.contains("R4 S4 K4"), "continuity: {out:?}");
    handle2.with(|t| t.close());
    let info = w.run_until_exit(schooner, new_pid, 100_000).expect("exits");
    assert_eq!(info.status, 0);
    let outfile = w.host_read_file(brick, "/tmp/testout").unwrap();
    assert_eq!(
        String::from_utf8_lossy(&outfile),
        "line 1\nline 2\nline from schooner\n"
    );
    // The restored process kept the owner's credentials.
    assert_eq!(w.finished[&(schooner, new_pid.as_u32())].status, 0);
}

#[test]
fn migrate_command_moves_process_between_machines() {
    let (mut w, brick, schooner) = brick_and_schooner();
    let (pid, _handle) = start_test_program(&mut w, brick, 2);

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
    .expect("migrate succeeds");
    assert_ne!(new_pid, pid, "the process id changes after migration");

    // The old process is gone from brick; the new one lives on schooner.
    assert!(api::find_restarted(&w, brick, pid).is_none());
    let old = w.finished[&(brick, pid.as_u32())].clone();
    assert_eq!(old.status, 128 + Signal::SIGDUMP.number());
}

#[test]
fn migrate_within_one_machine() {
    let (mut w, brick, _schooner) = brick_and_schooner();
    let (pid, _handle) = start_test_program(&mut w, brick, 2);
    let (cmd_tty, _cmd_console) = w.add_terminal(brick);
    let new_pid = api::migrate_process(
        &mut w,
        pid,
        brick,
        brick,
        brick,
        Some(cmd_tty),
        alice(),
        RemoteRunner::Rsh,
    )
    .expect("local migrate");
    assert_ne!(new_pid, pid);
}

#[test]
fn dumpproc_of_missing_process_fails_cleanly() {
    let (mut w, brick, _schooner) = brick_and_schooner();
    let status = api::run_dumpproc(&mut w, brick, Pid(999), alice()).unwrap();
    assert_eq!(api::status_errno(status), Some(sysdefs::Errno::ESRCH));
}

#[test]
fn restart_with_missing_dump_files_fails_cleanly() {
    let (mut w, brick, _schooner) = brick_and_schooner();
    let err = api::run_restart(
        &mut w,
        brick,
        RestartArgs {
            pid: Pid(777),
            dump_host: None,
            demand: false,
        },
        None,
        alice(),
    )
    .unwrap_err();
    assert_eq!(
        err,
        api::MigrationError::Failed(sysdefs::Errno::ENOENT.as_u16() as u32)
    );
}

#[test]
fn restart_rejects_corrupt_magic() {
    let (mut w, brick, _schooner) = brick_and_schooner();
    let (pid, _handle) = start_test_program(&mut w, brick, 2);
    let status = api::run_dumpproc(&mut w, brick, pid, alice()).unwrap();
    assert_eq!(status, 0);
    // Corrupt the stack file's magic.
    let names = dumpfmt::dump_file_names(pid);
    let mut stack = w.host_read_file(brick, &names.stack).unwrap().to_vec();
    stack[0] ^= 0xff;
    w.host_write_file(brick, &names.stack, stack).unwrap();
    let err = api::run_restart(
        &mut w,
        brick,
        RestartArgs {
            pid,
            dump_host: None,
            demand: false,
        },
        None,
        alice(),
    )
    .unwrap_err();
    assert!(matches!(err, api::MigrationError::Failed(_)));
}

#[test]
fn only_owner_or_root_may_dump() {
    let (mut w, brick, _schooner) = brick_and_schooner();
    let (pid, _handle) = start_test_program(&mut w, brick, 2);
    let mallory = Credentials::user(Uid(666), Gid(66));
    let status = api::run_dumpproc(&mut w, brick, pid, mallory).unwrap();
    assert_eq!(api::status_errno(status), Some(sysdefs::Errno::EPERM));
    // Root can.
    let status = api::run_dumpproc(&mut w, brick, pid, Credentials::root()).unwrap();
    assert_eq!(status, 0);
}

#[test]
fn socket_fds_come_back_as_dev_null() {
    let (mut w, brick, schooner) = brick_and_schooner();
    // A program with a socket pair that also counts via the terminal.
    let obj = assemble(
        r#"
        start:  move.l  #97, d0     | socket pair
                trap    #0
        loop:   add.l   #1, d6
                move.l  #3, d0      | wait for terminal input
                move.l  #0, d1
                move.l  #buf, d2
                move.l  #32, d3
                trap    #0
                bcs     out
                tst.l   d0
                beq     out
                bra     loop
        out:    move.l  #1, d0
                move.l  d6, d1
                trap    #0
                .bss
        buf:    .space  32
        "#,
    )
    .unwrap();
    w.install_program(brick, "/bin/sockprog", &obj).unwrap();
    let (tty, handle) = w.add_terminal(brick);
    let pid = w
        .spawn_vm_proc(brick, "/bin/sockprog", Some(tty), alice())
        .unwrap();
    w.run_slices(20_000);
    handle.type_input("tick\n");
    w.run_slices(20_000);

    let status = api::run_dumpproc(&mut w, brick, pid, alice()).unwrap();
    assert_eq!(status, 0);
    let (tty2, handle2) = w.add_terminal(schooner);
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
    .expect("restart with sockets degraded");
    // The program still runs (its socket fds are /dev/null now).
    w.run_slices(50_000);
    handle2.type_input("tock\n");
    w.run_slices(50_000);
    handle2.with(|t| t.close());
    let info = w.run_until_exit(schooner, new_pid, 100_000).expect("exits");
    // d6 was 1 at the first prompt, 2 at the dumped prompt, and counts
    // once more for the post-migration line: exit status 3.
    assert_eq!(info.status, 3);
}

#[test]
fn editor_keeps_raw_mode_through_local_restart() {
    let (mut w, brick, schooner) = brick_and_schooner();
    let obj = assemble(workloads::EDITOR_PROGRAM).unwrap();
    w.install_program(brick, "/bin/editor", &obj).unwrap();
    let (tty, handle) = w.add_terminal(brick);
    let pid = w
        .spawn_vm_proc(brick, "/bin/editor", Some(tty), alice())
        .unwrap();
    w.run_slices(20_000);
    // Raw mode: single keystrokes are processed immediately, unechoed.
    handle.type_input("a");
    w.run_slices(20_000);
    assert_eq!(handle.output_text(), "[a]");
    assert!(handle.with(|t| t.gtty().is_raw()));

    let status = api::run_dumpproc(&mut w, brick, pid, alice()).unwrap();
    assert_eq!(status, 0);
    // Restart locally on schooner's own terminal (the §4.2 advice: run
    // restart locally so "the terminal modes are preserved").
    let (tty2, handle2) = w.add_terminal(schooner);
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
    .expect("editor restarts");
    w.run_slices(50_000);
    // The new terminal is already in raw mode: a single keystroke works.
    assert!(handle2.with(|t| t.gtty().is_raw()), "raw mode preserved");
    handle2.type_input("b");
    w.run_slices(50_000);
    assert!(handle2.output_text().contains("[b]"));
    handle2.type_input("q");
    w.run_slices(50_000);
    let info = w.run_until_exit(schooner, new_pid, 100_000).expect("quit");
    assert_eq!(info.status, 0);
}

#[test]
fn rsh_migrate_cannot_preserve_raw_mode() {
    // §4.1: "Because of the way that rsh is implemented, certain
    // terminal modes can not be preserved ... thus, in these cases,
    // making this command unsuitable for the migration of visually
    // oriented programs."
    let (mut w, brick, schooner) = brick_and_schooner();
    let obj = assemble(workloads::EDITOR_PROGRAM).unwrap();
    w.install_program(brick, "/bin/editor", &obj).unwrap();
    let (tty, handle) = w.add_terminal(brick);
    let pid = w
        .spawn_vm_proc(brick, "/bin/editor", Some(tty), alice())
        .unwrap();
    w.run_slices(20_000);
    handle.type_input("a");
    w.run_slices(20_000);

    // migrate issued on *brick*, so the restart half runs over rsh with
    // a pipe for a terminal.
    let new_pid = api::migrate_process(
        &mut w,
        pid,
        brick,
        schooner,
        brick,
        None,
        alice(),
        RemoteRunner::Rsh,
    )
    .expect("migrate completes");
    w.run_slices(50_000);
    // The editor survives but its terminal is a cooked rsh pipe: single
    // keystrokes do NOT reach it.
    let p = w.proc_ref(schooner, new_pid).expect("restored process");
    let pipe_tty = p.user.tty.expect("has an rsh pipe endpoint");
    let pipe = w.terminal(pipe_tty);
    assert!(!pipe.with(|t| t.gtty().is_raw()), "mode was not preserved");
    pipe.type_input("b");
    w.run_slices(50_000);
    assert!(
        !pipe.output_text().contains("[b]"),
        "editor is useless over the rsh pipe, exactly as the paper warns"
    );
}

#[test]
fn pid_dependent_program_breaks_after_migration() {
    // §7: a process that reopens a temp file named after getpid() "will
    // no longer be able to locate that file" once migrated.
    let (mut w, brick, schooner) = brick_and_schooner();
    let obj = assemble(workloads::PID_TEMPFILE_PROGRAM).unwrap();
    w.install_program(brick, "/bin/pidprog", &obj).unwrap();
    let (tty, handle) = w.add_terminal(brick);
    let pid = w
        .spawn_vm_proc(brick, "/bin/pidprog", Some(tty), alice())
        .unwrap();
    w.run_slices(20_000);
    handle.type_input("go\n");
    w.run_slices(20_000);

    let status = api::run_dumpproc(&mut w, brick, pid, alice()).unwrap();
    assert_eq!(status, 0);
    let (tty2, handle2) = w.add_terminal(schooner);
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
    .expect("restart itself succeeds");
    w.run_slices(50_000);
    handle2.type_input("go\n");
    let info = w.run_until_exit(schooner, new_pid, 200_000).expect("exits");
    assert_eq!(info.status, 3, "the program lost its pid-named temp file");
}

#[test]
fn pid_virtualization_extension_fixes_the_tempfile_problem() {
    // §7's proposed solution, implemented behind
    // KernelConfig::virtualize_ids: getpid() keeps answering with the
    // old pid, so the temp file name stays stable... as long as the file
    // itself is reachable, which dumpproc's /n-rewrite does not cover
    // for names the *program* builds. Migrating back to the same
    // machine demonstrates the fix cleanly.
    let mut w = World::new(KernelConfig::with_virtualized_ids());
    let brick = w.add_machine("brick", IsaLevel::Isa1);
    let obj = assemble(workloads::PID_TEMPFILE_PROGRAM).unwrap();
    w.install_program(brick, "/bin/pidprog", &obj).unwrap();
    let (tty, handle) = w.add_terminal(brick);
    let pid = w
        .spawn_vm_proc(brick, "/bin/pidprog", Some(tty), alice())
        .unwrap();
    w.run_slices(20_000);
    handle.type_input("go\n");
    w.run_slices(20_000);

    let status = api::run_dumpproc(&mut w, brick, pid, alice()).unwrap();
    assert_eq!(status, 0);
    let (tty2, handle2) = w.add_terminal(brick);
    let new_pid = api::run_restart(
        &mut w,
        brick,
        RestartArgs {
            pid,
            dump_host: None,
            demand: false,
        },
        Some(tty2),
        alice(),
    )
    .expect("restart succeeds");
    assert_ne!(new_pid, pid, "the real pid still differs");
    w.run_slices(50_000);
    handle2.type_input("go\n");
    w.run_slices(50_000);
    handle2.with(|t| t.close());
    let info = w.run_until_exit(brick, new_pid, 200_000).expect("exits");
    assert_eq!(
        info.status, 0,
        "with getpid() virtualised the temp file stays reachable"
    );
}

#[test]
fn env_dependent_program_crashes_after_migration() {
    // §7: "a process that acts differently depending on which machine it
    // is running ... will make the wrong decision and crash" once the
    // hostname changes under it.
    let (mut w, brick, schooner) = brick_and_schooner();
    let obj = assemble(workloads::ENV_DEPENDENT_PROGRAM).unwrap();
    w.install_program(brick, "/bin/envprog", &obj).unwrap();
    let (tty, handle) = w.add_terminal(brick);
    let pid = w
        .spawn_vm_proc(brick, "/bin/envprog", Some(tty), alice())
        .unwrap();
    w.run_slices(20_000);
    handle.type_input("tick\n");
    w.run_slices(20_000);

    let status = api::run_dumpproc(&mut w, brick, pid, alice()).unwrap();
    assert_eq!(status, 0);
    let (tty2, handle2) = w.add_terminal(schooner);
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
    .expect("restart succeeds");
    w.run_slices(50_000);
    handle2.type_input("tick\n");
    let info = w.run_until_exit(schooner, new_pid, 200_000).expect("dies");
    assert_eq!(
        info.status,
        128 + Signal::SIGSEGV.number(),
        "wrong decision, crash — as §7 predicts"
    );
}

#[test]
fn waiting_parent_gets_echild_after_migration() {
    // §7: "processes that wait for one or more of their children to
    // complete should not be migrated while waiting."
    let (mut w, brick, schooner) = brick_and_schooner();
    let obj = assemble(workloads::WAITING_PARENT_PROGRAM).unwrap();
    w.install_program(brick, "/bin/waiter", &obj).unwrap();
    let (tty, _handle) = w.add_terminal(brick);
    let pid = w
        .spawn_vm_proc(brick, "/bin/waiter", Some(tty), alice())
        .unwrap();
    w.run_slices(20_000); // Parent is now blocked in wait().

    let status = api::run_dumpproc(&mut w, brick, pid, alice()).unwrap();
    assert_eq!(status, 0);
    let (tty2, _handle2) = w.add_terminal(schooner);
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
    .expect("restart succeeds");
    let info = w.run_until_exit(schooner, new_pid, 200_000).expect("exits");
    assert_eq!(
        info.status, 10,
        "wait() after migration fails: the children stayed behind"
    );
}

#[test]
fn heterogeneity_isa1_to_isa2_ok_but_not_back() {
    // §7: Sun-2 (68010) -> Sun-3 (68020) works; the reverse does not.
    let mut w = World::new(KernelConfig::paper());
    let sun3 = w.add_machine("sun3", IsaLevel::Isa2);
    let sun2 = w.add_machine("sun2", IsaLevel::Isa1);
    // An ISA-2 program counting on the terminal.
    let obj = assemble(
        r#"
        start:  move.l  #0, d6
        loop:   add.l   #1, d6
                extb2   d7          | an instruction only the 68020 has
                move.l  #3, d0
                move.l  #0, d1
                move.l  #buf, d2
                move.l  #32, d3
                trap    #0
                bcs     out
                tst.l   d0
                beq     out
                bra     loop
        out:    move.l  #1, d0
                move.l  d6, d1
                trap    #0
                .bss
        buf:    .space  32
        "#,
    )
    .unwrap();
    assert_eq!(obj.required_isa, IsaLevel::Isa2);
    w.install_program(sun3, "/bin/prog020", &obj).unwrap();
    let (tty, handle) = w.add_terminal(sun3);
    let pid = w
        .spawn_vm_proc(sun3, "/bin/prog020", Some(tty), alice())
        .unwrap();
    w.run_slices(20_000);
    handle.type_input("x\n");
    w.run_slices(20_000);

    let status = api::run_dumpproc(&mut w, sun3, pid, alice()).unwrap();
    assert_eq!(status, 0);
    // Restart on the 68010 machine: rest_proc refuses the image (the
    // machine id in the dumped a.out names a superset ISA).
    let err = api::run_restart(
        &mut w,
        sun2,
        RestartArgs {
            pid,
            dump_host: Some("sun3".into()),
            demand: false,
        },
        None,
        alice(),
    )
    .unwrap_err();
    assert_eq!(
        err,
        api::MigrationError::Failed(sysdefs::Errno::ENOEXEC.as_u16() as u32)
    );
    // Restart on another 68020-class machine would be fine — here, the
    // same machine.
    let (tty2, handle2) = w.add_terminal(sun3);
    let new_pid = api::run_restart(
        &mut w,
        sun3,
        RestartArgs {
            pid,
            dump_host: None,
            demand: false,
        },
        Some(tty2),
        alice(),
    )
    .expect("isa2 -> isa2 restart works");
    w.run_slices(50_000);
    handle2.with(|t| t.close());
    let info = w.run_until_exit(sun3, new_pid, 100_000).expect("exits");
    assert_eq!(info.status, 2, "counts from before migration survive");
}

#[test]
fn undump_command_produces_runnable_executable() {
    let (mut w, brick, _schooner) = brick_and_schooner();
    let (pid, _handle) = start_test_program(&mut w, brick, 2);
    w.host_post_signal(brick, pid, Signal::SIGQUIT);
    w.run_until_exit(brick, pid, 50_000).expect("core dumped");
    let core_path = format!("/usr/tmp/core{:05}", pid.as_u32());
    let cmd = w.spawn_native_proc(
        brick,
        "undump",
        None,
        Credentials::root(),
        move |sys| async move {
            match pmig::commands::undump_cmd(&sys, "/bin/testprog", &core_path, "/bin/testprog2")
                .await
            {
                Ok(()) => 0,
                Err(e) => e.as_u16() as u32,
            }
        },
    );
    let info = w.run_until_exit(brick, cmd, 200_000).expect("undump runs");
    assert_eq!(info.status, 0);
    // The merged executable starts from the beginning but with the old
    // static counter value: the register and stack counters restart at 1
    // while the static counter continues from its dumped value of 2,
    // printing 3 on the first iteration.
    let (tty, handle) = w.add_terminal(brick);
    let pid2 = w
        .spawn_vm_proc(brick, "/bin/testprog2", Some(tty), Credentials::root())
        .unwrap();
    w.run_slices(50_000);
    let out = handle.output_text();
    assert!(out.contains("R1 S3 K1"), "undump semantics: {out:?}");
    handle.with(|t| t.close());
    w.run_until_exit(brick, pid2, 100_000).expect("exits");
}

#[test]
fn restart_requires_ownership() {
    // rest_proc: "only the owner of the process or the superuser is able
    // to do it" — a third user cannot restart someone else's dump.
    let (mut w, brick, _schooner) = brick_and_schooner();
    let (pid, _handle) = start_test_program(&mut w, brick, 2);
    let status = api::run_dumpproc(&mut w, brick, pid, alice()).unwrap();
    assert_eq!(status, 0);

    let mallory = Credentials::user(Uid(666), Gid(66));
    let err = api::run_restart(
        &mut w,
        brick,
        RestartArgs {
            pid,
            dump_host: None,
            demand: false,
        },
        None,
        mallory,
    )
    .unwrap_err();
    assert!(
        matches!(err, api::MigrationError::Failed(_)),
        "non-owner restart must fail: {err:?}"
    );

    // The superuser can.
    let (tty, _c) = w.add_terminal(brick);
    let restored = api::run_restart(
        &mut w,
        brick,
        RestartArgs {
            pid,
            dump_host: None,
            demand: false,
        },
        Some(tty),
        Credentials::root(),
    )
    .expect("root restart");
    // And the restored process runs with the *original owner's*
    // credentials, re-established from the stack file.
    let p = w.proc_ref(brick, restored).expect("alive");
    assert_eq!(p.user.cred.ruid, Uid(100));
}

#[test]
fn dump_files_are_private_to_the_owner() {
    let (mut w, brick, _schooner) = brick_and_schooner();
    let (pid, _handle) = start_test_program(&mut w, brick, 2);
    let status = api::run_dumpproc(&mut w, brick, pid, alice()).unwrap();
    assert_eq!(status, 0);
    // Another user cannot read the stack file (it holds the process's
    // whole memory).
    let names = dumpfmt::dump_file_names(pid);
    let stack_path = names.stack.clone();
    let snoop = w.spawn_native_proc(
        brick,
        "snoop",
        None,
        Credentials::user(Uid(666), Gid(66)),
        move |sys| async move {
            match sys.open(&stack_path, 0, 0).await {
                Err(sysdefs::Errno::EACCES) => 0,
                other => {
                    let _ = other;
                    1
                }
            }
        },
    );
    let info = w.run_until_exit(brick, snoop, 100_000).expect("snoop");
    assert_eq!(info.status, 0, "dump files are mode 0600");
}
