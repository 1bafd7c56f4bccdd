//! End-to-end kernel tests: guest programs, blocking I/O, signals,
//! `SIGDUMP` and `rest_proc()` at the raw kernel level.

use m68vm::{assemble, IsaLevel};
use sysdefs::{Credentials, Gid, Pid, Signal, Uid};
use ukernel::{KernelConfig, World};

/// The paper's §6.2 test program: "increments and prints three counters
/// (a register, a static variable allocated on the data segment and a
/// variable allocated on the stack). On each iteration it inputs a line
/// and appends it to an output file."
pub const TEST_PROGRAM: &str = r#"
        .equ    E_EXIT, 1
        .equ    E_READ, 3
        .equ    E_WRITE, 4
        .equ    E_CREAT, 8

start:  move.l  #E_CREAT, d0
        move.l  #outname, d1
        move.l  #420, d2            | 0644
        trap    #0
        move.l  d0, d7              | output fd
        move.l  #0, d6              | register counter
        move.l  #0, -(sp)           | stack counter

loop:   add.l   #1, d6              | register counter++
        add.l   #1, scount          | static counter++
        add.l   #1, (sp)            | stack counter++

        move.l  d6, d0
        jsr     digit
        move.b  d0, rdig
        move.l  scount, d0
        jsr     digit
        move.b  d0, sdig
        move.l  (sp), d0
        jsr     digit
        move.b  d0, kdig

        move.l  #E_WRITE, d0        | print the status line
        move.l  #1, d1
        move.l  #msg, d2
        move.l  #msglen, d3
        trap    #0

        move.l  #E_READ, d0         | prompt for a line
        move.l  #0, d1
        move.l  #buf, d2
        move.l  #128, d3
        trap    #0
        bcs     done
        tst.l   d0
        beq     done                | EOF
        move.l  d0, d3              | append the line to the output file
        move.l  #E_WRITE, d0
        move.l  d7, d1
        move.l  #buf, d2
        trap    #0
        bra     loop

done:   move.l  #E_EXIT, d0
        move.l  #0, d1
        trap    #0

| digit: d0 = '0' + d0 % 10 (clobbers d1)
digit:  move.l  d0, d1
        divs.l  #10, d1
        muls.l  #10, d1
        sub.l   d1, d0
        add.l   #'0', d0
        rts

        .data
outname:.asciz  "/tmp/testout"
msg:    .ascii  "R"
rdig:   .byte   '0'
        .ascii  " S"
sdig:   .byte   '0'
        .ascii  " K"
kdig:   .byte   '0'
        .ascii  "\n> "
        .equ    msglen, 11
scount: .long   0
        .bss
buf:    .space  128
"#;

fn world_one_machine() -> (World, usize) {
    let mut w = World::new(KernelConfig::paper());
    let brick = w.add_machine("brick", IsaLevel::Isa1);
    (w, brick)
}

fn alice() -> Credentials {
    Credentials::user(Uid(100), Gid(10))
}

#[test]
fn hello_world_guest() {
    let (mut w, m) = world_one_machine();
    let obj = assemble(
        r#"
        start:  move.l  #4, d0      | write
                move.l  #1, d1
                move.l  #msg, d2
                move.l  #14, d3
                trap    #0
                move.l  #1, d0      | exit
                move.l  #0, d1
                trap    #0
                .data
        msg:    .ascii  "hello, world!\n"
        "#,
    )
    .unwrap();
    w.install_program(m, "/bin/hello", &obj).unwrap();
    let (tty, handle) = w.add_terminal(m);
    let pid = w
        .spawn_vm_proc(m, "/bin/hello", Some(tty), alice())
        .unwrap();
    let info = w.run_until_exit(m, pid, 10_000).expect("program exits");
    assert_eq!(info.status, 0);
    assert!(handle.output_text().contains("hello, world!"));
    assert!(info.cpu() > simtime::SimDuration::ZERO);
}

#[test]
fn test_program_reads_lines_and_appends() {
    let (mut w, m) = world_one_machine();
    let obj = assemble(TEST_PROGRAM).unwrap();
    w.install_program(m, "/bin/testprog", &obj).unwrap();
    let (tty, handle) = w.add_terminal(m);
    let pid = w
        .spawn_vm_proc(m, "/bin/testprog", Some(tty), alice())
        .unwrap();
    // Run until it blocks on input.
    w.run_slices(10_000);
    assert!(handle.output_text().contains("R1 S1 K1"));
    handle.type_input("first line\n");
    w.run_slices(10_000);
    assert!(handle.output_text().contains("R2 S2 K2"));
    handle.type_input("second line\n");
    w.run_slices(10_000);
    assert!(handle.output_text().contains("R3 S3 K3"));
    // EOF terminates it.
    handle.with(|t| t.close());
    let info = w.run_until_exit(m, pid, 10_000).expect("exit on EOF");
    assert_eq!(info.status, 0);
    // The appended lines are in the output file (cwd is /).
    let out = w.host_read_file(m, "/tmp/testout").unwrap();
    assert_eq!(*out, b"first line\nsecond line\n");
}

#[test]
fn sigdump_writes_three_files_and_rest_proc_resumes() {
    let (mut w, m) = world_one_machine();
    let obj = assemble(TEST_PROGRAM).unwrap();
    w.install_program(m, "/bin/testprog", &obj).unwrap();
    let (tty, handle) = w.add_terminal(m);
    let pid = w
        .spawn_vm_proc(m, "/bin/testprog", Some(tty), alice())
        .unwrap();
    // Iterate twice, then dump at the third input prompt.
    w.run_slices(10_000);
    handle.type_input("one\n");
    w.run_slices(10_000);
    handle.type_input("two\n");
    w.run_slices(10_000);
    assert!(handle.output_text().contains("R3 S3 K3"));

    w.host_post_signal(m, pid, Signal::SIGDUMP);
    let info = w.run_until_exit(m, pid, 10_000).expect("dumped and died");
    assert_eq!(info.status, 128 + Signal::SIGDUMP.number());

    // The three files exist with their magic numbers.
    let names = dumpfmt::dump_file_names(pid);
    let aout_bytes = w.host_read_file(m, &names.a_out).expect("a.out dump");
    let files_bytes = w.host_read_file(m, &names.files).expect("files dump");
    let stack_bytes = w.host_read_file(m, &names.stack).expect("stack dump");
    assert!(aout::parse_executable(&aout_bytes).is_ok());
    let files = dumpfmt::FilesFile::decode(&files_bytes).expect("magic 0445");
    let stack = dumpfmt::StackFile::decode(&stack_bytes).expect("magic 0444");
    assert_eq!(files.host, "brick");
    assert_eq!(files.cwd, "/");
    assert_eq!(stack.cred.ruid, Uid(100));
    // fd 3 is the output file with its recorded path and offset.
    match &files.fds[3] {
        dumpfmt::FdRecord::File { path, offset, .. } => {
            assert_eq!(path, "/tmp/testout");
            assert_eq!(*offset, 8); // "one\ntwo\n"
        }
        other => panic!("fd3 should be the output file, got {other:?}"),
    }

    // Restart at the kernel level: a native process reopens stdio on a
    // *new* terminal and calls rest_proc(); counters must continue.
    let (tty2, handle2) = w.add_terminal(m);
    let aout_path = names.a_out.clone();
    let stack_path = names.stack.clone();
    let restarter = w.spawn_native_proc(
        m,
        "mini-restart",
        Some(tty2),
        Credentials::user(Uid(100), Gid(10)),
        move |sys| async move {
            let e = sys.rest_proc(&aout_path, &stack_path, None, None).await;
            panic!("rest_proc failed: {e}");
        },
    );
    w.run_slices(50_000);
    // The restored process re-issues its blocked read on the new tty.
    handle2.type_input("three\n");
    w.run_slices(50_000);
    let out2 = handle2.output_text();
    assert!(
        out2.contains("R4 S4 K4"),
        "restored counters must continue: {out2:?}"
    );
    handle2.with(|t| t.close());
    let info2 = w
        .run_until_exit(m, restarter, 50_000)
        .expect("restored exit");
    assert_eq!(info2.status, 0);
}

#[test]
fn fork_and_wait() {
    let (mut w, m) = world_one_machine();
    // Parent forks; child exits with status 7; parent waits and writes
    // the child's status digit.
    let obj = assemble(
        r#"
        start:  move.l  #2, d0      | fork
                trap    #0
                tst.l   d0
                beq     child
                move.l  #7, d0      | wait (status into stat)
                move.l  #stat, d1
                trap    #0
                move.l  stat, d2
                add.l   #'0', d2
                move.b  d2, dig
                move.l  #4, d0      | write the digit
                move.l  #1, d1
                move.l  #dig, d2
                move.l  #2, d3
                trap    #0
                move.l  #1, d0
                move.l  #0, d1
                trap    #0
        child:  move.l  #1, d0      | exit(7)
                move.l  #7, d1
                trap    #0
                .data
        stat:   .long   0
        dig:    .byte   '0'
                .byte   '\n'
        "#,
    )
    .unwrap();
    w.install_program(m, "/bin/forker", &obj).unwrap();
    let (tty, handle) = w.add_terminal(m);
    let pid = w
        .spawn_vm_proc(m, "/bin/forker", Some(tty), alice())
        .unwrap();
    let info = w.run_until_exit(m, pid, 100_000).expect("parent exits");
    assert_eq!(info.status, 0);
    assert!(handle.output_text().contains('7'));
}

#[test]
fn native_process_full_syscall_tour() {
    let (mut w, m) = world_one_machine();
    let pid = w.spawn_native_proc(
        m,
        "tour",
        None,
        Credentials::root(),
        move |sys| async move {
            sys.mkdir("/u/alice", 0o755).await.unwrap();
            sys.chdir("/u/alice").await.unwrap();
            assert_eq!(sys.getwd().await.unwrap(), "/u/alice");
            let fd = sys.creat("notes.txt", 0o644).await.unwrap();
            sys.write(fd, b"line one\n").await.unwrap();
            sys.write(fd, b"line two\n").await.unwrap();
            sys.close(fd).await.unwrap();
            let fd = sys.open("notes.txt", 0, 0).await.unwrap();
            assert_eq!(sys.read_all(fd).await.unwrap(), b"line one\nline two\n");
            sys.lseek(fd, 5, ukernel::Whence::Set).await.unwrap();
            assert_eq!(sys.read(fd, 3).await.unwrap(), b"one");
            sys.close(fd).await.unwrap();
            sys.symlink("/u/alice/notes.txt", "/u/alice/ln")
                .await
                .unwrap();
            assert_eq!(
                sys.readlink("/u/alice/ln").await.unwrap(),
                "/u/alice/notes.txt"
            );
            assert_eq!(sys.stat_size("/u/alice/ln").await.unwrap(), 18);
            sys.unlink("ln").await.unwrap();
            assert!(sys.open("/u/alice/ln", 0, 0).await.is_err());
            assert_eq!(sys.gethostname().await.unwrap(), "brick");
            assert!(sys.getpid().await.unwrap() > Pid(1));
            0
        },
    );
    let info = w.run_until_exit(m, pid, 100_000).expect("tour exits");
    assert_eq!(info.status, 0, "native tour must pass all asserts");
}

#[test]
fn nfs_read_write_across_machines() {
    let mut w = World::new(KernelConfig::paper());
    let a = w.add_machine("brick", IsaLevel::Isa1);
    let _b = w.add_machine("schooner", IsaLevel::Isa1);
    let pid = w.spawn_native_proc(
        m_id(a),
        "nfswriter",
        None,
        Credentials::root(),
        move |sys| async move {
            let fd = sys.creat("/n/schooner/tmp/shared", 0o644).await.unwrap();
            sys.write(fd, b"over the wire").await.unwrap();
            sys.close(fd).await.unwrap();
            let fd = sys.open("/n/schooner/tmp/shared", 0, 0).await.unwrap();
            let back = sys.read_all(fd).await.unwrap();
            assert_eq!(back, b"over the wire");
            sys.close(fd).await.unwrap();
            0
        },
    );
    let info = w.run_until_exit(a, pid, 100_000).expect("exits");
    assert_eq!(info.status, 0);
    // The file is on schooner's local fs.
    let remote = w.host_read_file(1, "/tmp/shared").unwrap();
    assert_eq!(*remote, b"over the wire");
    assert!(w.machine(a).stats.nfs_rpcs > 0, "must have used NFS");
}

fn m_id(x: usize) -> usize {
    x
}

#[test]
fn sockets_pipe_data_and_limitation_tag() {
    let (mut w, m) = world_one_machine();
    // A VM program creates a socket pair, writes through it, reads back.
    let obj = assemble(
        r#"
        start:  move.l  #97, d0     | socket (socketpair)
                trap    #0
                move.l  d0, d5      | low half: fd0
                and.l   #0xffff, d5
                move.l  d0, d6      | high half: fd1
                lsr.l   #16, d6
                move.l  #4, d0      | write "ping" on side 0
                move.l  d5, d1
                move.l  #ping, d2
                move.l  #4, d3
                trap    #0
                move.l  #3, d0      | read from side 1
                move.l  d6, d1
                move.l  #buf, d2
                move.l  #16, d3
                trap    #0
                move.l  #4, d0      | echo what arrived to stdout
                move.l  #1, d1
                move.l  #buf, d2
                move.l  #4, d3
                trap    #0
                move.l  #3, d0      | now block reading the empty reverse path
                move.l  d5, d1
                move.l  #buf, d2
                move.l  #16, d3
                trap    #0
                move.l  #1, d0
                move.l  #0, d1
                trap    #0
                .data
        ping:   .ascii  "ping"
                .bss
        buf:    .space  16
        "#,
    )
    .unwrap();
    w.install_program(m, "/bin/sock", &obj).unwrap();
    let (tty, handle) = w.add_terminal(m);
    let pid = w.spawn_vm_proc(m, "/bin/sock", Some(tty), alice()).unwrap();
    w.run_slices(20_000);
    assert!(handle.output_text().contains("ping"));
    // Blocked on the empty direction now; dump it and check the socket
    // fds are tagged as sockets ("no extra information is kept").
    w.host_post_signal(m, pid, Signal::SIGDUMP);
    w.run_until_exit(m, pid, 20_000).expect("dumped");
    let names = dumpfmt::dump_file_names(pid);
    let files = dumpfmt::FilesFile::decode(&w.host_read_file(m, &names.files).unwrap()).unwrap();
    assert_eq!(files.fds[3], dumpfmt::FdRecord::Socket);
    assert_eq!(files.fds[4], dumpfmt::FdRecord::Socket);
}

#[test]
fn pipe_write_larger_than_the_buffer_completes_in_parts() {
    let (mut w, m) = world_one_machine();
    // The parent writes 5000 bytes, more than the 4096-byte pipe buffer
    // holds, looping on the returned count; the child drains the pipe in
    // 8192-byte reads until EOF and copies what arrives to /tmp/got.
    let obj = assemble(
        r#"
        start:  move.l  #42, d0     | pipe()
                trap    #0
                move.l  d0, d5
                and.l   #0xffff, d5 | read end
                move.l  d0, d6
                lsr.l   #16, d6     | write end
                move.l  #2, d0      | fork
                trap    #0
                tst.l   d0
                beq     child
                move.l  #6, d0      | parent: close the read end
                move.l  d5, d1
                trap    #0
                move.l  #msg, a0    | msg[i] = i & 0xff
                move.l  #0, d4
        fill:   move.b  d4, (a0)+
                add.l   #1, d4
                cmp.l   #5000, d4
                blt     fill
                move.l  #msg, d2
                move.l  #5000, d3
        more:   move.l  #4, d0      | write what is left
                move.l  d6, d1
                trap    #0
                bcs     fail
                add.l   d0, d2
                sub.l   d0, d3
                bgt     more
                move.l  #6, d0      | close the write end: EOF for the child
                move.l  d6, d1
                trap    #0
                move.l  #7, d0      | wait for the child
                move.l  #0, d1
                trap    #0
                move.l  #1, d0
                move.l  #0, d1
                trap    #0
        fail:   move.l  #1, d0
                move.l  #1, d1
                trap    #0
        child:  move.l  #6, d0      | child: close the write end
                move.l  d6, d1
                trap    #0
                move.l  #8, d0      | creat /tmp/got
                move.l  #outname, d1
                move.l  #420, d2
                trap    #0
                move.l  d0, d7
        drain:  move.l  #3, d0      | read up to 8192 bytes
                move.l  d5, d1
                move.l  #buf, d2
                move.l  #8192, d3
                trap    #0
                bcs     fail
                tst.l   d0
                beq     eof
                move.l  d0, d3      | append them to /tmp/got
                move.l  #4, d0
                move.l  d7, d1
                move.l  #buf, d2
                trap    #0
                bra     drain
        eof:    move.l  #1, d0
                move.l  #0, d1
                trap    #0
                .data
        outname:.asciz  "/tmp/got"
                .bss
        msg:    .space  5000
        buf:    .space  8192
        "#,
    )
    .unwrap();
    w.install_program(m, "/bin/bigwrite", &obj).unwrap();
    let pid = w.spawn_vm_proc(m, "/bin/bigwrite", None, alice()).unwrap();
    let info = w
        .run_until_exit(m, pid, 100_000)
        .expect("a write larger than the pipe buffer must not block forever");
    assert_eq!(info.status, 0);
    let got = w.host_read_file(m, "/tmp/got").unwrap();
    let sent: Vec<u8> = (0..5000u32).map(|i| i as u8).collect();
    assert_eq!(
        got.len(),
        5000,
        "the reader must receive exactly 5000 bytes"
    );
    assert_eq!(*got, sent);
}

#[test]
fn sigquit_core_dump_and_undump() {
    let (mut w, m) = world_one_machine();
    let obj = assemble(TEST_PROGRAM).unwrap();
    w.install_program(m, "/bin/testprog", &obj).unwrap();
    let (tty, handle) = w.add_terminal(m);
    let pid = w
        .spawn_vm_proc(m, "/bin/testprog", Some(tty), alice())
        .unwrap();
    w.run_slices(10_000);
    handle.type_input("x\n");
    w.run_slices(10_000);
    w.host_post_signal(m, pid, Signal::SIGQUIT);
    let info = w.run_until_exit(m, pid, 10_000).expect("core dumped");
    assert_eq!(info.status, 128 + Signal::SIGQUIT.number());
    let core = w
        .host_read_file(m, &format!("/usr/tmp/core{:05}", pid.as_u32()))
        .expect("core file");
    let exe = w.host_read_file(m, "/bin/testprog").unwrap();
    // undump: exe + core -> runnable exe with static state preserved.
    let merged = aout::undump(&exe, &core).expect("undump combines");
    let exe2 = aout::parse_executable(&merged).unwrap();
    assert_eq!(exe2.header.a_bss, 0, "bss folded into data");
}

#[test]
fn kill_permissions_follow_the_paper() {
    let (mut w, m) = world_one_machine();
    let obj = assemble("start: bra start\n").unwrap();
    w.install_program(m, "/bin/spin", &obj).unwrap();
    let victim = w.spawn_vm_proc(m, "/bin/spin", None, alice()).unwrap();
    // A different non-root user may not dump it; the owner may.
    let mallory = w.spawn_native_proc(
        m,
        "mallory",
        None,
        Credentials::user(Uid(666), Gid(6)),
        move |sys| async move {
            match sys.kill(victim, Signal::SIGDUMP).await {
                Err(sysdefs::Errno::EPERM) => 0,
                other => {
                    let _ = other;
                    1
                }
            }
        },
    );
    let info = w.run_until_exit(m, mallory, 50_000).expect("mallory done");
    assert_eq!(info.status, 0, "non-owner must get EPERM");
    let owner = w.spawn_native_proc(m, "owner", None, alice(), move |sys| async move {
        match sys.kill(victim, Signal::SIGDUMP).await {
            Ok(()) => 0,
            Err(_) => 1,
        }
    });
    let info = w.run_until_exit(m, owner, 50_000).expect("owner done");
    assert_eq!(info.status, 0, "owner may dump");
    let vinfo = w.run_until_exit(m, victim, 50_000).expect("victim dumped");
    assert_eq!(vinfo.status, 128 + Signal::SIGDUMP.number());
}

#[test]
fn isa_superset_rule_at_exec() {
    let mut w = World::new(KernelConfig::paper());
    let sun2 = w.add_machine("sun2", IsaLevel::Isa1);
    let sun3 = w.add_machine("sun3", IsaLevel::Isa2);
    let obj = assemble(
        r"
        start:  move.l  #0xff, d0
                extb2   d0
                move.l  #1, d0
                move.l  #0, d1
                trap    #0
        ",
    )
    .unwrap();
    assert_eq!(obj.required_isa, IsaLevel::Isa2);
    w.install_program(sun2, "/bin/only020", &obj).unwrap();
    w.install_program(sun3, "/bin/only020", &obj).unwrap();
    // Loads fine on the 68020 machine.
    let ok = w.spawn_vm_proc(sun3, "/bin/only020", None, alice());
    assert!(ok.is_ok());
    // Refused on the 68010 machine (exec format check).
    let err = w.spawn_vm_proc(sun2, "/bin/only020", None, alice());
    assert_eq!(err.unwrap_err(), sysdefs::Errno::ENOEXEC);
}

#[test]
fn unmodified_kernel_rejects_sigdump() {
    let mut w = World::new(KernelConfig::original());
    let m = w.add_machine("plain", IsaLevel::Isa1);
    let obj = assemble("start: bra start\n").unwrap();
    w.install_program(m, "/bin/spin", &obj).unwrap();
    let victim = w.spawn_vm_proc(m, "/bin/spin", None, alice()).unwrap();
    let killer = w.spawn_native_proc(
        m,
        "killer",
        None,
        Credentials::root(),
        move |sys| async move {
            match sys.kill(victim, Signal::SIGDUMP).await {
                Err(sysdefs::Errno::EINVAL) => 0,
                _ => 1,
            }
        },
    );
    let info = w.run_until_exit(m, killer, 50_000).expect("killer done");
    assert_eq!(info.status, 0, "SIGDUMP must not exist on the old kernel");
}

#[test]
fn rsh_runs_remote_command_with_degraded_tty() {
    let mut w = World::new(KernelConfig::paper());
    let a = w.add_machine("brick", IsaLevel::Isa1);
    let _b = w.add_machine("schooner", IsaLevel::Isa1);
    let start = w.machine(a).now;
    let pid = w.spawn_native_proc(
        a,
        "rsh-test",
        None,
        Credentials::root(),
        move |sys| async move {
            sys.rsh("schooner", "remote-touch", |rsys| async move {
                // Runs on schooner: create a file there, locally.
                let fd = rsys.creat("/tmp/made-by-rsh", 0o644).await.unwrap();
                rsys.write(fd, b"hi").await.unwrap();
                rsys.close(fd).await.unwrap();
                assert_eq!(rsys.gethostname().await.unwrap(), "schooner");
                // Terminal modes cannot be changed through the pipe.
                let _ = rsys.stty(0, sysdefs::TtyFlags::raw_noecho()).await;
                assert!(!rsys.gtty(0).await.unwrap().is_raw());
                0
            })
            .await
            .unwrap()
        },
    );
    let info = w.run_until_exit(a, pid, 100_000).expect("rsh completes");
    assert_eq!(info.status, 0);
    assert_eq!(*w.host_read_file(1, "/tmp/made-by-rsh").unwrap(), b"hi");
    // rsh costs seconds of real time.
    let elapsed = w.machine(a).now.since(start);
    assert!(
        elapsed > simtime::SimDuration::secs(5),
        "rsh must be expensive, took {elapsed}"
    );
}
