//! File-descriptor and filesystem edge cases at the system-call level:
//! offset sharing, append semantics, table limits, pipe lifecycles and
//! terminal plumbing.

use m68vm::{assemble, IsaLevel};
use std::future::Future;

use sysdefs::limits::NOFILE;
use sysdefs::{Credentials, Errno, Gid, Uid};
use ukernel::{KernelConfig, Sys, World};

fn alice() -> Credentials {
    Credentials::user(Uid(100), Gid(10))
}

fn world() -> (World, usize) {
    let mut w = World::new(KernelConfig::paper());
    let m = w.add_machine("brick", IsaLevel::Isa1);
    (w, m)
}

/// Runs a native program and returns its exit status; asserts inside the
/// closure do the real checking.
fn run<F: Future<Output = u32> + 'static>(
    w: &mut World,
    m: usize,
    f: impl FnOnce(Sys) -> F + 'static,
) -> u32 {
    let pid = w.spawn_native_proc(m, "t", None, Credentials::root(), f);
    w.run_until_exit(m, pid, 2_000_000)
        .expect("native exits")
        .status
}

#[test]
fn dup_shares_the_file_offset() {
    let (mut w, m) = world();
    let status = run(&mut w, m, |sys| async move {
        let fd = sys.creat("/tmp/x", 0o644).await.unwrap();
        sys.write(fd, b"abcdef").await.unwrap();
        sys.close(fd).await.unwrap();
        let fd = sys.open("/tmp/x", 0, 0).await.unwrap();
        let dup = sys.dup(fd).await.unwrap();
        assert_eq!(sys.read(fd, 2).await.unwrap(), b"ab");
        // The duplicate continues where the original stopped: one file
        // table entry, one offset — 4.2BSD semantics.
        assert_eq!(sys.read(dup, 2).await.unwrap(), b"cd");
        assert_eq!(sys.read(fd, 2).await.unwrap(), b"ef");
        sys.close(fd).await.unwrap();
        // Still readable through the survivor.
        sys.lseek(dup, 0, ukernel::Whence::Set).await.unwrap();
        assert_eq!(sys.read(dup, 1).await.unwrap(), b"a");
        sys.close(dup).await.unwrap();
        0
    });
    assert_eq!(status, 0);
}

#[test]
fn append_mode_always_writes_at_the_end() {
    let (mut w, m) = world();
    let status = run(&mut w, m, |sys| async move {
        let fd = sys.creat("/tmp/log", 0o644).await.unwrap();
        sys.write(fd, b"one\n").await.unwrap();
        sys.close(fd).await.unwrap();
        let fd = sys
            .open(
                "/tmp/log",
                sysdefs::OpenFlags::WRONLY
                    .with(sysdefs::OpenFlags::APPEND)
                    .bits(),
                0,
            )
            .await
            .unwrap();
        // Seeking somewhere else does not defeat append.
        sys.lseek(fd, 0, ukernel::Whence::Set).await.unwrap();
        sys.write(fd, b"two\n").await.unwrap();
        sys.close(fd).await.unwrap();
        let fd = sys.open("/tmp/log", 0, 0).await.unwrap();
        assert_eq!(sys.read_all(fd).await.unwrap(), b"one\ntwo\n");
        sys.close(fd).await.unwrap();
        0
    });
    assert_eq!(status, 0);
}

#[test]
fn descriptor_table_is_fixed_size() {
    let (mut w, m) = world();
    let status = run(&mut w, m, |sys| async move {
        let mut opened = Vec::new();
        loop {
            match sys.open("/dev/null", 2, 0).await {
                Ok(fd) => opened.push(fd),
                Err(Errno::EMFILE) => break,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        // No stdio attached, so the whole table was ours.
        assert_eq!(opened.len(), NOFILE);
        // Closing one slot frees exactly one descriptor, reused lowest-first.
        sys.close(opened[3]).await.unwrap();
        assert_eq!(sys.open("/dev/null", 2, 0).await.unwrap(), opened[3]);
        0
    });
    assert_eq!(status, 0);
}

#[test]
fn pipe_eof_after_writer_closes() {
    let (mut w, m) = world();
    let obj = assemble(
        r#"
        start:  move.l  #42, d0     | pipe()
                trap    #0
                move.l  d0, d5
                and.l   #0xffff, d5 | read end
                move.l  d0, d6
                lsr.l   #16, d6     | write end
                move.l  #4, d0      | write 3 bytes
                move.l  d6, d1
                move.l  #msg, d2
                move.l  #3, d3
                trap    #0
                move.l  #6, d0      | close the write end
                move.l  d6, d1
                trap    #0
                move.l  #3, d0      | read: gets the 3 bytes
                move.l  d5, d1
                move.l  #buf, d2
                move.l  #16, d3
                trap    #0
                move.l  d0, d7
                move.l  #3, d0      | read again: EOF (0)
                move.l  d5, d1
                move.l  #buf, d2
                move.l  #16, d3
                trap    #0
                add.l   d0, d7      | d7 = 3 + 0
                move.l  #1, d0
                move.l  d7, d1
                trap    #0
                .data
        msg:    .ascii  "abc"
                .bss
        buf:    .space  16
        "#,
    )
    .unwrap();
    w.install_program(m, "/bin/pipes", &obj).unwrap();
    let pid = w.spawn_vm_proc(m, "/bin/pipes", None, alice()).unwrap();
    let info = w.run_until_exit(m, pid, 100_000).expect("exits");
    assert_eq!(info.status, 3, "3 bytes then EOF");
}

#[test]
fn write_to_readonly_fd_rejected() {
    let (mut w, m) = world();
    let status = run(&mut w, m, |sys| async move {
        let fd = sys.creat("/tmp/ro", 0o644).await.unwrap();
        sys.close(fd).await.unwrap();
        let fd = sys.open("/tmp/ro", 0, 0).await.unwrap();
        match sys.write(fd, b"nope").await {
            Err(Errno::EBADF) => 0,
            other => {
                let _ = other;
                1
            }
        }
    });
    assert_eq!(status, 0);
}

#[test]
fn lseek_whence_and_sparse_files() {
    let (mut w, m) = world();
    let status = run(&mut w, m, |sys| async move {
        let fd = sys.creat("/tmp/sparse", 0o644).await.unwrap();
        sys.write(fd, b"head").await.unwrap();
        // Seek past EOF and write: the gap reads back as zeros.
        assert_eq!(sys.lseek(fd, 4, ukernel::Whence::Cur).await.unwrap(), 8);
        sys.write(fd, b"tail").await.unwrap();
        assert_eq!(sys.lseek(fd, 0, ukernel::Whence::End).await.unwrap(), 12);
        // A file may not grow past MAXFILESIZE: the write fails EFBIG
        // before the host allocates anything.
        let limit = sysdefs::limits::MAXFILESIZE;
        assert_eq!(
            sys.lseek(fd, limit as i64, ukernel::Whence::Set).await,
            Ok(limit)
        );
        assert_eq!(sys.write(fd, b"x").await, Err(Errno::EFBIG));
        // Offsets are 4.2BSD's 32-bit off_t, returned in d0: repeating
        // a maximal relative seek fails EINVAL once the result would
        // pass i32::MAX, and the offset stays where it was.
        let max = i32::MAX as i64;
        assert_eq!(sys.lseek(fd, 0, ukernel::Whence::Set).await, Ok(0));
        assert_eq!(
            sys.lseek(fd, max, ukernel::Whence::Cur).await,
            Ok(max as u64)
        );
        assert_eq!(
            sys.lseek(fd, max, ukernel::Whence::Cur).await,
            Err(Errno::EINVAL)
        );
        assert_eq!(
            sys.lseek(fd, 1 << 40, ukernel::Whence::Set).await,
            Err(Errno::EINVAL)
        );
        assert_eq!(sys.lseek(fd, 0, ukernel::Whence::Cur).await, Ok(max as u64));
        assert_eq!(sys.write(fd, b"x").await, Err(Errno::EFBIG));
        assert_eq!(sys.lseek(fd, 0, ukernel::Whence::End).await, Ok(12));
        sys.close(fd).await.unwrap();
        let fd = sys.open("/tmp/sparse", 0, 0).await.unwrap();
        let all = sys.read_all(fd).await.unwrap();
        assert_eq!(all, b"head\0\0\0\0tail");
        // Negative result is rejected.
        assert_eq!(
            sys.lseek(fd, -100, ukernel::Whence::Set).await,
            Err(Errno::EINVAL)
        );
        sys.close(fd).await.unwrap();
        0
    });
    assert_eq!(status, 0);
}

#[test]
fn fork_shares_offsets_with_parent() {
    let (mut w, m) = world();
    // Parent opens a 4-byte file, forks; child reads 2, parent reads the
    // remaining 2 — because fork shares the file-table entry.
    let obj = assemble(
        r#"
        start:  move.l  #5, d0      | open("/tmp/shared", RDONLY)
                move.l  #path, d1
                move.l  #0, d2
                trap    #0
                move.l  d0, d7
                move.l  #2, d0      | fork
                trap    #0
                tst.l   d0
                beq     child
                move.l  #7, d0      | wait for the child
                move.l  #0, d1
                trap    #0
                move.l  #3, d0      | parent reads 2 bytes
                move.l  d7, d1
                move.l  #buf, d2
                move.l  #2, d3
                trap    #0
                move.b  buf, d4     | first byte the PARENT saw
                move.l  #1, d0
                move.l  d4, d1      | exit status = that byte
                trap    #0
        child:  move.l  #3, d0      | child reads 2 bytes first
                move.l  d7, d1
                move.l  #buf, d2
                move.l  #2, d3
                trap    #0
                move.l  #1, d0
                move.l  #0, d1
                trap    #0
                .data
        path:   .asciz  "/tmp/shared"
                .bss
        buf:    .space  8
        "#,
    )
    .unwrap();
    w.host_write_file(m, "/tmp/shared", b"ABCD").unwrap();
    w.install_program(m, "/bin/sharer", &obj).unwrap();
    let pid = w.spawn_vm_proc(m, "/bin/sharer", None, alice()).unwrap();
    let info = w.run_until_exit(m, pid, 200_000).expect("exits");
    assert_eq!(
        info.status, b'C' as u32,
        "child consumed AB, parent starts at C: shared offset"
    );
}

#[test]
fn ps_listing_names_processes() {
    let (mut w, m) = world();
    let obj = assemble(&pmig::workloads::cpu_hog_program(500)).unwrap();
    w.install_program(m, "/bin/hog", &obj).unwrap();
    let _pid = w.spawn_vm_proc(m, "/bin/hog", None, alice()).unwrap();
    w.run_slices(5);
    let listing = w.ps(m);
    assert!(listing.contains("hog"), "{listing}");
    assert!(listing.contains("init"), "{listing}");
    assert!(listing.contains("PID"), "{listing}");
}

#[test]
fn getwd_tracks_chdir_on_modified_kernel_only() {
    let (mut w, m) = world();
    let status = run(&mut w, m, |sys| async move {
        sys.mkdir("/u/deep", 0o755).await.unwrap();
        sys.chdir("/u/deep").await.unwrap();
        assert_eq!(sys.getwd().await.unwrap(), "/u/deep");
        sys.chdir("..").await.unwrap();
        assert_eq!(sys.getwd().await.unwrap(), "/u");
        sys.chdir(".").await.unwrap();
        assert_eq!(sys.getwd().await.unwrap(), "/u");
        0
    });
    assert_eq!(status, 0);

    // The unmodified kernel has no cwd string to report.
    let mut w2 = World::new(KernelConfig::original());
    let m2 = w2.add_machine("plain", IsaLevel::Isa1);
    let status = run(&mut w2, m2, |sys| async move {
        match sys.getwd().await {
            Err(Errno::EINVAL) => 0,
            other => {
                let _ = other;
                1
            }
        }
    });
    assert_eq!(status, 0);
}
