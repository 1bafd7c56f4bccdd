//! The shared determinism-snapshot builder.
//!
//! One canonical textual dump of a [`World`], folded field by field so
//! the dual-run tests are an *oracle*: any piece of simulated state
//! that can diverge between two runs of the same scenario must change
//! this string. simlint's `snapshot-coverage` rule enforces the
//! contract statically — every `World`/`Machine`/`MachineStats` field
//! is either mentioned here (or in another `snapshot*` builder) or
//! declared pure-cache in `simlint.toml` with a reason.

use ukernel::World;
use vfs::InodeKind;

/// Renders everything observable about the final world into one
/// canonical string.
pub fn snapshot_world(w: &World) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for mid in 0..w.machine_count() {
        let m = w.machine(mid);
        writeln!(
            out,
            "machine {} {} isa={:?} now={}us busy={}us last_run={:?} next_pid={}",
            m.id,
            m.name,
            m.isa,
            m.now.as_micros(),
            m.busy.as_micros(),
            m.last_run.map(|p| p.as_u32()),
            m.next_pid()
        )
        .unwrap();
        let s = &m.stats;
        writeln!(
            out,
            "  stats sys={} ctx={} sig={} rpc={} fork={} exec={} dump={} rest={} faults={} \
             precopy={} fetch={}",
            s.syscalls,
            s.ctx_switches,
            s.signals,
            s.nfs_rpcs,
            s.forks,
            s.execs,
            s.dumps,
            s.restores,
            s.faults_injected,
            s.pages_precopied,
            s.pages_fetched
        )
        .unwrap();
        for (name, agg) in &s.per_syscall {
            writeln!(
                out,
                "  agg {name} n={} total={}us max={}us",
                agg.count, agg.total_us, agg.max_us
            )
            .unwrap();
        }
        for (pid, p) in &m.procs {
            writeln!(
                out,
                "  proc {pid} ppid={} comm={} state={:?} sig={:#x} alarm={:?} \
                 utime={}us stime={}us start={}us",
                p.ppid.as_u32(),
                p.comm,
                p.state,
                p.sig_pending,
                p.alarm_at.map(|t| t.as_micros()),
                p.utime.as_micros(),
                p.stime.as_micros(),
                p.start_time.as_micros()
            )
            .unwrap();
        }
        writeln!(
            out,
            "  rq=[{}]",
            m.run_queue
                .iter()
                .map(|p| p.as_u32().to_string())
                .collect::<Vec<_>>()
                .join(",")
        )
        .unwrap();
        for (idx, f) in m.files.iter() {
            writeln!(
                out,
                "  file {idx} rc={} flags={:#x} off={} touched={} kind={:?} path={:?}",
                f.refcount, f.flags.0, f.offset, f.touched, f.kind, f.path
            )
            .unwrap();
        }
        for (host, peer) in &m.mounts {
            writeln!(out, "  mount {host}=m{peer}").unwrap();
        }
        for (i, slot) in m.pipes.iter().enumerate() {
            if let Some(p) = slot {
                let mut h = FNV_OFFSET;
                let (a, b) = p.data.as_slices();
                fnv_bytes(&mut h, a);
                fnv_bytes(&mut h, b);
                writeln!(
                    out,
                    "  pipe {i} r={} w={} len={} data={h:#018x}",
                    p.readers,
                    p.writers,
                    p.data.len()
                )
                .unwrap();
            }
        }
        for (i, slot) in m.sockets.iter().enumerate() {
            if let Some(sp) = slot {
                for (side, b) in sp.bufs.iter().enumerate() {
                    let mut h = FNV_OFFSET;
                    let (x, y) = b.data.as_slices();
                    fnv_bytes(&mut h, x);
                    fnv_bytes(&mut h, y);
                    writeln!(
                        out,
                        "  sock {i}.{side} r={} w={} len={} data={h:#018x}",
                        b.readers,
                        b.writers,
                        b.data.len()
                    )
                    .unwrap();
                }
            }
        }
        writeln!(
            out,
            "  exec_mig flag={} stack_len={} peak={} n_dir={} dev_dir={} dump_dir={}",
            m.exec_mig_flag,
            m.exec_mig_stack.len(),
            m.name_bytes_peak,
            m.n_dir,
            m.dev_dir,
            m.dump_dir
        )
        .unwrap();
        writeln!(
            out,
            "  timing execve={:?} rest={:?} caller={:?}",
            m.last_execve, m.last_rest_proc, m.last_rest_caller
        )
        .unwrap();
        writeln!(out, "  warm=[{}]", {
            let v: Vec<&str> = m.warm_paths.iter().map(String::as_str).collect();
            v.join(",")
        })
        .unwrap();
        writeln!(out, "  fs_hash={:#018x}", fs_tree_hash(&m.fs)).unwrap();
        writeln!(out, "  residual_kills={:?}", m.residual_kills).unwrap();
        // The whole trace ring is part of the contract: identical runs
        // must cut identical records in identical order.
        writeln!(
            out,
            "  ktrace seq={} dropped={}",
            m.ktrace.seq, m.ktrace.dropped
        )
        .unwrap();
        for r in m.ktrace.records() {
            writeln!(out, "  kt {}", r.render()).unwrap();
        }
    }
    writeln!(
        out,
        "ether frames={} bytes={} msgs={}",
        w.ether.frames_sent, w.ether.bytes_sent, w.ether.messages_sent
    )
    .unwrap();
    writeln!(out, "faults injected={}", w.faults.injected).unwrap();
    // The next host spawn starts an idle machine here, so the host
    // clock steers the trajectory like any machine clock.
    writeln!(out, "host_clock={}us", w.host_clock().as_micros()).unwrap();
    for (&(mid, pid), info) in &w.finished {
        writeln!(
            out,
            "exit m{mid} pid={pid} status={} cpu={}us",
            info.status,
            info.cpu().as_micros()
        )
        .unwrap();
    }
    for (&(mid, pid), (comm, at)) in &w.overlaid {
        let at = at.as_micros();
        writeln!(out, "overlaid m{mid} pid={pid} comm={comm} at={at}us").unwrap();
    }
    for &(mid, pid) in w.daemon_waiters() {
        writeln!(out, "daemon_wait m{mid} pid={pid}").unwrap();
    }
    for (id, t) in w.terminals().iter().enumerate() {
        writeln!(out, "tty {id}:\n{}", t.output_text()).unwrap();
    }
    out
}

/// The FNV-1a offset basis, the hash of no bytes.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the FNV-1a hash `h`.
pub fn fnv_bytes(h: &mut u64, bytes: &[u8]) {
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

/// FNV-1a over a canonical depth-first walk of a filesystem tree:
/// names, inode metadata, and file contents all feed the hash, so any
/// divergence anywhere in either machine's tree changes the digest.
pub fn fs_tree_hash(fs: &vfs::Filesystem) -> u64 {
    let mut h = FNV_OFFSET;
    hash_dir(fs, fs.root(), "/", &mut h);
    h
}

fn hash_dir(fs: &vfs::Filesystem, dir: vfs::Ino, path: &str, h: &mut u64) {
    // readdir is BTreeMap-backed, so this walk order is itself part of
    // the determinism contract.
    for name in fs.readdir(dir).unwrap() {
        let ino = fs.lookup(dir, &name).unwrap();
        let node = fs.inode(ino).unwrap();
        let child = format!("{path}{name}");
        fnv_bytes(h, child.as_bytes());
        fnv_bytes(h, &node.mode.0.to_be_bytes());
        fnv_bytes(h, &node.uid.0.to_be_bytes());
        match &node.kind {
            InodeKind::Regular(data) => {
                fnv_bytes(h, b"F");
                fnv_bytes(h, data);
            }
            InodeKind::Directory(_) => {
                fnv_bytes(h, b"D");
                hash_dir(fs, ino, &format!("{child}/"), h);
            }
            InodeKind::Symlink(target) => {
                fnv_bytes(h, b"L");
                fnv_bytes(h, target.as_bytes());
            }
            InodeKind::Device(_) => fnv_bytes(h, b"C"),
        }
    }
}
