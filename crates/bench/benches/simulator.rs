//! Criterion benchmarks of the substrate itself: VM interpretation
//! throughput, the assembler, dump-format codecs, a.out parsing and
//! cross-machine path resolution.

use bench::interp::{self, Engine};
use criterion::{criterion_group, Criterion, Throughput};
use m68vm::{assemble, ICache, IsaLevel};
use std::hint::black_box;

fn bench_vm_interpreter(c: &mut Criterion) {
    // How many instructions per second does the interpreter manage on
    // the host? The headline number uses the production configuration
    // (icache + superblocks); the engine trio below isolates what each
    // layer buys over the per-step byte-window decoder. The measurement
    // loops live in `bench::interp`, shared with `figures interp`.
    let obj = interp::interp_loop();
    let icache = ICache::build(&obj.text, IsaLevel::Isa1);
    let mut g = c.benchmark_group("vm");
    g.throughput(Throughput::Elements(interp::instructions_per_run(&obj)));
    g.bench_function("interpret_500k_instructions", |b| {
        b.iter(|| black_box(interp::run_once(&obj, Engine::Superblock(&icache))))
    });
    g.bench_function("vm_superblock", |b| {
        b.iter(|| black_box(interp::run_once(&obj, Engine::Superblock(&icache))))
    });
    g.bench_function("vm_cached", |b| {
        b.iter(|| black_box(interp::run_once(&obj, Engine::Cached(&icache))))
    });
    g.bench_function("vm_uncached", |b| {
        b.iter(|| black_box(interp::run_once(&obj, Engine::Uncached)))
    });
    g.finish();
}

fn bench_assembler(c: &mut Criterion) {
    let src = pmig::workloads::TEST_PROGRAM;
    c.bench_function("assemble_test_program", |b| {
        b.iter(|| black_box(assemble(black_box(src)).unwrap()))
    });
}

fn bench_dump_codecs(c: &mut Criterion) {
    use dumpfmt::{FdRecord, FilesFile, SignalState, StackFile};
    use sysdefs::{Credentials, Gid, OpenFlags, TtyFlags, Uid};
    let mut fds = vec![FdRecord::Unused; sysdefs::NOFILE];
    for (i, f) in fds.iter_mut().enumerate().take(10) {
        *f = FdRecord::File {
            path: format!("/n/brick/u/alice/project/file{i}"),
            flags: OpenFlags::RDWR,
            offset: i as u64 * 4096,
        };
    }
    let files = FilesFile {
        host: "brick".into(),
        cwd: "/u/alice/project".into(),
        fds,
        tty_flags: TtyFlags::raw_noecho(),
    };
    let stack = StackFile {
        cred: Credentials::user(Uid(100), Gid(10)),
        stack: vec![0xAB; 16 * 1024],
        regs: [7; 18],
        sigs: SignalState::default(),
    };
    let files_bytes = files.encode().unwrap();
    let stack_bytes = stack.encode().unwrap();
    let mut g = c.benchmark_group("dumpfmt");
    g.bench_function("files_encode", |b| b.iter(|| black_box(files.encode())));
    g.bench_function("files_decode", |b| {
        b.iter(|| black_box(FilesFile::decode(black_box(&files_bytes)).unwrap()))
    });
    g.bench_function("stack_encode", |b| b.iter(|| black_box(stack.encode())));
    g.bench_function("stack_decode", |b| {
        b.iter(|| black_box(StackFile::decode(black_box(&stack_bytes)).unwrap()))
    });
    g.finish();
}

fn bench_aout(c: &mut Criterion) {
    let obj = assemble(pmig::workloads::TEST_PROGRAM).unwrap();
    let file = aout::encode_object(&obj);
    c.bench_function("aout_parse", |b| {
        b.iter(|| black_box(aout::parse_executable(black_box(&file)).unwrap()))
    });
}

fn bench_namei(c: &mut Criterion) {
    use sysdefs::Credentials;
    use ukernel::{KernelConfig, World};
    let mut w = World::new(KernelConfig::paper());
    let a = w.add_machine("brick", IsaLevel::Isa1);
    let _b = w.add_machine("brador", IsaLevel::Isa1);
    w.host_mkdir_p(1, "/u/alice/deep/tree/of/dirs").unwrap();
    w.host_write_file(1, "/u/alice/deep/tree/of/dirs/leaf", b"x")
        .unwrap();
    let cred = Credentials::root();
    let cwd = ukernel::FileRef {
        machine: a,
        ino: w.machine(a).fs.root(),
    };
    c.bench_function("namei_cross_machine", |b| {
        b.iter(|| {
            black_box(
                ukernel::namei::namei(
                    &w,
                    a,
                    &cred,
                    cwd,
                    black_box("/n/brador/u/alice/deep/tree/of/dirs/leaf"),
                    ukernel::namei::FollowLast::Yes,
                )
                .unwrap(),
            )
        })
    });
}

fn bench_full_migration(c: &mut Criterion) {
    // The whole §4.2 story as one benchmark: how fast can the simulator
    // dump and restart a process (host time)?
    use pmig::commands::RestartArgs;
    use sysdefs::{Credentials, Gid, Uid};
    use ukernel::{KernelConfig, World};
    let mut g = c.benchmark_group("migration");
    g.sample_size(10);
    g.bench_function("dump_and_restart_cycle", |b| {
        b.iter(|| {
            let alice = Credentials::user(Uid(100), Gid(10));
            let mut w = World::new(KernelConfig::paper());
            let brick = w.add_machine("brick", IsaLevel::Isa1);
            let schooner = w.add_machine("schooner", IsaLevel::Isa1);
            let obj = assemble(pmig::workloads::TEST_PROGRAM).unwrap();
            w.install_program(brick, "/bin/testprog", &obj).unwrap();
            let (tty, _h) = w.add_terminal(brick);
            let pid = w
                .spawn_vm_proc(brick, "/bin/testprog", Some(tty), alice.clone())
                .unwrap();
            w.run_slices(50_000);
            let status = pmig::api::run_dumpproc(&mut w, brick, pid, alice.clone()).unwrap();
            assert_eq!(status, 0);
            let (tty2, _h2) = w.add_terminal(schooner);
            let new_pid = pmig::api::run_restart(
                &mut w,
                schooner,
                RestartArgs {
                    pid,
                    dump_host: Some("brick".into()),
                    demand: false,
                },
                Some(tty2),
                alice,
            )
            .unwrap();
            black_box(new_pid)
        })
    });
    g.finish();
}

criterion_group!(
    simulator,
    bench_vm_interpreter,
    bench_assembler,
    bench_dump_codecs,
    bench_aout,
    bench_namei,
    bench_full_migration,
);

fn main() {
    if std::env::args().any(|a| a == "--json") {
        // Kept as an alias: `figures interp --json` is the canonical
        // writer of BENCH_interp.json (and what ci.sh runs).
        let report = interp::InterpReport::measure();
        let text = bench::json::to_string_pretty(&report.to_json());
        // Always land at the workspace root, independent of the cwd
        // cargo gives the bench binary.
        let dest =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_interp.json");
        std::fs::write(&dest, &text).expect("write BENCH_interp.json");
        println!("{text}");
        return;
    }
    simulator();
}
