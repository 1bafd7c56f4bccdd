//! Coherence tests for the predecoded instruction cache: with the
//! cache on or off, every guest-visible artefact — dump files, restored
//! register and memory images, terminal output, exit status and all
//! simulated-time accounting — must be bit-identical. The cache is a
//! host-side accelerator only.

use std::sync::Arc;

use m68vm::{assemble, ICache, Instr, IsaLevel, MemoryLayout, Op, Operand, Size};
use pmig::commands::RestartArgs;
use pmig::proto::{migrate_proto, Protocol};
use pmig::{api, workloads};
use sysdefs::{Credentials, Gid, Pid, Uid};
use ukernel::proc::Body;
use ukernel::{KernelConfig, MachineId, World};

fn alice() -> Credentials {
    Credentials::user(Uid(100), Gid(10))
}

fn config(use_icache: bool) -> KernelConfig {
    let mut cfg = KernelConfig::paper();
    cfg.use_icache = use_icache;
    // Superblocks require the icache; keep the toggle honest when the
    // cache itself is the variable under test.
    cfg.use_superblocks = use_icache;
    cfg
}

/// Icache on in both arms; only the superblock tier toggles.
fn config_sb(use_superblocks: bool) -> KernelConfig {
    let mut cfg = KernelConfig::paper();
    cfg.use_superblocks = use_superblocks;
    cfg
}

/// Boots brick + schooner, starts the §6.2 test program on brick and
/// feeds it up to its `prompts`-th input prompt.
fn boot_and_prompt(cfg: KernelConfig, prompts: u32) -> (World, usize, usize, Pid, tty::TtyHandle) {
    boot_and_prompt_onto(cfg, prompts, IsaLevel::Isa1)
}

/// [`boot_and_prompt`] with schooner at `target` ISA level.
fn boot_and_prompt_onto(
    cfg: KernelConfig,
    prompts: u32,
    target: IsaLevel,
) -> (World, usize, usize, Pid, tty::TtyHandle) {
    let mut w = World::new(cfg);
    let brick = w.add_machine("brick", IsaLevel::Isa1);
    let schooner = w.add_machine("schooner", target);
    let obj = assemble(workloads::TEST_PROGRAM).unwrap();
    w.install_program(brick, "/bin/testprog", &obj).unwrap();
    let (tty, handle) = w.add_terminal(brick);
    let pid = w
        .spawn_vm_proc(brick, "/bin/testprog", Some(tty), alice())
        .unwrap();
    w.run_slices(20_000);
    for i in 1..prompts {
        handle.type_input(&format!("line {i}\n"));
        w.run_slices(20_000);
    }
    (w, brick, schooner, pid, handle)
}

/// The dumped stackXXXXX file is the full guest state (registers,
/// stack, credentials, signal dispositions) at the dump point — it must
/// not depend on which interpreter path produced it.
#[test]
fn dump_files_identical_with_icache_on_and_off() {
    let mut images = Vec::new();
    for use_icache in [true, false] {
        let (mut w, brick, _schooner, pid, _handle) = boot_and_prompt(config(use_icache), 3);
        let status = api::run_dumpproc(&mut w, brick, pid, alice()).expect("dumpproc runs");
        assert_eq!(status, 0);
        let names = dumpfmt::dump_file_names(pid);
        let stack = w.host_read_file(brick, &names.stack).unwrap();
        let aout = w.host_read_file(brick, &names.a_out).unwrap();
        let files = w.host_read_file(brick, &names.files).unwrap();
        let clock = w.machine(brick).now;
        images.push((stack, aout, files, clock));
    }
    let (a, b) = (&images[0], &images[1]);
    assert_eq!(a.0, b.0, "stack file diverges between cached and uncached");
    assert_eq!(a.1, b.1, "a.out file diverges between cached and uncached");
    assert_eq!(a.2, b.2, "files file diverges between cached and uncached");
    assert_eq!(
        a.3, b.3,
        "simulated clock diverges between cached and uncached"
    );
}

/// The acceptance run: dump → migrate → restore, once with the cache
/// and once without, comparing the restored process's registers and
/// whole memory image mid-run, then the final output and accounting.
/// Onto an ISA-1 target the restore reuses the victim's pooled icache;
/// onto an ISA-2 target the pool has no entry at that level, so the
/// restore translates the text cold.
#[test]
fn migration_restores_identical_guest_state_with_icache_on_and_off() {
    for target in [IsaLevel::Isa1, IsaLevel::Isa2] {
        let mut ends = Vec::new();
        for use_icache in [true, false] {
            let (mut w, brick, schooner, pid, _handle) =
                boot_and_prompt_onto(config(use_icache), 3, target);
            let source_ic = icache_of(&w, brick, pid);
            let status = api::run_dumpproc(&mut w, brick, pid, alice()).expect("dumpproc runs");
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
            let restored_ic = icache_of(&w, schooner, new_pid);
            assert_eq!(
                source_ic.is_some(),
                use_icache,
                "source cache presence must follow the kernel configuration"
            );
            assert_eq!(
                restored_ic.is_some(),
                use_icache,
                "restored cache presence must follow the kernel configuration"
            );
            if let (Some(src), Some(dst)) = (source_ic, restored_ic) {
                assert_eq!(dst.level(), target);
                assert_eq!(
                    Arc::ptr_eq(&src, &dst),
                    target == IsaLevel::Isa1,
                    "only a same-level restore shares the victim's icache"
                );
            }
            w.run_slices(50_000);
            // Mid-run snapshot of the restored body: registers + memory.
            let (cpu, text, data, stack) = {
                let p = w.proc_ref(schooner, new_pid).expect("restored process");
                let Body::Vm(vm) = &p.body else {
                    panic!("restored body is not a VM")
                };
                (
                    vm.cpu.clone(),
                    vm.mem.text().to_vec(),
                    vm.mem.data().to_vec(),
                    vm.mem
                        .stack_from(vm.cpu.a[7])
                        .map(|s| s.into_owned())
                        .unwrap_or_default(),
                )
            };
            handle2.type_input("line 3\n");
            w.run_slices(50_000);
            handle2.with(|t| t.close());
            let info = w.run_until_exit(schooner, new_pid, 100_000).expect("exits");
            let out = w.host_read_file(brick, "/tmp/testout").unwrap();
            ends.push((cpu, text, data, stack, info, out, handle2.output_text()));
        }
        let (a, b) = (&ends[0], &ends[1]);
        assert_eq!(a.0, b.0, "{target:?}: restored registers diverge");
        assert_eq!(a.1, b.1, "{target:?}: restored text diverges");
        assert_eq!(a.2, b.2, "{target:?}: restored data diverges");
        assert_eq!(a.3, b.3, "{target:?}: restored stack diverges");
        assert_eq!(
            a.4, b.4,
            "{target:?}: exit accounting diverges (simtime invariant)"
        );
        assert_eq!(a.5, b.5, "{target:?}: output file diverges");
        assert_eq!(a.6, b.6, "{target:?}: terminal transcript diverges");
        assert!(
            a.6.contains("R4 S4 K4"),
            "{target:?}: the restored counters continue"
        );
    }
}

/// A SIGDUMP-interrupted run restored on a second machine (whose
/// rest_proc takes the restored text's icache from the world's pool,
/// warm from the original's run) must be indistinguishable from the
/// same program running uninterrupted.
#[test]
fn interrupted_and_restored_run_matches_uninterrupted_run() {
    // Uninterrupted: three lines straight through on brick.
    let (mut w_a, brick_a, _schooner_a, pid_a, handle_a) = boot_and_prompt(config(true), 3);
    handle_a.type_input("line 3\n");
    w_a.run_slices(20_000);
    handle_a.with(|t| t.close());
    let info_a = w_a.run_until_exit(brick_a, pid_a, 100_000).expect("exits");
    let out_a = w_a.host_read_file(brick_a, "/tmp/testout").unwrap();

    // Interrupted after two lines, restored on schooner, then the same
    // third line.
    let (mut w_b, brick_b, schooner_b, pid_b, _handle_b) = boot_and_prompt(config(true), 3);
    let status = api::run_dumpproc(&mut w_b, brick_b, pid_b, alice()).expect("dumpproc runs");
    assert_eq!(status, 0);
    let (tty2, handle2) = w_b.add_terminal(schooner_b);
    let new_pid = api::run_restart(
        &mut w_b,
        schooner_b,
        RestartArgs {
            pid: pid_b,
            dump_host: Some("brick".into()),
            demand: false,
        },
        Some(tty2),
        alice(),
    )
    .expect("restart succeeds");
    w_b.run_slices(50_000);
    handle2.type_input("line 3\n");
    w_b.run_slices(50_000);
    handle2.with(|t| t.close());
    let info_b = w_b
        .run_until_exit(schooner_b, new_pid, 100_000)
        .expect("exits");

    // The program's observable work is identical: same bytes written,
    // same exit status, same counters echoed after the third line.
    let out_b = w_b.host_read_file(brick_b, "/tmp/testout").unwrap();
    assert_eq!(out_a, out_b, "the output file must not see the migration");
    assert_eq!(info_a.status, info_b.status);
    assert!(handle_a.output_text().contains("R3 S3 K3"));
    assert!(handle2.output_text().contains("R4 S4 K4"));
}

/// The superblock tier of the same contract: dump → migrate → restore
/// with block translation on versus off must agree on every artefact
/// the icache-level test compares — the fused path is a cache of a
/// cache, and neither layer may leak into guest-visible state.
#[test]
fn migration_restores_identical_guest_state_with_superblocks_on_and_off() {
    let mut ends = Vec::new();
    for use_superblocks in [true, false] {
        let (mut w, brick, schooner, pid, _handle) = boot_and_prompt(config_sb(use_superblocks), 3);
        let status = api::run_dumpproc(&mut w, brick, pid, alice()).expect("dumpproc runs");
        assert_eq!(status, 0);
        let names = dumpfmt::dump_file_names(pid);
        let stack_file = w.host_read_file(brick, &names.stack).unwrap();
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
        let (cpu, text, data, stack) = {
            let p = w.proc_ref(schooner, new_pid).expect("restored process");
            let Body::Vm(vm) = &p.body else {
                panic!("restored body is not a VM")
            };
            (
                vm.cpu.clone(),
                vm.mem.text().to_vec(),
                vm.mem.data().to_vec(),
                vm.mem
                    .stack_from(vm.cpu.a[7])
                    .map(|s| s.into_owned())
                    .unwrap_or_default(),
            )
        };
        handle2.type_input("line 3\n");
        w.run_slices(50_000);
        handle2.with(|t| t.close());
        let info = w.run_until_exit(schooner, new_pid, 100_000).expect("exits");
        let out = w.host_read_file(brick, "/tmp/testout").unwrap();
        ends.push((stack_file, cpu, text, data, stack, info, out));
    }
    let (a, b) = (&ends[0], &ends[1]);
    assert_eq!(a.0, b.0, "dump stack file diverges across the toggle");
    assert_eq!(a.1, b.1, "restored registers diverge");
    assert_eq!(a.2, b.2, "restored text diverges");
    assert_eq!(a.3, b.3, "restored data diverges");
    assert_eq!(a.4, b.4, "restored stack diverges");
    assert_eq!(a.5, b.5, "exit accounting diverges (simtime invariant)");
    assert_eq!(a.6, b.6, "output file diverges");
}

/// A dump taken *mid-block* — the signal lands between a superblock's
/// entry and its exit, so the fused engine must have paused on exactly
/// the interior instruction the slot loop would have paused on. The
/// restored process resumes from a pc that is not a block head (the
/// target lazily translates a fresh block starting there) and must
/// still finish with the same state.
#[test]
fn mid_block_dump_restores_identically_with_superblocks_on_and_off() {
    // A tight counted loop: the loop body fuses into one 5-instruction
    // superblock that chains into itself. After the 1-unit `move`, the
    // 100 000-unit quantum is not a multiple of the block's 6 units, so
    // the quantum pause before the dump lands inside the block.
    const LOOP_SRC: &str = r"
        start:  move.l  #500000, d6
        loop:   add.l   #1, d5
                eor.l   d5, d4
                lsr.l   #1, d4
                sub.l   #1, d6
                bgt     loop
        done:   move.l  #42, d1
                move.l  #1, d0
                trap    #0
    ";
    let obj = assemble(LOOP_SRC).unwrap();
    let loop_addr = obj.symbols["loop"];
    let done_addr = obj.symbols["done"];

    let mut ends = Vec::new();
    for use_superblocks in [true, false] {
        let mut w = World::new(config_sb(use_superblocks));
        let brick = w.add_machine("brick", IsaLevel::Isa1);
        let schooner = w.add_machine("schooner", IsaLevel::Isa1);
        w.install_program(brick, "/bin/spin", &obj).unwrap();
        let pid = w.spawn_vm_proc(brick, "/bin/spin", None, alice()).unwrap();
        // Part-way through the 2.5M-unit loop: the process is running,
        // nowhere near done.
        w.run_slices(7);
        let status = api::run_dumpproc(&mut w, brick, pid, alice()).expect("dumpproc runs");
        assert_eq!(status, 0);
        let names = dumpfmt::dump_file_names(pid);
        let stack_bytes = w.host_read_file(brick, &names.stack).unwrap();
        let dumped = dumpfmt::stack_file::StackFile::decode(&stack_bytes).unwrap();
        let pc = dumped.regs[16];
        assert!(
            loop_addr < pc && pc < done_addr,
            "dump pc {pc:#x} must land strictly inside the loop block \
             ({loop_addr:#x}..{done_addr:#x}) — adjust the slice count if \
             the workload changed"
        );
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
        .expect("restart succeeds");
        let info = w
            .run_until_exit(schooner, new_pid, 10_000_000)
            .expect("restored loop finishes");
        ends.push((stack_bytes, pc, info));
    }
    let (a, b) = (&ends[0], &ends[1]);
    assert_eq!(a.0, b.0, "mid-block dump file diverges across the toggle");
    assert_eq!(a.1, b.1, "dump pc diverges across the toggle");
    assert_eq!(a.2.status, 42, "restored loop must run to its exit");
    assert_eq!(a.2, b.2, "post-restore exit accounting diverges");
}

/// Code executing from the *data* segment is invisible to the icache
/// (its slots cover text only) and runs through the live byte-window
/// decoder. A hand-built image whose text calls a data-resident
/// subroutine must behave identically under both kernels.
#[test]
fn data_segment_code_runs_via_fallback_decoder() {
    use Operand::{Abs, DReg, Imm, None as NoOp};
    // Two-pass: the text's jsr target depends only on the page-aligned
    // data base, which is stable for any text under one page.
    let data_base = MemoryLayout::data_base(0x20);
    let text_code = [
        Instr::new(Op::Jsr, Size::Long, NoOp, Abs(data_base)),
        Instr::new(Op::Move, Size::Long, DReg(3), DReg(1)),
        Instr::new(Op::Move, Size::Long, Imm(1), DReg(0)), // exit(d1)
        Instr::new(Op::Trap, Size::Long, Imm(0), NoOp),
    ];
    let data_code = [
        Instr::new(Op::Add, Size::Long, Imm(5), DReg(3)),
        Instr::new(Op::Add, Size::Long, Imm(37), DReg(3)),
        Instr::new(Op::Rts, Size::Long, NoOp, NoOp),
    ];
    let obj = m68vm::Object {
        text: m68vm::encode::encode_all(&text_code),
        data: m68vm::encode::encode_all(&data_code),
        bss_len: 0,
        entry: MemoryLayout::TEXT_BASE,
        symbols: Default::default(),
        required_isa: IsaLevel::Isa1,
    };
    assert!(obj.text.len() as u32 <= 0x20);

    let mut statuses = Vec::new();
    for use_icache in [true, false] {
        let mut w = World::new(config(use_icache));
        let brick = w.add_machine("brick", IsaLevel::Isa1);
        w.install_program(brick, "/bin/dataprog", &obj).unwrap();
        let pid = w
            .spawn_vm_proc(brick, "/bin/dataprog", None, alice())
            .unwrap();
        let info = w.run_until_exit(brick, pid, 50_000).expect("exits");
        statuses.push(info);
    }
    assert_eq!(statuses[0].status, 42, "5 + 37 accumulated in d3");
    assert_eq!(
        statuses[0], statuses[1],
        "fallback path diverges from uncached"
    );
}

/// The icache of `pid`'s body on `mid`, when it has one.
fn icache_of(w: &World, mid: MachineId, pid: Pid) -> Option<Arc<ICache>> {
    match &w.proc_ref(mid, pid)?.body {
        Body::Vm(vm) => vm.icache.clone(),
        _ => None,
    }
}

/// An eager or demand restore onto a machine of the same model finds
/// the victim's translation in the pool: one text, one icache, before
/// and after the move.
#[test]
fn restores_onto_a_same_level_target_reuse_the_pool_entry() {
    for proto in [Protocol::Eager, Protocol::Demand] {
        let mut w = World::new(KernelConfig::paper());
        let brick = w.add_machine("brick", IsaLevel::Isa1);
        let schooner = w.add_machine("schooner", IsaLevel::Isa1);
        let obj = assemble(&workloads::dirty_hog_program(1_500, 4 * 0x2000)).unwrap();
        w.install_program(brick, "/bin/hog", &obj).unwrap();
        let pid = w.spawn_vm_proc(brick, "/bin/hog", None, alice()).unwrap();
        w.run_slices(10);
        let before = icache_of(&w, brick, pid).expect("the victim's icache");
        let report = migrate_proto(&mut w, pid, brick, schooner, proto, alice())
            .unwrap_or_else(|e| panic!("{}: {e}", proto.name()));
        assert!(report.migrated(), "{}: {report:?}", proto.name());
        let new_pid = report.new_pid.expect("target pid");
        let after = icache_of(&w, schooner, new_pid).expect("the restored icache");
        assert!(
            Arc::ptr_eq(&before, &after),
            "{}: the restored copy must reuse the pooled translation",
            proto.name()
        );
    }
}
