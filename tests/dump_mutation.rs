//! Mutated dump files never panic the host, and restore the same with
//! superblocks on and off.
//!
//! A restored image can start at any pc with any registers, which is
//! the input most likely to break the superblock tier: a block head in
//! the middle of an instruction, a loop counter far from its start, an
//! address register aimed at an absent or unmapped page. Each seed of a
//! fixed corpus dumps the dirty-page hog, mutates 1–4 bytes of one dump
//! file, runs `restart` on a second machine and, when it restores,
//! runs the image for a fixed number of slices. It runs once with
//! superblocks on and once with them off; the two must agree on the
//! `restart` status, the whole world snapshot (clocks, accounting,
//! ktrace) and the restored process's registers and memory.

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};

use dumpfmt::stack_file::StackFile;
use m68vm::{assemble, IsaLevel};
use pmig::api;
use pmig::commands::RestartArgs;
use pmig::workloads;
use simtime::rng::SplitMix64;
use sysdefs::{Credentials, Gid, Uid};
use ukernel::proc::Body;
use ukernel::{KernelConfig, World};

fn alice() -> Credentials {
    Credentials::user(Uid(100), Gid(10))
}

/// Where a seed puts its mutated bytes.
#[derive(Clone, Copy, Debug)]
enum Aim {
    /// One of the three dump files, three bytes in four within its
    /// first 64 bytes (the headers and their lengths) and the rest
    /// anywhere in the file.
    Headers,
    /// The registers saved at the end of the stack file, so the image
    /// restores with an arbitrary pc, status register or data and
    /// address registers.
    Registers,
}

/// What one run leaves behind: the `restart` result, the world
/// snapshot, and the restored process's registers and memory while it
/// is still alive.
type Outcome = (String, String, Option<(m68vm::Cpu, Vec<u8>, Vec<u8>)>);

/// Slices the restored image runs for.
const SLICES: u64 = 8;

fn run(seed: u64, aim: Aim, use_superblocks: bool) -> Outcome {
    let mut cfg = KernelConfig::paper();
    cfg.use_superblocks = use_superblocks;
    // Short quanta keep the interpreted work small in a debug build and
    // put more quantum pauses inside the restored image's loops.
    cfg.cost.quantum_us = 10_000;
    let mut w = World::new(cfg);
    let brick = w.add_machine("brick", IsaLevel::Isa1);
    let schooner = w.add_machine("schooner", IsaLevel::Isa1);
    let obj = assemble(&workloads::dirty_hog_program(1_000, 4 * 0x2000)).unwrap();
    w.install_program(brick, "/bin/hog", &obj).unwrap();
    let pid = w.spawn_vm_proc(brick, "/bin/hog", None, alice()).unwrap();
    w.run_slices(3);
    assert_eq!(api::run_dumpproc(&mut w, brick, pid, alice()), Ok(0));

    let mut rng = SplitMix64::new(seed);
    let names = dumpfmt::dump_file_names(pid);
    let path = match aim {
        Aim::Headers => [&names.a_out, &names.stack, &names.files][rng.below(3) as usize],
        Aim::Registers => &names.stack,
    };
    let mut bytes = w.host_read_file(brick, path).unwrap().to_vec();
    let len = bytes.len() as u64;
    // d0..d7, a0..a7, pc and sr follow the 22-byte header and the
    // stack contents.
    let regs = 22
        + StackFile::decode(&w.host_read_file(brick, &names.stack).unwrap())
            .unwrap()
            .stack
            .len() as u64;
    for _ in 0..1 + rng.below(4) {
        let at = match aim {
            Aim::Headers if rng.below(4) > 0 => rng.below(len.min(64)),
            Aim::Headers => rng.below(len),
            Aim::Registers => regs + rng.below(18 * 4),
        };
        bytes[at as usize] ^= 1 + rng.below(255) as u8;
    }
    w.host_write_file(brick, path, bytes).unwrap();

    let restarted = api::run_restart(
        &mut w,
        schooner,
        RestartArgs {
            pid,
            dump_host: Some("brick".into()),
            demand: false,
        },
        None,
        alice(),
    );
    let mut image = None;
    if let Ok(new_pid) = restarted {
        w.run_slices(SLICES);
        if let Some(Body::Vm(vm)) = w.proc_ref(schooner, new_pid).map(|p| &p.body) {
            let top = vm
                .mem
                .stack_from(vm.cpu.a[7])
                .map(|s| s.into_owned())
                .unwrap_or_default();
            image = Some((vm.cpu.clone(), vm.mem.data().to_vec(), top));
        }
    }
    (format!("{restarted:?}"), common::snapshot_world(&w), image)
}

#[test]
fn mutated_dumps_restore_identically_with_superblocks_on_and_off() {
    let corpus = (0..64)
        .map(|s| (s, Aim::Headers))
        .chain((64..80).map(|s| (s, Aim::Registers)));
    let (mut restored, mut refused) = (0, 0);
    for (seed, aim) in corpus {
        let [on, off] = [true, false].map(|sb| {
            catch_unwind(AssertUnwindSafe(|| run(seed, aim, sb))).unwrap_or_else(|_| {
                panic!("seed {seed} ({aim:?}) panicked the host, superblocks {sb}")
            })
        });
        assert_eq!(on.0, off.0, "seed {seed} ({aim:?}): restart status");
        assert_eq!(on.1, off.1, "seed {seed} ({aim:?}): world snapshot");
        assert_eq!(
            on.2, off.2,
            "seed {seed} ({aim:?}): restored registers and memory"
        );
        if on.0.starts_with("Ok") {
            restored += 1;
        } else {
            refused += 1;
        }
    }
    // The corpus must exercise both outcomes to mean anything.
    assert!(
        restored >= 8 && refused >= 8,
        "{restored} restored, {refused} refused"
    );
}
