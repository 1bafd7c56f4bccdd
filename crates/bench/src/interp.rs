//! Host-time measurement, recorded by `figures interp` in
//! `BENCH_interp.json`.
//!
//! Three interpreter engines over the same ~500k-instruction arithmetic
//! loop: the per-step byte-window decoder, the predecoded icache, and
//! the superblock engine that retires whole fused blocks. The cached
//! and superblock engines also run the workloads' own CPU hog
//! ([`pmig::workloads::cpu_hog_program`]), whose inner loop carries a
//! `muls.l`. The hog's inner loop has a closed form and the arithmetic
//! loop has none, so on the superblock engine the hog's figure times
//! the closed form and the arithmetic loop's the pass loop. All three
//! engines are host-side accelerators — the coherence suite proves
//! they share one guest-visible trajectory — so the only thing
//! measured here is host instructions per second.
//!
//! Next to the interpreter rates sit the two host numbers migration
//! work cites: one whole dump+restart cycle (`dump_restart_cycle`) and
//! the `filesXXXXX`/`stackXXXXX` codecs on `codec_inputs`.
//!
//! Every figure is timed the same way (`rotated_medians`): the
//! measurements take turns (`rotate`), one batch each per round, so a
//! slow spell on a shared host lands on all of them alike, and each
//! figure is the median of its batches.

use crate::hostclock::HostStopwatch;
use crate::json::Json;
use dumpfmt::{FdRecord, FilesFile, SignalState, StackFile};
use m68vm::{assemble, Cpu, ICache, IsaLevel, SbExit, StepEvent};
use pmig::commands::RestartArgs;
use std::hint::black_box;
use sysdefs::{Credentials, Gid, OpenFlags, Pid, TtyFlags, Uid};
use ukernel::{KernelConfig, World};

/// Outer rounds of the hog run: 12 × 10 000 inner iterations of four
/// instructions, about as long as the arithmetic loop.
const HOG_ROUNDS: u32 = 12;

/// The arithmetic loop ([`pmig::workloads::ARITH_LOOP_PROGRAM`]).
fn interp_loop() -> m68vm::Object {
    assemble(pmig::workloads::ARITH_LOOP_PROGRAM).unwrap()
}

/// The workloads' CPU hog, cut to [`HOG_ROUNDS`] rounds.
fn hog_loop() -> m68vm::Object {
    assemble(&pmig::workloads::cpu_hog_program(HOG_ROUNDS)).unwrap()
}

/// Instructions one run of `obj` retires up to its exit trap, counted
/// on the slot path (the fused engine reports cost units only).
fn instructions_per_run(obj: &m68vm::Object) -> u64 {
    let ic = ICache::build(&obj.text, IsaLevel::Isa1);
    let mut mem = obj.to_memory();
    let mut cpu = Cpu::at_entry(obj.entry);
    let mut n = 1; // The trap.
    while let StepEvent::Executed { .. } = cpu.step_cached(&mut mem, &ic) {
        n += 1;
    }
    n
}

/// Which interpreter path a measurement exercises.
#[derive(Clone, Copy)]
enum Engine<'a> {
    /// `Cpu::step`: live byte-window decode every instruction.
    Uncached,
    /// `Cpu::step_cached`: predecoded slot per instruction.
    Cached(&'a ICache),
    /// `Cpu::step_superblock`: fused straight-line blocks over the
    /// same slots, slot-stepping only at block boundaries.
    Superblock(&'a ICache),
}

/// Times one full run of `obj` up to its first trap, in seconds. The
/// image and registers are built before the clock starts.
fn run_once(obj: &m68vm::Object, engine: Engine<'_>) -> f64 {
    let mut mem = obj.to_memory();
    let mut cpu = Cpu::at_entry(obj.entry);
    // Host time comes only from the quarantined hostclock module; a
    // bare Instant::now() here would (rightly) fail simlint.
    let start = HostStopwatch::start();
    match engine {
        Engine::Superblock(ic) => {
            // An unbounded budget never pauses, so the engine returns
            // only at the final trap.
            let (_used, exit) = cpu.step_superblock(&mut mem, ic, u64::MAX);
            assert!(
                matches!(exit, SbExit::Trap { vector: 0 }),
                "loop ends in trap #0"
            );
        }
        Engine::Cached(ic) => {
            while let StepEvent::Executed { .. } = cpu.step_cached(&mut mem, ic) {}
        }
        Engine::Uncached => {
            while let StepEvent::Executed { .. } = cpu.step(&mut mem, IsaLevel::Isa1) {}
        }
    }
    black_box(cpu.d[4]);
    start.elapsed_secs()
}

/// Rounds of a rotation ([`rotate`]).
const ROUNDS: usize = 9;

/// Host seconds a batch measures at least.
const BATCH_SECS: f64 = 0.04;

/// A measurement: one call runs it once and returns its own host
/// seconds.
type Run<'a> = Box<dyn FnMut() -> f64 + 'a>;

/// Takes turns over `runs`, so that a slow spell on a shared host lands
/// on all of them alike: one warm-up call of each, then [`ROUNDS`]
/// rounds that each call every run once, in order. Returns each run's
/// results, one per round. `figures interp` and the cluster bench
/// (`figures cluster-smoke`) time their measurements this way.
pub(crate) fn rotate<T, R: FnMut() -> T>(runs: &mut [R]) -> Vec<Vec<T>> {
    for run in runs.iter_mut() {
        run();
    }
    let mut results: Vec<Vec<T>> = runs.iter().map(|_| Vec::with_capacity(ROUNDS)).collect();
    for _ in 0..ROUNDS {
        for (run, out) in runs.iter_mut().zip(&mut results) {
            out.push(run());
        }
    }
    results
}

/// The median of `xs`, the upper one of an even count.
pub(crate) fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Times each of `runs` by [`rotate`]. Each turn is a batch that repeats
/// its run over at least [`BATCH_SECS`] of measurement and keeps the
/// shortest call; the warm-up batch also translates the superblocks.
/// Returns each measurement's median batch, in order.
fn rotated_medians<const N: usize>(runs: [Run<'_>; N]) -> [f64; N] {
    let mut batches = runs.map(|mut run| {
        move || {
            let (mut best, mut total) = (f64::INFINITY, 0.0);
            while total < BATCH_SECS {
                let secs = run();
                total += secs;
                best = best.min(secs);
            }
            best
        }
    });
    let mut medians = rotate(&mut batches).into_iter().map(median);
    std::array::from_fn(|_| medians.next().expect("one median per run"))
}

/// Host seconds of one call to `f`, dropping its result inside the
/// measurement.
fn timed<T>(f: impl FnOnce() -> T) -> f64 {
    let start = HostStopwatch::start();
    black_box(f());
    start.elapsed_secs()
}

/// One dump+restart cycle, the §4.2 story end to end: boot brick and
/// schooner, run the §6.2 test program to its first prompt on brick,
/// `dumpproc` it there and `restart` it on schooner. Panics unless
/// `dumpproc` exits 0 and the restart lands on schooner. Returns the
/// world and the restored pid on schooner.
fn dump_restart_cycle() -> (World, Pid) {
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
    assert_eq!(status, 0, "dumpproc exits 0");
    let (tty2, _h2) = w.add_terminal(schooner);
    let args = RestartArgs {
        pid,
        dump_host: Some("brick".into()),
        demand: false,
    };
    let new_pid = pmig::api::run_restart(&mut w, schooner, args, Some(tty2), alice)
        .expect("restart lands on schooner");
    (w, new_pid)
}

/// The dump-codec inputs: a `filesXXXXX` record with ten open files
/// under a project directory, and a `stackXXXXX` record with a 16 KiB
/// stack.
fn codec_inputs() -> (FilesFile, StackFile) {
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
    (files, stack)
}

/// The host-time figures of one measurement.
pub struct InterpReport {
    /// Instructions one run of the arithmetic loop retires.
    pub instructions_per_run: u64,
    pub uncached_insn_per_sec: f64,
    pub cached_insn_per_sec: f64,
    pub superblock_insn_per_sec: f64,
    /// The hog loop on the slot path.
    pub hog_cached_insn_per_sec: f64,
    /// The hog loop through superblocks.
    pub hog_superblock_insn_per_sec: f64,
    /// One `dump_restart_cycle`, milliseconds.
    pub dump_restart_cycle_ms: f64,
    /// `codec_inputs` encoded and decoded, microseconds each.
    pub files_encode_us: f64,
    pub files_decode_us: f64,
    pub stack_encode_us: f64,
    pub stack_decode_us: f64,
}

impl InterpReport {
    /// Measures every figure on this host.
    pub fn measure() -> InterpReport {
        let obj = interp_loop();
        let n = instructions_per_run(&obj);
        let icache = ICache::build(&obj.text, IsaLevel::Isa1);
        let hog = hog_loop();
        let hog_insns = instructions_per_run(&hog);
        let hog_icache = ICache::build(&hog.text, IsaLevel::Isa1);
        let (files, stack) = codec_inputs();
        let files_bytes = files.encode().unwrap();
        let stack_bytes = stack.encode().unwrap();
        let engine = |obj, e| -> Run<'_> { Box::new(move || run_once(obj, e)) };
        // Each cycle's world lives until the next cycle has been timed
        // and is freed outside the measurement: freed inside it, the
        // figure would time whether the allocator hands the heap top
        // back to the system, which moves with unrelated allocation
        // sizes.
        let mut last_cycle = None;
        let runs = [
            engine(&obj, Engine::Uncached),
            engine(&obj, Engine::Cached(&icache)),
            engine(&obj, Engine::Superblock(&icache)),
            engine(&hog, Engine::Cached(&hog_icache)),
            engine(&hog, Engine::Superblock(&hog_icache)),
            Box::new(move || {
                let start = HostStopwatch::start();
                let cycle = dump_restart_cycle();
                let secs = start.elapsed_secs();
                drop(last_cycle.replace(cycle));
                secs
            }),
            Box::new(|| timed(|| files.encode())),
            Box::new(|| timed(|| FilesFile::decode(black_box(&files_bytes)))),
            Box::new(|| timed(|| stack.encode())),
            Box::new(|| timed(|| StackFile::decode(black_box(&stack_bytes)))),
        ];
        let [uncached, cached, superblock, hog_cached, hog_superblock, cycle, files_enc, files_dec, stack_enc, stack_dec] =
            rotated_medians(runs);
        InterpReport {
            instructions_per_run: n,
            uncached_insn_per_sec: n as f64 / uncached,
            cached_insn_per_sec: n as f64 / cached,
            superblock_insn_per_sec: n as f64 / superblock,
            hog_cached_insn_per_sec: hog_insns as f64 / hog_cached,
            hog_superblock_insn_per_sec: hog_insns as f64 / hog_superblock,
            dump_restart_cycle_ms: cycle * 1e3,
            files_encode_us: files_enc * 1e6,
            files_decode_us: files_dec * 1e6,
            stack_encode_us: stack_enc * 1e6,
            stack_decode_us: stack_dec * 1e6,
        }
    }

    /// Superblock speedup over the uncached decoder (the CI gate).
    pub fn superblock_speedup(&self) -> f64 {
        self.superblock_insn_per_sec / self.uncached_insn_per_sec
    }

    /// The `BENCH_interp.json` record. Key set is the schema ci.sh's
    /// freshness check pins (the numbers are host-dependent).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("bench".into(), Json::Str("vm_interpreter".into())),
            (
                "instructions_per_run".into(),
                Json::UInt(self.instructions_per_run),
            ),
            (
                "uncached_insn_per_sec".into(),
                Json::Num(self.uncached_insn_per_sec),
            ),
            (
                "cached_insn_per_sec".into(),
                Json::Num(self.cached_insn_per_sec),
            ),
            (
                "superblock_insn_per_sec".into(),
                Json::Num(self.superblock_insn_per_sec),
            ),
            (
                "speedup".into(),
                Json::Num(self.cached_insn_per_sec / self.uncached_insn_per_sec),
            ),
            (
                "superblock_speedup".into(),
                Json::Num(self.superblock_speedup()),
            ),
            (
                "superblock_vs_cached".into(),
                Json::Num(self.superblock_insn_per_sec / self.cached_insn_per_sec),
            ),
            (
                "hog_cached_insn_per_sec".into(),
                Json::Num(self.hog_cached_insn_per_sec),
            ),
            (
                "hog_superblock_insn_per_sec".into(),
                Json::Num(self.hog_superblock_insn_per_sec),
            ),
            (
                "hog_superblock_vs_cached".into(),
                Json::Num(self.hog_superblock_insn_per_sec / self.hog_cached_insn_per_sec),
            ),
            (
                "dump_restart_cycle_ms".into(),
                Json::Num(self.dump_restart_cycle_ms),
            ),
            ("files_encode_us".into(), Json::Num(self.files_encode_us)),
            ("files_decode_us".into(), Json::Num(self.files_decode_us)),
            ("stack_encode_us".into(), Json::Num(self.stack_encode_us)),
            ("stack_decode_us".into(), Json::Num(self.stack_decode_us)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dump_restart_cycle_restores_on_the_target() {
        let (w, pid) = dump_restart_cycle();
        let schooner = w.find_machine("schooner").unwrap();
        assert!(w
            .proc_ref(schooner, pid)
            .is_some_and(|p| p.comm == "a.out00002"));
    }

    #[test]
    fn codecs_round_trip_their_inputs() {
        let (files, stack) = codec_inputs();
        assert_eq!(FilesFile::decode(&files.encode().unwrap()).unwrap(), files);
        assert_eq!(StackFile::decode(&stack.encode().unwrap()).unwrap(), stack);
    }
}
