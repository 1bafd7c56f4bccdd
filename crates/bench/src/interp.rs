//! Interpreter-throughput measurement, shared by `figures interp`
//! (which records `BENCH_interp.json`) and the `vm` criterion group.
//!
//! Three engines over the same ~500k-instruction arithmetic loop:
//! the per-step byte-window decoder, the predecoded icache, and the
//! superblock engine that retires whole fused blocks. The cached and
//! superblock engines also run the workloads' own CPU hog
//! ([`pmig::workloads::cpu_hog_program`]), whose inner loop carries a
//! `muls.l`. All three are host-side accelerators — the coherence
//! suite proves they share one guest-visible trajectory — so the only
//! thing measured here is host instructions per second.

use crate::hostclock::HostStopwatch;
use crate::json::Json;
use m68vm::{assemble, Cpu, ICache, IsaLevel, SbExit, StepEvent};
use std::hint::black_box;

/// Outer rounds of the hog run: 12 × 10 000 inner iterations of four
/// instructions, about as long as the arithmetic loop.
const HOG_ROUNDS: u32 = 12;

/// A tight arithmetic loop whose body fuses into one superblock: it
/// retires 100_000 iterations of five instructions plus the prologue
/// move and the final trap.
pub fn interp_loop() -> m68vm::Object {
    assemble(
        r"
        start:  move.l  #100000, d6
        loop:   add.l   #1, d5
                eor.l   d5, d4
                lsr.l   #1, d4
                sub.l   #1, d6
                bgt     loop
                trap    #0
        ",
    )
    .unwrap()
}

/// The workloads' CPU hog, cut to [`HOG_ROUNDS`] rounds.
pub fn hog_loop() -> m68vm::Object {
    assemble(&pmig::workloads::cpu_hog_program(HOG_ROUNDS)).unwrap()
}

/// Instructions one run of `obj` retires up to its exit trap, counted
/// on the slot path (the fused engine reports cost units only).
pub fn instructions_per_run(obj: &m68vm::Object) -> u64 {
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
pub enum Engine<'a> {
    /// `Cpu::step`: live byte-window decode every instruction.
    Uncached,
    /// `Cpu::step_cached`: predecoded slot per instruction.
    Cached(&'a ICache),
    /// `Cpu::step_superblock`: fused straight-line blocks over the
    /// same slots, slot-stepping only at block boundaries.
    Superblock(&'a ICache),
}

/// Times one full run of `obj` up to its first trap, in seconds.
pub fn run_once(obj: &m68vm::Object, engine: Engine<'_>) -> f64 {
    // Host time comes only from the quarantined hostclock module; a
    // bare Instant::now() here would (rightly) fail simlint.
    let start = HostStopwatch::start();
    let mut mem = obj.to_memory();
    let mut cpu = Cpu::at_entry(obj.entry);
    match engine {
        Engine::Superblock(ic) => {
            // An unbounded budget never pauses, so the engine returns
            // only at the final trap.
            let (_used, exit) = cpu.step_superblock(&mut mem, ic, u64::MAX);
            assert!(matches!(exit, SbExit::Trap { vector: 0 }), "loop ends in trap #0");
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

/// Best observed instructions/second over repeated runs of `obj`, each
/// retiring `insns` instructions, spanning at least ~300 ms of
/// measurement.
pub fn insn_per_sec(obj: &m68vm::Object, insns: u64, engine: Engine<'_>) -> f64 {
    let mut best = 0f64;
    let mut total = 0f64;
    let _ = run_once(obj, engine); // Warm-up (and superblock translation).
    while total < 0.3 {
        let secs = run_once(obj, engine);
        total += secs;
        best = best.max(insns as f64 / secs);
    }
    best
}

/// The throughputs of one measurement.
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
}

impl InterpReport {
    /// Measures every engine on this host.
    pub fn measure() -> InterpReport {
        let obj = interp_loop();
        let n = instructions_per_run(&obj);
        let icache = ICache::build(&obj.text, IsaLevel::Isa1);
        let hog = hog_loop();
        let hog_insns = instructions_per_run(&hog);
        let hog_icache = ICache::build(&hog.text, IsaLevel::Isa1);
        InterpReport {
            instructions_per_run: n,
            uncached_insn_per_sec: insn_per_sec(&obj, n, Engine::Uncached),
            cached_insn_per_sec: insn_per_sec(&obj, n, Engine::Cached(&icache)),
            superblock_insn_per_sec: insn_per_sec(&obj, n, Engine::Superblock(&icache)),
            hog_cached_insn_per_sec: insn_per_sec(&hog, hog_insns, Engine::Cached(&hog_icache)),
            hog_superblock_insn_per_sec: insn_per_sec(
                &hog,
                hog_insns,
                Engine::Superblock(&hog_icache),
            ),
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
            ("instructions_per_run".into(), Json::UInt(self.instructions_per_run)),
            ("uncached_insn_per_sec".into(), Json::Num(self.uncached_insn_per_sec)),
            ("cached_insn_per_sec".into(), Json::Num(self.cached_insn_per_sec)),
            (
                "superblock_insn_per_sec".into(),
                Json::Num(self.superblock_insn_per_sec),
            ),
            (
                "speedup".into(),
                Json::Num(self.cached_insn_per_sec / self.uncached_insn_per_sec),
            ),
            ("superblock_speedup".into(), Json::Num(self.superblock_speedup())),
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
        ])
    }
}
