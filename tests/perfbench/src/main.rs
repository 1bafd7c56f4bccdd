//! The benchmark of record.
//!
//! ```text
//! perfbench --workload storm|protocols|steady --seed N --seconds S --trace 0|1 [--spans PATH]
//! ```
//!
//! `--trace 0` runs the workload untraced and prints the end-to-end
//! metrics. `--trace 1` runs it twice for half of `--seconds` each,
//! untraced and then traced with the same seed; it fails unless both runs agree exactly on every simulated
//! result and count, prints the per-layer metrics and the tracing
//! overhead, and writes the spans to `--spans` (default
//! `.bench_spans/<workload>-seed<N>.jsonl`). End-to-end host times are
//! in reference time, measured against the yardstick (see
//! `yardstick.rs`). The last stdout line is
//! the JSON result; the exit code is 0 only when every correctness gate
//! passed. See README.md beside this file.

mod metrics;
mod stats;
mod trace;
mod workloads;
mod yardstick;

use bench::hostclock::HostStopwatch;
use m68vm::{Cpu, ICache, Object, SbExit, StepEvent};
use metrics::{Report, END_TO_END, PER_LAYER};
use pmig::proto::Protocol;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::{durations, self_by_layer, self_of, Tracer};
use workloads::{proto_span, world_now, AppCounts, Counters, Kind, Load, MigSim, OpRecord};
use yardstick::{Yardstick, REF_SLICE_S};

/// World builds per run: at least this many, and enough to fill
/// [`SETUP_MIN_S`] of build time (capped at [`SETUP_MAX_REPS`]);
/// `setup_s` is their median in reference time.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_S: f64 = 0.5;
const SETUP_MAX_REPS: usize = 1000;
/// Operations per window for the throughput metrics, which are medians
/// over windows so a stall on the host moves one window, not the run.
/// Each window is put in reference time by its own yardstick slices, so
/// a window is short enough (about a host second) to follow the host's
/// drift.
const WINDOW_OPS: usize = 24;
/// Operations a run completes at least, whatever `--seconds` says, so
/// that p90 has ten samples beyond it.
const MIN_OPS: usize = 100;
/// A measured phase that runs this long is abandoned (the process must
/// finish both phases of a traced run well inside three minutes).
const HARD_CAP_S: f64 = 75.0;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut spans = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&val).ok_or(format!("unknown workload {val}"))?)
            }
            "--seed" => seed = Some(val.parse().map_err(|_| format!("bad seed {val}"))?),
            "--seconds" => {
                seconds = Some(
                    val.parse::<f64>()
                        .map_err(|_| format!("bad seconds {val}"))?,
                )
            }
            "--trace" => trace = Some(val == "1"),
            "--spans" => spans = Some(PathBuf::from(val)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.unwrap_or(42),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        spans,
    })
}

/// The results of the fixed prefix: simulated, so they must repeat
/// exactly for a given seed whatever the host did.
#[derive(Debug, PartialEq)]
struct Fixed {
    counters: Counters,
    migs: Vec<MigSim>,
    apps: Option<AppCounts>,
}

/// One measured run of a workload.
struct Run {
    /// Host seconds of every set-up build, and of the yardstick slice
    /// timed after each.
    setup_s: Vec<f64>,
    setup_ys: Vec<f64>,
    /// Cumulative `(host s, simulated s)` at the end of every operation,
    /// yardstick slices excluded.
    marks: Vec<(f64, f64)>,
    /// Host seconds of the yardstick slice timed after every operation.
    ys: Vec<f64>,
    /// Spans `..setup_end` belong to the set-up builds.
    setup_end: usize,
    host_s: f64,
    ops: Vec<OpRecord>,
    fixed: Fixed,
    /// Counters over the whole measured phase, for rates.
    measured: Counters,
    run_slices: u64,
    lost: u64,
    /// Peak resident set when the prefix completed, so it does not grow
    /// with how many operations the host managed.
    peak_rss_mb: f64,
    /// The workload, kept for the interpreter probe of a traced run.
    load: Option<Box<dyn Load>>,
}

impl Run {
    fn failed(&self) -> u64 {
        self.ops.iter().filter(|o| o.failed).count() as u64 + self.lost
    }

    /// Cumulative `(host s, operations)` at the end of every operation.
    fn op_marks(&self) -> Vec<(f64, f64)> {
        self.marks
            .iter()
            .zip(1..)
            .map(|(m, i)| (m.0, f64::from(i)))
            .collect()
    }

    /// Median over windows of operations per host second.
    fn ops_per_s(&self) -> f64 {
        stats::median(&stats::windowed_rates(&self.op_marks(), WINDOW_OPS)).unwrap_or(f64::NAN)
    }

    /// Median over windows of operations per reference second.
    fn ops_per_ref_s(&self) -> f64 {
        let rates = stats::windowed_ref_rates(&self.op_marks(), &self.ys, WINDOW_OPS, REF_SLICE_S);
        stats::median(&rates).unwrap_or(f64::NAN)
    }

    /// Host milliseconds of the timed call of every operation, sorted.
    fn op_host_ms(&self) -> Vec<f64> {
        stats::sorted(&self.ops.iter().map(|o| o.host_s * 1e3).collect::<Vec<_>>())
    }

    /// [`Run::op_host_ms`] in reference milliseconds, by the median
    /// yardstick slice of the measured phase.
    fn op_ref_ms(&self) -> Vec<f64> {
        let scale = REF_SLICE_S / stats::median(&self.ys).unwrap_or(f64::NAN);
        self.op_host_ms().iter().map(|ms| ms * scale).collect()
    }

    /// Median over windows of simulated seconds per host second.
    fn sim_s_per_host_s(&self) -> f64 {
        stats::median(&stats::windowed_rates(&self.marks, WINDOW_OPS)).unwrap_or(f64::NAN)
    }

    /// Median over windows of simulated seconds per reference second.
    fn sim_s_per_ref_s(&self) -> f64 {
        let rates = stats::windowed_ref_rates(&self.marks, &self.ys, WINDOW_OPS, REF_SLICE_S);
        stats::median(&rates).unwrap_or(f64::NAN)
    }

    /// Median set-up build in reference seconds, by the median yardstick
    /// slice of the set-up phase.
    fn setup_ref_s(&self) -> f64 {
        let host = stats::median(&self.setup_s).unwrap_or(f64::NAN);
        host * REF_SLICE_S / stats::median(&self.setup_ys).unwrap_or(f64::NAN)
    }
}

/// Host seconds of one yardstick slice.
fn time_slice(ys: &mut Yardstick) -> f64 {
    let sw = HostStopwatch::start();
    ys.slice();
    sw.elapsed_secs()
}

fn measure(kind: Kind, seed: u64, seconds: f64, t: &mut Tracer) -> Result<Run, String> {
    let mut yardstick = Yardstick::new();
    // The first slice faults its memory in.
    time_slice(&mut yardstick);
    let mut setup_s = Vec::new();
    let mut setup_ys = Vec::new();
    let mut load = None;
    while setup_s.len() < SETUP_MAX_REPS
        && (setup_s.len() < SETUP_MIN_REPS || setup_s.iter().sum::<f64>() < SETUP_MIN_S)
    {
        drop(load.take());
        let sw = HostStopwatch::start();
        t.enter("bench.setup");
        load = Some(kind.setup(seed, t));
        t.exit();
        setup_s.push(sw.elapsed_secs());
        setup_ys.push(time_slice(&mut yardstick));
    }
    let mut load = load.expect("at least one set-up");
    let setup_end = t.spans().len();

    let c0 = Counters::of(load.world());
    let t0 = world_now(load.world());
    let slices0 = load.run_slices();
    let mut ops = Vec::new();
    let mut marks = Vec::new();
    let mut ys = Vec::new();
    let mut ys_total = 0.0;
    let mut fixed = None;
    let mut peak_rss = f64::NAN;
    let sw = HostStopwatch::start();
    loop {
        t.set_op(Some(ops.len() as u64));
        t.enter("bench.op");
        ops.push(load.op(t));
        t.exit();
        let sim = world_now(load.world()).since(t0).as_secs_f64();
        marks.push((sw.elapsed_secs() - ys_total, sim));
        let slice = time_slice(&mut yardstick);
        ys_total += slice;
        ys.push(slice);
        if ops.len() == kind.prefix_ops() {
            fixed = Some(Fixed {
                counters: Counters::of(load.world()).since(&c0),
                migs: ops.iter().flat_map(|o: &OpRecord| o.migs.clone()).collect(),
                apps: load.app_counts(),
            });
            peak_rss = peak_rss_mb()?;
        }
        let elapsed = sw.elapsed_secs();
        if fixed.is_some() && ops.len() >= MIN_OPS && elapsed >= seconds {
            break;
        }
        if elapsed > HARD_CAP_S {
            return Err(format!(
                "{} ops in {elapsed:.1} s: too slow to measure",
                ops.len()
            ));
        }
    }
    let host_s = sw.elapsed_secs();
    t.set_op(None);
    let w = load.world();
    Ok(Run {
        setup_s,
        setup_ys,
        marks,
        ys,
        setup_end,
        host_s,
        fixed: fixed.expect("prefix completed"),
        measured: Counters::of(w).since(&c0),
        run_slices: load.run_slices() - slices0,
        lost: load.lost_procs(),
        peak_rss_mb: peak_rss,
        ops,
        load: Some(load),
    })
}

/// Peak resident set of this process, from the kernel's `VmHWM`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn end_to_end(run: &Run) -> Report {
    let mut r = Report::default();
    r.set("setup_s", run.setup_ref_s());
    r.set("peak_rss_mb", run.peak_rss_mb);
    r.set("sim_s_per_ref_s", run.sim_s_per_ref_s());
    r.set("ops_per_ref_s", run.ops_per_ref_s());
    r.set(
        "op_ref_ms.p50",
        stats::percentile(&run.op_ref_ms(), 50).unwrap_or(f64::NAN),
    );
    r
}

/// Host instructions per second of `Cpu::step_superblock` over the
/// workload's own hog. Instructions per cost unit are counted once on
/// the slot path, since the fused path reports units only.
fn insn_per_s(obj: &Object, ic: &ICache) -> f64 {
    let mut mem = obj.to_memory();
    let mut cpu = Cpu::at_entry(obj.entry);
    let (mut insns, mut units) = (0u64, 0u64);
    while insns < 200_000 {
        let StepEvent::Executed { units: u } = cpu.step_cached(&mut mem, ic) else {
            break;
        };
        insns += 1;
        units += u64::from(u);
    }
    let insn_per_unit = insns as f64 / units.max(1) as f64;
    let mut mem = obj.to_memory();
    let mut cpu = Cpu::at_entry(obj.entry);
    let mut retired = 0u64;
    let sw = HostStopwatch::start();
    while sw.elapsed_secs() < 0.3 {
        let (used, exit) = cpu.step_superblock(&mut mem, ic, 1_000_000);
        retired += used;
        if !matches!(exit, SbExit::Paused) {
            break;
        }
    }
    retired as f64 * insn_per_unit / sw.elapsed_secs()
}

/// `num / den`, or 0 when nothing was attempted.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn per_layer(kind: Kind, base: &Run, tr: &Run, t: &Tracer) -> Report {
    let spans = t.spans();
    let setup = 0..tr.setup_end;
    let run = tr.setup_end..spans.len();
    let reps = tr.setup_s.len() as f64;
    let fx = &tr.fixed;
    let c = &fx.counters;
    let prefix = kind.prefix_ops() as f64;
    let p50 = |v: Vec<f64>| stats::percentile(&stats::sorted(&v), 50).unwrap_or(0.0);
    let mut r = Report::default();

    let run_s = self_of(spans, run.clone(), "ukernel.run");
    let (obj, ic) = tr
        .load
        .as_ref()
        .expect("traced run keeps its workload")
        .hog();
    r.set("m68vm.insn_per_s", insn_per_s(obj, ic));
    r.set("m68vm.sb_units", c.sb_retired as f64);
    r.set(
        "m68vm.sb_units_per_s",
        tr.measured.sb_retired as f64 / run_s,
    );
    r.set(
        "m68vm.assemble_ms",
        self_of(spans, setup.clone(), "m68vm.assemble") * 1e3 / reps,
    );

    r.set("ukernel.run_s", run_s);
    r.set("ukernel.slices", c.slices as f64);
    r.set(
        "ukernel.us_per_slice",
        run_s * 1e6 / tr.run_slices.max(1) as f64,
    );
    r.set(
        "ukernel.setup_ms",
        self_of(spans, setup, "ukernel.setup") * 1e3 / reps,
    );
    r.set("ukernel.syscalls", c.syscalls as f64);
    r.set("ukernel.syscalls_per_op", c.syscalls as f64 / prefix);
    let sys = |name: &str| c.per_syscall.get(name).copied().unwrap_or((0, 0));
    for (metric, name) in [
        ("ukernel.syscalls.open", "open"),
        ("ukernel.syscalls.close", "close"),
        ("ukernel.syscalls.read", "read"),
        ("ukernel.syscalls.write", "write"),
        ("ukernel.syscalls.unlink", "unlink"),
        ("ukernel.syscalls.creat", "creat"),
        ("ukernel.syscalls.sleep", "sleep"),
    ] {
        r.set(metric, sys(name).0 as f64);
    }
    for (metric, name) in [
        ("ukernel.sim_us.sleep", "sleep"),
        ("ukernel.sim_us.open", "open"),
        ("ukernel.sim_us.unlink", "unlink"),
        ("ukernel.sim_us.read", "read"),
    ] {
        r.set(metric, sys(name).1 as f64);
    }
    r.set("ukernel.ctx_switches", c.ctx_switches as f64);
    r.set("ukernel.signals", c.signals as f64);
    r.set("ukernel.dumps", c.dumps as f64);
    r.set("ukernel.restores", c.restores as f64);
    r.set("ukernel.execs", c.execs as f64);
    r.set("ukernel.pages_fetched", c.pages_fetched as f64);

    let migs = &fx.migs;
    let of_proto = |p: Protocol| migs.iter().filter(move |m| m.proto == Some(p));
    for (p, proto_ms, down, total) in [
        (
            Protocol::Eager,
            "pmig.proto_ms.eager",
            "pmig.downtime_ms.eager",
            "pmig.total_ms.eager",
        ),
        (
            Protocol::PreCopy,
            "pmig.proto_ms.precopy",
            "pmig.downtime_ms.precopy",
            "pmig.total_ms.precopy",
        ),
        (
            Protocol::Demand,
            "pmig.proto_ms.demand",
            "pmig.downtime_ms.demand",
            "pmig.total_ms.demand",
        ),
    ] {
        r.set(
            proto_ms,
            p50(durations(spans, run.clone(), proto_span(p))) * 1e3,
        );
        let ms = |f: fn(&MigSim) -> u64| -> f64 {
            stats::median(&of_proto(p).map(|m| f(m) as f64 / 1e3).collect::<Vec<_>>())
                .unwrap_or(0.0)
        };
        r.set(down, ms(|m| m.downtime_us));
        r.set(total, ms(|m| m.total_us));
    }
    let proto_migs: Vec<&MigSim> = migs.iter().filter(|m| m.proto.is_some()).collect();
    let mean = |f: fn(&MigSim) -> u64| -> f64 {
        let sum: u64 = proto_migs.iter().map(|m| f(m)).sum();
        sum as f64 / proto_migs.len().max(1) as f64
    };
    r.set("pmig.rounds", mean(|m| u64::from(m.rounds)));
    r.set("pmig.pages_precopied", mean(|m| m.pages_precopied));
    r.set("pmig.pages_fetched", mean(|m| m.pages_fetched));
    r.set("pmig.bytes_sent", mean(|m| m.bytes_sent));
    let (useful, sent) = of_proto(Protocol::PreCopy).fold((0u64, 0u64), |(u, s), m| {
        (u + m.image_pages, s + m.pages_precopied)
    });
    r.set("pmig.precopy_useful_ratio", ratio(useful, sent));
    let cmd_ms = stats::sorted(
        &migs
            .iter()
            .filter(|m| m.proto.is_none())
            .map(|m| m.total_us as f64 / 1e3)
            .collect::<Vec<_>>(),
    );
    r.set(
        "pmig.migrate_sim_ms.p50",
        stats::percentile(&cmd_ms, 50).unwrap_or(0.0),
    );
    r.set(
        "pmig.migrate_sim_ms.p90",
        stats::tail(&cmd_ms, 90).unwrap_or(0.0),
    );

    r.set(
        "apps.step_ms",
        p50(durations(spans, run.clone(), "apps.step")) * 1e3,
    );
    r.set(
        "apps.decide_us",
        p50(durations(spans, run.clone(), "apps.decide")) * 1e6,
    );
    let (attempts, completed, evicted) = fx.apps.unwrap_or((0, 0, 0));
    r.set("apps.attempts", attempts as f64);
    r.set("apps.completed", completed as f64);
    r.set("apps.evicted", evicted as f64);
    r.set("apps.success_ratio", ratio(completed, attempts));

    r.set("simnet.nfs_rpcs", c.nfs_rpcs as f64);
    r.set("simnet.ether_bytes", c.ether_bytes as f64);
    r.set("simnet.ether_messages", c.ether_messages as f64);

    let by_layer = self_by_layer(spans, run);
    for (layer, metric) in [
        ("ukernel", "ukernel.self_s"),
        ("pmig", "pmig.self_s"),
        ("apps", "apps.self_s"),
        ("bench", "bench.self_s"),
    ] {
        r.set(metric, by_layer.get(layer).copied().unwrap_or(0.0));
    }
    // The tail comes from the untraced run: p90 needs 100 operations,
    // which every run completes (MIN_OPS).
    r.set(
        "op_ref_ms.p90",
        stats::tail(&base.op_ref_ms(), 90).unwrap_or(f64::NAN),
    );
    r.set("bench.samples", base.ops.len() as f64);
    r.set(
        "bench.trace_overhead_pct",
        (base.ops_per_ref_s() / tr.ops_per_ref_s() - 1.0) * 100.0,
    );
    // The untraced run's end-to-end host metrics on the wall clock, and
    // the yardstick that puts them in reference time.
    r.set(
        "bench.host_setup_s",
        stats::median(&base.setup_s).unwrap_or(f64::NAN),
    );
    r.set("bench.host_sim_s_per_s", base.sim_s_per_host_s());
    r.set("bench.host_ops_per_s", base.ops_per_s());
    r.set(
        "bench.host_op_ms.p50",
        stats::percentile(&base.op_host_ms(), 50).unwrap_or(f64::NAN),
    );
    r.set(
        "bench.yardstick_ms",
        stats::median(&base.ys).unwrap_or(f64::NAN) * 1e3,
    );
    r
}

/// Prints the human-readable summary, then the result line; returns the
/// exit code.
fn emit(
    args: &Args,
    base: &Run,
    report: &Report,
    catalogue: &[metrics::Metric],
    correct: bool,
    notes: &[String],
) -> ExitCode {
    println!(
        "workload {} seed {}: {} ops ({} in the fixed prefix) in {:.2} host s; set-up median of {}; rates are medians over {}-op windows; yardstick slice {:.3} ms = {} ref ms",
        args.kind.name(),
        args.seed,
        base.ops.len(),
        args.kind.prefix_ops(),
        base.host_s,
        base.setup_s.len(),
        WINDOW_OPS,
        stats::median(&base.ys).unwrap_or(f64::NAN) * 1e3,
        REF_SLICE_S * 1e3
    );
    for line in report.table(catalogue).iter().chain(notes) {
        println!("  {line}");
    }
    let failed = base.failed();
    match report.result_line(
        catalogue,
        correct && failed == 0,
        base.ops.len() as u64,
        failed,
    ) {
        Ok(line) => {
            println!("{line}");
            if correct && failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // A traced run measures twice, each half as long, so it takes about
    // as long as an untraced one.
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut off = Tracer::off();
    let mut base = match measure(args.kind, args.seed, seconds, &mut off) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !args.trace {
        return emit(&args, &base, &end_to_end(&base), END_TO_END, true, &[]);
    }

    // Free the untraced world before building the traced one.
    base.load = None;
    let mut on = Tracer::on();
    let traced = match measure(args.kind, args.seed, seconds, &mut on) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut notes = Vec::new();
    let same = base.fixed == traced.fixed;
    if !same {
        eprintln!(
            "perfbench: traced and untraced runs of seed {} disagree on the fixed prefix\n untraced: {:?}\n traced:   {:?}",
            args.seed, base.fixed, traced.fixed
        );
    }
    notes.push(format!(
        "determinism: untraced and traced prefixes {}",
        if same { "identical" } else { "DIFFER" }
    ));
    let path = args.spans.clone().unwrap_or_else(|| {
        PathBuf::from(format!(
            ".bench_spans/{}-seed{}.jsonl",
            args.kind.name(),
            args.seed
        ))
    });
    match on.write_jsonl(&path) {
        Ok(()) => notes.push(format!(
            "{} spans written to {}",
            on.spans().len(),
            path.display()
        )),
        Err(e) => {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    let report = per_layer(args.kind, &base, &traced, &on);
    let correct = same && traced.failed() == 0;
    emit(&args, &base, &report, PER_LAYER, correct, &notes)
}
