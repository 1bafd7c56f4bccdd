//! The three workloads, each a closed loop over the simulator's public
//! API: the next operation starts only after the previous one returns.
//!
//! * `storm` — the paper's command path under load: a seeded
//!   `PolicyEngine<Random>` decides once per [`STORM_PERIOD`] and each
//!   decision runs the §6.4 daemon `migrate` on a 16-host installation.
//! * `protocols` — a dirty-page hog ping-ponged node0⇄node1 with
//!   `migrate_proto`, rotating eager → pre-copy → demand; one operation
//!   is one victim's rotation, each victim with a seed-drawn image size.
//! * `steady` — the 256-host installation stepping [`STEADY_TICK`] of
//!   simulated time per operation, with no migrations and no native
//!   processes.
//!
//! Every operation's correctness gates run inside [`Load::op`]; a
//! violation comes back as a failed [`OpRecord`], never as a panic.

use crate::trace::Tracer;
use apps::{MigrationPolicy, PolicyEngine, Random};
use bench::hostclock::HostStopwatch;
use m68vm::{assemble, ICache, IsaLevel, Object};
use pmig::proto::{migrate_proto, Protocol};
use simtime::{SimDuration, SimTime};
use std::collections::BTreeMap;
use sysdefs::{Credentials, Gid, Pid, Signal, Uid};
use ukernel::{Body, KernelConfig, MachineId, ProcState, World};

/// Hosts in the storm installation.
pub const STORM_HOSTS: usize = 16;
/// Simulated time between two policy decisions in `storm`.
pub const STORM_PERIOD: SimDuration = SimDuration::millis(100);
/// Hosts in the steady installation.
pub const STEADY_HOSTS: usize = 64;
/// Simulated time one `steady` operation advances the world.
pub const STEADY_TICK: SimDuration = SimDuration::secs(1);
/// Image sizes (bss ballast) a `protocols` victim is drawn from, in
/// 8 KiB pages.
pub const BALLAST_PAGES: std::ops::RangeInclusive<u32> = 8..=40;

const PAGE: u32 = 0x2000;
/// Enough rounds that no workload process ever runs out of work.
const FOREVER: u32 = 1_000_000_000;
/// Slice budget for any single run call; a run that exhausts it is a
/// wedged world, which the gates then report.
const RUN_BUDGET: u64 = 50_000_000;

/// Which workload to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Storm,
    Protocols,
    Steady,
}

impl Kind {
    /// Parses the `--workload` spelling.
    pub fn parse(s: &str) -> Option<Kind> {
        match s {
            "storm" => Some(Kind::Storm),
            "protocols" => Some(Kind::Protocols),
            "steady" => Some(Kind::Steady),
            _ => None,
        }
    }

    /// The `--workload` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Storm => "storm",
            Kind::Protocols => "protocols",
            Kind::Steady => "steady",
        }
    }

    /// Operations in the fixed prefix whose simulated results and
    /// counts are reported (and must repeat exactly); host-time metrics
    /// use every operation of the measured phase.
    pub fn prefix_ops(self) -> usize {
        match self {
            Kind::Storm => 100,
            Kind::Protocols => 20,
            Kind::Steady => 20,
        }
    }

    /// Builds the workload's world from the seed.
    pub fn setup(self, seed: u64, t: &mut Tracer) -> Box<dyn Load> {
        match self {
            Kind::Storm => Box::new(Storm::setup(seed, t)),
            Kind::Protocols => Box::new(Protocols::setup(seed, t)),
            Kind::Steady => Box::new(Steady::setup(seed, t)),
        }
    }
}

/// splitmix64, the generator the simulator's own seeded parts use.
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator over `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `range`.
    pub fn pick(&mut self, range: std::ops::RangeInclusive<u32>) -> u32 {
        let span = u64::from(range.end() - range.start()) + 1;
        range.start() + (self.next() % span) as u32
    }
}

/// What one migration did, in simulated terms. Deterministic for a
/// given seed and prefix position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MigSim {
    /// `None` for the daemon `migrate` path (storm).
    pub proto: Option<Protocol>,
    /// Freeze-to-runnable (protocols) — 0 on the command path.
    pub downtime_us: u64,
    /// Protocol: engine start to finish. Storm: the `migrate` command's
    /// real time (the Figure 4 quantity).
    pub total_us: u64,
    pub rounds: u32,
    pub pages_precopied: u64,
    pub pages_fetched: u64,
    pub bytes_sent: u64,
    /// Data+bss pages of the victim's image.
    pub image_pages: u64,
}

/// One closed-loop operation.
#[derive(Clone, Debug)]
pub struct OpRecord {
    /// Host seconds of the timed call (the migration call, or the tick).
    pub host_s: f64,
    /// The migrations the operation made.
    pub migs: Vec<MigSim>,
    /// A correctness gate failed.
    pub failed: bool,
}

/// Σ of the simulator's public counters over every machine.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub slices: u64,
    pub syscalls: u64,
    pub ctx_switches: u64,
    pub signals: u64,
    pub dumps: u64,
    pub restores: u64,
    pub execs: u64,
    pub pages_fetched: u64,
    pub sb_retired: u64,
    pub nfs_rpcs: u64,
    pub ether_bytes: u64,
    pub ether_messages: u64,
    /// Per-syscall `(count, simulated µs)`.
    pub per_syscall: BTreeMap<&'static str, (u64, u64)>,
}

impl Counters {
    /// Reads the counters of `w`.
    pub fn of(w: &World) -> Counters {
        let mut c = Counters {
            slices: w.slices,
            ether_bytes: w.ether.bytes_sent,
            ether_messages: w.ether.messages_sent,
            ..Counters::default()
        };
        for m in 0..w.machine_count() {
            let s = &w.machine(m).stats;
            c.syscalls += s.syscalls;
            c.ctx_switches += s.ctx_switches;
            c.signals += s.signals;
            c.dumps += s.dumps;
            c.restores += s.restores;
            c.execs += s.execs;
            c.pages_fetched += s.pages_fetched;
            c.sb_retired += s.sb_retired;
            c.nfs_rpcs += s.nfs_rpcs;
            for (name, agg) in &s.per_syscall {
                let e = c.per_syscall.entry(name).or_default();
                e.0 += agg.count;
                e.1 += agg.total_us;
            }
        }
        c
    }

    /// `self - earlier`, field by field.
    pub fn since(&self, earlier: &Counters) -> Counters {
        let mut per_syscall = self.per_syscall.clone();
        for (name, (n, us)) in &earlier.per_syscall {
            let e = per_syscall.entry(name).or_default();
            e.0 -= n;
            e.1 -= us;
        }
        Counters {
            slices: self.slices - earlier.slices,
            syscalls: self.syscalls - earlier.syscalls,
            ctx_switches: self.ctx_switches - earlier.ctx_switches,
            signals: self.signals - earlier.signals,
            dumps: self.dumps - earlier.dumps,
            restores: self.restores - earlier.restores,
            execs: self.execs - earlier.execs,
            pages_fetched: self.pages_fetched - earlier.pages_fetched,
            sb_retired: self.sb_retired - earlier.sb_retired,
            nfs_rpcs: self.nfs_rpcs - earlier.nfs_rpcs,
            ether_bytes: self.ether_bytes - earlier.ether_bytes,
            ether_messages: self.ether_messages - earlier.ether_messages,
            per_syscall,
        }
    }
}

/// `PolicyEngine` counters: attempts, completed, evicted.
pub type AppCounts = (u64, u64, u64);

/// A running workload.
pub trait Load {
    /// The world, for counters and clocks.
    fn world(&self) -> &World;
    /// Runs one closed-loop operation.
    fn op(&mut self, t: &mut Tracer) -> OpRecord;
    /// End-of-run gate: live workload processes lost (or duplicated).
    fn lost_procs(&self) -> u64;
    /// Engine counters, for workloads driven by `PolicyEngine`.
    fn app_counts(&self) -> Option<AppCounts> {
        None
    }
    /// Slices stepped inside the benchmark's own run calls.
    fn run_slices(&self) -> u64;
    /// The workload's hog and its icache, for the interpreter probe.
    fn hog(&self) -> (&Object, &ICache);
}

fn user() -> Credentials {
    Credentials::user(Uid(100), Gid(10))
}

/// The world clock: the furthest-ahead machine.
pub fn world_now(w: &World) -> SimTime {
    (0..w.machine_count())
        .map(|m| w.machine(m).now)
        .max()
        .unwrap_or(SimTime::BOOT)
}

/// Runs the world `span` past the world clock inside a `ukernel.run`
/// span, returning the slices it stepped.
fn run_for(w: &mut World, span: SimDuration, t: &mut Tracer) -> u64 {
    let deadline = world_now(w) + span;
    let before = w.slices;
    t.span("ukernel.run", || w.run_until_time(deadline, RUN_BUDGET));
    w.slices - before
}

fn alive(w: &World, mid: MachineId, pid: Pid) -> bool {
    w.proc_ref(mid, pid)
        .is_some_and(|p| !matches!(p.state, ProcState::Zombie { .. }))
        && !w.finished.contains_key(&(mid, pid.as_u32()))
}

/// Live VM processes across the installation: the workload population.
fn live_vm_procs(w: &World) -> u64 {
    (0..w.machine_count())
        .map(|m| {
            w.machine(m)
                .procs
                .values()
                .filter(|p| {
                    matches!(p.body, Body::Vm(_)) && !matches!(p.state, ProcState::Zombie { .. })
                })
                .count() as u64
        })
        .sum()
}

/// True when no machine holds an orphaned dump file.
fn no_orphan_dumps(w: &mut World) -> bool {
    (0..w.machine_count()).all(|m| w.host_reap_orphan_dumps(m).is_empty())
}

/// A periodic sleeper: one short scheduling event every `period_us`.
fn tick_program(period_us: u32) -> String {
    format!(
        r#"
start:  move.l  #150, d0
        move.l  #{period_us}, d1
        trap    #0
        bra     start
"#
    )
}

/// Assembles `src` inside an `m68vm.assemble` span.
fn assemble_traced(src: &str, t: &mut Tracer) -> Object {
    t.span("m68vm.assemble", || {
        assemble(src).expect("benchmark program assembles")
    })
}

/// A built cluster installation.
struct Cluster {
    w: World,
    hog: Object,
    hog_ic: ICache,
    spawned: u64,
}

/// The `cluster` background: on every host a ticker (seed-drawn period)
/// and four tty readers; `hogs_per` CPU hogs on every `hog_every`-th
/// host, starting at a seed-drawn offset.
fn build_cluster(
    hosts: usize,
    hog_every: usize,
    hogs_per: usize,
    rng: &mut SplitMix,
    t: &mut Tracer,
) -> Cluster {
    let hog = assemble_traced(&pmig::workloads::cpu_hog_program(FOREVER), t);
    let hog_ic = t.span("m68vm.assemble", || {
        ICache::build(&hog.text, IsaLevel::Isa1)
    });
    let reader = assemble_traced(pmig::workloads::TEST_PROGRAM, t);
    let periods: Vec<u32> = (0..hosts).map(|_| 1_500 + 100 * rng.pick(0..=10)).collect();
    let mut tickers: BTreeMap<u32, Object> = BTreeMap::new();
    for &p in &periods {
        tickers
            .entry(p)
            .or_insert_with(|| assemble_traced(&tick_program(p), t));
    }
    let offset = rng.pick(0..=hog_every as u32 - 1) as usize;

    t.enter("ukernel.setup");
    let mut w = World::new(KernelConfig::paper());
    for i in 0..hosts {
        w.add_machine(&format!("h{i}"), IsaLevel::Isa1);
    }
    let mut spawned = 0;
    let mut spawn = |w: &mut World, m: MachineId, path: &str, tty: Option<u32>| {
        w.spawn_vm_proc(m, path, tty, user())
            .expect("spawn workload");
        spawned += 1;
    };
    for (i, &period) in periods.iter().enumerate() {
        if i % hog_every == offset {
            w.install_program(i, "/bin/hog", &hog).expect("install hog");
            for _ in 0..hogs_per {
                spawn(&mut w, i, "/bin/hog", None);
            }
        }
        w.install_program(i, "/bin/tick", &tickers[&period])
            .expect("install ticker");
        spawn(&mut w, i, "/bin/tick", None);
        w.install_program(i, "/bin/reader", &reader)
            .expect("install reader");
        for _ in 0..4 {
            let (tty, _handle) = w.add_terminal(i);
            spawn(&mut w, i, "/bin/reader", Some(tty));
        }
    }
    t.exit();
    Cluster {
        w,
        hog,
        hog_ic,
        spawned,
    }
}

// ---------------------------------------------------------------------
// storm
// ---------------------------------------------------------------------

/// The migration storm: random daemon migrations on a loaded cluster.
pub struct Storm {
    c: Cluster,
    engine: PolicyEngine<Random>,
    run_slices: u64,
}

impl Storm {
    fn setup(seed: u64, t: &mut Tracer) -> Storm {
        let mut rng = SplitMix::new(seed);
        let mut c = build_cluster(STORM_HOSTS, 4, 2, &mut rng, t);
        let engine = PolicyEngine::new(Random::seeded(rng.next()));
        // Age the hogs past the policy's minimum before the first decision.
        let warm = engine.policy.min_age + SimDuration::millis(500);
        let run_slices = run_for(&mut c.w, warm, t);
        Storm {
            c,
            engine,
            run_slices,
        }
    }
}

/// Migrations the engine has attempted: completed plus failed.
fn attempts(engine: &PolicyEngine<Random>) -> u64 {
    engine.records.len() as u64 + engine.failures
}

impl Load for Storm {
    fn world(&self) -> &World {
        &self.c.w
    }

    fn op(&mut self, t: &mut Tracer) -> OpRecord {
        // Decision rounds until the policy proposes a migration (it
        // nearly always does: every hog but the last one moved is aged).
        for _ in 0..100 {
            self.run_slices += run_for(&mut self.c.w, STORM_PERIOD, t);
            let w = &mut self.c.w;
            if t.is_on() {
                let mut probe = self.engine.policy.clone();
                t.span("apps.decide", || probe.decide(w, &self.engine.evicted));
            }
            let next_pid: Vec<u32> = (0..w.machine_count())
                .map(|m| w.machine(m).next_pid())
                .collect();
            let before = attempts(&self.engine);
            let sw = HostStopwatch::start();
            let rec = t.span("apps.step", || self.engine.step(w));
            let host_s = sw.elapsed_secs();
            if attempts(&self.engine) == before {
                continue;
            }
            let w = &mut self.c.w;
            let Some(rec) = rec else {
                return OpRecord {
                    host_s,
                    migs: Vec::new(),
                    failed: true,
                };
            };
            // The daemon `migrate` command was the first process the
            // step spawned on the target.
            let cmd = (rec.to, next_pid[rec.to]);
            let sim = w.finished.get(&cmd).map(|info| MigSim {
                proto: None,
                downtime_us: 0,
                total_us: info.real().as_micros(),
                rounds: 0,
                pages_precopied: 0,
                pages_fetched: 0,
                bytes_sent: 0,
                image_pages: 0,
            });
            let one_copy = !alive(w, rec.from, rec.old_pid) && alive(w, rec.to, rec.new_pid);
            let clean = no_orphan_dumps(w);
            return OpRecord {
                host_s,
                failed: sim.is_none() || !one_copy || !clean,
                migs: sim.into_iter().collect(),
            };
        }
        OpRecord {
            host_s: 0.0,
            migs: Vec::new(),
            failed: true,
        }
    }

    fn lost_procs(&self) -> u64 {
        self.c.spawned.abs_diff(live_vm_procs(&self.c.w))
    }

    fn app_counts(&self) -> Option<AppCounts> {
        Some((
            attempts(&self.engine),
            self.engine.records.len() as u64,
            self.engine.evicted.len() as u64,
        ))
    }

    fn run_slices(&self) -> u64 {
        self.run_slices
    }

    fn hog(&self) -> (&Object, &ICache) {
        (&self.c.hog, &self.c.hog_ic)
    }
}

// ---------------------------------------------------------------------
// protocols
// ---------------------------------------------------------------------

/// The protocol ping-pong on a three-node world.
pub struct Protocols {
    w: World,
    nodes: [MachineId; 2],
    rng: SplitMix,
    hog: Object,
    hog_ic: ICache,
    run_slices: u64,
}

/// The span around one `migrate_proto` call.
pub fn proto_span(p: Protocol) -> &'static str {
    match p {
        Protocol::Eager => "pmig.migrate_proto.eager",
        Protocol::PreCopy => "pmig.migrate_proto.precopy",
        Protocol::Demand => "pmig.migrate_proto.demand",
    }
}

fn hog_path(pages: u32) -> String {
    format!("/bin/hog{pages}")
}

impl Protocols {
    fn setup(seed: u64, t: &mut Tracer) -> Protocols {
        let programs: Vec<(u32, Object)> = BALLAST_PAGES
            .map(|p| {
                (
                    p,
                    assemble_traced(&pmig::workloads::dirty_hog_program(FOREVER, p * PAGE), t),
                )
            })
            .collect();
        let hog = programs[0].1.clone();
        let hog_ic = t.span("m68vm.assemble", || {
            ICache::build(&hog.text, IsaLevel::Isa1)
        });
        t.enter("ukernel.setup");
        let mut w = World::new(KernelConfig::paper());
        let node0 = w.add_machine("node0", IsaLevel::Isa1);
        let node1 = w.add_machine("node1", IsaLevel::Isa1);
        let _ = w.add_machine("node2", IsaLevel::Isa1);
        for (pages, obj) in &programs {
            w.install_program(node0, &hog_path(*pages), obj)
                .expect("install victim");
        }
        t.exit();
        Protocols {
            w,
            nodes: [node0, node1],
            rng: SplitMix::new(seed),
            hog,
            hog_ic,
            run_slices: 0,
        }
    }

    /// One migration of `victim` off `nodes[at]`; returns its record and
    /// the survivor's pid when every gate held.
    fn migrate(
        &mut self,
        victim: Pid,
        at: usize,
        proto: Protocol,
        t: &mut Tracer,
    ) -> (f64, Option<MigSim>, Option<Pid>) {
        let (from, to) = (self.nodes[at], self.nodes[1 - at]);
        let w = &mut self.w;
        let image_pages = w
            .host_image_geometry(from, victim)
            .map_or(0, |g| u64::from(g.data_len.div_ceil(PAGE)));
        let sw = HostStopwatch::start();
        let report = t.span(proto_span(proto), || {
            migrate_proto(w, victim, from, to, proto, user())
        });
        let host_s = sw.elapsed_secs();
        let Ok(r) = report else {
            return (host_s, None, None);
        };
        let landed = r.status == 0 && r.migrated();
        let one_copy = r.new_pid.is_some_and(|p| alive(w, to, p)) && !alive(w, from, victim);
        let clean = no_orphan_dumps(w);
        let sim = MigSim {
            proto: Some(proto),
            downtime_us: r.downtime_us,
            total_us: r.total_us,
            rounds: r.rounds,
            pages_precopied: r.pages_precopied,
            pages_fetched: r.pages_fetched,
            bytes_sent: r.bytes_sent,
            image_pages,
        };
        (
            host_s,
            Some(sim),
            r.new_pid.filter(|_| landed && one_copy && clean),
        )
    }
}

impl Load for Protocols {
    fn world(&self) -> &World {
        &self.w
    }

    /// One victim's life: spawned on node0 with a seed-drawn image size,
    /// run for a seed-drawn while (so its dirty set differs too), moved
    /// eager 0→1, pre-copy 1→0 and demand 0→1, then killed and reaped.
    fn op(&mut self, t: &mut Tracer) -> OpRecord {
        let pages = self.rng.pick(BALLAST_PAGES);
        let warm = SimDuration::millis(u64::from(self.rng.pick(20..=80)));
        let node0 = self.nodes[0];
        let w = &mut self.w;
        let mut victim = t.span("ukernel.spawn", || {
            w.spawn_vm_proc(node0, &hog_path(pages), None, user())
                .expect("spawn victim")
        });
        self.run_slices += run_for(&mut self.w, warm, t);
        let mut rec = OpRecord {
            host_s: 0.0,
            migs: Vec::new(),
            failed: false,
        };
        for (at, proto) in Protocol::ALL.into_iter().enumerate() {
            let (host_s, sim, survivor) = self.migrate(victim, at % 2, proto, t);
            rec.host_s += host_s;
            rec.migs.extend(sim);
            match survivor {
                Some(p) => victim = p,
                None => {
                    rec.failed = true;
                    return rec;
                }
            }
        }
        let mid = self.nodes[1];
        let w = &mut self.w;
        t.span("ukernel.kill", || {
            w.host_post_signal(mid, victim, Signal::SIGKILL);
            w.run_until_exit(mid, victim, RUN_BUDGET);
            w.host_reap(mid, victim);
        });
        rec
    }

    fn lost_procs(&self) -> u64 {
        // Every victim was killed after its rotation.
        live_vm_procs(&self.w)
    }

    fn run_slices(&self) -> u64 {
        self.run_slices
    }

    fn hog(&self) -> (&Object, &ICache) {
        (&self.hog, &self.hog_ic)
    }
}

// ---------------------------------------------------------------------
// steady
// ---------------------------------------------------------------------

/// The 256-host cluster running with no migrations.
pub struct Steady {
    c: Cluster,
    run_slices: u64,
}

impl Steady {
    fn setup(seed: u64, t: &mut Tracer) -> Steady {
        let mut rng = SplitMix::new(seed);
        let mut c = build_cluster(STEADY_HOSTS, 16, 3, &mut rng, t);
        let run_slices = run_for(&mut c.w, SimDuration::millis(200), t);
        Steady { c, run_slices }
    }
}

impl Load for Steady {
    fn world(&self) -> &World {
        &self.c.w
    }

    fn op(&mut self, t: &mut Tracer) -> OpRecord {
        let sw = HostStopwatch::start();
        self.run_slices += run_for(&mut self.c.w, STEADY_TICK, t);
        OpRecord {
            host_s: sw.elapsed_secs(),
            migs: Vec::new(),
            failed: false,
        }
    }

    fn lost_procs(&self) -> u64 {
        self.c.spawned.abs_diff(live_vm_procs(&self.c.w))
    }

    fn run_slices(&self) -> u64 {
        self.run_slices
    }

    fn hog(&self) -> (&Object, &ICache) {
        (&self.c.hog, &self.c.hog_ic)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_seeded_and_in_range() {
        let draw = |seed| {
            let mut r = SplitMix::new(seed);
            (0..8).map(|_| r.pick(BALLAST_PAGES)).collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
        assert!(draw(3).iter().all(|p| BALLAST_PAGES.contains(p)));
    }

    #[test]
    fn counters_subtract_per_syscall() {
        let mut a = Counters::default();
        a.per_syscall.insert("open", (2, 30));
        let mut b = a.clone();
        b.slices = 5;
        b.per_syscall.insert("open", (5, 70));
        b.per_syscall.insert("sleep", (1, 9));
        let d = b.since(&a);
        assert_eq!(d.slices, 5);
        assert_eq!(d.per_syscall["open"], (3, 40));
        assert_eq!(d.per_syscall["sleep"], (1, 9));
    }

    #[test]
    fn protocol_rotation_passes_its_gates() {
        let mut t = Tracer::off();
        let mut p = Kind::Protocols.setup(5, &mut t);
        for _ in 0..2 {
            let r = p.op(&mut t);
            assert!(!r.failed, "{r:?}");
            let protos: Vec<_> = r.migs.iter().map(|m| m.proto).collect();
            assert_eq!(protos, Protocol::ALL.map(Some));
        }
        assert_eq!(p.lost_procs(), 0);
    }
}
