//! Load balancing (§8) behind pluggable migration policies.
//!
//! "CPU bound jobs can be moved from busy nodes of the network to others
//! that are idle, or have a much smaller load. Candidates for migration
//! can be best selected from the processes that have been running for
//! more than a certain amount of time. This will ensure that there is a
//! high probability that the candidate program will keep running for
//! some time, and that it is worth paying the overhead of moving it to
//! another machine."
//!
//! The balancer is a world-level orchestrator (a "systemwide
//! application"): it inspects per-machine run-queue lengths, picks aged
//! VM processes, and moves them with the real `dumpproc`/`restart`
//! commands — via the migration daemon, because "in the case of load
//! balancing, the migrate application may be too slow in terms of real
//! time response".
//!
//! §8 hard-wires one placement strategy (move the oldest job from the
//! busiest machine to the idlest). Real clusters mix strategies —
//! Migration-Profiler-style tooling swaps them per workload — so the
//! decision logic is factored behind [`MigrationPolicy`]: a policy
//! looks at the world and proposes at most one migration per round;
//! the [`PolicyEngine`] executes the proposal and handles
//! per-candidate failure by *evicting* the candidate (the moral
//! equivalent of dropping a profiled pid on `ESRCH`: a process that
//! vanished or refused to move once is not retried every round).
//!
//! Two built-in policies:
//!
//! * [`LoadGradient`] — the paper's strategy;
//! * [`Random`] — seeded random source/victim/destination, the classic
//!   baseline a smarter policy must beat.

use simtime::rng::SplitMix64;
use simtime::SimDuration;
use std::collections::BTreeSet;
use sysdefs::{Credentials, Pid};
use ukernel::{Body, MachineId, ProcState, World};

use pmig::{migrate_process, RemoteRunner};

/// One completed migration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MigrationRecord {
    /// Source machine.
    pub from: MachineId,
    /// Destination machine.
    pub to: MachineId,
    /// Pid on the source.
    pub old_pid: Pid,
    /// Pid on the destination.
    pub new_pid: Pid,
}

/// Counts the runnable VM jobs on a machine (the load metric).
pub fn load_of(world: &World, mid: MachineId) -> usize {
    world
        .machine(mid)
        .procs
        .values()
        .filter(|p| matches!(p.body, Body::Vm(_)) && matches!(p.state, ProcState::Runnable))
        .count()
}

/// One proposed migration: move `victim` from `from` to `to`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Decision {
    /// Pid on the source machine.
    pub victim: Pid,
    /// Source machine.
    pub from: MachineId,
    /// Destination machine.
    pub to: MachineId,
}

/// A placement strategy: inspect the world, propose at most one
/// migration. Policies must skip candidates in `evicted` (pids the
/// engine failed to move before) and must be deterministic given the
/// world state — any randomness comes from owned, seeded generators.
pub trait MigrationPolicy {
    /// Short name, used in benchmark output.
    fn name(&self) -> &'static str;
    /// Proposes the next migration, or `None` to sit this round out.
    fn decide(&mut self, world: &World, evicted: &BTreeSet<(MachineId, u32)>) -> Option<Decision>;
}

/// The oldest process on `mid` that is runnable, VM-bodied, at least
/// `min_age` old and not evicted.
fn aged_candidate(
    world: &World,
    mid: MachineId,
    min_age: SimDuration,
    evicted: &BTreeSet<(MachineId, u32)>,
) -> Option<Pid> {
    let m = world.machine(mid);
    let now = m.now;
    m.procs
        .values()
        .filter(|p| {
            matches!(p.body, Body::Vm(_))
                && matches!(p.state, ProcState::Runnable)
                && now.since(p.start_time) >= min_age
                && !evicted.contains(&(mid, p.pid.as_u32()))
        })
        .min_by_key(|p| p.start_time)
        .map(|p| p.pid)
}

/// The paper's strategy: busiest machine to idlest machine, oldest
/// aged job, only when the load gap clears a threshold. Ties go to the
/// *last* busiest machine (`max_by_key`) and the *first* idlest one
/// (`min_by_key`).
#[derive(Clone, Debug)]
pub struct LoadGradient {
    /// Minimum age before a process is a migration candidate.
    pub min_age: SimDuration,
    /// Minimum busiest-to-idlest load difference worth a migration.
    pub imbalance_threshold: usize,
}

impl Default for LoadGradient {
    fn default() -> Self {
        LoadGradient {
            min_age: SimDuration::secs(2),
            imbalance_threshold: 2,
        }
    }
}

impl MigrationPolicy for LoadGradient {
    fn name(&self) -> &'static str {
        "load-gradient"
    }

    fn decide(&mut self, world: &World, evicted: &BTreeSet<(MachineId, u32)>) -> Option<Decision> {
        let n = world.machine_count();
        let loads: Vec<usize> = (0..n).map(|m| load_of(world, m)).collect();
        let (busiest, &max) = loads.iter().enumerate().max_by_key(|&(_, l)| l)?;
        let (idlest, &min) = loads.iter().enumerate().min_by_key(|&(_, l)| l)?;
        if max.saturating_sub(min) < self.imbalance_threshold {
            return None;
        }
        let victim = aged_candidate(world, busiest, self.min_age, evicted)?;
        Some(Decision {
            victim,
            from: busiest,
            to: idlest,
        })
    }
}

/// Seeded random placement ([`SplitMix64`], no host entropy): a random
/// source among machines with an eligible candidate, its oldest aged
/// job, and a random destination other than the source. The baseline
/// policy — and a stress generator, since it migrates without looking
/// at loads at all.
#[derive(Clone, Debug)]
pub struct Random {
    /// Minimum age before a process is a migration candidate.
    pub min_age: SimDuration,
    /// Owned by the policy, so runs are reproducible from the seed
    /// alone.
    rng: SplitMix64,
}

impl Random {
    /// A policy drawing from the given seed.
    pub fn seeded(seed: u64) -> Random {
        Random {
            min_age: LoadGradient::default().min_age,
            rng: SplitMix64::new(seed),
        }
    }
}

impl MigrationPolicy for Random {
    fn name(&self) -> &'static str {
        "random"
    }

    fn decide(&mut self, world: &World, evicted: &BTreeSet<(MachineId, u32)>) -> Option<Decision> {
        let n = world.machine_count();
        if n < 2 {
            return None;
        }
        let sources: Vec<(MachineId, Pid)> = (0..n)
            .filter_map(|m| aged_candidate(world, m, self.min_age, evicted).map(|p| (m, p)))
            .collect();
        if sources.is_empty() {
            return None;
        }
        let (from, victim) = self.rng.pick(&sources);
        let mut to = self.rng.below(n as u64 - 1) as usize;
        if to >= from {
            to += 1;
        }
        Some(Decision { victim, from, to })
    }
}

/// Executes a policy's decisions with the real migration pipeline and
/// Migration-Profiler-style per-candidate error handling: a victim the
/// pipeline fails on (vanished mid-dump, restart refused, command hung)
/// is evicted and never proposed again, instead of wedging the balancer
/// in a retry loop.
pub struct PolicyEngine<P: MigrationPolicy> {
    /// The placement strategy.
    pub policy: P,
    /// Credentials migrations run with (the superuser, normally).
    pub cred: Credentials,
    /// Candidates struck off after a failed migration.
    pub evicted: BTreeSet<(MachineId, u32)>,
    /// Completed migrations, in order.
    pub records: Vec<MigrationRecord>,
    /// Failed migration attempts (each one evicted a candidate).
    pub failures: u64,
}

impl<P: MigrationPolicy> PolicyEngine<P> {
    /// An engine acting as the superuser.
    pub fn new(policy: P) -> PolicyEngine<P> {
        PolicyEngine {
            policy,
            cred: Credentials::root(),
            evicted: BTreeSet::new(),
            records: Vec::new(),
            failures: 0,
        }
    }

    /// One decide-and-execute round. Returns the completed migration,
    /// if the policy proposed one and the pipeline delivered it.
    pub fn step(&mut self, world: &mut World) -> Option<MigrationRecord> {
        let d = self.policy.decide(world, &self.evicted)?;
        match migrate_process(
            world,
            d.victim,
            d.from,
            d.to,
            d.to,
            None,
            self.cred.clone(),
            RemoteRunner::Daemon,
        ) {
            Ok(new_pid) => {
                let rec = MigrationRecord {
                    from: d.from,
                    to: d.to,
                    old_pid: d.victim,
                    new_pid,
                };
                self.records.push(rec.clone());
                Some(rec)
            }
            Err(_) => {
                // The candidate is gone or refuses to move: strike it
                // off rather than retrying it every round.
                self.failures += 1;
                self.evicted.insert((d.from, d.victim.as_u32()));
                None
            }
        }
    }

    /// Runs the world while deciding every `period_us` of simulated
    /// time, for at most `max_rounds` rounds or until `all_done`.
    /// Returns the number of completed migrations.
    pub fn run(
        &mut self,
        world: &mut World,
        period_us: u64,
        max_rounds: u32,
        all_done: impl Fn(&World) -> bool,
    ) -> usize {
        let before = self.records.len();
        for _ in 0..max_rounds {
            if all_done(world) {
                break;
            }
            let deadline = world.clock() + SimDuration::micros(period_us);
            world.run_until_time(deadline, 5_000_000);
            self.step(world);
        }
        self.records.len() - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m68vm::{assemble, IsaLevel};
    use sysdefs::{Gid, Uid};
    use ukernel::KernelConfig;

    fn cluster_with_hogs(machines: usize, hogs: u32) -> World {
        let mut w = World::new(KernelConfig::paper());
        for i in 0..machines {
            w.add_machine(&format!("node{i}"), IsaLevel::Isa1);
        }
        let obj = assemble(&pmig::workloads::cpu_hog_program(400)).unwrap();
        w.install_program(0, "/bin/hog", &obj).unwrap();
        for _ in 0..hogs {
            w.spawn_vm_proc(0, "/bin/hog", None, Credentials::user(Uid(1), Gid(1)))
                .unwrap();
        }
        w
    }

    fn aged(w: &mut World) {
        let t = w.machine(0).now + SimDuration::millis(2_500);
        w.run_until_time(t, 10_000_000);
    }

    #[test]
    fn load_of_counts_runnable_vm_jobs() {
        let w = cluster_with_hogs(2, 4);
        assert_eq!(load_of(&w, 0), 4);
        assert_eq!(load_of(&w, 1), 0);
    }

    #[test]
    fn candidates_respect_min_age() {
        let mut w = cluster_with_hogs(2, 2);
        let none = BTreeSet::new();
        // Immediately after spawn nothing is old enough.
        assert!(aged_candidate(&w, 0, SimDuration::secs(1), &none).is_none());
        // After a second of running, the oldest job qualifies: the
        // first spawned pid.
        let t = w.machine(0).now + SimDuration::millis(1_200);
        w.run_until_time(t, 1_000_000);
        assert_eq!(
            aged_candidate(&w, 0, SimDuration::secs(1), &none),
            Some(Pid(2))
        );
    }

    #[test]
    fn load_gradient_moves_the_oldest_job_to_the_first_idlest_machine() {
        let mut w = cluster_with_hogs(3, 4);
        aged(&mut w);
        let d = LoadGradient::default()
            .decide(&w, &BTreeSet::new())
            .expect("imbalance above threshold");
        assert_eq!((d.victim, d.from, d.to), (Pid(2), 0, 1));
    }

    #[test]
    fn load_gradient_sits_out_below_the_threshold() {
        let mut w = cluster_with_hogs(2, 1);
        aged(&mut w);
        let mut engine = PolicyEngine::new(LoadGradient {
            min_age: SimDuration::millis(1),
            imbalance_threshold: 2,
        });
        assert!(
            engine.step(&mut w).is_none(),
            "one job on one machine is not an imbalance worth a migration"
        );
        assert_eq!(engine.failures, 0);
    }

    #[test]
    fn random_policy_is_seed_deterministic() {
        let mut w = cluster_with_hogs(4, 3);
        aged(&mut w);
        let a = Random::seeded(7).decide(&w, &BTreeSet::new());
        let b = Random::seeded(7).decide(&w, &BTreeSet::new());
        let c = Random::seeded(8).decide(&w, &BTreeSet::new());
        assert!(a.is_some());
        assert_eq!(a, b, "same seed, same decision");
        // A different seed is *allowed* to coincide, but the decision
        // must still be well-formed.
        let c = c.expect("decision");
        assert_ne!(c.from, c.to);
    }

    #[test]
    fn eviction_filter_skips_struck_candidates() {
        let mut w = cluster_with_hogs(2, 2);
        aged(&mut w);
        let all = BTreeSet::new();
        let first = aged_candidate(&w, 0, SimDuration::millis(1), &all).expect("candidate");
        let mut evicted = BTreeSet::new();
        evicted.insert((0usize, first.as_u32()));
        let second = aged_candidate(&w, 0, SimDuration::millis(1), &evicted).expect("next oldest");
        assert_ne!(first, second, "evicted candidate must be skipped");
    }

    #[test]
    fn engine_evicts_failed_victims() {
        use simnet::{FaultPlan, FaultSite, FaultSpec};
        let mut w = cluster_with_hogs(3, 4);
        aged(&mut w);
        let mut engine = PolicyEngine::new(LoadGradient {
            min_age: SimDuration::millis(1),
            imbalance_threshold: 2,
        });
        let doomed = engine
            .policy
            .decide(&w, &engine.evicted)
            .expect("decision")
            .victim;
        // Every dump attempt crashes mid-flight: the failure-atomic
        // pipeline leaves the victim alive at the source, so without
        // eviction the engine would re-propose it forever.
        w.faults = FaultPlan::seeded(1).with(FaultSpec::always(FaultSite::MidDumpCrash, u32::MAX));
        assert!(engine.step(&mut w).is_none());
        assert_eq!(engine.failures, 1);
        assert!(engine.evicted.contains(&(0, doomed.as_u32())));
        let next = engine.policy.decide(&w, &engine.evicted);
        assert_ne!(
            next.map(|d| d.victim),
            Some(doomed),
            "evicted victim must not be proposed again"
        );
    }
}
