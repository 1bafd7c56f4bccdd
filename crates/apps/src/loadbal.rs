//! Load balancing (§8).
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
//! VM processes on the busiest machine, and moves them to the least
//! loaded one with the real `dumpproc`/`restart` commands — via the
//! migration daemon, because "in the case of load balancing, the migrate
//! application may be too slow in terms of real time response".

use simtime::SimDuration;
use sysdefs::{Credentials, Pid};
use ukernel::{Body, MachineId, ProcState, World};

use crate::migrated::migrate_via_daemon_scripted;

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

/// The balancing policy.
#[derive(Clone, Debug)]
pub struct LoadBalancer {
    /// Minimum age before a process is a migration candidate.
    pub min_age: SimDuration,
    /// Minimum run-queue-length difference between the busiest and the
    /// idlest machine before a migration is worthwhile.
    pub imbalance_threshold: usize,
    /// Credentials the balancer acts with (the superuser, normally).
    pub cred: Credentials,
}

impl Default for LoadBalancer {
    fn default() -> Self {
        LoadBalancer {
            min_age: SimDuration::secs(2),
            imbalance_threshold: 2,
            cred: Credentials::root(),
        }
    }
}

impl LoadBalancer {
    /// Counts the runnable VM jobs on a machine (the load metric).
    pub fn load_of(world: &World, mid: MachineId) -> usize {
        world
            .machine(mid)
            .procs
            .values()
            .filter(|p| matches!(p.body, Body::Vm(_)) && matches!(p.state, ProcState::Runnable))
            .count()
    }

    /// Picks the oldest eligible candidate on `mid`.
    pub fn pick_candidate(&self, world: &World, mid: MachineId) -> Option<Pid> {
        let m = world.machine(mid);
        let now = m.now;
        m.procs
            .values()
            .filter(|p| {
                matches!(p.body, Body::Vm(_))
                    && matches!(p.state, ProcState::Runnable)
                    && now.since(p.start_time) >= self.min_age
            })
            .min_by_key(|p| p.start_time)
            .map(|p| p.pid)
    }

    /// Performs at most one balancing migration; returns its record.
    pub fn balance_once(&self, world: &mut World) -> Option<MigrationRecord> {
        let n = world.machine_count();
        let loads: Vec<usize> = (0..n).map(|m| Self::load_of(world, m)).collect();
        let (busiest, &max) = loads.iter().enumerate().max_by_key(|&(_, l)| l)?;
        let (idlest, &min) = loads.iter().enumerate().min_by_key(|&(_, l)| l)?;
        if max.saturating_sub(min) < self.imbalance_threshold {
            return None;
        }
        let candidate = self.pick_candidate(world, busiest)?;
        let new_pid =
            migrate_via_daemon_scripted(world, candidate, busiest, idlest, self.cred.clone())
                .ok()?;
        Some(MigrationRecord {
            from: busiest,
            to: idlest,
            old_pid: candidate,
            new_pid,
        })
    }

    /// Runs the world while balancing every `period_us`, until all the
    /// watched pids have finished (on any machine) or the slice budget
    /// runs out. Returns the migrations performed.
    pub fn run_balanced(
        &self,
        world: &mut World,
        period_us: u64,
        max_rounds: u32,
        all_done: impl Fn(&World) -> bool,
    ) -> Vec<MigrationRecord> {
        let mut records = Vec::new();
        for _ in 0..max_rounds {
            if all_done(world) {
                break;
            }
            let deadline = world.clock() + SimDuration::micros(period_us);
            world.run_until_time(deadline, 5_000_000);
            if let Some(r) = self.balance_once(world) {
                records.push(r);
            }
        }
        records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m68vm::{assemble, IsaLevel};
    use sysdefs::{Gid, Uid};
    use ukernel::KernelConfig;

    fn cluster_with_hogs(n: u32) -> (World, MachineId) {
        let mut w = World::new(KernelConfig::paper());
        let a = w.add_machine("node0", IsaLevel::Isa1);
        let _ = w.add_machine("node1", IsaLevel::Isa1);
        let obj = assemble(&pmig::workloads::cpu_hog_program(400)).unwrap();
        w.install_program(a, "/bin/hog", &obj).unwrap();
        for _ in 0..n {
            w.spawn_vm_proc(a, "/bin/hog", None, Credentials::user(Uid(1), Gid(1)))
                .unwrap();
        }
        (w, a)
    }

    #[test]
    fn load_of_counts_runnable_vm_jobs() {
        let (w, a) = cluster_with_hogs(4);
        assert_eq!(LoadBalancer::load_of(&w, a), 4);
        assert_eq!(LoadBalancer::load_of(&w, 1), 0);
    }

    #[test]
    fn candidates_respect_min_age() {
        let (mut w, a) = cluster_with_hogs(2);
        let lb = LoadBalancer {
            min_age: SimDuration::secs(1),
            ..LoadBalancer::default()
        };
        // Immediately after spawn nothing is old enough.
        assert!(lb.pick_candidate(&w, a).is_none());
        // After a second of running, the oldest job qualifies.
        let t = w.machine(a).now + SimDuration::millis(1_200);
        w.run_until_time(t, 1_000_000);
        let c = lb.pick_candidate(&w, a).expect("aged candidate");
        // The oldest (smallest start time) is picked: that is the first
        // spawned pid.
        assert_eq!(c, Pid(2));
    }

    #[test]
    fn balance_noop_below_threshold() {
        let (mut w, a) = cluster_with_hogs(1);
        let t = w.machine(a).now + SimDuration::secs(1);
        w.run_until_time(t, 1_000_000);
        let lb = LoadBalancer {
            min_age: SimDuration::millis(1),
            imbalance_threshold: 2,
            cred: Credentials::root(),
        };
        assert!(
            lb.balance_once(&mut w).is_none(),
            "one job on one machine is not an imbalance worth a migration"
        );
    }
}
