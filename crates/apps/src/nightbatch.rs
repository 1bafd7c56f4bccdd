//! The day/night batch scheduler (§8).
//!
//! "These jobs can be run in one machine during the day (or not at
//! all!), when users want to use the majority of the machines in the
//! network. At night, when the load on most machines is low, these jobs
//! can be distributed evenly throughout the system, and thus make
//! efficient use of the network resources."
//!
//! Submitted jobs are stopped (`SIGSTOP`) on the day machine. At
//! nightfall they are continued and spread round-robin across every
//! machine with the migration mechanism.

use sysdefs::{Credentials, Pid, Signal};
use ukernel::{MachineId, World};

use pmig::{migrate_process, RemoteRunner};

/// The batch queue and its day machine.
#[derive(Clone, Debug)]
pub struct NightBatch {
    /// The machine that holds (stopped) jobs during the day.
    pub day_machine: MachineId,
    /// Jobs currently queued (pids on the day machine).
    pub queued: Vec<Pid>,
    /// Credentials the scheduler acts with.
    pub cred: Credentials,
}

impl NightBatch {
    /// An empty queue on `day_machine`.
    pub fn new(day_machine: MachineId) -> NightBatch {
        NightBatch {
            day_machine,
            queued: Vec::new(),
            cred: Credentials::root(),
        }
    }

    /// Submits a running job: it is stopped until nightfall.
    pub fn submit(&mut self, world: &mut World, pid: Pid) {
        world.host_post_signal(self.day_machine, pid, Signal::SIGSTOP);
        world.run_slices(1_000);
        self.queued.push(pid);
    }

    /// Nightfall: continue every job and spread them round-robin over
    /// all machines. Returns `(old pid, machine, new pid)` per job.
    pub fn nightfall(&mut self, world: &mut World) -> Vec<(Pid, MachineId, Pid)> {
        let n = world.machine_count();
        let mut placements = Vec::new();
        let jobs = std::mem::take(&mut self.queued);
        for (i, pid) in jobs.into_iter().enumerate() {
            // Wake the job just enough to be dumpable; the real running
            // happens on its night-time machine.
            world.host_post_signal(self.day_machine, pid, Signal::SIGCONT);
            world.run_slices(4);
            let target = i % n;
            if target == self.day_machine {
                placements.push((pid, self.day_machine, pid));
                continue;
            }
            match migrate_process(
                world,
                pid,
                self.day_machine,
                target,
                target,
                None,
                self.cred.clone(),
                RemoteRunner::Daemon,
            ) {
                Ok(new_pid) => placements.push((pid, target, new_pid)),
                Err(_) => placements.push((pid, self.day_machine, pid)),
            }
        }
        placements
    }
}
