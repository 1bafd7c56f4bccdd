//! Fixture scheduler: one poke hook and one mechanism function.

impl World {
    /// The poke hook itself: the `wake_queue` insert IS the poke, so
    /// reaching this function discharges a writer's obligation.
    pub fn poke_proc(&mut self, mid: usize, _pid: Pid) {
        self.wake_queue.insert(mid);
    }

    /// Wake machinery (structurally exempt): consumes pokes and calls
    /// the leaf setters — its markers are its job, not a violation.
    pub fn apply_wake(&mut self, server: usize, pid: Pid) {
        self.machines[server].make_runnable(pid);
        self.finished.remove(&(server, pid.0));
    }
}
