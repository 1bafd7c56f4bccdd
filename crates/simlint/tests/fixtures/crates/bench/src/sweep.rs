//! Fixture trap: the bench crate may use host threads — its drivers
//! time worlds from outside and feed nothing back into simulated state.

pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
