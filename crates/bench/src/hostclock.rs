//! Host-side wall-clock measurement, quarantined.
//!
//! This is the **only** place in the workspace allowed to read the host
//! clock (`std::time::Instant`), and `simlint.toml` carries the single
//! scoped exemption that says so. Everything simulated runs on
//! `SimTime`; the stopwatch here exists purely to measure how fast the
//! *host* executes the simulator (instructions/second in
//! `BENCH_interp.json`), a number that never feeds back into simulated
//! state.
//!
//! Keeping the type here, instead of letting measurement code call
//! `Instant::now()` directly, means a new host-time use site shows up
//! as a simlint diagnostic in review instead of as a determinism bug in
//! a migration test.

use std::time::Instant;

/// A started stopwatch over host time.
#[derive(Clone, Copy, Debug)]
pub struct HostStopwatch {
    start: Instant,
}

impl HostStopwatch {
    /// Starts timing now.
    pub fn start() -> HostStopwatch {
        HostStopwatch {
            start: Instant::now(),
        }
    }

    /// Seconds of host time since [`HostStopwatch::start`].
    pub fn elapsed_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_is_monotonic() {
        let sw = HostStopwatch::start();
        let a = sw.elapsed_secs();
        let b = sw.elapsed_secs();
        assert!(a >= 0.0);
        assert!(b >= a);
    }
}
