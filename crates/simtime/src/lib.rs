//! Virtual time and the Sun-2-calibrated cost model.
//!
//! Every measurement in the paper's evaluation (Figures 1-4) is a CPU or
//! real time on a Sun-2 workstation. Since our substrate is a simulator,
//! all times in this workspace are *virtual*: a [`SimTime`] is a count of
//! simulated micro-seconds since world boot, and a [`CostModel`] assigns a
//! [`SimDuration`] to every primitive operation (instruction, syscall trap,
//! byte copied, disk transfer, network frame, ...).
//!
//! The figure ratios reported by the benchmark harness are *outputs* of
//! this model plus the simulated work actually performed — e.g. `SIGDUMP`
//! costs more than `SIGQUIT` because it genuinely writes three files — not
//! hard-coded constants.

pub mod clock;
pub mod cost;
pub mod rng;

pub use clock::{Clock, SimDuration, SimTime};
pub use cost::CostModel;
