//! The paper's §8 applications, built on the migration mechanism:
//!
//! * [`checkpoint`] — periodic snapshots of a long-running process, with
//!   copies of its open files for a consistent restore at the n-th
//!   checkpoint;
//! * [`policy`] — load balancing: an engine that moves long-running
//!   CPU-bound jobs from busy machines to idle ones, under pluggable
//!   placement policies;
//! * [`nightbatch`] — the "CPU hogs" day/night scheduler: jobs are kept
//!   stopped (or on one machine) during the day and spread across the
//!   network at night.
//!
//! Both movers run the paper's `migrate` over the §6.4 daemon proposal
//! instead of `rsh` (`pmig::migrate_process` with
//! `RemoteRunner::Daemon`), issued from the destination.
//!
//! The paper lists these as applications one *could* build ("another
//! interesting subject for future work is to implement one of the
//! applications described in Section 8"); implementing them is part of
//! this reproduction's extension scope, and the `figures` ablations
//! measure them.

pub mod checkpoint;
pub mod nightbatch;
pub mod policy;

pub use checkpoint::{restore_checkpoint, run_checkpointer, CheckpointPlan, CheckpointRecord};
pub use nightbatch::NightBatch;
pub use policy::{Decision, LoadGradient, MigrationPolicy, MigrationRecord, PolicyEngine, Random};
