//! The evaluation harness: every figure in the paper's §6, plus the
//! ablations from DESIGN.md, as reusable scenario functions.
//!
//! Each `figN()` function builds a fresh world, runs the paper's §6
//! measurement procedure, and returns the series the paper plots —
//! simulated milliseconds and the normalised ratios. The `figures`
//! binary prints them (and JSON for EXPERIMENTS.md). Host time — how
//! fast the simulator itself runs — is [`interp`]'s business, recorded
//! by `figures interp`.

pub mod hostclock;
pub mod interp;
pub mod json;
pub mod scenarios;

pub use scenarios::{
    ablation_checkpoint, ablation_daemon, ablation_loadbal, ablation_names, ablation_virt, cluster,
    cluster_soak, fault_soak, fig1, fig2, fig3, fig4, ClusterRow, ClusterSoakRow, FaultSoakRow,
    Fig1Row, Fig2Row, Fig3Row, Fig4Row,
};
