//! Kernel build configuration: which of the paper's changes are compiled
//! in, and the hardware cost model.

use simtime::CostModel;

/// Compile-time choices of the simulated kernel build.
///
/// `Figure 1` compares a kernel with [`KernelConfig::track_names`] off
/// (the "original UNIX kernel") against one with it on (the paper's
/// kernel); the other flags correspond to the paper's proposed
/// extensions and our ablations.
#[derive(Clone, Debug)]
pub struct KernelConfig {
    /// §5.1: maintain path-name strings in the `user` and `file`
    /// structures. Without this the kernel cannot service `SIGDUMP`
    /// (there is nothing to dump the names from), exactly like the
    /// unmodified Sun 3.0 kernel.
    pub track_names: bool,
    /// §7 extension: remember the pre-migration pid and hostname and
    /// serve them from `getpid()`/`gethostname()`, with
    /// `getpid_real()`/`gethostname_real()` exposing the true values.
    pub virtualize_ids: bool,
    /// A3 ablation: use fixed-size (`MAXPATHLEN`) name fields in the
    /// open-file table instead of dynamically allocated strings. Saves
    /// the allocator calls but, as §5.1 argues, "would have led to
    /// wasting large amounts of kernel memory". The memory effect shows
    /// up in [`crate::machine::Machine::name_bytes_peak`].
    pub fixed_name_strings: bool,
    /// Host-side optimisation: predecode a process's text segment into
    /// an instruction cache at overlay time and interpret through it.
    /// Simulated time is unaffected (the cached path charges the same
    /// per-instruction units); turning this off forces the byte-window
    /// decoder on every step, which the coherence tests use to prove
    /// both paths are bit-identical.
    pub use_icache: bool,
    /// Host-side optimisation layered on the icache: fuse straight-line
    /// runs of predecoded slots into superblocks and retire them whole
    /// (see DESIGN.md §15). Requires [`KernelConfig::use_icache`]; a
    /// quantum still charges the same per-instruction units and pauses
    /// on exactly the same instruction, so simulated time, ktrace and
    /// dump images are bit-identical with this on or off (the coherence
    /// tests toggle it to prove that).
    pub use_superblocks: bool,
    /// The hardware/kernel cost calibration.
    pub cost: CostModel,
}

impl KernelConfig {
    /// The paper's kernel: name tracking on, extensions off.
    pub fn paper() -> KernelConfig {
        KernelConfig {
            track_names: true,
            virtualize_ids: false,
            fixed_name_strings: false,
            use_icache: true,
            use_superblocks: true,
            cost: CostModel::sun2(),
        }
    }

    /// The unmodified Sun 3.0 kernel (the Figure 1 baseline).
    pub fn original() -> KernelConfig {
        KernelConfig {
            track_names: false,
            ..KernelConfig::paper()
        }
    }

    /// The paper's kernel plus §7 id virtualization.
    pub fn with_virtualized_ids() -> KernelConfig {
        KernelConfig {
            virtualize_ids: true,
            ..KernelConfig::paper()
        }
    }
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        assert!(KernelConfig::paper().track_names);
        assert!(KernelConfig::paper().use_icache);
        assert!(KernelConfig::paper().use_superblocks);
        assert!(!KernelConfig::original().track_names);
        assert!(KernelConfig::with_virtualized_ids().virtualize_ids);
        assert!(KernelConfig::default().track_names);
    }
}
