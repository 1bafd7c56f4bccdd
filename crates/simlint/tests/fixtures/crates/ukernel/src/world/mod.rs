//! Fixture World: one seeded snapshot-coverage gap (`cache_idx`). Its
//! poke hook and mechanism function are in `sched.rs`.

pub struct World {
    pub ether: EtherStats,
    pub finished: BTreeMap<(usize, u32), ExitInfo>,
    // Seeded violation: a "cache" nobody folded or declared.
    pub cache_idx: BTreeSet<usize>,
}
