//! A machine's process table: its processes, found by hashing the pid.
//!
//! 4.2BSD's `pfind()` reaches a process through `pidhash`, a hash of
//! its pid, not through a search. This table does the same with open
//! addressing. A process sits in the slot its pid's low bits name
//! (`pid & mask`) or, when that slot is taken, in the first free slot
//! after it (linear probing), so a lookup ends at the pid or at a free
//! slot. A removal shifts the rest of the probe chain back over the
//! hole (backward-shift deletion), so no tombstone is left behind.
//!
//! The slot count is a power of two and stays at least twice the live
//! count, so a chain reaches a free slot within a few steps; it halves
//! again once a removal leaves the table an eighth full. Memory follows
//! the machine's live processes, not the pids it has handed out: init
//! and the long-lived daemons keep their low pids while every other pid
//! comes and goes.
//!
//! Beside the slots, the live pids are kept in ascending order, and
//! every visit ([`ProcTable::iter`], [`ProcTable::keys`],
//! [`ProcTable::values`]) walks that order: reparenting at exit, `wait`,
//! `ps`, the wake audit and the determinism snapshot see the processes
//! in pid order, as they did when the table was an ordered map. Pids
//! only grow, so a spawn appends to the order. Where in its probe chain
//! a process sits is derived state that no visit and no simulated
//! result can observe.

use crate::proc::Proc;

/// The fewest slots a table has, empty or not.
const MIN_SLOTS: usize = 8;

/// One slot: a pid and its process, boxed so that probing, shifting and
/// resizing move 16 bytes, not a whole process.
type Slot = Option<(u32, Box<Proc>)>;

/// The process table, keyed by pid.
pub struct ProcTable {
    /// `pid & (slots.len() - 1)` is a pid's home slot; its process sits
    /// there or further along the chain of occupied slots that follows.
    slots: Vec<Slot>,
    /// The live pids, strictly ascending.
    order: Vec<u32>,
}

impl ProcTable {
    /// An empty table.
    pub(crate) fn new() -> ProcTable {
        ProcTable {
            slots: free_slots(MIN_SLOTS),
            order: Vec::new(),
        }
    }

    /// The slot holding `pid`, or else the free slot that ends its
    /// probe chain. The table always has a free slot, so the probe
    /// ends.
    fn probe(&self, pid: u32) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut i = pid as usize & mask;
        loop {
            match &self.slots[i] {
                Some((p, _)) if *p == pid => return Ok(i),
                Some(_) => i = (i + 1) & mask,
                None => return Err(i),
            }
        }
    }

    /// Borrows the process `pid`.
    pub fn get(&self, pid: &u32) -> Option<&Proc> {
        let i = self.probe(*pid).ok()?;
        self.slots[i].as_ref().map(|(_, p)| &**p)
    }

    /// Mutably borrows the process `pid`.
    pub fn get_mut(&mut self, pid: &u32) -> Option<&mut Proc> {
        let i = self.probe(*pid).ok()?;
        self.slots[i].as_mut().map(|(_, p)| &mut **p)
    }

    /// Enters `proc` as process `pid`, handing back the process it
    /// replaces, if any.
    pub fn insert(&mut self, pid: u32, proc: Proc) -> Option<Proc> {
        if let Some(old) = self.get_mut(&pid) {
            return Some(std::mem::replace(old, proc));
        }
        if 2 * (self.order.len() + 1) > self.slots.len() {
            self.rehash(2 * self.slots.len());
        }
        let free = self.probe(pid).expect_err("the pid is absent");
        self.slots[free] = Some((pid, Box::new(proc)));
        let at = self.order.partition_point(|&p| p < pid);
        self.order.insert(at, pid);
        None
    }

    /// Takes process `pid` out of the table.
    pub fn remove(&mut self, pid: &u32) -> Option<Proc> {
        let mut hole = self.probe(*pid).ok()?;
        let (_, proc) = self.slots[hole].take().expect("the probe found the pid");
        // Walk the rest of the chain: an entry moves back into the hole
        // unless its home slot lies after the hole, where a probe from
        // home would no longer pass the hole to reach it.
        let mask = self.slots.len() - 1;
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let Some((p, _)) = &self.slots[i] else {
                break;
            };
            let home = *p as usize & mask;
            if i.wrapping_sub(home) & mask >= i.wrapping_sub(hole) & mask {
                self.slots[hole] = self.slots[i].take();
                hole = i;
            }
        }
        let at = self
            .order
            .binary_search(pid)
            .expect("every live pid is in the order");
        self.order.remove(at);
        if self.slots.len() > MIN_SLOTS && 8 * self.order.len() <= self.slots.len() {
            self.rehash(self.slots.len() / 2);
        }
        Some(*proc)
    }

    /// Re-lays every process into `slots` slots.
    fn rehash(&mut self, slots: usize) {
        for (pid, proc) in std::mem::replace(&mut self.slots, free_slots(slots))
            .into_iter()
            .flatten()
        {
            let free = self.probe(pid).expect_err("pids are unique");
            self.slots[free] = Some((pid, proc));
        }
    }

    /// `(pid, process)` in ascending pid order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            table: self,
            pids: self.order.iter(),
        }
    }

    /// The live pids, ascending.
    pub fn keys(&self) -> std::slice::Iter<'_, u32> {
        self.order.iter()
    }

    /// The processes in ascending pid order.
    pub fn values(&self) -> impl Iterator<Item = &Proc> + '_ {
        self.iter().map(|(_, p)| p)
    }

    /// The first broken invariant of the table, if any: a pid in the
    /// order that no probe from its home slot reaches, a slot holding a
    /// pid the order lacks, an order that is not strictly ascending, or
    /// more held slots than pids (one pid in two slots). The debug-build
    /// wake audit checks it at every pick.
    #[cfg(any(debug_assertions, test))]
    pub(crate) fn broken_invariant(&self) -> Option<String> {
        if let Some(w) = self.order.windows(2).find(|w| w[0] >= w[1]) {
            return Some(format!(
                "the pid order runs {} then {}, not strictly ascending",
                w[0], w[1]
            ));
        }
        let mask = self.slots.len() - 1;
        if let Some(pid) = self.order.iter().find(|&&pid| self.probe(pid).is_err()) {
            return Some(format!(
                "pid {pid} is unreachable from its home slot {}",
                *pid as usize & mask
            ));
        }
        for (i, slot) in self.slots.iter().enumerate() {
            if let Some((pid, _)) = slot {
                if self.order.binary_search(pid).is_err() {
                    return Some(format!(
                        "slot {i} holds pid {pid}, which is missing from the order"
                    ));
                }
            }
        }
        let held = self.slots.iter().filter(|s| s.is_some()).count();
        (held != self.order.len()).then(|| {
            format!(
                "{held} slots are held for the {} pids in the order",
                self.order.len()
            )
        })
    }
}

/// `n` free slots.
fn free_slots(n: usize) -> Vec<Slot> {
    let mut slots = Vec::new();
    slots.resize_with(n, || None);
    slots
}

impl std::fmt::Debug for ProcTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// [`ProcTable::iter`]: walks the pid order, finding each process by
/// its pid.
#[derive(Debug)]
pub struct Iter<'a> {
    table: &'a ProcTable,
    pids: std::slice::Iter<'a, u32>,
}

impl<'a> Iterator for Iter<'a> {
    type Item = (&'a u32, &'a Proc);

    fn next(&mut self) -> Option<Self::Item> {
        let pid = self.pids.next()?;
        let proc = self
            .table
            .get(pid)
            .expect("every pid in the order has a slot");
        Some((pid, proc))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.pids.size_hint()
    }
}

impl<'a> IntoIterator for &'a ProcTable {
    type Item = (&'a u32, &'a Proc);
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use simtime::rng::SplitMix64;
    use simtime::SimTime;
    use sysdefs::{Credentials, Pid};

    use super::*;
    use crate::proc::{Body, ProcState};
    use crate::user::{FileRef, UserArea};

    /// A process whose `sig_pending` carries `tag`, so a test can tell
    /// which insert a lookup found.
    fn proc_tagged(pid: u32, tag: u32) -> Proc {
        let mut p = Proc::new(
            Pid(pid),
            Pid::INIT,
            ProcState::Runnable,
            Body::Idle,
            UserArea::new(Credentials::root(), FileRef { machine: 0, ino: 0 }),
            SimTime::BOOT,
            "test".into(),
        );
        p.sig_pending = tag;
        p
    }

    /// Checks the table against the ordered-map oracle (pid to tag)
    /// after a step.
    fn check(table: &ProcTable, oracle: &BTreeMap<u32, u32>, what: &str) {
        assert_eq!(table.broken_invariant(), None, "{what}: invariants");
        let listed: Vec<(u32, u32)> = table
            .iter()
            .map(|(&pid, p)| {
                assert_eq!(p.pid, Pid(pid), "{what}: the process under pid {pid}");
                (pid, p.sig_pending)
            })
            .collect();
        let expected: Vec<(u32, u32)> = oracle.iter().map(|(&pid, &tag)| (pid, tag)).collect();
        assert_eq!(listed, expected, "{what}: ascending pid order");
        assert!(
            table.keys().copied().eq(oracle.keys().copied()),
            "{what}: keys"
        );
        assert!(
            table
                .values()
                .map(|p| p.sig_pending)
                .eq(oracle.values().copied()),
            "{what}: values"
        );
        let slots = table.slots.len();
        assert!(
            slots.is_power_of_two() && 2 * table.order.len() <= slots,
            "{what}: {slots} slots for {} processes",
            table.order.len()
        );
        assert!(
            slots == MIN_SLOTS || 8 * table.order.len() > slots,
            "{what}: {slots} slots left for {} processes",
            table.order.len()
        );
    }

    #[test]
    fn seeded_sequences_match_an_ordered_map() {
        // Low pids, pids that cross 100,000, and pids near u32::MAX.
        const STARTS: [u32; 3] = [1, 99_000, u32::MAX - 20_000];
        for seed in 0..45 {
            let mut rng = SplitMix64::new(seed);
            let mut table = ProcTable::new();
            let mut oracle: BTreeMap<u32, u32> = BTreeMap::new();
            let mut next_pid = STARTS[seed as usize % STARTS.len()];
            for step in 0..400 {
                // Alternate spawn-heavy and exit-heavy phases, so the
                // table grows past several sizes and shrinks back.
                let spawn_weight = if (step / 100) % 2 == 0 { 6 } else { 1 };
                let roll = rng.below(spawn_weight + 6);
                let tag = rng.next_u64() as u32;
                if roll < spawn_weight {
                    // Pids ascend with gaps; a gap of a slot count lands
                    // the new pid on an occupied home slot.
                    table.insert(next_pid, proc_tagged(next_pid, tag));
                    oracle.insert(next_pid, tag);
                    next_pid += rng.pick(&[1, 1, 2, 5, 8, 16, 32, 64]);
                } else if roll < spawn_weight + 3 && !oracle.is_empty() {
                    // An exit anywhere, often mid-chain.
                    let nth = rng.below(oracle.len() as u64) as usize;
                    let pid = *oracle.keys().nth(nth).expect("nth < len");
                    let gone = table.remove(&pid).map(|p| (p.pid, p.sig_pending));
                    assert_eq!(
                        gone,
                        Some((Pid(pid), oracle[&pid])),
                        "seed {seed} step {step}"
                    );
                    oracle.remove(&pid);
                } else if roll < spawn_weight + 4 && !oracle.is_empty() {
                    // A write through get_mut.
                    let nth = rng.below(oracle.len() as u64) as usize;
                    let pid = *oracle.keys().nth(nth).expect("nth < len");
                    table.get_mut(&pid).expect("a live pid").sig_pending = tag;
                    oracle.insert(pid, tag);
                } else if roll < spawn_weight + 5 {
                    // An insert below the newest pid: an absent one goes
                    // into the middle of the order, a live one is
                    // replaced and handed back.
                    let pid = next_pid.saturating_sub(1 + rng.below(40) as u32);
                    let old = table
                        .insert(pid, proc_tagged(pid, tag))
                        .map(|p| p.sig_pending);
                    assert_eq!(old, oracle.insert(pid, tag), "seed {seed} step {step}");
                } else {
                    // Lookups, present and absent.
                    for pid in [
                        next_pid.saturating_sub(1 + rng.below(70) as u32),
                        next_pid,
                        100_000 + rng.below(1 << 20) as u32,
                        u32::MAX - rng.below(8) as u32,
                        rng.next_u64() as u32,
                    ] {
                        let found = table.get(&pid).map(|p| p.sig_pending);
                        assert_eq!(found, oracle.get(&pid).copied(), "seed {seed} pid {pid}");
                        assert_eq!(table.get_mut(&pid).is_some(), found.is_some());
                    }
                }
                check(&table, &oracle, &format!("seed {seed} step {step}"));
            }
        }
    }

    #[test]
    fn memory_follows_the_live_count_not_the_pids_handed_out() {
        let mut table = ProcTable::new();
        for pid in 1..=5 {
            table.insert(pid, proc_tagged(pid, 0));
        }
        let mut peak = table.order.len();
        for pid in 6..200_006 {
            table.insert(pid, proc_tagged(pid, 0));
            peak = peak.max(table.order.len());
            assert!(table.remove(&pid).is_some());
        }
        assert!(
            table.slots.len() <= 4 * peak,
            "{} slots after 200,000 cycles at a peak of {peak}",
            table.slots.len()
        );
        // A burst of spawns grows the table; the exits that follow
        // shrink it back below eight slots a process.
        let burst = 200_006..201_006;
        for pid in burst.clone() {
            table.insert(pid, proc_tagged(pid, 0));
        }
        assert!(table.slots.len() >= 2 * table.order.len());
        for pid in burst {
            assert!(table.remove(&pid).is_some());
        }
        assert!(
            table.slots.len() < 8 * table.order.len(),
            "{} slots after the burst left",
            table.slots.len()
        );
        assert!(table.keys().copied().eq(1..=5), "the long-lived pids stay");
        assert_eq!(table.broken_invariant(), None);
    }

    #[test]
    fn the_invariant_check_names_a_broken_probe_chain() {
        let mut table = ProcTable::new();
        let home = 3;
        let (a, b) = (home as u32, (home + MIN_SLOTS) as u32);
        table.insert(a, proc_tagged(a, 0));
        table.insert(b, proc_tagged(b, 0));
        assert_eq!(table.broken_invariant(), None);
        // `b` shares `a`'s home slot and sits one past it. Moving it one
        // slot further leaves a free slot inside its chain.
        let moved = table.slots[home + 1].take();
        table.slots[home + 2] = moved;
        assert_eq!(
            table.broken_invariant(),
            Some(format!("pid {b} is unreachable from its home slot {home}"))
        );
        assert!(table.get(&b).is_none(), "the lookup misses it too");
        // A slot whose pid the order lacks.
        table.slots[home + 1] = table.slots[home + 2].take();
        let stray = 6;
        table.slots[stray] = Some((stray as u32, Box::new(proc_tagged(stray as u32, 0))));
        assert_eq!(
            table.broken_invariant(),
            Some(format!(
                "slot {stray} holds pid {stray}, which is missing from the order"
            ))
        );
        table.slots[stray] = None;
        table.order.swap(0, 1);
        assert_eq!(
            table.broken_invariant(),
            Some(format!(
                "the pid order runs {b} then {a}, not strictly ascending"
            ))
        );
    }

    #[test]
    fn debug_renders_the_map_in_pid_order() {
        let mut table = ProcTable::new();
        let mut oracle = BTreeMap::new();
        for pid in [9, 1, 17, 4] {
            table.insert(pid, proc_tagged(pid, pid));
            oracle.insert(pid, proc_tagged(pid, pid));
        }
        assert_eq!(format!("{table:?}"), format!("{oracle:?}"));
    }
}
