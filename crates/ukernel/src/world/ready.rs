//! The scheduler's ready index: a winner (tournament) tree over machine
//! ids.
//!
//! Each leaf holds one machine's key, the local clock it was enrolled
//! at, and each inner node holds the `(key, machine)` minimum of its
//! subtree, so the root is the machine to pick and the lowest id wins
//! a tie. A machine has exactly one leaf: re-keying overwrites it and
//! replays the matches on its path to the root, so no superseded entry
//! is ever left behind to be skipped later.

use simtime::SimTime;

use crate::machine::MachineId;

/// The key of an empty leaf. It loses every match against an enrolled
/// machine, whose id is always below `MachineId::MAX`.
const EMPTY: (SimTime, MachineId) = (SimTime(u64::MAX), MachineId::MAX);

/// A winner tree over machine ids, grown to the next power of two as
/// machines are enrolled.
#[derive(Clone, Debug, Default)]
pub(crate) struct ReadyTree {
    /// Heap-ordered nodes: the root at 1, node `i`'s children at `2i`
    /// and `2i + 1`, machine `mid`'s leaf at `leaves + mid`. Slot 0 is
    /// unused.
    nodes: Vec<(SimTime, MachineId)>,
    /// Number of leaves, a power of two (0 before the first enrolment).
    leaves: usize,
}

impl ReadyTree {
    /// `mid`'s key, or `None` when it is not enrolled.
    #[cfg(any(debug_assertions, test))]
    pub(crate) fn key(&self, mid: MachineId) -> Option<SimTime> {
        if mid >= self.leaves {
            return None;
        }
        let leaf = self.nodes[self.leaves + mid];
        (leaf != EMPTY).then_some(leaf.0)
    }

    /// Enrols `mid` at `key`, or withdraws it with `None`, and replays
    /// the matches above its leaf until one result stands unchanged.
    pub(crate) fn set(&mut self, mid: MachineId, key: Option<SimTime>) {
        if mid >= self.leaves {
            self.grow(mid + 1);
        }
        let mut i = self.leaves + mid;
        self.nodes[i] = key.map_or(EMPTY, |t| (t, mid));
        while i > 1 {
            let winner = self.nodes[i].min(self.nodes[i ^ 1]);
            i /= 2;
            if self.nodes[i] == winner {
                return;
            }
            self.nodes[i] = winner;
        }
    }

    /// The enrolled `(key, machine)` minimum: the smallest key, the
    /// lowest id among equal keys.
    pub(crate) fn min(&self) -> Option<(SimTime, MachineId)> {
        self.nodes.get(1).copied().filter(|&root| root != EMPTY)
    }

    /// Re-lays the tree with room for `machines` leaves, keeping every
    /// key.
    fn grow(&mut self, machines: usize) {
        let leaves = machines.next_power_of_two();
        let mut nodes = vec![EMPTY; 2 * leaves];
        nodes[leaves..leaves + self.leaves].copy_from_slice(&self.nodes[self.leaves..]);
        for i in (1..leaves).rev() {
            nodes[i] = nodes[2 * i].min(nodes[2 * i + 1]);
        }
        self.nodes = nodes;
        self.leaves = leaves;
    }

    /// The first inner node that does not hold the minimum of its two
    /// children, if any: the debug-build wake audit's check that every
    /// match above the leaves was replayed.
    #[cfg(any(debug_assertions, test))]
    pub(crate) fn stale_node(&self) -> Option<usize> {
        (1..self.leaves).find(|&i| self.nodes[i] != self.nodes[2 * i].min(self.nodes[2 * i + 1]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtime::rng::SplitMix64;

    /// The linear-scan oracle: the `(key, id)` minimum over the
    /// enrolled machines.
    fn scan(keys: &[Option<SimTime>]) -> Option<(SimTime, MachineId)> {
        keys.iter()
            .enumerate()
            .filter_map(|(mid, key)| key.map(|t| (t, mid)))
            .min()
    }

    /// Checks the tree against the oracle after a step.
    fn check(tree: &ReadyTree, keys: &[Option<SimTime>], what: &str) {
        assert_eq!(tree.min(), scan(keys), "{what}: minimum");
        for (mid, &key) in keys.iter().enumerate() {
            assert_eq!(tree.key(mid), key, "{what}: key of machine {mid}");
        }
        assert_eq!(tree.stale_node(), None, "{what}: inner nodes");
    }

    #[test]
    fn seeded_sequences_match_a_linear_scan() {
        for seed in 0..60 {
            let mut rng = SplitMix64::new(seed);
            let machines = 1 + rng.below(70) as usize;
            let mut tree = ReadyTree::default();
            // Machines join as the sequence runs, so the tree grows
            // past powers of two between steps.
            let mut keys: Vec<Option<SimTime>> = vec![None];
            for step in 0..500 {
                if keys.len() < machines && rng.below(8) == 0 {
                    keys.push(None);
                }
                let mid = rng.below(keys.len() as u64) as usize;
                let key = match (rng.below(3), keys[mid]) {
                    (0, _) => None,
                    // Re-key: clocks only move forward, often not at all.
                    (1, Some(SimTime(t))) => Some(SimTime(t + rng.below(3))),
                    // Set from a narrow range, so equal clocks are common.
                    _ => Some(SimTime(rng.below(12))),
                };
                keys[mid] = key;
                tree.set(mid, key);
                check(
                    &tree,
                    &keys,
                    &format!("seed {seed} step {step} ({machines} machines)"),
                );
            }
        }
    }

    #[test]
    fn growth_past_a_power_of_two_keeps_every_key() {
        let mut tree = ReadyTree::default();
        let mut keys = Vec::new();
        // 1, 2, 4, 8, 16, 32 and 64 leaves, each full before it grows.
        for mid in 0..=64 {
            keys.push(Some(SimTime(1_000 - 7 * mid as u64 % 50)));
            tree.set(mid, keys[mid]);
            check(&tree, &keys, &format!("after enrolling machine {mid}"));
        }
        // Withdrawing the machine past the last power of two leaves the
        // grown tree in place.
        keys[64] = None;
        tree.set(64, None);
        check(&tree, &keys, "after withdrawing machine 64");
        assert_eq!(tree.key(200), None, "a machine past every leaf");
    }

    #[test]
    fn equal_clocks_pick_the_lowest_id() {
        let mut tree = ReadyTree::default();
        assert_eq!(tree.min(), None, "an empty tree");
        for mid in [5, 3, 9, 6, 7] {
            tree.set(mid, Some(SimTime(42)));
        }
        assert_eq!(tree.min(), Some((SimTime(42), 3)));
        tree.set(3, None);
        assert_eq!(tree.min(), Some((SimTime(42), 5)));
        tree.set(5, Some(SimTime(43)));
        assert_eq!(tree.min(), Some((SimTime(42), 6)));
        tree.set(0, Some(SimTime(42)));
        assert_eq!(tree.min(), Some((SimTime(42), 0)));
        tree.set(9, Some(SimTime(41)));
        assert_eq!(tree.min(), Some((SimTime(41), 9)));
        for mid in [0, 5, 6, 7, 9] {
            tree.set(mid, None);
        }
        assert_eq!(tree.min(), None, "every machine withdrawn");
    }
}
