//! The yardstick: a fixed slice of host work that measures how fast the
//! host is running right now.
//!
//! The benchmark runs on shared machines whose speed drifts by tens of
//! percent over tens of seconds, and that drift moves every host-time
//! metric at once. The yardstick runs one slice after every measured
//! operation (and after every set-up build), timed by the same
//! stopwatch, and the end-to-end host metrics are expressed in
//! *reference time*: host time divided by the slice time measured
//! alongside it, scaled so that one slice is [`REF_SLICE_S`]. A slower
//! phase of the host slows the slice and the simulator alike, and the
//! quotient stays put; a change to the simulator moves the workload and
//! not the slice.
//!
//! The slice is shaped like the simulator's host work: an
//! interpreter-style dispatch loop over a byte-addressed memory, churn
//! in an ordered map, and an image-sized copy. It calls nothing in the
//! simulator's crates, so no change to them can move it.

use std::collections::BTreeMap;
use std::hint::black_box;

/// Reference seconds one slice stands for.
pub const REF_SLICE_S: f64 = 1e-3;

/// Dispatch steps per slice.
const STEPS: u32 = 100_000;
/// Bytes of the slice's memory.
const MEM: usize = 512 << 10;
/// Bytes of the image-sized copy.
const IMAGE: usize = 96 << 10;
/// Insert-and-remove rounds in the ordered map.
const MAP_ROUNDS: u32 = 400;

/// The yardstick's state; every slice does the same amount of work.
pub struct Yardstick {
    mem: Vec<u8>,
    prog: Vec<u32>,
    map: BTreeMap<u32, u64>,
    rng: u64,
}

/// splitmix64 step over `state`.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Yardstick {
    /// A yardstick with a fixed program and a 4096-entry map.
    pub fn new() -> Yardstick {
        let mut rng = 7;
        let prog = (0..256).map(|_| mix(&mut rng) as u32).collect();
        let mut map = BTreeMap::new();
        for _ in 0..4096 {
            let k = mix(&mut rng) as u32;
            map.insert(k, u64::from(k));
        }
        Yardstick {
            mem: vec![0; MEM],
            prog,
            map,
            rng,
        }
    }

    /// Runs one slice; returns a value that depends on all of its work.
    pub fn slice(&mut self) -> u64 {
        let mut regs = [1u32, 2, 3, 4, 5, 6, 7, 8];
        let mut pc = 0usize;
        let mask = (MEM - 4) as u32;
        for _ in 0..STEPS {
            let insn = self.prog[pc & 255];
            let a = (insn & 7) as usize;
            let b = ((insn >> 3) & 7) as usize;
            match (insn >> 6) & 7 {
                0 => regs[a] = regs[a].wrapping_add(regs[b]),
                1 => regs[a] = regs[a].wrapping_mul(regs[b] | 1),
                2 => {
                    let at = (regs[b].wrapping_mul(2_654_435_761) & mask) as usize;
                    let word: [u8; 4] = self.mem[at..at + 4].try_into().expect("4 bytes");
                    regs[a] = u32::from_le_bytes(word);
                }
                3 => {
                    let at = (regs[b].wrapping_mul(40_503) & mask) as usize;
                    self.mem[at..at + 4].copy_from_slice(&regs[a].to_le_bytes());
                }
                4 => {
                    if regs[a] & 1 == 0 {
                        pc = pc.wrapping_add((insn >> 9) as usize & 15);
                    }
                }
                5 => regs[a] ^= regs[b].rotate_left(insn >> 27),
                6 => regs[a] = regs[a].wrapping_sub(insn >> 12),
                _ => regs[a] = regs[b] >> (insn & 15),
            }
            pc = pc.wrapping_add(1);
        }
        let mut sum = regs.iter().map(|&r| u64::from(r)).sum::<u64>();
        for _ in 0..MAP_ROUNDS {
            let k = mix(&mut self.rng) as u32;
            self.map.insert(k, u64::from(k));
            let probe = mix(&mut self.rng) as u32;
            if let Some(next) = self.map.range(probe..).next().map(|(k, _)| *k) {
                self.map.remove(&next);
                sum = sum.wrapping_add(u64::from(next));
            }
        }
        let at = (mix(&mut self.rng) as usize) % (MEM - IMAGE);
        let image = self.mem[at..at + IMAGE].to_vec();
        sum = sum.wrapping_add(image.iter().step_by(64).map(|&b| u64::from(b)).sum::<u64>());
        black_box(sum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_are_deterministic_and_keep_the_map_size_bounded() {
        let (mut a, mut b) = (Yardstick::new(), Yardstick::new());
        for _ in 0..3 {
            assert_eq!(a.slice(), b.slice());
        }
        assert!(
            (4096 - 3 * MAP_ROUNDS as usize..=4096 + 3 * MAP_ROUNDS as usize)
                .contains(&a.map.len())
        );
    }
}
