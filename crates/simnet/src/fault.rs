//! Deterministic, seeded fault injection.
//!
//! The paper's own caveats are all about what happens when a migration
//! *doesn't* complete: the victim is already dead after `SIGDUMP`, the
//! dump files sit in `/usr/tmp`, and `rsh`/NFS can fail at any phase.
//! This module models those failures as an **injection plan**: a list of
//! specs, each addressed by site, machine and simtime window, firing on
//! a seeded pseudo-random roll. Every decision is a pure function of the
//! plan's seed and the per-site event counter, so two runs of the same
//! scenario inject byte-identical faults at identical simtimes — the
//! dual-run determinism test covers a faulty scenario for exactly this
//! reason.

use simtime::rng::SplitMix64;

/// Where a fault can be injected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSite {
    /// An NFS RPC is dropped on the wire. The soft-mounted client
    /// retransmits, gives up, and the operation fails with `ETIMEDOUT`.
    NfsOp,
    /// An `rsh`/daemon connection phase fails (`rshd` unreachable,
    /// `.rhosts` refusal, spawn failure). The client sees `EHOSTDOWN`.
    Rsh,
    /// The dumping kernel crashes partway through writing the three
    /// `SIGDUMP` files, leaving a genuinely torn file (cut mid-byte)
    /// and the later files unwritten.
    MidDumpCrash,
    /// `/usr/tmp` is out of space: the dump write fails with `ENOSPC`.
    DumpEnospc,
    /// A demand-restore residual page fetch is dropped on the wire: the
    /// parked process waits out the soft-mount timeout and the fetch is
    /// retried (`ETIMEDOUT` on the fetching side).
    PageFetch,
}

impl FaultSite {
    /// All sites, for matrix scenarios.
    pub const ALL: [FaultSite; 5] = [
        FaultSite::NfsOp,
        FaultSite::Rsh,
        FaultSite::MidDumpCrash,
        FaultSite::DumpEnospc,
        FaultSite::PageFetch,
    ];

    /// Canonical short name, used in trace records and `simsh fault`.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::NfsOp => "nfs",
            FaultSite::Rsh => "rsh",
            FaultSite::MidDumpCrash => "middump",
            FaultSite::DumpEnospc => "enospc",
            FaultSite::PageFetch => "page-fetch",
        }
    }

    /// Parses the canonical short name.
    pub fn parse(s: &str) -> Option<FaultSite> {
        FaultSite::ALL.into_iter().find(|f| f.name() == s)
    }

    fn index(self) -> usize {
        match self {
            FaultSite::NfsOp => 0,
            FaultSite::Rsh => 1,
            FaultSite::MidDumpCrash => 2,
            FaultSite::DumpEnospc => 3,
            FaultSite::PageFetch => 4,
        }
    }
}

/// The simulated soft-mount NFS client gives up after three
/// retransmissions of 0.7 s each — the wait an injected drop charges on
/// top of the RPC itself before `ETIMEDOUT` surfaces.
pub const NFS_SOFT_TIMEOUT_US: u64 = 2_100_000;

/// One injection rule.
#[derive(Clone, Debug)]
pub struct FaultSpec {
    /// The site this rule arms.
    pub site: FaultSite,
    /// Restrict to one machine id (`None` = any machine).
    pub machine: Option<usize>,
    /// Window start, micro-seconds of the *local* machine clock.
    pub from_us: u64,
    /// Window end (exclusive), micro-seconds.
    pub until_us: u64,
    /// Firing probability per eligible event, in per-mille
    /// (1000 = every eligible event fires).
    pub per_mille: u16,
    /// Budget: after this many firings the rule is spent.
    pub max_hits: u32,
    /// Firings so far.
    pub hits: u32,
}

impl FaultSpec {
    /// A rule firing on every eligible event at `site`, anywhere,
    /// any time, at most `max_hits` times.
    pub fn always(site: FaultSite, max_hits: u32) -> FaultSpec {
        FaultSpec {
            site,
            machine: None,
            from_us: 0,
            until_us: u64::MAX,
            per_mille: 1000,
            max_hits,
            hits: 0,
        }
    }

    fn matches(&self, site: FaultSite, machine: usize, now_us: u64) -> bool {
        self.site == site
            && self.machine.map(|m| m == machine).unwrap_or(true)
            && now_us >= self.from_us
            && now_us < self.until_us
            && self.hits < self.max_hits
    }
}

/// One injected fault: the per-site event sequence number it fired on
/// and a seeded roll the injection point may use for secondary choices
/// (which file to tear, at which byte).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultHit {
    /// The per-site eligible-event counter value this fault fired at.
    pub seq: u64,
    /// A deterministic 64-bit roll derived from the seed and `seq`.
    pub roll: u64,
}

/// The whole plan: seed, rules, per-site event counters.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// The seed every decision derives from.
    pub seed: u64,
    /// The armed rules, checked in order (first match decides).
    pub specs: Vec<FaultSpec>,
    /// Per-site eligible-event counters ([`FaultSite::index`] order).
    counters: [u64; 5],
    /// Total faults injected.
    pub injected: u64,
}

impl FaultPlan {
    /// An empty plan: nothing ever fires.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// A plan with the given seed and no rules yet.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Adds a rule (builder style).
    pub fn with(mut self, spec: FaultSpec) -> FaultPlan {
        self.specs.push(spec);
        self
    }

    /// True when no rule is armed (the fast path the kernel checks
    /// before anything else).
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Notes one eligible event at `site` on `machine` at local time
    /// `now_us`; returns a [`FaultHit`] when a rule decides to inject.
    pub fn fire(&mut self, site: FaultSite, machine: usize, now_us: u64) -> Option<FaultHit> {
        if self.specs.is_empty() {
            return None;
        }
        let seq = self.counters[site.index()];
        self.counters[site.index()] += 1;
        let spec = self
            .specs
            .iter_mut()
            .find(|s| s.matches(site, machine, now_us))?;
        // The first output of a generator seeded from (seed, site,
        // seq): a hash of the three, so no draw depends on another.
        let roll = SplitMix64::new(
            self.seed
                .wrapping_mul(0x2545_f491_4f6c_dd1d)
                .wrapping_add(seq)
                .wrapping_add((site.index() as u64) << 56),
        )
        .next_u64();
        if spec.per_mille < 1000 && roll % 1000 >= spec.per_mille as u64 {
            return None;
        }
        spec.hits += 1;
        self.injected += 1;
        Some(FaultHit { seq, roll })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_fires() {
        let mut p = FaultPlan::none();
        for t in 0..1000 {
            assert!(p.fire(FaultSite::NfsOp, 0, t).is_none());
        }
        assert_eq!(p.injected, 0);
    }

    #[test]
    fn budget_is_respected() {
        let mut p = FaultPlan::seeded(7).with(FaultSpec::always(FaultSite::Rsh, 2));
        let fired: Vec<bool> = (0..10)
            .map(|t| p.fire(FaultSite::Rsh, 1, t).is_some())
            .collect();
        assert_eq!(fired.iter().filter(|&&f| f).count(), 2);
        // An always-rule spends its budget on the first eligible events.
        assert_eq!(fired[0..2], [true, true]);
        assert_eq!(p.injected, 2);
    }

    #[test]
    fn window_and_machine_filters_apply() {
        let mut p = FaultPlan::seeded(1).with(FaultSpec {
            site: FaultSite::NfsOp,
            machine: Some(2),
            from_us: 100,
            until_us: 200,
            per_mille: 1000,
            max_hits: 100,
            hits: 0,
        });
        assert!(p.fire(FaultSite::NfsOp, 2, 50).is_none(), "before window");
        assert!(p.fire(FaultSite::NfsOp, 1, 150).is_none(), "wrong machine");
        assert!(p.fire(FaultSite::Rsh, 2, 150).is_none(), "wrong site");
        assert!(p.fire(FaultSite::NfsOp, 2, 150).is_some(), "in window");
        assert!(
            p.fire(FaultSite::NfsOp, 2, 200).is_none(),
            "window end is exclusive"
        );
    }

    #[test]
    fn same_seed_same_decisions() {
        let run = |seed: u64| -> Vec<Option<FaultHit>> {
            let mut p = FaultPlan::seeded(seed).with(FaultSpec {
                per_mille: 400,
                ..FaultSpec::always(FaultSite::NfsOp, u32::MAX)
            });
            (0..64).map(|t| p.fire(FaultSite::NfsOp, 0, t)).collect()
        };
        assert_eq!(run(42), run(42), "same seed must replay identically");
        assert_ne!(run(42), run(43), "different seeds should diverge");
    }

    #[test]
    fn probabilistic_rules_fire_roughly_at_rate() {
        let mut p = FaultPlan::seeded(9).with(FaultSpec {
            per_mille: 250,
            ..FaultSpec::always(FaultSite::NfsOp, u32::MAX)
        });
        let n = (0..4000)
            .filter(|&t| p.fire(FaultSite::NfsOp, 0, t).is_some())
            .count();
        assert!((800..1200).contains(&n), "got {n} fires out of 4000 at 25%");
    }

    #[test]
    fn site_names_round_trip() {
        for site in FaultSite::ALL {
            assert_eq!(FaultSite::parse(site.name()), Some(site));
        }
        assert_eq!(FaultSite::parse("bogus"), None);
    }
}
