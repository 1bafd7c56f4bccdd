//! The 10 Mbit Ethernet and the RPC traffic that rides on it.
//!
//! The paper's machines were "connected to each other and a file server by
//! a 10 Mbit Ethernet, which provided the physical medium for moving
//! processes from one machine to another". This crate models that medium
//! as deterministic costs: frames, NFS RPC round trips, and the expensive
//! `rsh` session establishment whose latency dominates the paper's
//! Figure 4.

use simtime::cost::{Cost, CostModel};

pub mod fault;
pub use fault::{FaultHit, FaultPlan, FaultSite, FaultSpec, NFS_SOFT_TIMEOUT_US};

/// Ethernet maximum transmission unit (payload bytes per frame).
pub const MTU: usize = 1500;

/// Per-frame header + trailer overhead bytes.
pub const FRAME_OVERHEAD: usize = 18;

/// The shared segment: tracks traffic and prices transfers.
#[derive(Clone, Debug, Default)]
pub struct Ethernet {
    /// Total frames placed on the wire.
    pub frames_sent: u64,
    /// Total payload bytes carried.
    pub bytes_sent: u64,
    /// Total messages (logical sends).
    pub messages_sent: u64,
}

impl Ethernet {
    /// A quiet segment.
    pub fn new() -> Ethernet {
        Ethernet::default()
    }

    /// Prices shipping `bytes` as one logical message (segmented into
    /// MTU-sized frames) and records the traffic.
    pub fn send(&mut self, model: &CostModel, bytes: usize) -> Cost {
        let frames = bytes.div_ceil(MTU).max(1);
        self.frames_sent += frames as u64;
        self.bytes_sent += bytes as u64;
        self.messages_sent += 1;
        let wire_bytes = bytes + frames * FRAME_OVERHEAD;
        model.ether_message(wire_bytes)
    }
}

/// The NFS operations the simulated client issues, with realistic
/// request/response payload sizes for pricing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NfsOp {
    /// Look one name up in a remote directory.
    Lookup,
    /// Fetch attributes.
    Getattr,
    /// Read `len` bytes.
    Read(usize),
    /// Write `len` bytes.
    Write(usize),
    /// Create a file.
    Create,
    /// Remove a file.
    Remove,
    /// Read a symbolic link's target.
    Readlink,
    /// List a directory.
    Readdir,
    /// Truncate/chmod style attribute set.
    Setattr,
}

impl NfsOp {
    /// (request bytes, response bytes) carried by the RPC.
    pub fn wire_sizes(self) -> (usize, usize) {
        match self {
            NfsOp::Lookup => (96, 128),
            NfsOp::Getattr => (64, 96),
            NfsOp::Read(len) => (80, 96 + len),
            NfsOp::Write(len) => (96 + len, 96),
            NfsOp::Create => (128, 128),
            NfsOp::Remove => (96, 64),
            NfsOp::Readlink => (64, 160),
            NfsOp::Readdir => (80, 512),
            NfsOp::Setattr => (96, 96),
        }
    }

    /// Prices this operation as a synchronous RPC over `ether`.
    pub fn cost(self, model: &CostModel, ether: &mut Ethernet) -> Cost {
        let (req, resp) = self.wire_sizes();
        let send = ether.send(model, req);
        let recv = ether.send(model, resp);
        Cost::cpu_us(model.rpc_overhead_cpu_us)
            .plus(send)
            .plus(recv)
    }
}

/// The `rsh` connection phases, separable so the figure harness can show
/// where the time goes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RshPhase {
    /// Host name (YP) lookup.
    NameLookup,
    /// Privileged-port TCP connect to `rshd`.
    Connect,
    /// Reverse lookup plus `.rhosts` checking.
    Auth,
    /// Fork and exec of the shell and command on the remote side.
    Spawn,
    /// Status plumbing and connection teardown.
    Teardown,
}

impl RshPhase {
    /// All phases in order.
    pub const ALL: [RshPhase; 5] = [
        RshPhase::NameLookup,
        RshPhase::Connect,
        RshPhase::Auth,
        RshPhase::Spawn,
        RshPhase::Teardown,
    ];

    /// The wait cost of one phase.
    pub fn cost(self, model: &CostModel) -> Cost {
        let us = match self {
            RshPhase::NameLookup => model.rsh_name_lookup_us,
            RshPhase::Connect => model.rsh_connect_us,
            RshPhase::Auth => model.rsh_auth_us,
            RshPhase::Spawn => model.rsh_spawn_us,
            RshPhase::Teardown => model.rsh_teardown_us,
        };
        // A fixed slice of each phase is CPU (protocol work), the rest is
        // network/disk wait.
        Cost {
            cpu: simtime::SimDuration::micros(us / 20),
            wait: simtime::SimDuration::micros(us - us / 20),
        }
    }
}

/// The full cost of establishing, using and tearing down one `rsh`
/// session (excluding the remote command itself).
pub fn rsh_session_cost(model: &CostModel) -> Cost {
    RshPhase::ALL
        .iter()
        .fold(Cost::ZERO, |acc, p| acc.plus(p.cost(model)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtime::SimDuration;

    #[test]
    fn small_message_is_one_frame() {
        let model = CostModel::sun2();
        let mut e = Ethernet::new();
        e.send(&model, 100);
        assert_eq!(e.frames_sent, 1);
        assert_eq!(e.messages_sent, 1);
    }

    #[test]
    fn large_message_segments() {
        let model = CostModel::sun2();
        let mut e = Ethernet::new();
        e.send(&model, 4000);
        assert_eq!(e.frames_sent, 3);
        assert_eq!(e.bytes_sent, 4000);
    }

    #[test]
    fn bigger_transfers_cost_more() {
        let model = CostModel::sun2();
        let mut e = Ethernet::new();
        let small = e.send(&model, 100);
        let big = e.send(&model, 100_000);
        assert!(big.real() > small.real());
        // 100 KB at ~1 us/byte is ~0.1 s — the right order for moving a
        // process image over 10 Mbit Ethernet.
        assert!(big.real() > SimDuration::millis(50));
        assert!(big.real() < SimDuration::secs(2));
    }

    #[test]
    fn nfs_write_carries_payload_in_request() {
        let (req, resp) = NfsOp::Write(1024).wire_sizes();
        assert!(req > 1024);
        assert!(resp < 256);
        let (req_r, resp_r) = NfsOp::Read(1024).wire_sizes();
        assert!(resp_r > 1024);
        assert!(req_r < 256);
    }

    #[test]
    fn rsh_session_is_many_seconds() {
        let model = CostModel::sun2();
        let c = rsh_session_cost(&model);
        assert!(c.real() > SimDuration::secs(8), "rsh = {}", c.real());
        assert!(c.real() < SimDuration::secs(20));
        assert!(c.cpu < c.wait, "rsh is latency, not computation");
    }

    #[test]
    fn rsh_phases_sum_to_session() {
        let model = CostModel::sun2();
        let sum: u64 = RshPhase::ALL
            .iter()
            .map(|p| p.cost(&model).real().as_micros())
            .sum();
        assert_eq!(sum, rsh_session_cost(&model).real().as_micros());
    }
}
