//! `ktrace`: a bounded, per-machine ring buffer of system-call records.
//!
//! Every record is derived purely from simulated state — the machine's
//! virtual clock, the pid, the trap-table name and the charged simtime —
//! so tracing is fully deterministic: two identical runs produce
//! bit-identical rings, and the determinism test asserts exactly that.
//! The ring is always on; at a fixed capacity its cost is a few pointer
//! moves per syscall, and the newest records are the ones a failing
//! test or a `simsh ktrace` dump wants.

use std::collections::VecDeque;

use simtime::SimTime;
use sysdefs::{Errno, Pid};

/// How a dispatch attempt (or a parked call's completion) ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KtraceResult {
    /// Completed with a numeric result.
    Ok(u32),
    /// Completed with an errno.
    Err(Errno),
    /// Parked; the call will be re-issued when the process wakes.
    Blocked,
    /// The caller is gone (`exit`) or was overlaid (`execve`/`rest_proc`).
    Gone,
}

/// What happened at a hook point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KtraceEvent {
    /// Dispatch entry. `retry` marks a re-issue of a parked call.
    Enter {
        /// True when this attempt re-issues a parked `pending_syscall`.
        retry: bool,
    },
    /// Dispatch exit: the attempt's outcome and the simtime it charged
    /// (machine-clock delta across the handler, in micro-seconds).
    Exit {
        /// The attempt's outcome.
        result: KtraceResult,
        /// Micro-seconds of simulated time charged by this attempt.
        charged_us: u64,
    },
    /// A parked call finished outside dispatch: a sleep expired, a
    /// remote command returned, or a signal aborted the call (`EINTR`).
    Complete {
        /// The delivered result.
        result: KtraceResult,
    },
    /// The fault-injection plan fired: `site` names the injection point
    /// and `err` is the errno the faulted operation surfaced. Recording
    /// every injection keeps faulty runs inside the determinism
    /// contract — the snapshot includes these records.
    Fault {
        /// The injection site's canonical short name.
        site: &'static str,
        /// The errno the injected failure surfaced as.
        err: Errno,
    },
}

/// One ring entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KtraceRecord {
    /// Monotonic per-machine sequence number (never reused).
    pub seq: u64,
    /// The machine clock when the record was cut.
    pub at: SimTime,
    /// The calling process.
    pub pid: Pid,
    /// The call's trap-table name.
    pub name: &'static str,
    /// What happened.
    pub ev: KtraceEvent,
}

impl KtraceRecord {
    /// One canonical text line, used by `simsh ktrace`, the
    /// dump-on-failure helper and the determinism snapshot.
    pub fn render(&self) -> String {
        let ev = match self.ev {
            KtraceEvent::Enter { retry: false } => "enter".to_string(),
            KtraceEvent::Enter { retry: true } => "enter retry".to_string(),
            KtraceEvent::Exit { result, charged_us } => {
                format!("exit {} charged={charged_us}us", render_result(result))
            }
            KtraceEvent::Complete { result } => {
                format!("complete {}", render_result(result))
            }
            KtraceEvent::Fault { site, err } => {
                format!("fault {site} err={err:?}")
            }
        };
        format!(
            "#{} {}us pid={} {} {}",
            self.seq,
            self.at.as_micros(),
            self.pid.as_u32(),
            self.name,
            ev
        )
    }
}

fn render_result(r: KtraceResult) -> String {
    match r {
        KtraceResult::Ok(v) => format!("ok={v}"),
        KtraceResult::Err(e) => format!("err={e:?}"),
        KtraceResult::Blocked => "blocked".to_string(),
        KtraceResult::Gone => "gone".to_string(),
    }
}

/// Default ring capacity: enough to hold the syscall tail of any of the
/// paper's scenarios without growing the per-machine footprint.
pub const KTRACE_CAP: usize = 256;

/// The per-machine ring.
#[derive(Clone, Debug)]
pub struct Ktrace {
    ring: VecDeque<KtraceRecord>,
    cap: usize,
    /// Total records ever cut (the next record's `seq`).
    pub seq: u64,
    /// Records pushed out of the ring by newer ones.
    pub dropped: u64,
}

impl Default for Ktrace {
    fn default() -> Ktrace {
        Ktrace::with_capacity(KTRACE_CAP)
    }
}

impl Ktrace {
    /// A ring holding at most `cap` records.
    pub fn with_capacity(cap: usize) -> Ktrace {
        Ktrace {
            ring: VecDeque::with_capacity(cap.min(KTRACE_CAP)),
            cap,
            seq: 0,
            dropped: 0,
        }
    }

    /// Cuts a record.
    pub fn push(&mut self, at: SimTime, pid: Pid, name: &'static str, ev: KtraceEvent) {
        if self.ring.len() == self.cap {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(KtraceRecord {
            seq: self.seq,
            at,
            pid,
            name,
            ev,
        });
        self.seq += 1;
    }

    /// The buffered records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &KtraceRecord> {
        self.ring.iter()
    }

    /// Number of buffered records.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Renders the newest `last` records (all of them when `last` is
    /// `None`), one line each, oldest first.
    pub fn render(&self, last: Option<usize>) -> String {
        let n = last.unwrap_or(self.ring.len()).min(self.ring.len());
        let mut out = String::new();
        if self.dropped > 0 {
            out.push_str(&format!("... {} earlier records dropped\n", self.dropped));
        }
        for r in self.ring.iter().skip(self.ring.len() - n) {
            out.push_str(&r.render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(k: &mut Ktrace, n: u64) {
        k.push(
            SimTime::BOOT + simtime::SimDuration::micros(n),
            Pid(2),
            "read",
            KtraceEvent::Enter { retry: false },
        );
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let mut k = Ktrace::with_capacity(4);
        for n in 0..10 {
            rec(&mut k, n);
        }
        assert_eq!(k.len(), 4);
        assert_eq!(k.dropped, 6);
        assert_eq!(k.seq, 10);
        let seqs: Vec<u64> = k.records().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn render_takes_a_tail() {
        let mut k = Ktrace::with_capacity(8);
        for n in 0..3 {
            rec(&mut k, n);
        }
        let all = k.render(None);
        assert_eq!(all.lines().count(), 3);
        let tail = k.render(Some(1));
        assert_eq!(tail.lines().count(), 1);
        assert!(tail.contains("#2"), "newest record: {tail}");
    }

    #[test]
    fn record_lines_are_canonical() {
        let mut k = Ktrace::default();
        k.push(
            SimTime::BOOT,
            Pid(3),
            "open",
            KtraceEvent::Exit {
                result: KtraceResult::Err(Errno::ENOENT),
                charged_us: 300,
            },
        );
        let line = k.render(None);
        assert_eq!(
            line.trim(),
            "#0 0us pid=3 open exit err=ENOENT charged=300us"
        );
    }

    #[test]
    fn fault_lines_are_canonical() {
        let mut k = Ktrace::default();
        k.push(
            SimTime::BOOT,
            Pid(5),
            "fault",
            KtraceEvent::Fault {
                site: "nfs",
                err: Errno::ETIMEDOUT,
            },
        );
        let line = k.render(None);
        assert_eq!(line.trim(), "#0 0us pid=5 fault fault nfs err=ETIMEDOUT");
    }
}
