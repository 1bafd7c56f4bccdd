//! Rule `determinism`: no iteration-order or wall-clock nondeterminism
//! in the simulation.
//!
//! Three sub-checks share the rule id:
//!
//! * **Unordered containers.** `HashMap`/`HashSet` iterate in a
//!   per-process-random order (`RandomState`), so any simulation state
//!   held in one is a determinism landmine — exactly the
//!   `Machine::warm_paths` bug this rule was written against. Forbidden
//!   in every crate except `bench` (whose host-side measurement tables
//!   never feed back into simulated state).
//! * **Ambient host time and randomness.** `std::time::Instant`,
//!   `SystemTime`, `thread_rng` and friends read the host, so two runs
//!   of the same scenario would diverge. Forbidden *everywhere*,
//!   including `bench` — with one exemption baked into the rule
//!   itself: `bench::hostclock` is the designated quarantine module
//!   for host-side wall-clock measurement (it times the simulator;
//!   nothing it produces feeds back into simulated state), so
//!   `Instant` is legal there and only there.
//! * **Host threads.** A path through std's `thread` module runs code
//!   outside the world's one deterministic schedule: native programs
//!   are futures the kernel polls on the world's own thread, so nothing
//!   in the simulator needs another. Forbidden in every crate except
//!   `bench` (whose drivers may time worlds side by side); a future
//!   host thread must earn a reasoned `simlint.toml` entry.

use crate::diag::Diagnostic;
use crate::lexer::TokKind;
use crate::workspace::SourceFile;

/// Rule id.
pub const RULE: &str = "determinism";

/// Crates whose state is (or feeds) the simulation. Everything except
/// `bench`: even the linter itself sticks to ordered containers.
fn is_sim_crate(name: &str) -> bool {
    name != "bench"
}

const UNORDERED_CONTAINERS: [&str; 2] = ["HashMap", "HashSet"];

/// The one place the host monotonic clock may be read: the bench
/// crate's measurement stopwatch. A structural quarantine, not an
/// allowlist entry — moving the `Instant` anywhere else (or bringing a
/// second nondeterminism source into this file) trips the rule again.
const HOSTCLOCK_QUARANTINE: (&str, &str) = ("crates/bench/src/hostclock.rs", "Instant");

/// Identifier → why it is nondeterministic.
const AMBIENT_SOURCES: [(&str, &str); 6] = [
    ("Instant", "reads the host monotonic clock"),
    ("SystemTime", "reads the host wall clock"),
    ("thread_rng", "draws ambient host randomness"),
    ("ThreadRng", "draws ambient host randomness"),
    ("from_entropy", "seeds from host entropy"),
    ("RandomState", "hashes with a per-process random seed"),
];

/// Runs the rule over the workspace.
pub fn check(files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for f in files {
        for (i, t) in f.toks.iter().enumerate() {
            if t.kind != TokKind::Ident {
                continue;
            }
            if is_sim_crate(&f.crate_name) && is_std_thread(&f.toks[i..]) {
                out.push(Diagnostic {
                    file: f.rel_path.clone(),
                    line: t.line,
                    rule: RULE,
                    subject: "thread".to_string(),
                    message: "a host thread runs code outside the world's single deterministic \
                              schedule; native programs are futures polled on the world's \
                              thread"
                        .to_string(),
                });
            }
            if is_sim_crate(&f.crate_name) && UNORDERED_CONTAINERS.contains(&t.text.as_str()) {
                out.push(Diagnostic {
                    file: f.rel_path.clone(),
                    line: t.line,
                    rule: RULE,
                    subject: t.text.clone(),
                    message: format!(
                        "{} iterates in per-process-random order; simulation state must \
                         use BTreeMap/BTreeSet (or a Vec) so runs are bit-for-bit \
                         reproducible",
                        t.text
                    ),
                });
            }
            if f.rel_path == HOSTCLOCK_QUARANTINE.0 && t.text == HOSTCLOCK_QUARANTINE.1 {
                continue;
            }
            if let Some((_, why)) = AMBIENT_SOURCES.iter().find(|(id, _)| *id == t.text) {
                out.push(Diagnostic {
                    file: f.rel_path.clone(),
                    line: t.line,
                    rule: RULE,
                    subject: t.text.clone(),
                    message: format!(
                        "{} {why}; simulated time must come from SimTime/SimClock only \
                         (host-side measurement belongs in bench's hostclock module)",
                        t.text
                    ),
                });
            }
        }
    }
    out
}

/// Does the token run start with a path into std's `thread` module?
fn is_std_thread(toks: &[crate::lexer::Tok]) -> bool {
    matches!(toks, [std, sep, thread, ..]
        if std.is_ident("std") && sep.is_punct("::") && thread.is_ident("thread"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::fixtures::file_at;

    #[test]
    fn flags_hash_containers_in_sim_crates() {
        let f = file_at(
            "crates/ukernel/src/machine.rs",
            "use std::collections::HashSet;\npub struct M { warm: HashSet<String> }\n",
        );
        let d = check(&[f]);
        assert_eq!(d.len(), 2, "the use and the field");
        assert_eq!(d[0].line, 1);
        assert_eq!(d[1].line, 2);
        assert_eq!(d[0].subject, "HashSet");
    }

    #[test]
    fn bench_may_use_hash_containers_but_not_the_clock() {
        let f = file_at(
            "crates/bench/src/scenarios.rs",
            "use std::collections::HashMap;\nfn t() { let _ = std::time::Instant::now(); }\n",
        );
        let d = check(&[f]);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].subject, "Instant");
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn comments_and_strings_do_not_trip_the_rule() {
        let f = file_at(
            "crates/vfs/src/fs.rs",
            "// A HashMap would be wrong here.\nconst WHY: &str = \"no Instant\";\n",
        );
        assert!(check(&[f]).is_empty());
    }

    #[test]
    fn hostclock_quarantine_is_built_in() {
        // `Instant` inside the designated stopwatch module is legal
        // with no allowlist at all...
        let f = file_at(
            "crates/bench/src/hostclock.rs",
            "pub struct HostStopwatch(std::time::Instant);\n",
        );
        assert!(check(&[f]).is_empty());
        // ...but the quarantine covers exactly that identifier: other
        // ambient sources in the same file still trip the rule.
        let f = file_at(
            "crates/bench/src/hostclock.rs",
            "fn t() { let _ = std::time::SystemTime::now(); }\n",
        );
        let d = check(&[f]);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].subject, "SystemTime");
    }
}
