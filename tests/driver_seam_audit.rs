//! Source-level audit: driver code stays on the World API.
//!
//! The `World` verbs keep the kernel's derived state in step with every
//! mutation: the scheduler's wake pokes, the ready index, the reaper's
//! pending-dump index. Scenario code that grabs `machine_mut(..)` or
//! edits a process directly changes state behind that bookkeeping's
//! back — a blocked process whose wake condition flipped without a poke
//! stalls. The debug-build wake audit panics at the next pick, but only
//! for runs that reach the bad state, and release builds carry no
//! audit at all; this test rejects the spelling before anything runs.
//!
//! simlint's `wake-poke` rule polices the kernel crate itself; this
//! test extends the same contract to the out-of-crate drivers (the
//! bench scenarios, the `figures`/`simsh` binaries, the pmig command
//! layer, the apps policy engine and the examples), where simlint does
//! not look. The allowed surface there is the read-only `machine(..)`
//! accessor plus the World verbs (`run_*`, `host_*`, `spawn_*`,
//! terminals, faults).

use std::path::Path;

/// Mutable-access spellings drivers must not use. `machine_mut(` is
/// the front door; the rest are the same door by other names.
const FORBIDDEN: [&str; 4] = ["machine_mut(", ".machines[", "proc_mut(", "fs_mut("];

/// The driver trees: everything here must treat the world as opaque.
const DRIVER_ROOTS: [&str; 4] = [
    "crates/bench/src",
    "crates/pmig/src",
    "crates/apps/src",
    "examples",
];

fn scan_file(path: &Path, violations: &mut Vec<String>) {
    let text = std::fs::read_to_string(path).unwrap();
    for (idx, line) in text.lines().enumerate() {
        // Strip line comments so prose about the rule can't trip it.
        let code = line.split("//").next().unwrap_or(line);
        for pat in FORBIDDEN {
            if code.contains(pat) {
                violations.push(format!(
                    "{}:{}: `{pat}` — {}",
                    path.display(),
                    idx + 1,
                    line.trim()
                ));
            }
        }
    }
}

fn scan_tree(dir: &Path, violations: &mut Vec<String>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            scan_tree(&path, violations);
        } else if path.extension().is_some_and(|e| e == "rs") {
            scan_file(&path, violations);
        }
    }
}

#[test]
fn drivers_never_take_mutable_machine_access() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut violations = Vec::new();
    let mut scanned_any = false;
    for tree in DRIVER_ROOTS {
        let dir = root.join(tree);
        assert!(dir.is_dir(), "driver tree moved: {tree}");
        scanned_any = true;
        scan_tree(&dir, &mut violations);
    }
    assert!(scanned_any);
    assert!(
        violations.is_empty(),
        "driver code must reach machines through the World API, not mutate \
         them directly (route the effect through a World method so the \
         scheduler's bookkeeping sees it):\n{}",
        violations.join("\n")
    );
}
