//! End-to-end rule tests over the seeded fixture workspace in
//! `tests/fixtures/` (see its README): each dataflow rule must find
//! exactly the planted true positives and none of the traps, the
//! per-rule allowlist must scope the way `simlint.toml` promises, and
//! the checked-in coupling inventory must match a fresh render.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use simlint::rules::{coupling, determinism, snapcov, wakepoke};
use simlint::workspace::{load_workspace, SourceFile};
use simlint::Config;

fn fixture_files() -> Vec<SourceFile> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    load_workspace(&root).expect("fixture workspace loads")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
        .to_path_buf()
}

fn subjects(diags: &[simlint::Diagnostic]) -> BTreeSet<String> {
    diags.iter().map(|d| d.subject.clone()).collect()
}

#[test]
fn wake_poke_finds_the_seeded_violations_and_skips_the_traps() {
    let d = wakepoke::check(&fixture_files());
    assert_eq!(
        subjects(&d),
        BTreeSet::from(["drop_writer".to_string(), "sys_revive".to_string()]),
        "traps tripped or plants missed: {d:?}"
    );
}

#[test]
fn snapshot_coverage_finds_the_two_unfolded_fields() {
    let d = snapcov::check(&fixture_files());
    assert_eq!(
        subjects(&d),
        BTreeSet::from([
            "Machine::lazy_index".to_string(),
            "World::cache_idx".to_string(),
        ]),
        "transitive helper coverage failed or plants missed: {d:?}"
    );
}

#[test]
fn coupling_lint_flags_only_the_foreign_index() {
    let d = coupling::check(&fixture_files());
    assert_eq!(
        subjects(&d),
        BTreeSet::from(["sys_peek".to_string()]),
        "own-mid or pid-accessor trap tripped: {d:?}"
    );
}

#[test]
fn coupling_report_inventories_the_world_layer_too() {
    let rows = coupling::report(&fixture_files());
    let got: Vec<(&str, &str, &str)> = rows
        .iter()
        .map(|r| (r.symbol.as_str(), r.kind, r.detail.as_str()))
        .collect();
    assert_eq!(
        got,
        vec![
            ("sys_peek", "foreign-index", "machine(dst)"),
            ("apply_wake", "foreign-index", "machines(server)"),
            ("apply_wake", "shared-state", "finished"),
            ("poke_proc", "shared-state", "wake_queue"),
        ],
        "{rows:?}"
    );
}

/// Host threads: both paths into std's thread module in the fixture
/// `native.rs` are found; the `thread` field, the string and the bench
/// crate's use are not.
#[test]
fn determinism_flags_host_threads_outside_bench() {
    let d = determinism::check(&fixture_files());
    let got: Vec<(&str, u32, &str)> = d
        .iter()
        .map(|d| (d.file.as_str(), d.line, d.subject.as_str()))
        .collect();
    assert_eq!(
        got,
        vec![
            ("crates/ukernel/src/native.rs", 4, "thread"),
            ("crates/ukernel/src/native.rs", 15, "thread"),
        ],
        "field/string trap or bench exemption failed: {d:?}"
    );
}

/// The per-rule allowlist scoping contract: an entry names its rule,
/// its file, and one subject — it silences exactly that finding and
/// nothing else, and an entry matching nothing is reported stale.
#[test]
fn allowlist_entries_are_scoped_to_rule_file_and_subject() {
    let mut diags = snapcov::check(&fixture_files());
    diags.extend(wakepoke::check(&fixture_files()));
    let cfg = Config::parse(
        "[[allow]]\n\
         rule = \"snapshot-coverage\"\n\
         path = \"crates/ukernel/src/world/mod.rs\"\n\
         ident = \"World::cache_idx\"\n\
         reason = \"fixture: declared pure-cache\"\n\
         [[allow]]\n\
         rule = \"wake-poke\"\n\
         path = \"crates/ukernel/src/world.rs\"\n\
         ident = \"drop_writer\"\n\
         reason = \"fixture: wrong file on purpose — must be stale\"\n",
    )
    .expect("valid allowlist");
    let f = cfg.apply(diags);
    assert_eq!(
        subjects(&f.silenced),
        BTreeSet::from(["World::cache_idx".to_string()]),
        "entry silenced more than its scoped subject"
    );
    assert_eq!(
        subjects(&f.kept),
        BTreeSet::from([
            "Machine::lazy_index".to_string(),
            "drop_writer".to_string(),
            "sys_revive".to_string(),
        ])
    );
    // drop_writer lives in machine.rs, not world.rs: the mis-scoped
    // entry silences nothing and must surface as stale.
    assert_eq!(f.stale.len(), 1, "{:?}", f.stale);
    assert_eq!(f.stale[0].ident.as_deref(), Some("drop_writer"));
}

/// The checked-in inventory is part of the contract: `ci.sh` diffs it,
/// and this test catches staleness from `cargo test` alone.
#[test]
fn checked_in_coupling_inventory_is_fresh() {
    let root = workspace_root();
    let fresh = simlint::coupling_report(&root).expect("report renders");
    let pinned = std::fs::read_to_string(root.join("simlint.coupling.json"))
        .expect("simlint.coupling.json is checked in");
    assert_eq!(
        fresh, pinned,
        "simlint.coupling.json is stale — regenerate with:\n  \
         cargo run -p simlint --release -- --coupling-report > simlint.coupling.json"
    );
}
