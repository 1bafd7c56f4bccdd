#!/bin/sh
# CI smoke check: build, full test suite, lints, the bit-diffs of the
# deterministic records, and the host-time records' gates and schemas.
# The host-time bodies `figures interp` measures also run once inside
# `cargo test` (crates/bench/src/interp.rs), which catches their
# bit-rot cheaply. The steps that rewrite the host-time records
# (BENCH_cluster.json, BENCH_interp.json) and the benchmark's own lock
# file (tests/perfbench/Cargo.lock) run against saved copies that an
# exit trap puts back, so any run, green or red, leaves them as
# committed; regenerate those records by running their `figures`
# commands by hand.
#
# The root package carries only integration tests; build and test with
# --workspace so every crate compiles and runs.
set -eux

# Formatting: the workspace is rustfmt-clean, so a change never has to
# reformat code it does not touch. (tests/perfbench is a workspace of
# its own; its format and lints are checked below, once its lock file
# is saved.)
cargo fmt --all --check
cargo build --release --workspace
cargo test -q --workspace
# Release builds carry no overflow checks, so the file-size bound, the
# a.out segment arithmetic and the process table's mask and probe
# arithmetic run there too.
cargo test -q --release -p vfs -p aout
cargo test -q --release -p ukernel --lib proctable
cargo clippy --workspace --all-targets -- -D warnings
# Workspace invariant checker: determinism, simtime charging, errno
# vocabulary, magic literals, wake-poke dataflow, snapshot coverage,
# cross-machine coupling. Exemptions live in simlint.toml; a nonzero
# exit means a new violation (or a stale exemption config).
cargo run -p simlint --release
# Exemption ratchet: --json emits one record per finding (kept +
# allowlist-silenced); simlint.baseline pins the total. The count may
# only go down — a rise is a new finding hiding behind the allowlist,
# a drop means the baseline should be lowered to lock in the progress.
findings=$(cargo run -q -p simlint --release -- --json | wc -l)
baseline=$(cat simlint.baseline)
if [ "$findings" -gt "$baseline" ]; then
    echo "simlint ratchet: $findings findings exceed baseline $baseline — fix the new finding instead of allowlisting it" >&2
    exit 1
elif [ "$findings" -lt "$baseline" ]; then
    echo "simlint ratchet: $findings findings below baseline $baseline — lower simlint.baseline to lock in the progress" >&2
    exit 1
fi
# Coupling inventory freshness: the checked-in map of cross-machine
# seams must match a fresh render.
cargo run -q -p simlint --release -- --coupling-report | diff - simlint.coupling.json
# The deterministic figures: Figures 1-4, the kernel's per-syscall
# aggregates, the fault soak and the ablations print simulated time
# only, so their stdout must match the checked-in FIGURES.txt bit for
# bit — a diff means a change moved a simulated result, and the
# committed record (and EXPERIMENTS.md) must move with it.
# figures_sanity.rs still pins the paper's bands. `faults` is the
# fault-injection soak: it migrates under every injected-fault site
# with a nonzero seed and asserts failure atomicity — exactly one live
# copy, zero orphaned dump files.
figs_fresh=$(mktemp)
cargo run --release -p bench --bin figures -- fig1 fig2 fig3 fig4 kernel faults ablation > "$figs_fresh"
diff FIGURES.txt "$figs_fresh"
rm -f "$figs_fresh"
test -f BENCH_interp.json || {
    echo "BENCH_interp.json missing — run 'figures interp' and commit the record" >&2
    exit 1
}
# This run's host-time numbers are only checked, not meant to be
# committed: keep the committed records and put them back on exit.
cluster_kept=$(mktemp)
interp_kept=$(mktemp)
lock_kept=$(mktemp)
cp BENCH_cluster.json "$cluster_kept"
cp BENCH_interp.json "$interp_kept"
cp tests/perfbench/Cargo.lock "$lock_kept"
trap 'cp "$cluster_kept" BENCH_cluster.json; cp "$interp_kept" BENCH_interp.json; cp "$lock_kept" tests/perfbench/Cargo.lock; rm -f "$cluster_kept" "$interp_kept" "$lock_kept"' EXIT
# The benchmark's own workspace (tests/perfbench) is held to the same
# format and lint rules as the root one. Cargo rewrites its lock file;
# the exit trap puts the committed copy back.
cargo fmt --check --manifest-path tests/perfbench/Cargo.toml
cargo clippy --release --manifest-path tests/perfbench/Cargo.toml --all-targets -- -D warnings
# Cluster-scale scheduler bench, smoke tier: scheduler throughput at 16
# and 64 hosts plus the at-scale fault soak (one live copy per workload
# process, zero orphaned dumps). Writes BENCH_cluster.json; the full
# tier adds 256 and 1024 hosts.
cargo run --release -p bench --bin figures -- cluster-smoke
# Live-migration protocol comparison, smoke tier: eager vs pre-copy vs
# demand-restore moving the dirty-page hog off the loaded node, with
# pre-copy's downtime asserted strictly below eager's. The simulator is
# deterministic, so the freshly written BENCH_migration.json must match
# the checked-in copy bit for bit — a diff means the engine's costs
# moved and the committed numbers are stale.
mig_stale=$(mktemp)
cp BENCH_migration.json "$mig_stale"
cargo run --release -p bench --bin figures -- migration-smoke
diff "$mig_stale" BENCH_migration.json
rm -f "$mig_stale"
# Host time: regenerates BENCH_interp.json — the interpreter engines'
# throughput, one dump+restart cycle and the dump codecs — and gates
# the superblock engine at >= 2.5x over the uncached decoder (asserted
# inside `figures interp`; the superblock-vs-cached ratio is recorded
# but not gated — it collapses on 1-core CI boxes). The numbers are
# host-dependent so a bit-diff would always fail; instead the
# committed file must exist beforehand (checked above, before it is
# saved; the trajectory is the point) and its key schema must match the
# fresh render — a key diff means the committed record predates a
# schema change and is stale.
interp_stale=$(mktemp)
grep -o '"[a-z_]*":' BENCH_interp.json | sort > "$interp_stale"
cargo run --release -p bench --bin figures -- interp
grep -o '"[a-z_]*":' BENCH_interp.json | sort | diff "$interp_stale" - || {
    echo "BENCH_interp.json schema drifted — commit the freshly generated record" >&2
    exit 1
}
rm -f "$interp_stale"
# The benchmark of record (BENCHMARK.json): perfbench is a workspace of
# its own, so nothing above compiles it. Its unit tests, then one short
# traced run of each workload at the benchmark's seed (42) and at the
# held-out seed (7), each of which exits nonzero when a correctness
# gate fails or the untraced and traced runs disagree on the fixed
# prefix. Cargo rewrites tests/perfbench/Cargo.lock; the exit trap puts
# the committed copy back.
cargo test -q --release --manifest-path tests/perfbench/Cargo.toml
for workload in storm protocols steady; do
    for seed in 42 7; do
        cargo run -q --release --manifest-path tests/perfbench/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --seconds 1 --trace 1
    done
done
