//! Regenerates every figure of the paper's evaluation (§6) and the
//! DESIGN.md ablations, printing the same series the paper plots.
//!
//! Usage:
//!
//! ```text
//! figures                 # everything
//! figures fig1 fig4       # selected experiments
//! figures kernel          # kernel-side per-syscall aggregates
//! figures faults          # fault-injection soak matrix
//! figures cluster         # cluster-scale scheduler bench, full tier
//! figures cluster-smoke   # same, CI-sized (writes BENCH_cluster.json)
//! figures migration       # live-migration protocols, full tier
//! figures migration-smoke # same, CI-sized (writes BENCH_migration.json)
//! figures interp          # host time: interpreter engines, dump+restart
//!                         # cycle, dump codecs (writes BENCH_interp.json)
//! figures --json          # machine-readable output (EXPERIMENTS.md)
//! ```

use bench::json::{to_string_pretty, Json, ToJson};
use bench::scenarios;

fn hr(title: &str) {
    println!();
    println!("==== {title} ====");
}

fn run_fig1(json: bool) {
    let rows = scenarios::fig1();
    if json {
        println!("{}", to_string_pretty(rows.as_slice()));
        return;
    }
    hr("Figure 1: performance of modified system calls (system CPU per op)");
    println!(
        "{:<22} {:>12} {:>12} {:>8} {:>8}",
        "syscall", "orig (ms)", "mod (ms)", "ratio", "paper"
    );
    for r in rows {
        println!(
            "{:<22} {:>12.3} {:>12.3} {:>8.2} {:>8.2}",
            r.syscall, r.original_ms, r.modified_ms, r.ratio, r.paper_ratio
        );
    }
}

fn run_fig2(json: bool) {
    let rows = scenarios::fig2();
    if json {
        println!("{}", to_string_pretty(rows.as_slice()));
        return;
    }
    hr("Figure 2: SIGQUIT vs SIGDUMP vs dumpproc (normalised to SIGQUIT)");
    println!(
        "{:<10} {:>10} {:>10} {:>8} {:>8} {:>10} {:>10}",
        "case", "cpu (ms)", "real (ms)", "cpu x", "real x", "paper cpu", "paper real"
    );
    for r in rows {
        println!(
            "{:<10} {:>10.1} {:>10.1} {:>8.2} {:>8.2} {:>10.1} {:>10.1}",
            r.case,
            r.cpu_ms,
            r.real_ms,
            r.cpu_ratio,
            r.real_ratio,
            r.paper_cpu_ratio,
            r.paper_real_ratio
        );
    }
}

fn run_fig3(json: bool) {
    let rows = scenarios::fig3();
    if json {
        println!("{}", to_string_pretty(rows.as_slice()));
        return;
    }
    hr("Figure 3: execve vs rest_proc vs restart (normalised to execve)");
    println!(
        "{:<12} {:>10} {:>10} {:>8} {:>8} {:>10} {:>10}",
        "case", "cpu (ms)", "real (ms)", "cpu x", "real x", "paper cpu", "paper real"
    );
    for r in rows {
        println!(
            "{:<12} {:>10.1} {:>10.1} {:>8.2} {:>8.2} {:>10.1} {:>10.1}",
            r.case,
            r.cpu_ms,
            r.real_ms,
            r.cpu_ratio,
            r.real_ratio,
            r.paper_cpu_ratio,
            r.paper_real_ratio
        );
    }
}

fn run_fig4(json: bool) {
    let rows = scenarios::fig4();
    if json {
        println!("{}", to_string_pretty(rows.as_slice()));
        return;
    }
    hr("Figure 4: migrate real time vs dumpproc+restart (=1)");
    println!(
        "{:<18} {:>12} {:>8} {:>8}",
        "case", "real (ms)", "ratio", "paper"
    );
    for r in rows {
        println!(
            "{:<18} {:>12.0} {:>8.2} {:>8.1}",
            r.case, r.real_ms, r.ratio, r.paper_ratio
        );
    }
}

fn run_kernel(json: bool) {
    let rows = scenarios::kernel_syscalls();
    if json {
        println!("{}", to_string_pretty(rows.as_slice()));
        return;
    }
    hr("Kernel per-syscall aggregates (Fig-1 workloads, modified kernel)");
    println!(
        "{:<12} {:>8} {:>12} {:>10}",
        "syscall", "count", "total (us)", "max (us)"
    );
    for r in rows {
        println!(
            "{:<12} {:>8} {:>12} {:>10}",
            r.syscall, r.count, r.total_us, r.max_us
        );
    }
}

fn run_faults(json: bool) {
    // The CI soak runs with a nonzero seed; the seed only shuffles the
    // per-mille rolls, the sites always fire until their budgets drain.
    let rows = scenarios::fault_soak(0xFA517);
    if json {
        println!("{}", to_string_pretty(rows.as_slice()));
        return;
    }
    hr("Fault soak: migrate under injected faults (R-R placement)");
    println!(
        "{:<16} {:>8} {:>10} {:>10} {:>12} {:>12}",
        "case", "status", "survivor", "injected", "live copies", "dumps left"
    );
    for r in rows {
        println!(
            "{:<16} {:>8} {:>10} {:>10} {:>12} {:>12}",
            r.case, r.status, r.survivor, r.injected, r.live_copies, r.dumps_left
        );
        assert_eq!(r.live_copies, 1, "{}: failure atomicity broken", r.case);
        assert_eq!(r.dumps_left, 0, "{}: orphaned dump files", r.case);
    }
}

fn run_cluster(json: bool, smoke: bool) {
    // Smoke tier keeps CI fast; the full tier adds 256 and 1024 hosts.
    let sizes: &[usize] = if smoke {
        &[16, 64]
    } else {
        &[16, 64, 256, 1024]
    };
    let rows = scenarios::cluster(sizes);
    let soak = scenarios::cluster_soak(0xC1A5);
    for r in &soak {
        assert!(r.injected > 0, "{}: fault site never fired", r.case);
        assert_eq!(
            r.live, r.expected,
            "{}: hog copies lost or duplicated under faults",
            r.case
        );
        assert_eq!(r.dumps_left, 0, "{}: orphaned dump files", r.case);
    }
    let report = Json::Obj(vec![
        ("bench".into(), Json::Str("cluster_sched".into())),
        (
            "tier".into(),
            Json::Str(if smoke { "smoke" } else { "full" }.into()),
        ),
        ("rows".into(), rows.as_slice().to_json()),
        ("fault_soak".into(), soak.as_slice().to_json()),
    ]);
    let text = to_string_pretty(&report);
    // Land at the workspace root, independent of the cwd cargo uses.
    let dest = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_cluster.json");
    std::fs::write(&dest, &text).expect("write BENCH_cluster.json");
    if json {
        println!("{text}");
        return;
    }
    hr("Cluster: scheduler cost vs installation size (BENCH_cluster.json)");
    println!(
        "{:>6} {:>10} {:>9} {:>12} {:>12} {:>10}",
        "hosts", "slices", "host (s)", "events/s", "us/event", "migr/s"
    );
    for r in &rows {
        println!(
            "{:>6} {:>10} {:>9.3} {:>12.0} {:>12.3} {:>10.2}",
            r.hosts, r.slices, r.host_secs, r.events_per_sec, r.us_per_event, r.migrations_per_sec
        );
    }
    hr("Cluster fault soak: one live copy per hog, zero orphaned dumps");
    println!(
        "{:<10} {:>6} {:>6} {:>6} {:>9} {:>6} {:>9} {:>11}",
        "case", "hosts", "migr", "fail", "injected", "live", "expected", "dumps left"
    );
    for r in &soak {
        println!(
            "{:<10} {:>6} {:>6} {:>6} {:>9} {:>6} {:>9} {:>11}",
            r.case, r.hosts, r.migrations, r.failures, r.injected, r.live, r.expected, r.dumps_left
        );
    }
}

fn run_migration(json: bool, smoke: bool) {
    let rows = scenarios::migration(smoke);
    for r in &rows {
        assert_eq!(r.status, 0, "{}: migration failed", r.protocol);
        assert_eq!(
            r.survivor, "target",
            "{}: did not land on target",
            r.protocol
        );
    }
    let eager = rows
        .iter()
        .find(|r| r.protocol == "eager")
        .expect("eager row");
    let precopy = rows
        .iter()
        .find(|r| r.protocol == "precopy")
        .expect("precopy row");
    assert!(
        precopy.downtime_ms < eager.downtime_ms,
        "pre-copy downtime ({:.1} ms) must undercut eager ({:.1} ms) on the dirty-page hog",
        precopy.downtime_ms,
        eager.downtime_ms
    );
    let report = Json::Obj(vec![
        ("bench".into(), Json::Str("migration_protocols".into())),
        (
            "tier".into(),
            Json::Str(if smoke { "smoke" } else { "full" }.into()),
        ),
        ("rows".into(), rows.as_slice().to_json()),
    ]);
    let text = to_string_pretty(&report);
    let dest = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_migration.json");
    std::fs::write(&dest, &text).expect("write BENCH_migration.json");
    if json {
        println!("{text}");
        return;
    }
    hr("Live migration: downtime vs total per protocol (BENCH_migration.json)");
    println!(
        "{:<10} {:>12} {:>10} {:>7} {:>10} {:>9} {:>11}",
        "protocol", "downtime(ms)", "total(ms)", "rounds", "precopied", "fetched", "bytes sent"
    );
    for r in &rows {
        println!(
            "{:<10} {:>12.1} {:>10.1} {:>7} {:>10} {:>9} {:>11}",
            r.protocol,
            r.downtime_ms,
            r.total_ms,
            r.rounds,
            r.pages_precopied,
            r.pages_fetched,
            r.bytes_sent
        );
    }
}

fn run_interp(json: bool) {
    let report = bench::interp::InterpReport::measure();
    // The gate compares the fused engine against the *uncached* decoder
    // — the superblock-vs-slot-cached ratio is recorded but not gated,
    // since it collapses on 1-core CI boxes where the measurement loop
    // contends with the rest of the suite.
    assert!(
        report.superblock_speedup() >= 2.5,
        "superblock engine managed only {:.2}x over the uncached decoder (gate: 2.5x)",
        report.superblock_speedup()
    );
    let text = to_string_pretty(&report.to_json());
    let dest = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_interp.json");
    std::fs::write(&dest, &text).expect("write BENCH_interp.json");
    if json {
        println!("{text}");
        return;
    }
    hr("Host time: interpreter engines, dump+restart, codecs (BENCH_interp.json)");
    println!("{:<12} {:>16} {:>10}", "engine", "insn/sec", "vs uncached");
    for (name, v) in [
        ("uncached", report.uncached_insn_per_sec),
        ("cached", report.cached_insn_per_sec),
        ("superblock", report.superblock_insn_per_sec),
    ] {
        println!(
            "{:<12} {:>16.0} {:>9.2}x",
            name,
            v,
            v / report.uncached_insn_per_sec
        );
    }
    println!(
        "\n{:<16} {:>16} {:>10}",
        "hog loop", "insn/sec", "vs cached"
    );
    for (name, v) in [
        ("hog cached", report.hog_cached_insn_per_sec),
        ("hog superblock", report.hog_superblock_insn_per_sec),
    ] {
        println!(
            "{:<16} {:>16.0} {:>9.2}x",
            name,
            v,
            v / report.hog_cached_insn_per_sec
        );
    }
    println!(
        "\ndump+restart cycle {:>10.3} ms",
        report.dump_restart_cycle_ms
    );
    println!("{:<8} {:>12} {:>12}", "codec", "encode us", "decode us");
    for (name, enc, dec) in [
        ("files", report.files_encode_us, report.files_decode_us),
        ("stack", report.stack_encode_us, report.stack_decode_us),
    ] {
        println!("{name:<8} {enc:>12.3} {dec:>12.3}");
    }
}

fn run_ablations(json: bool) {
    let daemon = scenarios::ablation_daemon();
    let virt = scenarios::ablation_virt();
    let names = scenarios::ablation_names();
    let ckpt = scenarios::ablation_checkpoint();
    let loadbal = scenarios::ablation_loadbal();
    if json {
        println!(
            "{}",
            Json::Obj(vec![
                ("daemon".into(), daemon.to_json()),
                ("virtualization".into(), virt.to_json()),
                ("name_strings".into(), names.to_json()),
                ("checkpoint".into(), ckpt.to_json()),
                ("loadbal".into(), loadbal.to_json()),
            ])
        );
        return;
    }
    hr("A1: remote-remote migrate transport");
    for r in &daemon {
        println!("{:<8} {:>12.0} ms", r.transport, r.real_ms);
    }
    hr("A2: pid-dependent program after migration (0 = survives)");
    for r in &virt {
        println!("{:<12} status {}", r.kernel, r.status);
    }
    hr("A3: kernel memory for open-file name strings");
    for r in &names {
        println!("{:<18} {:>10} bytes peak", r.strategy, r.peak_bytes);
    }
    hr("A4: checkpoint interval sweep (hog job)");
    println!(
        "{:<12} {:>14} {:>10} {:>16}",
        "interval", "completion", "overhead", "expected loss"
    );
    for r in &ckpt {
        println!(
            "{:<12} {:>12.0}ms {:>9.1}% {:>14.0}ms",
            if r.interval_ms == 0 {
                "none".to_string()
            } else {
                format!("{}ms", r.interval_ms)
            },
            r.completion_ms,
            r.overhead * 100.0,
            r.expected_loss_ms
        );
    }
    hr("A5: load balancing (6 hogs, 3 machines)");
    for r in &loadbal {
        println!(
            "{:<12} makespan {:>10.0} ms, {} migrations",
            r.policy, r.makespan_ms, r.migrations
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let picks: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let all = picks.is_empty();
    let want = |name: &str| all || picks.contains(&name);

    if want("fig1") {
        run_fig1(json);
    }
    if want("fig2") {
        run_fig2(json);
    }
    if want("fig3") {
        run_fig3(json);
    }
    if want("fig4") {
        run_fig4(json);
    }
    if want("kernel") {
        run_kernel(json);
    }
    if want("faults") {
        run_faults(json);
    }
    // `cluster` runs the full tier (incl. the 1024-host point); bare
    // `figures` and `cluster-smoke` run the CI-sized smoke tier.
    if picks.contains(&"cluster") {
        run_cluster(json, false);
    } else if all || picks.contains(&"cluster-smoke") {
        run_cluster(json, true);
    }
    if picks.contains(&"migration") {
        run_migration(json, false);
    } else if all || picks.contains(&"migration-smoke") {
        run_migration(json, true);
    }
    if all || picks.contains(&"interp") {
        run_interp(json);
    }
    if all || picks.iter().any(|p| p.starts_with("ablation")) {
        run_ablations(json);
    }
}
