//! Live migration: the protocol engine on real workloads.
//!
//! The paper's `migrate` freezes the process for the whole dump +
//! restart, so downtime equals total migration time. The protocol
//! engine (`pmig::proto`) separates the two:
//!
//! * a blocked interactive program (the §4.2 screen editor) pre-copies
//!   in a single round — it dirties nothing while it waits, so the
//!   freeze delta is empty and downtime is just the freeze + restart;
//! * a dirty-page hog forces the full protocol spread: pre-copy streams
//!   the ballast live and freezes for a working-set delta, demand
//!   restarts first and pages the ballast in afterwards.
//!
//! ```text
//! cargo run --example live_migration
//! ```

use m68vm::{assemble, IsaLevel};
use pmig::proto::{migrate_proto, Protocol};
use pmig::workloads;
use sysdefs::{Credentials, Gid, Uid};
use ukernel::{KernelConfig, World};

fn main() {
    let alice = Credentials::user(Uid(100), Gid(10));

    // ---------------- Case 1: pre-copy on the screen editor -----------
    println!("== Case 1: pre-copy the raw-mode editor off brick ==");
    let mut w = World::new(KernelConfig::paper());
    let brick = w.add_machine("brick", IsaLevel::Isa1);
    let schooner = w.add_machine("schooner", IsaLevel::Isa1);
    let obj = assemble(workloads::EDITOR_PROGRAM).unwrap();
    w.install_program(brick, "/bin/editor", &obj).unwrap();
    let (tty, console) = w.add_terminal(brick);
    let pid = w
        .spawn_vm_proc(brick, "/bin/editor", Some(tty), alice.clone())
        .unwrap();
    w.run_slices(50_000);
    console.type_input("a");
    w.run_slices(50_000);
    println!(
        "editor painted {:?}, raw mode {}",
        console.output_text(),
        console.with(|t| t.gtty().is_raw())
    );

    let report = migrate_proto(
        &mut w,
        pid,
        brick,
        schooner,
        Protocol::PreCopy,
        alice.clone(),
    )
    .expect("engine completes");
    assert!(report.migrated(), "editor lands on schooner: {report:?}");
    println!(
        "pre-copy: downtime {:.1} ms, total {:.1} ms, {} round(s), {} pages streamed",
        report.downtime_us as f64 / 1_000.0,
        report.total_us as f64 / 1_000.0,
        report.rounds,
        report.pages_precopied
    );
    println!(
        "a blocked editor dirties nothing between rounds, so one round\n\
         covers the image and the freeze delta is nearly empty.\n"
    );

    // ---------------- Case 2: all three protocols on a dirty hog ------
    println!("== Case 2: the dirty-page hog under each protocol ==");
    println!(
        "{:<10} {:>12} {:>10} {:>7} {:>10} {:>8}",
        "protocol", "downtime(ms)", "total(ms)", "rounds", "precopied", "fetched"
    );
    for proto in Protocol::ALL {
        let mut w = World::new(KernelConfig::paper());
        let brick = w.add_machine("brick", IsaLevel::Isa1);
        let schooner = w.add_machine("schooner", IsaLevel::Isa1);
        let obj = assemble(&workloads::dirty_hog_program(1_500, 10 * 0x2000)).unwrap();
        w.install_program(brick, "/bin/hog", &obj).unwrap();
        let pid = w
            .spawn_vm_proc(brick, "/bin/hog", None, alice.clone())
            .unwrap();
        w.run_slices(10);
        let report = migrate_proto(&mut w, pid, brick, schooner, proto, alice.clone())
            .expect("engine completes");
        assert!(report.migrated(), "{}: {report:?}", proto.name());
        println!(
            "{:<10} {:>12.1} {:>10.1} {:>7} {:>10} {:>8}",
            proto.name(),
            report.downtime_us as f64 / 1_000.0,
            report.total_us as f64 / 1_000.0,
            report.rounds,
            report.pages_precopied,
            report.pages_fetched
        );
    }
    println!(
        "\nEager's downtime is its total; pre-copy trades a longer total\n\
         for a shorter freeze; demand restarts quickest of all but keeps\n\
         a residual dependency on the source until the drain finishes."
    );
}
