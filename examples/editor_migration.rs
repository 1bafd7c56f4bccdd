//! Migrating a visual program: terminal modes matter.
//!
//! The paper (§4.1-4.2): a screen editor puts its terminal in raw,
//! no-echo mode. `restart` re-applies the dumped terminal flags, "so
//! that visual applications such as screen editors can be restarted
//! properly" — but only when `restart` runs locally at the target
//! terminal. Through `rsh`, "certain terminal modes can not be
//! preserved ... thus the process will become useless."
//!
//! This example shows both outcomes.
//!
//! ```text
//! cargo run --example editor_migration
//! ```

use m68vm::{assemble, IsaLevel};
use pmig::commands::RestartArgs;
use pmig::{api, workloads, RemoteRunner};
use sysdefs::{Credentials, Gid, Uid};
use ukernel::{KernelConfig, World};

fn main() {
    let alice = Credentials::user(Uid(100), Gid(10));

    // ---------------- Case 1: local restart preserves raw mode --------
    println!("== Case 1: dumpproc on brick, restart typed on schooner ==");
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
        "editor on brick painted {:?} after one *unbuffered* keystroke (raw mode: {})",
        console.output_text(),
        console.with(|t| t.gtty().is_raw())
    );

    let status = api::run_dumpproc(&mut w, brick, pid, alice.clone()).unwrap();
    assert_eq!(status, 0);
    let (tty2, console2) = w.add_terminal(schooner);
    let new_pid = api::run_restart(
        &mut w,
        schooner,
        RestartArgs {
            pid,
            dump_host: Some("brick".into()),
            demand: false,
        },
        Some(tty2),
        alice.clone(),
    )
    .expect("restart");
    w.run_slices(100_000);
    println!(
        "after restart on schooner, the new terminal is raw: {}",
        console2.with(|t| t.gtty().is_raw())
    );
    console2.type_input("b");
    w.run_slices(100_000);
    println!(
        "one keystroke later schooner's screen shows {:?} — the editor survived",
        console2.output_text()
    );
    console2.type_input("q");
    w.run_slices(100_000);
    let _ = w.run_until_exit(schooner, new_pid, 100_000);

    // ---------------- Case 2: migrate over rsh degrades the editor ----
    println!("\n== Case 2: migrate typed on brick (restart goes over rsh) ==");
    let mut w = World::new(KernelConfig::paper());
    let brick = w.add_machine("brick", IsaLevel::Isa1);
    let schooner = w.add_machine("schooner", IsaLevel::Isa1);
    w.install_program(brick, "/bin/editor", &obj).unwrap();
    let (tty, console) = w.add_terminal(brick);
    let pid = w
        .spawn_vm_proc(brick, "/bin/editor", Some(tty), alice.clone())
        .unwrap();
    w.run_slices(50_000);
    console.type_input("a");
    w.run_slices(50_000);

    let new_pid = api::migrate_process(
        &mut w,
        pid,
        brick,
        schooner,
        brick,
        None,
        alice,
        RemoteRunner::Rsh,
    )
    .expect("migrate completes");
    w.run_slices(100_000);
    let p = w.proc_ref(schooner, new_pid).expect("restored editor");
    let pipe = w.terminal(p.user.tty.expect("rsh pipe endpoint"));
    println!(
        "the editor now sits behind an rsh pipe; raw mode stuck: {}",
        pipe.with(|t| t.gtty().is_raw())
    );
    pipe.type_input("b");
    w.run_slices(100_000);
    println!(
        "a single keystroke produced {:?} — nothing. \"The process will become useless.\"",
        pipe.output_text()
    );
    println!(
        "\nMoral (the paper's §4.2 advice): migrate visual programs by typing\n\
         the command on the destination machine, so restart runs locally."
    );
}
