//! The world's icache pool: every body running the same text on the
//! same machine model shares one predecoded cache, whichever machine
//! hosts it and however the body was born (spawn, fork, exec).

use std::sync::Arc;

use m68vm::{assemble, ICache, IsaLevel};
use sysdefs::{Credentials, Gid, Pid, Uid};
use ukernel::proc::Body;
use ukernel::{KernelConfig, MachineId, World};

fn alice() -> Credentials {
    Credentials::user(Uid(100), Gid(10))
}

/// Sleeps in long naps forever, so every body stays alive to inspect.
const NAPPER: &str = r"
start:  move.l  #150, d0
        move.l  #1000000, d1
        trap    #0
        bra     start
";

/// The icache of `pid`'s body on `mid`.
fn icache(w: &World, mid: MachineId, pid: Pid) -> Arc<ICache> {
    let p = w.proc_ref(mid, pid).expect("process exists");
    let Body::Vm(vm) = &p.body else {
        panic!("pid {pid:?} is not a VM body")
    };
    Arc::clone(vm.icache.as_ref().expect("the paper config caches text"))
}

/// Every live pid on `mid` other than init.
fn pids(w: &World, mid: MachineId) -> Vec<Pid> {
    w.machine(mid)
        .procs
        .keys()
        .map(|&p| Pid(p))
        .filter(|&p| p != Pid::INIT)
        .collect()
}

#[test]
fn one_text_shares_one_icache_per_isa_level() {
    let mut w = World::new(KernelConfig::paper());
    let a = w.add_machine("a", IsaLevel::Isa1);
    let b = w.add_machine("b", IsaLevel::Isa1);
    let c = w.add_machine("c", IsaLevel::Isa2);
    w.install_program(a, "/bin/nap", &assemble(NAPPER).unwrap())
        .unwrap();
    let on_a = w.spawn_vm_proc(a, "/bin/nap", None, alice()).unwrap();
    // The same file, loaded over NFS on a second machine of the same
    // model: one shared translation.
    let on_b = w.spawn_vm_proc(b, "/n/a/bin/nap", None, alice()).unwrap();
    assert!(Arc::ptr_eq(&icache(&w, a, on_a), &icache(&w, b, on_b)));
    // An ISA-2 host validates the text against its own level.
    let on_c = w.spawn_vm_proc(c, "/n/a/bin/nap", None, alice()).unwrap();
    let ic_c = icache(&w, c, on_c);
    assert!(!Arc::ptr_eq(&icache(&w, a, on_a), &ic_c));
    assert_eq!(ic_c.level(), IsaLevel::Isa2);
    // A second ISA-2 body finds that entry.
    let on_c2 = w.spawn_vm_proc(c, "/n/a/bin/nap", None, alice()).unwrap();
    assert!(Arc::ptr_eq(&ic_c, &icache(&w, c, on_c2)));
}

#[test]
fn fork_shares_and_exec_of_another_text_replaces_the_icache() {
    let mut w = World::new(KernelConfig::paper());
    let m = w.add_machine("m", IsaLevel::Isa1);
    // The parent forks; the child execs the napper, the parent naps.
    let forker = assemble(
        r#"
        start:  move.l  #2, d0      | fork
                trap    #0
                tst.l   d0
                beq     child
        nap:    move.l  #150, d0
                move.l  #1000000, d1
                trap    #0
                bra     nap
        child:  move.l  #59, d0     | execve("/bin/nap")
                move.l  #path, d1
                trap    #0
                .data
        path:   .asciz  "/bin/nap"
        "#,
    )
    .unwrap();
    w.install_program(m, "/bin/forker", &forker).unwrap();
    w.install_program(m, "/bin/nap", &assemble(NAPPER).unwrap())
        .unwrap();
    // One slice runs only the parent, through the fork: the child has
    // not run its exec yet.
    let parent = w.spawn_vm_proc(m, "/bin/forker", None, alice()).unwrap();
    let forker_ic = icache(&w, m, parent);
    w.run_slices(1);
    let child = *pids(&w, m)
        .iter()
        .find(|&&p| p != parent)
        .expect("the fork made a child");
    assert!(
        Arc::ptr_eq(&forker_ic, &icache(&w, m, child)),
        "a forked child shares its parent's icache"
    );
    // Let the child exec the napper: its body now runs another text,
    // the same one a direct spawn of the napper gets.
    w.run_slices(20);
    let exec_ic = icache(&w, m, child);
    assert!(!Arc::ptr_eq(&forker_ic, &exec_ic));
    let direct = w.spawn_vm_proc(m, "/bin/nap", None, alice()).unwrap();
    assert!(Arc::ptr_eq(&exec_ic, &icache(&w, m, direct)));
    assert!(Arc::ptr_eq(&forker_ic, &icache(&w, m, parent)));
}
