//! How much host memory one migration allocates: each image should pass
//! through the host once, moved or shared from hop to hop, so a
//! migration allocates a small multiple of the image, not a copy per
//! hop. A counting global allocator measures every `migrate_proto`
//! call of a 24-page dirty hog, moved eager, then pre-copy, then
//! demand.
//!
//! This file is its own test binary with one test, so nothing else
//! allocates on the thread while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use m68vm::{assemble, IsaLevel};
use pmig::proto::{migrate_proto, Protocol};
use pmig::{workloads, Survivor};
use simtime::SimDuration;
use sysdefs::{Credentials, Gid, Uid};
use ukernel::{KernelConfig, World};

thread_local! {
    /// Bytes allocated on this thread. A const-initialised `Cell` of a
    /// type without drop glue: reading or bumping it never allocates.
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting the bytes of every allocation and of
/// every reallocation's new size.
struct Counting;

fn count(bytes: usize) {
    // `try_with`: a thread that is tearing down its locals still
    // allocates, and must not panic here.
    let _ = ALLOCATED.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the returned pointers carry `System`'s guarantees; the counting only
// touches a thread-local `Cell`, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract,
        // and `ptr` came from `System` with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocated() -> u64 {
    ALLOCATED.with(Cell::get)
}

const PAGE: u32 = 0x2000;

/// The hog's bss: 24 pages, 192 KiB.
const BALLAST_PAGES: u32 = 24;

/// Most KiB one call may allocate, per protocol: the measured counts
/// (eager 617.2, pre-copy 1,199.4, demand 619.6 KiB, debug and release
/// alike) plus less headroom than one more copy of the 192 KiB image,
/// so such a copy on any hop fails the test.
const BOUND_KIB: [(Protocol, f64); 3] = [
    (Protocol::Eager, 770.0),
    (Protocol::PreCopy, 1_380.0),
    (Protocol::Demand, 770.0),
];

#[test]
fn each_migration_moves_its_image_through_the_host_once() {
    let user = Credentials::user(Uid(100), Gid(10));
    let mut w = World::new(KernelConfig::paper());
    let nodes = [
        w.add_machine("node0", IsaLevel::Isa1),
        w.add_machine("node1", IsaLevel::Isa1),
    ];
    let hog = assemble(&workloads::dirty_hog_program(
        1_000_000_000,
        BALLAST_PAGES * PAGE,
    ))
    .unwrap();
    w.install_program(nodes[0], "/bin/hog", &hog).unwrap();
    let mut victim = w
        .spawn_vm_proc(nodes[0], "/bin/hog", None, user.clone())
        .unwrap();
    let warm = w.machine(nodes[0]).now + SimDuration::millis(50);
    w.run_until_time(warm, 50_000_000);

    let mut measured = Vec::new();
    for (at, (proto, bound)) in BOUND_KIB.into_iter().enumerate() {
        let (from, to) = (nodes[at % 2], nodes[1 - at % 2]);
        let before = allocated();
        let report = migrate_proto(&mut w, victim, from, to, proto, user.clone())
            .unwrap_or_else(|e| panic!("{}: {e}", proto.name()));
        let kib = (allocated() - before) as f64 / 1024.0;
        assert_eq!(report.status, 0, "{}: {report:?}", proto.name());
        assert_eq!(report.survivor, Survivor::Target, "{}", proto.name());
        victim = report.new_pid.expect("the target's pid");
        measured.push((proto.name(), kib, bound));
    }
    for (name, kib, bound) in &measured {
        assert!(
            kib <= bound,
            "{name} allocated {kib:.1} KiB, over its {bound} KiB bound: {measured:?}"
        );
    }
}
