//! Fixture: a native-process runtime that hands each program to a host
//! thread — the determinism rule's `std::thread` plants.

use std::thread::JoinHandle;

pub struct Runner {
    // Trap: a field named `thread` is not the std module.
    thread: Option<JoinHandle<()>>,
}

pub fn start(prog: fn()) -> Runner {
    // Trap: neither is the word in a string.
    let _why = "std::thread is the thing to avoid";
    Runner {
        thread: Some(std::thread::spawn(prog)),
    }
}
