//! Guest (VM) workloads used by the evaluation, the tests and the
//! examples — including the paper's §6.2 test program.

/// The paper's §6.2 test program: "increments and prints three counters
/// (a register, a static variable allocated on the data segment and a
/// variable allocated on the stack). On each iteration it inputs a line
/// and appends it to an output file." Status lines look like
/// `R3 S3 K3`.
pub const TEST_PROGRAM: &str = r#"
        .equ    E_EXIT, 1
        .equ    E_READ, 3
        .equ    E_WRITE, 4
        .equ    E_CREAT, 8

start:  move.l  #E_CREAT, d0
        move.l  #outname, d1
        move.l  #420, d2            | 0644
        trap    #0
        move.l  d0, d7              | output fd
        move.l  #0, d6              | register counter
        move.l  #0, -(sp)           | stack counter

loop:   add.l   #1, d6              | register counter++
        add.l   #1, scount          | static counter++
        add.l   #1, (sp)            | stack counter++

        move.l  d6, d0
        jsr     digit
        move.b  d0, rdig
        move.l  scount, d0
        jsr     digit
        move.b  d0, sdig
        move.l  (sp), d0
        jsr     digit
        move.b  d0, kdig

        move.l  #E_WRITE, d0        | print the status line
        move.l  #1, d1
        move.l  #msg, d2
        move.l  #msglen, d3
        trap    #0

        move.l  #E_READ, d0         | prompt for a line
        move.l  #0, d1
        move.l  #buf, d2
        move.l  #128, d3
        trap    #0
        bcs     done
        tst.l   d0
        beq     done                | EOF
        move.l  d0, d3              | append the line to the output file
        move.l  #E_WRITE, d0
        move.l  d7, d1
        move.l  #buf, d2
        trap    #0
        bra     loop

done:   move.l  #E_EXIT, d0
        move.l  #0, d1
        trap    #0

| digit: d0 = '0' + d0 % 10 (clobbers d1)
digit:  move.l  d0, d1
        divs.l  #10, d1
        muls.l  #10, d1
        sub.l   d1, d0
        add.l   #'0', d0
        rts

| A real 1987 test program carried the statically linked C library:
| pad the text segment to a representative ~25 KB.
libc:   .space  24576

        .data
outname:.asciz  "/tmp/testout"
msg:    .ascii  "R"
rdig:   .byte   '0'
        .ascii  " S"
sdig:   .byte   '0'
        .ascii  " K"
kdig:   .byte   '0'
        .ascii  "\n> "
        .equ    msglen, 11
scount: .long   0
statics:.space  4096                | static C-library data
        .bss
buf:    .space  128
"#;

/// Figure 1's open/close workload: "a program that opens and closes a
/// certain file" `n` times. The file (`/tmp/f`) must exist beforehand.
pub fn openclose_program(n: u32) -> String {
    format!(
        r#"
start:  move.l  #{n}, d6
loop:   move.l  #5, d0              | open("/tmp/f", RDONLY)
        move.l  #fname, d1
        move.l  #0, d2
        trap    #0
        bcs     fail
        move.l  d0, d1              | close(fd)
        move.l  #6, d0
        trap    #0
        sub.l   #1, d6
        bgt     loop
        move.l  #1, d0              | exit(0)
        move.l  #0, d1
        trap    #0
fail:   move.l  #1, d0              | exit(1)
        move.l  #1, d1
        trap    #0
        .data
fname:  .asciz  "/tmp/f"
"#
    )
}

/// Figure 1's chdir workload: `n` "sets of three calls to chdir(), one
/// with an absolute path name ..., one with the parent directory `..`
/// ... and one with a path relative to the current directory `.`".
pub fn chdir_program(n: u32) -> String {
    format!(
        r#"
start:  move.l  #{n}, d6
loop:   move.l  #12, d0             | chdir("/usr/tmp")
        move.l  #pabs, d1
        trap    #0
        bcs     fail
        move.l  #12, d0             | chdir("..")
        move.l  #pup, d1
        trap    #0
        bcs     fail
        move.l  #12, d0             | chdir(".")
        move.l  #pdot, d1
        trap    #0
        bcs     fail
        sub.l   #1, d6
        bgt     loop
        move.l  #1, d0
        move.l  #0, d1
        trap    #0
fail:   move.l  #1, d0
        move.l  #1, d1
        trap    #0
        .data
pabs:   .asciz  "/usr/tmp"
pup:    .asciz  ".."
pdot:   .asciz  "."
"#
    )
}

/// A CPU-bound job: `rounds` rounds of a 10 000-iteration inner loop,
/// used by the load-balancing experiments. Exits 0 when done.
pub fn cpu_hog_program(rounds: u32) -> String {
    format!(
        r#"
start:  move.l  #{rounds}, d7
outer:  move.l  #10000, d6
inner:  add.l   #1, d5
        muls.l  #3, d4
        sub.l   #1, d6
        bgt     inner
        add.l   #1, progress
        sub.l   #1, d7
        bgt     outer
        move.l  #1, d0
        move.l  #0, d1
        trap    #0
        .data
progress:
        .long   0
"#
    )
}

/// The interpreter benchmark's arithmetic loop (`figures interp`): a
/// tight loop whose body fuses into one superblock. It retires 100 000
/// iterations of five instructions plus the prologue move and the final
/// trap. `eor` and `lsr` are not affine, so its passes have no closed
/// form: every pass runs on the superblock pass loop.
pub const ARITH_LOOP_PROGRAM: &str = r"
start:  move.l  #100000, d6
loop:   add.l   #1, d5
        eor.l   d5, d4
        lsr.l   #1, d4
        sub.l   #1, d6
        bgt     loop
        trap    #0
";

/// A periodic "interactive" process for the cluster benchmarks:
/// `beats` short sleeps in a loop. Each expiry is one small scheduling
/// event — exactly the traffic an installation of mostly-idle
/// workstations generates, and the case where any per-slice work
/// proportional to the installation would be pure overhead.
pub fn cluster_tick_program(beats: u32) -> String {
    format!(
        r#"
start:  move.l  #{beats}, d7
beat:   move.l  #150, d0
        move.l  #2000, d1
        trap    #0
        sub.l   #1, d7
        bgt     beat
        move.l  #1, d0
        move.l  #0, d1
        trap    #0
"#
    )
}

/// The dirty-page workload for the live-migration benchmarks: a CPU
/// hog with `ballast` bytes of bss behind it, re-dirtying a four-page
/// working set every round — the shape that separates the protocols.
/// Eager copies the whole ballast frozen; pre-copy streams it live and
/// freezes for a working-set-sized delta; demand restarts without it
/// and fetches pages as they are touched. Exits 0.
pub fn dirty_hog_program(rounds: u32, ballast: u32) -> String {
    format!(
        r#"
start:  move.l  #{rounds}, d7
outer:  move.l  #2000, d6
inner:  add.l   #1, d5
        muls.l  #3, d4
        sub.l   #1, d6
        bgt     inner
        add.l   #1, progress
        move.l  #ballast, a0
        move.l  #4, d3
sweep:  move.l  d7, (a0)
        add.l   #0x2000, a0
        sub.l   #1, d3
        bgt     sweep
        sub.l   #1, d7
        bgt     outer
        move.l  #1, d0
        move.l  #0, d1
        trap    #0
        .data
progress:
        .long   0
        .bss
ballast:
        .space  {ballast}
"#
    )
}

/// A visual ("screen editor" style) program: switches its terminal to
/// raw+noecho, then echoes every keystroke back decorated until it sees
/// `q`. Migration must preserve the raw mode for it to stay usable.
pub const EDITOR_PROGRAM: &str = r#"
        .equ    RAWMODE, 0o40       | TtyFlags::RAW, no echo
start:  move.l  #54, d0             | ioctl(0, STTY, raw|noecho)
        move.l  #0, d1
        move.l  #1, d2
        move.l  #RAWMODE, d3
        trap    #0
loop:   move.l  #3, d0              | read one keystroke
        move.l  #0, d1
        move.l  #key, d2
        move.l  #1, d3
        trap    #0
        bcs     quit
        tst.l   d0
        beq     quit
        move.b  key, d4
        cmp.b   #'q', d4
        beq     quit
        move.b  d4, shown           | paint "[x]"
        move.l  #4, d0
        move.l  #1, d1
        move.l  #paint, d2
        move.l  #3, d3
        trap    #0
        bra     loop
quit:   move.l  #1, d0
        move.l  #0, d1
        trap    #0
        .data
paint:  .byte   '['
shown:  .byte   '?'
        .byte   ']'
        .bss
key:    .space  4
"#;

/// A program that "knows" its process id (§7 limitation): on every
/// iteration it reconstructs a temp-file name from `getpid()` and
/// appends to it. After migration the pid changes, the open fails and
/// the program exits with status 3.
pub const PID_TEMPFILE_PROGRAM: &str = r#"
start:  move.l  #20, d0             | getpid
        trap    #0
        jsr     pidname             | build "/tmp/pN..." from d0
        move.l  #8, d0              | creat the temp file
        move.l  #name, d1
        move.l  #420, d2
        trap    #0
        bcs     lost
        move.l  d0, d1              | close it again
        move.l  #6, d0
        trap    #0

loop:   move.l  #20, d0             | getpid *every time* — the paper's
        trap    #0                  | problem case
        jsr     pidname
        move.l  #5, d0              | open("/tmp/pNNN", RDWR)
        move.l  #name, d1
        move.l  #2, d2
        trap    #0
        bcs     lost                | pid changed: the file is gone
        move.l  d0, d7
        move.l  #19, d0             | lseek(fd, 0, END)
        move.l  d7, d1
        move.l  #0, d2
        move.l  #2, d3
        trap    #0
        move.l  #4, d0              | append a marker byte
        move.l  d7, d1
        move.l  #mark, d2
        move.l  #1, d3
        trap    #0
        move.l  #6, d0              | close
        move.l  d7, d1
        trap    #0
        move.l  #3, d0              | read a line (lets the host pace us)
        move.l  #0, d1
        move.l  #buf, d2
        move.l  #64, d3
        trap    #0
        bcs     out
        tst.l   d0
        beq     out
        bra     loop

lost:   move.l  #1, d0              | exit(3): lost our temp file
        move.l  #3, d1
        trap    #0
out:    move.l  #1, d0
        move.l  #0, d1
        trap    #0

| pidname: write decimal digits of d0 after the "/tmp/p" prefix.
pidname:move.l  #0, d3              | digit count
more:   move.l  d0, d1
        divs.l  #10, d1             | d1 = d0 / 10
        move.l  d1, d2
        muls.l  #10, d2
        sub.l   d2, d0              | d0 = d0 % 10
        add.l   #'0', d0
        move.l  d0, -(sp)           | push digit
        add.l   #1, d3
        move.l  d1, d0
        tst.l   d0
        bne     more
        lea     digits, a0
emit:   move.l  (sp)+, d0
        move.b  d0, (a0)+
        sub.l   #1, d3
        bgt     emit
        move.b  #0, (a0)            | terminating NUL
        rts

        .data
name:   .ascii  "/tmp/p"
digits: .space  12
mark:   .byte   '+'
        .bss
buf:    .space  64
"#;

/// A program that decides its behaviour from the machine it starts on
/// (§7's hardware-floating-point example): it records the first letter
/// of `gethostname()` once, then on every iteration re-checks it and
/// jumps through a null pointer if the machine changed — the "will make
/// the wrong decision and crash" case.
pub const ENV_DEPENDENT_PROGRAM: &str = r#"
start:  move.l  #87, d0             | gethostname(buf, 8)
        move.l  #hbuf, d1
        move.l  #8, d2
        trap    #0
        move.b  hbuf, d7            | the "decision": first letter
        move.b  d7, saved

loop:   move.l  #87, d0             | re-derive the decision input
        move.l  #hbuf, d1
        move.l  #8, d2
        trap    #0
        move.b  hbuf, d6
        move.b  saved, d7
        cmp.b   d7, d6
        bne     crash               | wrong machine for our decision
        move.l  #3, d0              | read a line (host paces us)
        move.l  #0, d1
        move.l  #buf, d2
        move.l  #64, d3
        trap    #0
        bcs     out
        tst.l   d0
        beq     out
        bra     loop

crash:  move.l  0, d0               | null dereference: SIGSEGV
out:    move.l  #1, d0
        move.l  #0, d1
        trap    #0
        .data
saved:  .byte   0
        .bss
hbuf:   .space  8
buf:    .space  64
"#;

/// A parent that forks a child and waits for it — the §7 "should not be
/// migrated while waiting" case. The child waits for terminal input
/// before exiting, keeping the parent blocked in `wait()`.
pub const WAITING_PARENT_PROGRAM: &str = r#"
start:  move.l  #2, d0              | fork
        trap    #0
        tst.l   d0
        beq     child
        move.l  #7, d0              | wait()
        move.l  #0, d1
        trap    #0
        bcs     waitfail
        move.l  #1, d0              | exit(0): child reaped
        move.l  #0, d1
        trap    #0
waitfail:
        move.l  #1, d0              | exit(10): ECHILD after migration
        move.l  #10, d1
        trap    #0
child:  move.l  #3, d0              | child: block on input, then exit
        move.l  #0, d1
        move.l  #buf, d2
        move.l  #16, d3
        trap    #0
        move.l  #1, d0
        move.l  #0, d1
        trap    #0
        .bss
buf:    .space  16
"#;

#[cfg(test)]
mod tests {
    use super::*;
    use m68vm::assemble;

    #[test]
    fn all_workloads_assemble() {
        assemble(TEST_PROGRAM).expect("test program");
        assemble(&openclose_program(100)).expect("open/close");
        assemble(&chdir_program(100)).expect("chdir");
        assemble(&cpu_hog_program(10)).expect("cpu hog");
        assemble(EDITOR_PROGRAM).expect("editor");
        assemble(PID_TEMPFILE_PROGRAM).expect("pid tempfile");
        assemble(ENV_DEPENDENT_PROGRAM).expect("env dependent");
        assemble(WAITING_PARENT_PROGRAM).expect("waiting parent");
    }

    #[test]
    fn workloads_stay_isa1() {
        for src in [TEST_PROGRAM, EDITOR_PROGRAM, PID_TEMPFILE_PROGRAM] {
            let obj = assemble(src).unwrap();
            assert_eq!(obj.required_isa, m68vm::IsaLevel::Isa1);
        }
    }
}
