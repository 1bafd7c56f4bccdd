//! The a.out object-file format, core dumps, and `undump`.
//!
//! The paper's `SIGDUMP` writes an `a.outXXXXX` file that is "an executable
//! obtained by dumping the text and data segments of the process, and
//! prepending a suitable header that will make UNIX recognise the file as
//! an executable. This file can be executed as an ordinary program" — with
//! all static variables holding the values they had at dump time, "which
//! gives us, incidentally, the `undump` utility for free."
//!
//! This crate provides exactly that header and encoding:
//!
//! * [`AoutHeader`] — the classic 32-byte big-endian a.out exec header
//!   (OMAGIC `0407`), with the machine id in the upper half of the magic
//!   word selecting the required ISA level, as Sun's a.out did for the
//!   68010/68020;
//! * [`encode_executable`] / [`parse_executable`] — whole-file codecs
//!   between segment sets and bytes, the parse borrowing its segments
//!   from the file; [`check_executable`] gives the parse's verdict from
//!   the header and the file's length alone;
//! * [`CoreFile`] — the `core` file `SIGQUIT` produces (registers, data
//!   and stack segments);
//! * [`undump`] — combine an executable and a core dump into a new
//!   executable whose initialised data is the core's.

pub mod core_dump;
pub mod header;

pub use core_dump::{required_isa, undump, CoreError, CoreFile, UndumpError, CORE_MAGIC};
pub use header::{
    check_executable, encode_executable, encode_object, parse_executable, AoutError, AoutHeader,
    Executable, AOUT_HEADER_LEN, MID_ISA1, MID_ISA2, OMAGIC,
};
