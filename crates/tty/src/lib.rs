//! Terminals: the old `sgttyb` modes plus a small line discipline.
//!
//! The paper's `restart` "reads in the old terminal flags and sets those
//! of the current terminal appropriately, so that the current terminal
//! modes are those of the original process" — which is what lets screen
//! editors survive migration. Conversely, `migrate` via `rsh` cannot
//! preserve modes ("because of the way that rsh is implemented"), so a
//! terminal can also be a [`Terminal::remote_pipe`]: a degraded endpoint
//! on which mode changes do not stick, reproducing that caveat.
//!
//! A terminal has two sides:
//!
//! * the **host side** ([`Terminal::type_input`], [`Terminal::output`]) —
//!   the human at the keyboard, driven by tests and examples;
//! * the **process side** ([`Terminal::process_read`],
//!   [`Terminal::process_write`], [`Terminal::gtty`]/[`Terminal::stty`]) —
//!   what the simulated kernel calls on behalf of a process.
//!
//! In cooked (canonical) mode, reads block until a full line is typed,
//! the erase character edits the pending line, and input echoes. In raw
//! or cbreak mode, every byte is delivered immediately — the paper's
//! "process input characters as soon as they are typed".

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use sysdefs::TtyFlags;

/// The erase (backspace) character in cooked mode.
pub const ERASE_CHAR: u8 = 0x08;

/// A terminal or terminal-like endpoint.
#[derive(Debug)]
pub struct Terminal {
    flags: TtyFlags,
    /// Raw bytes available to the process (complete lines in cooked mode).
    input: VecDeque<u8>,
    /// The line being typed, not yet delivered (cooked mode only).
    pending_line: Vec<u8>,
    /// Everything the process (or echo) has written to the screen.
    output: Vec<u8>,
    /// True for rsh-style pipe endpoints where `stty` has no effect.
    degraded: bool,
    /// Closed endpoints deliver EOF.
    closed: bool,
}

impl Terminal {
    /// A real terminal in the default cooked mode.
    pub fn new() -> Terminal {
        Terminal {
            flags: TtyFlags::cooked(),
            input: VecDeque::new(),
            pending_line: Vec::new(),
            output: Vec::new(),
            degraded: false,
            closed: false,
        }
    }

    /// An rsh-style remote pipe: behaves like a cooked terminal but mode
    /// changes are silently ignored, so visual programs cannot switch it
    /// to raw mode — the paper's `migrate`-to-remote-host limitation.
    pub fn remote_pipe() -> Terminal {
        Terminal {
            degraded: true,
            ..Terminal::new()
        }
    }

    // ------------------------------------------------------------------
    // Host (keyboard/screen) side.
    // ------------------------------------------------------------------

    /// Types `text` at the keyboard.
    pub fn type_input(&mut self, text: &str) {
        for &b in text.as_bytes() {
            self.type_byte(b);
        }
    }

    fn type_byte(&mut self, b: u8) {
        if self.flags.char_at_a_time() {
            // Raw/cbreak: deliver immediately; raw mode never echoes
            // through the discipline.
            self.input.push_back(b);
            if self.flags.echoes() && !self.flags.is_raw() {
                self.echo(b);
            }
            return;
        }
        // Cooked mode: line editing.
        if b == ERASE_CHAR {
            if self.pending_line.pop().is_some() && self.flags.echoes() {
                self.output.extend_from_slice(b"\x08 \x08");
            }
            return;
        }
        self.pending_line.push(b);
        if self.flags.echoes() {
            self.echo(b);
        }
        if b == b'\n' {
            self.input.extend(self.pending_line.drain(..));
        }
    }

    fn echo(&mut self, b: u8) {
        if b == b'\n' && self.flags.bits() & TtyFlags::CRMOD != 0 {
            self.output.extend_from_slice(b"\r\n");
        } else {
            self.output.push(b);
        }
    }

    /// Everything shown on the screen so far.
    pub fn output(&self) -> &[u8] {
        &self.output
    }

    /// The screen contents as text.
    pub fn output_text(&self) -> String {
        String::from_utf8_lossy(&self.output).into_owned()
    }

    /// Discards the screen contents (e.g. after a window redraw).
    pub fn clear_output(&mut self) {
        self.output.clear();
    }

    /// Marks the endpoint closed; subsequent reads see EOF.
    pub fn close(&mut self) {
        self.closed = true;
    }

    // ------------------------------------------------------------------
    // Process side (called by the kernel).
    // ------------------------------------------------------------------

    /// Can a `read` complete right now? In cooked mode this requires a
    /// complete line; in raw/cbreak any byte is enough.
    pub fn read_ready(&self) -> bool {
        if self.closed {
            return true;
        }
        if self.flags.char_at_a_time() {
            !self.input.is_empty()
        } else {
            self.input.contains(&b'\n')
        }
    }

    /// Reads up to `n` bytes on behalf of the process.
    ///
    /// Returns `None` when no data is ready (the kernel blocks the
    /// process); `Some(empty)` is EOF after [`Terminal::close`].
    pub fn process_read(&mut self, n: usize) -> Option<Vec<u8>> {
        if !self.read_ready() {
            return None;
        }
        if self.closed && self.input.is_empty() {
            return Some(Vec::new());
        }
        let mut out = Vec::new();
        if self.flags.char_at_a_time() {
            while out.len() < n {
                match self.input.pop_front() {
                    Some(b) => out.push(b),
                    None => break,
                }
            }
        } else {
            // Cooked: at most one line per read, as the old discipline did.
            while out.len() < n {
                match self.input.pop_front() {
                    Some(b) => {
                        out.push(b);
                        if b == b'\n' {
                            break;
                        }
                    }
                    None => break,
                }
            }
        }
        Some(out)
    }

    /// Writes process output to the screen.
    pub fn process_write(&mut self, bytes: &[u8]) -> usize {
        if self.flags.is_raw() {
            self.output.extend_from_slice(bytes);
        } else {
            for &b in bytes {
                self.echo(b);
            }
        }
        bytes.len()
    }

    /// `ioctl(TIOCGETP)`: reads the terminal flags.
    pub fn gtty(&self) -> TtyFlags {
        if self.degraded {
            TtyFlags::cooked()
        } else {
            self.flags
        }
    }

    /// `ioctl(TIOCSETP)`: sets the terminal flags.
    ///
    /// On a degraded rsh pipe the call is accepted but has no effect,
    /// exactly the silent failure that makes migrated screen editors
    /// "become useless" in the paper's §4.1.
    pub fn stty(&mut self, flags: TtyFlags) {
        if self.degraded {
            return;
        }
        self.flags = flags;
        if flags.char_at_a_time() && !self.pending_line.is_empty() {
            // Switching to raw flushes the partial line to the reader.
            self.input.extend(self.pending_line.drain(..));
        }
    }
}

impl Default for Terminal {
    fn default() -> Self {
        Terminal::new()
    }
}

/// A shareable terminal handle: the kernel holds one per `/dev/ttyN`,
/// tests and examples hold clones to type and inspect. The simulated
/// world runs on one thread, so sharing needs no lock.
#[derive(Clone, Debug)]
pub struct TtyHandle(Rc<RefCell<Terminal>>);

impl TtyHandle {
    /// Wraps a terminal for sharing.
    pub fn new(t: Terminal) -> TtyHandle {
        TtyHandle(Rc::new(RefCell::new(t)))
    }

    /// Runs `f` with the terminal borrowed mutably.
    pub fn with<R>(&self, f: impl FnOnce(&mut Terminal) -> R) -> R {
        f(&mut self.0.borrow_mut())
    }

    /// Host convenience: types text.
    pub fn type_input(&self, text: &str) {
        self.with(|t| t.type_input(text));
    }

    /// Host convenience: current screen text.
    pub fn output_text(&self) -> String {
        self.with(|t| t.output_text())
    }

    /// Host convenience: clears the screen capture.
    pub fn clear_output(&self) {
        self.with(|t| t.clear_output());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cooked_mode_lines_and_echo() {
        let mut t = Terminal::new();
        t.type_input("hel");
        assert!(!t.read_ready(), "no newline yet");
        assert_eq!(t.process_read(100), None);
        t.type_input("lo\n");
        assert!(t.read_ready());
        assert_eq!(t.process_read(100).unwrap(), b"hello\n");
        // Echo with CRMOD maps \n to \r\n.
        assert_eq!(t.output_text(), "hello\r\n");
    }

    #[test]
    fn cooked_mode_erase_edits_pending_line() {
        let mut t = Terminal::new();
        t.type_input("cax");
        t.type_byte(ERASE_CHAR);
        t.type_input("t\n");
        assert_eq!(t.process_read(100).unwrap(), b"cat\n");
    }

    #[test]
    fn one_line_per_cooked_read() {
        let mut t = Terminal::new();
        t.type_input("one\ntwo\n");
        assert_eq!(t.process_read(100).unwrap(), b"one\n");
        assert_eq!(t.process_read(100).unwrap(), b"two\n");
    }

    #[test]
    fn raw_mode_delivers_immediately_without_echo() {
        let mut t = Terminal::new();
        t.stty(TtyFlags::raw_noecho());
        t.type_input("x");
        assert!(t.read_ready());
        assert_eq!(t.process_read(10).unwrap(), b"x");
        assert_eq!(t.output_text(), "", "raw+noecho must not echo");
    }

    #[test]
    fn switching_to_raw_flushes_pending_line() {
        let mut t = Terminal::new();
        t.type_input("par");
        t.stty(TtyFlags::raw_noecho());
        assert_eq!(t.process_read(10).unwrap(), b"par");
    }

    #[test]
    fn mode_round_trip_for_restart() {
        // What restart does: gtty on the old terminal was saved in the
        // dump; stty applies it to the new terminal.
        let mut old = Terminal::new();
        old.stty(TtyFlags::raw_noecho());
        let saved = old.gtty();
        let mut new = Terminal::new();
        new.stty(saved);
        assert!(new.gtty().is_raw());
        assert!(!new.gtty().echoes());
    }

    #[test]
    fn degraded_pipe_ignores_stty() {
        let mut t = Terminal::remote_pipe();
        t.stty(TtyFlags::raw_noecho());
        assert!(!t.gtty().is_raw(), "rsh pipes cannot enter raw mode");
        // Input still needs full lines: a screen editor is useless here.
        t.type_input("q");
        assert!(!t.read_ready());
    }

    #[test]
    fn close_delivers_eof() {
        let mut t = Terminal::new();
        t.close();
        assert_eq!(t.process_read(10).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn process_write_applies_crmod() {
        let mut t = Terminal::new();
        t.process_write(b"a\nb");
        assert_eq!(t.output_text(), "a\r\nb");
        let mut r = Terminal::new();
        r.stty(TtyFlags::raw_noecho());
        r.process_write(b"a\nb");
        assert_eq!(r.output_text(), "a\nb");
    }

    #[test]
    fn handle_shares_state() {
        let h = TtyHandle::new(Terminal::new());
        let h2 = h.clone();
        h.type_input("hi\n");
        let got = h2.with(|t| t.process_read(100)).unwrap();
        assert_eq!(got, b"hi\n");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use simtime::rng::SplitMix64;

    /// Cases per property.
    const CASES: u32 = 64;

    /// In cooked mode, whatever full lines are typed come back as
    /// exactly those lines, one per read: one to seven lines of
    /// `[a-zA-Z0-9 ]{0,20}`.
    #[test]
    fn cooked_lines_round_trip() {
        let mut rng = SplitMix64::new(1);
        let alphabet = [b'a'..=b'z', b'A'..=b'Z', b'0'..=b'9', b' '..=b' '];
        for case in 0..CASES {
            let lines: Vec<String> = (0..1 + rng.below(7))
                .map(|_| rng.string(&alphabet, 0..=20))
                .collect();
            let mut t = Terminal::new();
            for l in &lines {
                t.type_input(&format!("{l}\n"));
            }
            for l in &lines {
                let got = t.process_read(256).expect("line ready");
                assert_eq!(got, format!("{l}\n").into_bytes(), "case {case}: {lines:?}");
            }
            assert_eq!(t.process_read(256), None, "case {case}: {lines:?}");
        }
    }

    /// In raw mode, bytes arrive exactly as typed, in order,
    /// regardless of read chunking: up to 64 printable ASCII
    /// characters, read in chunks of 1 to 15 bytes.
    #[test]
    fn raw_bytes_round_trip() {
        let mut rng = SplitMix64::new(2);
        for case in 0..CASES {
            let text = rng.string(&[b' '..=b'~'], 0..=64);
            let chunk = 1 + rng.below(15) as usize;
            let mut t = Terminal::new();
            t.stty(sysdefs::TtyFlags::raw_noecho());
            t.type_input(&text);
            let mut got = Vec::new();
            while let Some(bytes) = t.process_read(chunk) {
                if bytes.is_empty() {
                    break;
                }
                got.extend_from_slice(&bytes);
                if got.len() >= text.len() {
                    break;
                }
            }
            assert_eq!(got, text.as_bytes(), "case {case}: {text:?} by {chunk}");
        }
    }

    /// Erase handling never panics and never leaks erased characters
    /// into a delivered line: `[a-z]{0,8}` of noise erased, then a line
    /// of `[a-z]{1,8}`.
    #[test]
    fn erase_never_leaks() {
        let mut rng = SplitMix64::new(3);
        for case in 0..CASES {
            let keeps = rng.string(&[b'a'..=b'z'], 1..=8);
            let noise = rng.string(&[b'a'..=b'z'], 0..=8);
            let mut t = Terminal::new();
            t.type_input(&noise);
            for _ in 0..noise.len() + 2 {
                t.type_input("\x08");
            }
            t.type_input(&format!("{keeps}\n"));
            let got = t.process_read(256).expect("line");
            assert_eq!(
                got,
                format!("{keeps}\n").into_bytes(),
                "case {case}: {noise:?}"
            );
        }
    }
}
