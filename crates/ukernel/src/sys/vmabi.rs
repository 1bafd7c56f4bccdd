//! The VM system-call ABI: decoding `TRAP #0` and writing results back.
//!
//! Convention (old-Unix flavoured):
//!
//! * syscall number in `d0`, arguments in `d1..d5`;
//! * strings are NUL-terminated guest pointers;
//! * on return, `d0` holds the result and the carry flag is clear; on
//!   failure `d0` holds the errno and carry is set.

use m68vm::{Cpu, Fault, Memory};
use sysdefs::{Disposition, Errno, Sysno};

use crate::sys::args::{IoctlReq, SysRetval, Syscall, Whence};

/// Carry bit of the status register.
const CARRY: u16 = 0x01;

/// Encoded length of a `trap #0` instruction (base word + immediate
/// extension), used to back the pc up for syscall restart.
pub const TRAP_LEN: u32 = 8;

fn cstr(mem: &Memory, addr: u32) -> Result<String, Errno> {
    if addr == 0 {
        return Err(Errno::EFAULT);
    }
    mem.read_cstr(addr, sysdefs::MAXPATHLEN)
        .map_err(|_| Errno::EFAULT)
}

/// The first absent byte of a demand-restored image that the trapped
/// call's guest-memory arguments span: path strings up to their NUL,
/// the buffers `write` copies in and `read`, `readlink`,
/// `gethostname` and `getwd` copy out, and the result pointers of
/// `wait` and `gettimeofday`. The kernel faults that page in and runs
/// the trap again before decoding, so copy-in never sees a hole as
/// `EFAULT` and copy-out never drops bytes into one.
pub fn absent_arg(cpu: &Cpu, mem: &Memory) -> Option<u32> {
    if !mem.has_absent() {
        return None;
    }
    let path = |addr: u32| match mem.read_cstr(addr, sysdefs::MAXPATHLEN) {
        Err(Fault::PageAbsent { addr }) => Some(addr),
        _ => None,
    };
    let (a1, a2, a3) = (cpu.d[1], cpu.d[2], cpu.d[3]);
    match Sysno::from_number(cpu.d[0]).ok()? {
        Sysno::Open
        | Sysno::Creat
        | Sysno::Unlink
        | Sysno::Chdir
        | Sysno::Stat
        | Sysno::Execve
        | Sysno::Mkdir => path(a1),
        Sysno::Link | Sysno::Symlink | Sysno::RestProc => path(a1).or_else(|| path(a2)),
        Sysno::Readlink => path(a1).or_else(|| mem.first_absent(a2, a3)),
        Sysno::Read | Sysno::Write => mem.first_absent(a2, a3),
        Sysno::Gethostname | Sysno::GethostnameReal | Sysno::Getwd => mem.first_absent(a1, a2),
        // The wait status is one long word; the time is two.
        Sysno::Wait if a1 != 0 => mem.first_absent(a1, 4),
        Sysno::Gettimeofday if a1 != 0 => mem.first_absent(a1, 8),
        _ => None,
    }
}

/// Decodes the system call a VM process just trapped with.
pub fn decode_trap(cpu: &Cpu, mem: &Memory) -> Result<Syscall, Errno> {
    let no = Sysno::from_number(cpu.d[0])?;
    let a1 = cpu.d[1];
    let a2 = cpu.d[2];
    let a3 = cpu.d[3];
    Ok(match no {
        Sysno::Exit => Syscall::Exit { status: a1 },
        Sysno::Fork => Syscall::Fork,
        Sysno::Read => Syscall::Read {
            fd: a1 as usize,
            len: a3 as usize,
            buf_addr: Some(a2),
        },
        Sysno::Write => {
            let bytes = mem
                .read_bytes(a2, a3)
                .map_err(|_| Errno::EFAULT)?
                .into_owned();
            Syscall::Write {
                fd: a1 as usize,
                bytes,
            }
        }
        Sysno::Open => Syscall::Open {
            path: cstr(mem, a1)?,
            flags: a2 as u16,
            // Creation mode travels in d3; without CREAT the handler
            // ignores it (and old guests leave the register garbage).
            mode: a3 as u16,
        },
        Sysno::Creat => Syscall::Creat {
            path: cstr(mem, a1)?,
            mode: a2 as u16,
        },
        Sysno::Close => Syscall::Close { fd: a1 as usize },
        Sysno::Wait => Syscall::Wait,
        Sysno::Link => Syscall::Link {
            old: cstr(mem, a1)?,
            new: cstr(mem, a2)?,
        },
        Sysno::Unlink => Syscall::Unlink {
            path: cstr(mem, a1)?,
        },
        Sysno::Chdir => Syscall::Chdir {
            path: cstr(mem, a1)?,
        },
        Sysno::Stat => Syscall::Stat {
            path: cstr(mem, a1)?,
        },
        Sysno::Lseek => Syscall::Lseek {
            fd: a1 as usize,
            offset: a2 as i32 as i64,
            whence: Whence::from_u32(a3)?,
        },
        Sysno::Getpid => Syscall::Getpid,
        Sysno::Getuid => Syscall::Getuid,
        Sysno::Kill => Syscall::Kill { pid: a1, sig: a2 },
        Sysno::Dup => Syscall::Dup { fd: a1 as usize },
        Sysno::Pipe => Syscall::Pipe,
        Sysno::Socket => Syscall::Socket,
        Sysno::Ioctl => Syscall::Ioctl {
            fd: a1 as usize,
            req: match a2 {
                0 => IoctlReq::Gtty,
                1 => IoctlReq::Stty(sysdefs::TtyFlags::from_bits(a3 as u16)),
                _ => return Err(Errno::EINVAL),
            },
        },
        Sysno::Symlink => Syscall::Symlink {
            target: cstr(mem, a1)?,
            link: cstr(mem, a2)?,
        },
        Sysno::Readlink => Syscall::Readlink {
            path: cstr(mem, a1)?,
            buf_addr: Some(a2),
            buf_len: a3 as usize,
        },
        Sysno::Execve => Syscall::Execve {
            path: cstr(mem, a1)?,
        },
        Sysno::Gethostname => Syscall::Gethostname {
            buf_addr: Some(a1),
            buf_len: a2 as usize,
        },
        Sysno::Sigvec => Syscall::Sigvec {
            sig: a1,
            disp: match a2 {
                0 => Disposition::Default,
                1 => Disposition::Ignore,
                addr => Disposition::Handler(addr),
            },
        },
        Sysno::Sigsetmask => Syscall::Sigsetmask { mask: a1 },
        Sysno::Alarm => Syscall::Alarm { secs: a1 },
        Sysno::Gettimeofday => Syscall::Gettimeofday,
        Sysno::Setreuid => Syscall::Setreuid { ruid: a1, euid: a2 },
        Sysno::Mkdir => Syscall::Mkdir {
            path: cstr(mem, a1)?,
            mode: a2 as u16,
        },
        Sysno::Sigreturn => Syscall::Sigreturn,
        Sysno::Sleep => Syscall::Sleep { micros: a1 as u64 },
        Sysno::RestProc => Syscall::RestProc {
            aout: cstr(mem, a1)?,
            stack: cstr(mem, a2)?,
            old_pid: None,
            old_host: None,
            demand: false,
        },
        Sysno::GetpidReal => Syscall::GetpidReal,
        Sysno::GethostnameReal => Syscall::GethostnameReal {
            buf_addr: Some(a1),
            buf_len: a2 as usize,
        },
        Sysno::Getwd => Syscall::Getwd {
            buf_addr: Some(a1),
            buf_len: a2 as usize,
        },
    })
}

/// Writes a completed call's result into the VM: `d0` + carry, plus any
/// returned bytes into the call's guest buffer.
pub fn writeback(cpu: &mut Cpu, mem: &mut Memory, sc: &Syscall, ret: &SysRetval) {
    match ret.val {
        Ok(v) => {
            cpu.d[0] = v;
            cpu.sr &= !CARRY;
        }
        Err(e) => {
            cpu.d[0] = e.as_u16() as u32;
            cpu.sr |= CARRY;
            return;
        }
    }
    // Copy out data for buffer-filling calls.
    let target: Option<u32> = match sc {
        Syscall::Read { buf_addr, .. }
        | Syscall::Readlink { buf_addr, .. }
        | Syscall::Gethostname { buf_addr, .. }
        | Syscall::GethostnameReal { buf_addr, .. }
        | Syscall::Getwd { buf_addr, .. } => *buf_addr,
        // wait(2): the status pointer travels in d1; 0 means "not
        // interested".
        Syscall::Wait => (cpu.d[1] != 0).then_some(cpu.d[1]),
        // gettimeofday: optional u64 buffer in d1 (hi then lo words).
        Syscall::Gettimeofday => (cpu.d[1] != 0).then_some(cpu.d[1]),
        _ => None,
    };
    if let Some(addr) = target {
        if !ret.data.is_empty() {
            let _ = mem.write_bytes(addr, &ret.data);
        }
        if matches!(sc, Syscall::Gettimeofday) {
            // data holds the high word; append the low word after it.
            let _ = mem.write_u32(addr + 4, cpu.d[0]);
        }
    }
}

/// Writes a failure without touching buffers, for decode errors.
pub fn write_errno(cpu: &mut Cpu, e: Errno) {
    cpu.d[0] = e.as_u16() as u32;
    cpu.sr |= CARRY;
}

#[cfg(test)]
mod tests {
    use super::*;
    use m68vm::{Memory, MemoryLayout};

    fn setup() -> (Cpu, Memory) {
        let mem = Memory::new(vec![0; 64], vec![0; 256], 0);
        let cpu = Cpu::at_entry(MemoryLayout::TEXT_BASE);
        (cpu, mem)
    }

    #[test]
    fn decode_open_reads_path_string() {
        let (mut cpu, mut mem) = setup();
        let d = mem.data_base();
        mem.write_bytes(d, b"/etc/motd\0").unwrap();
        cpu.d[0] = Sysno::Open.number();
        cpu.d[1] = d;
        cpu.d[2] = 2;
        cpu.d[3] = 0o640;
        let sc = decode_trap(&cpu, &mem).unwrap();
        assert_eq!(
            sc,
            Syscall::Open {
                path: "/etc/motd".into(),
                flags: 2,
                mode: 0o640
            }
        );
    }

    #[test]
    fn decode_write_copies_bytes() {
        let (mut cpu, mut mem) = setup();
        let d = mem.data_base();
        mem.write_bytes(d, b"hello").unwrap();
        cpu.d[0] = Sysno::Write.number();
        cpu.d[1] = 1;
        cpu.d[2] = d;
        cpu.d[3] = 5;
        let sc = decode_trap(&cpu, &mem).unwrap();
        assert_eq!(
            sc,
            Syscall::Write {
                fd: 1,
                bytes: b"hello".to_vec()
            }
        );
    }

    #[test]
    fn null_pointer_is_efault() {
        let (mut cpu, mem) = setup();
        cpu.d[0] = Sysno::Open.number();
        cpu.d[1] = 0;
        assert_eq!(decode_trap(&cpu, &mem), Err(Errno::EFAULT));
    }

    #[test]
    fn unknown_number_is_einval() {
        let (mut cpu, mem) = setup();
        cpu.d[0] = 9999;
        assert_eq!(decode_trap(&cpu, &mem), Err(Errno::EINVAL));
    }

    #[test]
    fn writeback_success_and_failure() {
        let (mut cpu, mut mem) = setup();
        let sc = Syscall::Getpid;
        writeback(&mut cpu, &mut mem, &sc, &SysRetval::ok(42));
        assert_eq!(cpu.d[0], 42);
        assert_eq!(cpu.sr & CARRY, 0);
        writeback(&mut cpu, &mut mem, &sc, &SysRetval::err(Errno::EBADF));
        assert_eq!(cpu.d[0], Errno::EBADF.as_u16() as u32);
        assert_ne!(cpu.sr & CARRY, 0);
    }

    #[test]
    fn writeback_copies_read_data_to_guest_buffer() {
        let (mut cpu, mut mem) = setup();
        let d = mem.data_base();
        let sc = Syscall::Read {
            fd: 0,
            len: 16,
            buf_addr: Some(d),
        };
        writeback(
            &mut cpu,
            &mut mem,
            &sc,
            &SysRetval::with_data(3, b"abc".to_vec()),
        );
        assert_eq!(cpu.d[0], 3);
        assert_eq!(*mem.read_bytes(d, 3).unwrap(), *b"abc");
    }

    #[test]
    fn trap_len_matches_encoding() {
        use m68vm::{Instr, Op, Operand, Size};
        let i = Instr::new(Op::Trap, Size::Long, Operand::Imm(0), Operand::None);
        assert_eq!(i.encoded_len(), TRAP_LEN);
    }
}
