//! The Sun-2-calibrated cost model.
//!
//! Every constant here is an estimate for a ~1 MIPS Sun-2 workstation with
//! a local SCSI-era disk doing synchronous directory writes, on a 10 Mbit
//! Ethernet, circa 1987. The constants are deliberately *component-level*
//! (a syscall trap, a directory lookup, a byte copied) so that the paper's
//! figure ratios emerge from how much component work each operation
//! performs rather than being asserted directly.
//!
//! Costs separate **CPU time** (charged to the running process and to the
//! machine, the paper's "system CPU execution time") from **wait time**
//! (disk rotation/seek, network propagation — elapsed real time during
//! which the CPU is free). Figure 1 measures CPU only; Figures 2-4 report
//! both CPU and real time, which is exactly the split that makes
//! `dumpproc`'s 4x CPU vs 6x real discrepancy visible.

use crate::clock::SimDuration;

/// A cost: CPU time charged to the caller plus non-CPU wait time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Cost {
    /// Time the CPU is busy on behalf of the operation.
    pub cpu: SimDuration,
    /// Additional elapsed time during which the CPU is *not* busy
    /// (device waits). Real time for the operation is `cpu + wait`.
    pub wait: SimDuration,
}

impl Cost {
    /// A pure-CPU cost.
    pub const fn cpu_us(us: u64) -> Cost {
        Cost {
            cpu: SimDuration::micros(us),
            wait: SimDuration::ZERO,
        }
    }

    /// A pure-wait cost.
    pub const fn wait_us(us: u64) -> Cost {
        Cost {
            cpu: SimDuration::ZERO,
            wait: SimDuration::micros(us),
        }
    }

    /// The zero cost.
    pub const ZERO: Cost = Cost {
        cpu: SimDuration::ZERO,
        wait: SimDuration::ZERO,
    };

    /// Total elapsed (real) time of the operation.
    pub fn real(self) -> SimDuration {
        self.cpu + self.wait
    }

    /// Component-wise sum.
    pub fn plus(self, other: Cost) -> Cost {
        Cost {
            cpu: self.cpu + other.cpu,
            wait: self.wait + other.wait,
        }
    }
}

/// The tunable constants of the simulated hardware and kernel.
///
/// Each field documents its calibration anchor. [`CostModel::sun2`] is the
/// configuration used by every experiment in EXPERIMENTS.md.
#[derive(Clone, Debug)]
pub struct CostModel {
    /// Micro-seconds per simple VM instruction. Sun-2 (10 MHz MC68010)
    /// executed roughly one million simple instructions per second.
    pub instr_us: u64,
    /// System-call trap entry + exit (mode switch, register save/restore,
    /// argument fetch). ~150 us on a Sun-2.
    pub syscall_trap_us: u64,
    /// CPU cost of looking up one path component in the (cached) namei
    /// path: directory scan and inode check.
    pub namei_component_cpu_us: u64,
    /// Average disk wait per path component for lookups that miss the
    /// buffer cache. Applied per component on first touch of a file.
    pub namei_component_disk_us: u64,
    /// Allocating or freeing a slot in the system open-file table and the
    /// per-process descriptor array.
    pub file_struct_op_us: u64,
    /// One call to the kernel memory allocator (the paper's §5.1 uses it
    /// for the dynamically allocated file-name strings).
    pub kernel_malloc_us: u64,
    /// Releasing kernel allocator memory on `close()`.
    pub kernel_free_us: u64,
    /// Kernel byte-at-a-time string/structure copy, per byte. This prices
    /// the paper's path-name bookkeeping: copying names into the `user`
    /// and `file` structures.
    pub copy_per_byte_us: u64,
    /// Fixed cost of the cwd-combination logic the paper adds to
    /// `chdir()`: deciding absolute vs relative and splicing `.`/`..`.
    pub path_combine_us: u64,
    /// CPU part of creating a file: inode allocation and directory
    /// update code (filesystem code was a real CPU burner at 1 MIPS).
    pub disk_create_cpu_us: u64,
    /// Wait part of creating a file: the two synchronous directory
    /// writes 4.2BSD-era filesystems performed.
    pub disk_create_wait_us: u64,
    /// Seek + rotational latency when a transfer to a file begins.
    pub disk_seek_us: u64,
    /// Disk write, per byte (~0.4 MB/s effective on a Sun-2 shoebox disk).
    pub disk_write_per_byte_us: u64,
    /// Disk read, per byte (reads stream a little faster than synchronous
    /// writes).
    pub disk_read_per_byte_us: u64,
    /// CPU part of the final flush of a written file.
    pub disk_sync_close_cpu_us: u64,
    /// Wait part of the final flush of a written file.
    pub disk_sync_close_wait_us: u64,
    /// A full context switch between processes.
    pub context_switch_us: u64,
    /// Scheduler quantum: how long a process runs before preemption.
    pub quantum_us: u64,
    /// Posting and taking a signal (not counting what the action then
    /// does).
    pub signal_delivery_us: u64,
    /// Process teardown in `exit()`: closing descriptors is billed
    /// separately; this is the proc/user structure release.
    pub proc_teardown_us: u64,
    /// Fixed part of `fork()`; the copied bytes are billed per byte.
    pub fork_base_us: u64,
    /// Fixed part of `execve()`: argument shuffling, old image release,
    /// header validation, page table setup.
    pub exec_base_us: u64,
    /// Ethernet propagation + controller latency per frame.
    pub ether_latency_us: u64,
    /// Ethernet transfer per byte (10 Mbit/s is 1.25 MB/s; protocol
    /// overhead brings it to ~0.9 MB/s effective).
    pub ether_per_byte_us: u64,
    /// Client + server CPU per NFS/RPC round trip (XDR encode/decode,
    /// server dispatch).
    pub rpc_overhead_cpu_us: u64,
    /// Name (YP/hosts) lookup performed by `rsh` before connecting.
    pub rsh_name_lookup_us: u64,
    /// TCP connection establishment to `rshd` (privileged port dance).
    pub rsh_connect_us: u64,
    /// `rshd` authentication: reverse lookup plus `.rhosts`/`hosts.equiv`
    /// checks (several disk and network round trips).
    pub rsh_auth_us: u64,
    /// `rshd` forking and `exec`ing the shell and remote command.
    pub rsh_spawn_us: u64,
    /// Connection teardown and exit-status plumbing.
    pub rsh_teardown_us: u64,
    /// The in-kernel body of a "quick" system call — one that only reads
    /// or updates a field of the proc/user structure (`getpid`, `alarm`,
    /// `sigsetmask`, `lseek`, ...). Small next to the trap cost, but not
    /// zero: simlint's charging rule insists every handler charges for
    /// its own work.
    pub quick_call_us: u64,
}

impl CostModel {
    /// The Sun-2 calibration used throughout the evaluation.
    pub fn sun2() -> CostModel {
        CostModel {
            instr_us: 1,
            syscall_trap_us: 300,
            namei_component_cpu_us: 400,
            namei_component_disk_us: 9_000,
            file_struct_op_us: 200,
            kernel_malloc_us: 500,
            kernel_free_us: 250,
            copy_per_byte_us: 4,
            path_combine_us: 230,
            disk_create_cpu_us: 12_000,
            disk_create_wait_us: 70_000,
            disk_seek_us: 15_000,
            disk_write_per_byte_us: 3,
            disk_read_per_byte_us: 1,
            disk_sync_close_cpu_us: 4_000,
            disk_sync_close_wait_us: 25_000,
            context_switch_us: 2_000,
            quantum_us: 100_000,
            signal_delivery_us: 300,
            proc_teardown_us: 2_000,
            fork_base_us: 5_000,
            exec_base_us: 15_000,
            ether_latency_us: 1_000,
            ether_per_byte_us: 1,
            rpc_overhead_cpu_us: 2_000,
            rsh_name_lookup_us: 1_200_000,
            rsh_connect_us: 1_200_000,
            rsh_auth_us: 3_000_000,
            rsh_spawn_us: 2_400_000,
            rsh_teardown_us: 1_200_000,
            quick_call_us: 50,
        }
    }

    /// Cost of executing `n` simple VM instructions.
    pub fn instructions(&self, n: u64) -> Cost {
        Cost::cpu_us(self.instr_us.saturating_mul(n))
    }

    /// The trap in and out of the kernel for one system call.
    pub fn syscall_trap(&self) -> Cost {
        Cost::cpu_us(self.syscall_trap_us)
    }

    /// Looking up `components` path components; `cold` components also pay
    /// the buffer-cache-miss disk wait.
    pub fn namei(&self, components: usize, cold: bool) -> Cost {
        let n = components as u64;
        Cost {
            cpu: SimDuration::micros(self.namei_component_cpu_us * n),
            wait: if cold {
                SimDuration::micros(self.namei_component_disk_us * n)
            } else {
                SimDuration::ZERO
            },
        }
    }

    /// Allocating or freeing descriptor-table and file-table slots.
    pub fn file_struct_op(&self) -> Cost {
        Cost::cpu_us(self.file_struct_op_us)
    }

    /// One kernel allocator call (the paper's dynamic name strings).
    pub fn kernel_malloc(&self) -> Cost {
        Cost::cpu_us(self.kernel_malloc_us)
    }

    /// One kernel allocator release.
    pub fn kernel_free(&self) -> Cost {
        Cost::cpu_us(self.kernel_free_us)
    }

    /// Copying `n` bytes inside the kernel.
    pub fn copy_bytes(&self, n: usize) -> Cost {
        Cost::cpu_us(self.copy_per_byte_us.saturating_mul(n as u64))
    }

    /// The cwd-combination bookkeeping added to `chdir()`/`open()`.
    pub fn path_combine(&self) -> Cost {
        Cost::cpu_us(self.path_combine_us)
    }

    /// Creating a new file on disk (synchronous directory update).
    pub fn disk_create(&self) -> Cost {
        Cost {
            cpu: SimDuration::micros(self.disk_create_cpu_us),
            wait: SimDuration::micros(self.disk_create_wait_us),
        }
    }

    /// Writing `n` bytes to disk, including the initial seek.
    pub fn disk_write(&self, n: usize) -> Cost {
        Cost {
            // Writing through the buffer cache costs real CPU on a
            // 1 MIPS machine: about a micro-second per byte.
            cpu: SimDuration::micros(n as u64),
            wait: SimDuration::micros(self.disk_seek_us + self.disk_write_per_byte_us * n as u64),
        }
    }

    /// Reading `n` bytes from disk, including the initial seek.
    pub fn disk_read(&self, n: usize) -> Cost {
        Cost {
            cpu: SimDuration::micros((n as u64) / 2),
            wait: SimDuration::micros(self.disk_seek_us + self.disk_read_per_byte_us * n as u64),
        }
    }

    /// Final flush of a written file.
    pub fn disk_sync_close(&self) -> Cost {
        Cost {
            cpu: SimDuration::micros(self.disk_sync_close_cpu_us),
            wait: SimDuration::micros(self.disk_sync_close_wait_us),
        }
    }

    /// One context switch.
    pub fn context_switch(&self) -> Cost {
        Cost::cpu_us(self.context_switch_us)
    }

    /// Posting/taking a signal.
    pub fn signal_delivery(&self) -> Cost {
        Cost::cpu_us(self.signal_delivery_us)
    }

    /// Releasing the proc/user structures at exit.
    pub fn proc_teardown(&self) -> Cost {
        Cost::cpu_us(self.proc_teardown_us)
    }

    /// `fork()` copying `image_bytes` of data + stack.
    pub fn fork(&self, image_bytes: usize) -> Cost {
        Cost::cpu_us(self.fork_base_us).plus(self.copy_bytes(image_bytes))
    }

    /// The fixed part of `execve()`.
    pub fn exec_base(&self) -> Cost {
        Cost::cpu_us(self.exec_base_us)
    }

    /// Shipping `n` bytes as one network message.
    pub fn ether_message(&self, n: usize) -> Cost {
        Cost {
            cpu: SimDuration::micros(200), // Driver + protocol CPU.
            wait: SimDuration::micros(self.ether_latency_us + self.ether_per_byte_us * n as u64),
        }
    }

    /// One NFS/RPC round trip carrying `req` request and `resp` reply bytes.
    pub fn rpc(&self, req: usize, resp: usize) -> Cost {
        Cost::cpu_us(self.rpc_overhead_cpu_us)
            .plus(self.ether_message(req))
            .plus(self.ether_message(resp))
    }

    /// The body of a quick, proc-structure-only system call.
    pub fn quick_call(&self) -> Cost {
        Cost::cpu_us(self.quick_call_us)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::sun2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_algebra() {
        let a = Cost::cpu_us(100).plus(Cost::wait_us(50));
        assert_eq!(a.cpu.as_micros(), 100);
        assert_eq!(a.wait.as_micros(), 50);
        assert_eq!(a.real().as_micros(), 150);
    }

    #[test]
    fn namei_cold_pays_disk() {
        let m = CostModel::sun2();
        let warm = m.namei(3, false);
        let cold = m.namei(3, true);
        assert_eq!(warm.cpu, cold.cpu);
        assert_eq!(warm.wait, SimDuration::ZERO);
        assert!(cold.wait > SimDuration::ZERO);
    }

    #[test]
    fn disk_write_scales_with_bytes() {
        let m = CostModel::sun2();
        let small = m.disk_write(1_000);
        let big = m.disk_write(100_000);
        assert!(big.wait > small.wait);
        assert!(big.real() > small.real());
    }

    #[test]
    fn instructions_scale_linearly() {
        let m = CostModel::sun2();
        assert_eq!(m.instructions(1_000).cpu.as_micros(), 1_000 * m.instr_us);
    }
}
