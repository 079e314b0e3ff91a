//! Process resource usage (CPU seconds and peak resident set size), and
//! CPU pinning.

/// CPU time (user plus system) and peak RSS of this process so far.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Usage {
    /// User plus system CPU seconds.
    pub cpu_s: f64,
    /// Peak resident set size in MiB.
    pub peak_rss_mb: f64,
}

#[cfg(target_os = "linux")]
mod ffi {
    #[repr(C)]
    pub struct Timeval {
        pub sec: i64,
        pub usec: i64,
    }

    /// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
    /// `long`s of which `ru_maxrss` (in KiB) is the first.
    #[repr(C)]
    pub struct Rusage {
        pub utime: Timeval,
        pub stime: Timeval,
        pub maxrss: i64,
        pub rest: [i64; 13],
    }

    pub const RUSAGE_SELF: i32 = 0;

    extern "C" {
        pub fn getrusage(who: i32, usage: *mut Rusage) -> i32;
        pub fn sched_getcpu() -> i32;
        pub fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
}

/// Reads `getrusage(RUSAGE_SELF)`.
#[cfg(target_os = "linux")]
pub fn usage() -> Usage {
    const _: () = assert!(std::mem::size_of::<usize>() == 8, "64-bit Linux only");
    let mut raw = ffi::Rusage {
        utime: ffi::Timeval { sec: 0, usec: 0 },
        stime: ffi::Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `raw` is a live, writable `struct rusage` with the 64-bit
    // Linux layout (checked above), and RUSAGE_SELF is a valid `who`.
    let rc = unsafe { ffi::getrusage(ffi::RUSAGE_SELF, &mut raw) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let secs = |t: &ffi::Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    Usage {
        cpu_s: secs(&raw.utime) + secs(&raw.stime),
        peak_rss_mb: raw.maxrss as f64 / 1024.0,
    }
}

/// Pins this thread, and every thread it starts afterwards, to the CPU it
/// runs on now, and returns that CPU. The reference computation that
/// paces the benchmark's times (see `pace`) then runs on the same CPU as
/// every thread of the system under test. `None` if the CPU cannot be
/// pinned.
#[cfg(target_os = "linux")]
pub fn pin_to_current_cpu() -> Option<usize> {
    // SAFETY: `sched_getcpu` takes no arguments and only reads.
    let cpu = usize::try_from(unsafe { ffi::sched_getcpu() }).ok()?;
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live `cpu_set_t`-sized bitmask of the given
    // size, and pid 0 names the calling thread.
    let rc = unsafe { ffi::sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// CPUs are only pinned on Linux.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_current_cpu() -> Option<usize> {
    None
}

/// Resource usage is only read on Linux; elsewhere it reports zeros.
#[cfg(not(target_os = "linux"))]
pub fn usage() -> Usage {
    Usage {
        cpu_s: 0.0,
        peak_rss_mb: 0.0,
    }
}
