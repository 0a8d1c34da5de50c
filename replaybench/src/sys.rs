//! Process clocks and counters read straight from the C library, so the
//! benchmark needs no extra crates and opens no files.

#[cfg(target_os = "linux")]
mod imp {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
        fn getrusage(who: i32, usage: *mut [i64; 18]) -> i32;
        fn sysconf(name: i32) -> i64;
    }

    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    const RUSAGE_SELF: i32 = 0;
    const SC_NPROCESSORS_ONLN: i32 = 84;

    pub fn process_cpu_ns() -> u64 {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable timespec.
        let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
        ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
    }

    pub fn peak_rss_kb() -> u64 {
        // struct rusage on 64-bit Linux: two timevals, then 14 longs;
        // ru_maxrss (KiB) is the first long.
        let mut ru = [0i64; 18];
        // SAFETY: `ru` is large enough for struct rusage.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
        assert_eq!(rc, 0, "getrusage failed");
        ru[4] as u64
    }

    pub fn nproc() -> usize {
        // SAFETY: sysconf has no memory-safety preconditions.
        let n = unsafe { sysconf(SC_NPROCESSORS_ONLN) };
        n.max(1) as usize
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    pub fn process_cpu_ns() -> u64 {
        0
    }
    pub fn peak_rss_kb() -> u64 {
        0
    }
    pub fn nproc() -> usize {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

/// CPU time consumed by every thread of this process, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    imp::process_cpu_ns()
}

/// Peak resident set of this process, in KiB.
pub fn peak_rss_kb() -> u64 {
    imp::peak_rss_kb()
}

/// Online processors.
pub fn nproc() -> usize {
    imp::nproc()
}
