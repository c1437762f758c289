//! The benchmark's phase clock: CPU time of the calling thread.
//!
//! The simulator is a single-threaded batch program, so on an idle host
//! its CPU time is its wall time. On a shared host the two part: the
//! wall clock also counts the periods in which other processes, or the
//! hypervisor (steal time, which the kernel leaves out of a task's run
//! time), hold the CPU. Phases and segments — everything an end-to-end
//! metric or a layer sum is made of — are therefore timed on this clock.
//! Single calls are timed with `Instant` (see `trace::elapsed_ns`): a
//! read of this clock is a system call, about 0.3 µs, too coarse next to
//! a microsecond-scale call.

/// A reading of the calling thread's CPU clock.
#[derive(Clone, Copy)]
pub struct CpuStamp(u64);

impl CpuStamp {
    pub fn now() -> Self {
        Self(thread_cpu_ns())
    }

    /// CPU nanoseconds the thread has run since `self`.
    pub fn elapsed_ns(self) -> u64 {
        thread_cpu_ns().saturating_sub(self.0)
    }
}

#[cfg(target_os = "linux")]
fn thread_cpu_ns() -> u64 {
    use std::ffi::{c_int, c_long};

    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    }
    const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two `long`s on
    // Linux), and the clock id is one Linux defines; the call writes
    // nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    u64::try_from(ts.tv_sec).unwrap_or(0) * 1_000_000_000 + u64::try_from(ts.tv_nsec).unwrap_or(0)
}

/// Elsewhere the wall clock stands in for the thread's CPU clock.
#[cfg(not(target_os = "linux"))]
fn thread_cpu_ns() -> u64 {
    use std::sync::OnceLock;
    use std::time::Instant;

    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    let origin = ORIGIN.get_or_init(Instant::now);
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}
