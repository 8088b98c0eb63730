//! The benchmark's clock, and the resource usage of this process and
//! its reaped children (the dispatched legs) via `getrusage(2)`.

use std::time::Instant;

/// The clock every benchmark timing reads. Timings are outputs only:
/// no reading ever reaches the program's inputs.
pub fn now() -> Instant {
    // determinism: wallclock(benchmark timings are outputs; the program's inputs come from the seed alone)
    Instant::now()
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 longs of
/// which only the first (`ru_maxrss`, KiB) is read here.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

fn usage(who: i32) -> Rusage {
    let mut u = Rusage::default();
    // SAFETY: `u` is a live, writable `struct rusage` of the platform
    // layout (`repr(C)`, 144 bytes on 64-bit Linux) and `who` is one of
    // the two constants the call accepts.
    let rc = unsafe { getrusage(who, &mut u) };
    assert_eq!(rc, 0, "getrusage failed for who={who}");
    u
}

fn cpu_of(u: &Rusage) -> f64 {
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(&u.utime) + secs(&u.stime)
}

/// User + system CPU seconds of this process plus every reaped child.
pub fn cpu_s() -> f64 {
    cpu_of(&usage(RUSAGE_SELF)) + cpu_of(&usage(RUSAGE_CHILDREN))
}

/// Peak resident memory (MiB): this process's high-water mark plus the
/// largest reaped child's.
pub fn peak_rss_mb() -> f64 {
    (usage(RUSAGE_SELF).maxrss + usage(RUSAGE_CHILDREN).maxrss) as f64 / 1024.0
}
