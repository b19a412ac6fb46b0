//! Measuring primitives: percentiles with a sample floor, zero-safe ratios,
//! process/thread CPU clocks, peak RSS, CPU placement and a seeded
//! generator.
//!
//! The clocks, `poll`, `prctl` and the scheduler calls are the C library's
//! own entry points (linked by `std` anyway), declared here so the benchmark
//! needs no crate beyond the repository's own.

use std::time::Instant;

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `q` of the samples at or below it. `None` when empty.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Samples a tail percentile `q` needs so that at least ten samples lie
/// beyond it (p90 → 100, p99 → 1000).
pub fn tail_floor(q: f64) -> usize {
    (10.0 / (1.0 - q)).round() as usize
}

/// A tail percentile, refused (`None`) below its ten-beyond sample floor.
pub fn tail(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.len() < tail_floor(q) {
        return None;
    }
    percentile(sorted, q)
}

/// Median of an ascending slice (0 when empty).
pub fn median(sorted: &[u64]) -> u64 {
    percentile(sorted, 0.5).unwrap_or(0)
}

/// `num / den`, defined as 0 when the base is 0 (a ratio of nothing).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Sorts a sample vector in place and returns it.
pub fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

/// Nanoseconds since `base`.
pub fn ns_since(base: Instant) -> u64 {
    base.elapsed().as_nanos() as u64
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `poll(2)` descriptor.
#[repr(C)]
pub struct PollFd {
    pub fd: i32,
    pub events: i16,
    pub revents: i16,
}

/// Readable data (`POLLIN`).
pub const POLLIN: i16 = 0x1;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn prctl(option: i32, ...) -> i32;
    fn poll(fds: *mut PollFd, nfds: u64, timeout_ms: i32) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const PR_SET_TIMERSLACK: i32 = 29;

fn clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec; the clock ids are the
    // Linux constants for the process and calling-thread CPU clocks.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// User+system CPU time of the whole process, in ns.
pub fn process_cpu_ns() -> u64 {
    clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// User+system CPU time of the calling thread, in ns.
pub fn thread_cpu_ns() -> u64 {
    clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Sets the calling thread's timer slack to 1 ns, so a load generator's
/// sleeps end when due instead of up to the default 50 µs later.
pub fn tight_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and only
    // changes the calling thread's timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

/// `poll(2)` over `fds` with a millisecond timeout; returns the ready count.
pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> std::io::Result<usize> {
    // SAFETY: `fds` is a valid, exclusively borrowed array of `pollfd`s of
    // the given length for the duration of the call.
    let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
    if n < 0 {
        Err(std::io::Error::last_os_error())
    } else {
        Ok(n as usize)
    }
}

/// Restricts the calling thread, and the threads it creates afterwards, to
/// the highest-numbered CPU it may use (the one the kernel's own
/// housekeeping favours least). Returns that CPU, or `None` when the
/// affinity could not be read or set.
pub fn pin_to_last_cpu() -> Option<usize> {
    let mut mask = [0u64; 16]; // a 1024-CPU `cpu_set_t`
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable `cpu_set_t`-sized bitmap; pid 0 names
    // the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..1024)
        .rev()
        .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; `one` outlives the call.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

/// Moves the calling thread to the `SCHED_IDLE` policy: it runs only when
/// nothing else on its CPU can, and any waking thread preempts it at once.
pub fn idle_priority() -> bool {
    const SCHED_IDLE: i32 = 5;
    let priority = 0i32; // `struct sched_param { int sched_priority; }`
                         // SAFETY: `priority` is a valid `sched_param` for the call; pid 0 names
                         // the calling thread.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) == 0 }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

/// splitmix64: a small seeded generator, so inputs are a function of the
/// seed alone.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1].
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), Some(50));
        assert_eq!(percentile(&v, 0.9), Some(90));
        assert_eq!(percentile(&v, 0.99), Some(99));
        assert_eq!(percentile(&v, 1.0), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&[7], 0.99), Some(7));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[]), 0);
    }

    #[test]
    fn tail_refuses_below_its_sample_floor() {
        assert_eq!(tail_floor(0.9), 100);
        assert_eq!(tail_floor(0.99), 1000);
        let v: Vec<u64> = (1..=99).collect();
        assert_eq!(
            tail(&v, 0.9),
            None,
            "99 samples leave fewer than 10 beyond p90"
        );
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(tail(&v, 0.9), Some(90));
        let v: Vec<u64> = (1..=999).collect();
        assert_eq!(tail(&v, 0.99), None);
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail(&v, 0.99), Some(990));
    }

    #[test]
    fn ratio_with_zero_base_is_zero() {
        assert_eq!(ratio(0.0, 0.0), 0.0);
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }

    #[test]
    fn clocks_advance_and_rss_is_read() {
        let (p0, t0) = (process_cpu_ns(), thread_cpu_ns());
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(process_cpu_ns() > p0 && thread_cpu_ns() > t0, "{x}");
        assert!(peak_rss_mib() > 0.0);
    }

    #[test]
    fn rng_is_a_function_of_the_seed() {
        let a: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let c: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(8);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
