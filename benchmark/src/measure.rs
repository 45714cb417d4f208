//! Process-level measurements and the order statistics the report uses.

use std::time::{Duration, Instant};

/// CPU time (user + system, all threads) this process has used so far.
///
/// Read from `CLOCK_PROCESS_CPUTIME_ID`, which has nanosecond resolution;
/// the tick-granular counters of `/proc/self/stat` are too coarse for the
/// short replay calls the benchmark times one by one.
pub fn process_cpu() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark builds for), and
    // `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always available on Linux"
    );
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
///
/// # Errors
///
/// Returns a description when `/proc/self/status` is unreadable or lacks
/// the field.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("/proc/self/status has no VmHWM line")?;
    Ok(kb / 1024.0)
}

/// Wall time of perfgate's pinned host-speed yardstick (a fixed xorshift64*
/// loop no workspace change can touch), in milliseconds. Timed at the start
/// and end of a run, it shows host drift inside the run.
pub fn calibration_ms() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for _ in 0..5_000_000 {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        x = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// First quartile, median and third quartile of `values`, with the
/// quartiles computed like Python's `statistics.quantiles(values, n=4)`
/// (the "exclusive" method) so numbers can be checked against it.
///
/// # Panics
///
/// Panics on an empty slice or a NaN value.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in measurements"));
    let n = v.len();
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    if n == 1 {
        return (v[0], median, v[0]);
    }
    let m = n + 1;
    let quantile = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (quantile(1), median, quantile(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }

    #[test]
    fn process_cpu_advances_with_work() {
        let before = process_cpu();
        std::hint::black_box(calibration_ms());
        assert!(process_cpu() > before);
    }
}
