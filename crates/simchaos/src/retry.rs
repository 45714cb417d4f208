//! Bounded retry with exponential backoff and deterministic jitter.
//!
//! The schedule mirrors what a production store would do about transient
//! environment faults — retry a handful of times with growing, jittered
//! delays — but keeps the harness's reproducibility discipline: the jitter
//! comes from `SimRng::derive(seed, [op, attempt])`, not a wall clock, so
//! the backoff sequence is a pure function of the operation index.
//!
//! There is one schedule: at most [`MAX_ATTEMPTS`] attempts, backoff
//! starting at 2 ms and doubling per retry up to 50 ms, plus up to a quarter
//! of that in jitter.
//!
//! Retries are silent: the caller sees the first success or the final
//! error. How many faults fired is the injecting layer's count
//! ([`crate::ChaosFs::injected`]).

use std::io;
use std::time::Duration;

use simkit::SimRng;

use crate::is_transient;

/// Total attempts per operation, including the first.
pub const MAX_ATTEMPTS: u32 = 8;
/// Backoff before the first retry.
const BASE: Duration = Duration::from_millis(2);
/// Multiplier applied per retry (`BASE * FACTOR^(attempt-1)`).
const FACTOR: f64 = 2.0;
/// Upper bound on any single backoff, pre-jitter.
const CAP: Duration = Duration::from_millis(50);
/// Seed for the deterministic jitter stream.
const JITTER_SEED: u64 = 0x7265_7472_7921; // "retry!"

/// The jittered backoff before retry `attempt` (1-based) of the operation
/// whose deterministic index is `op_index`. Pure in `(op_index, attempt)`.
pub fn backoff(op_index: u64, attempt: u32) -> Duration {
    let exp = BASE.as_micros() as f64 * FACTOR.powi(attempt.saturating_sub(1) as i32);
    let capped = exp.min(CAP.as_micros() as f64) as u64;
    // Jitter in [0, capped/4]: enough to de-synchronise contending
    // writers, small enough to keep the exponential shape readable.
    let jitter_span = capped / 4 + 1;
    let jitter =
        SimRng::derive(JITTER_SEED, &[op_index, u64::from(attempt)]).next_u64() % jitter_span;
    Duration::from_micros(capped + jitter)
}

/// Runs `f`, retrying transient I/O faults. Non-transient errors (see
/// [`crate::is_transient`]) are returned immediately; transient ones are
/// retried up to [`MAX_ATTEMPTS`] total attempts with exponentially
/// growing, deterministically jittered sleeps.
///
/// `op_index` pins the jitter stream (callers pass a per-operation
/// counter). Returns the first success, the first non-transient error, or
/// the last transient error once attempts are exhausted.
pub fn run<T>(op_index: u64, mut f: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    let mut attempt: u32 = 0;
    loop {
        match f() {
            Ok(v) => return Ok(v),
            Err(e) if is_transient(&e) && attempt + 1 < MAX_ATTEMPTS => {
                attempt += 1;
                std::thread::sleep(backoff(op_index, attempt));
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::ErrorKind;

    fn transient_err() -> io::Error {
        io::Error::new(ErrorKind::Interrupted, "injected")
    }

    #[test]
    fn succeeds_after_transient_failures() {
        let mut calls = 0;
        let out = run(0, || {
            calls += 1;
            if calls < 4 {
                Err(transient_err())
            } else {
                Ok(calls)
            }
        });
        assert_eq!(out.unwrap(), 4);
    }

    #[test]
    fn non_transient_errors_return_immediately() {
        let mut calls = 0;
        let out: io::Result<()> = run(0, || {
            calls += 1;
            Err(io::Error::new(ErrorKind::StorageFull, "disk full"))
        });
        assert_eq!(out.unwrap_err().kind(), ErrorKind::StorageFull);
        assert_eq!(calls, 1);
    }

    #[test]
    fn exhausts_after_max_attempts() {
        let mut calls = 0;
        let out: io::Result<()> = run(9, || {
            calls += 1;
            Err(transient_err())
        });
        assert!(out.is_err());
        assert_eq!(calls, MAX_ATTEMPTS, "MAX_ATTEMPTS bounds total attempts");
    }

    #[test]
    fn backoff_is_deterministic_and_grows() {
        let a: Vec<Duration> = (1..=5).map(|i| backoff(3, i)).collect();
        let b: Vec<Duration> = (1..=5).map(|i| backoff(3, i)).collect();
        assert_eq!(a, b, "jitter must be deterministic in (seed, op, attempt)");
        assert!(a[0] < a[3], "backoff grows across attempts");
        let other: Vec<Duration> = (1..=5).map(|i| backoff(4, i)).collect();
        assert_ne!(a, other, "different op indices draw different jitter");
    }
}
