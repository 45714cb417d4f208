//! Streaming moments: the one mean/variance accumulator of the workspace.
//!
//! The workload client folds response times into it, and `simstats` builds
//! its confidence intervals on it.

use serde::{Deserialize, Serialize};

/// Streaming mean/variance/min/max accumulator.
///
/// Each push applies the numerically stable one-pass update (Knuth, TAOCP
/// vol. 2, §4.2.2) to the running mean and the sum of squared deviations
/// `m2`; [`merge`](OnlineStats::merge) combines two accumulators exactly as
/// one sequential pass would (Chan et al.'s parallel update).
///
/// # Example
///
/// ```
/// use simkit::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [1.0, 2.0, 3.0] {
///     s.push(x);
/// }
/// assert_eq!(s.mean(), 2.0);
/// assert_eq!(s.count(), 3);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance (`n − 1` denominator, the unbiased estimate a
    /// confidence interval needs); `0.0` with fewer than two observations.
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn sample_stddev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Smallest observation; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let d = other.mean - self.mean;
        let mean = self.mean + d * other.n as f64 / n as f64;
        self.m2 += other.m2 + d * d * (self.n as f64 * other.n as f64) / n as f64;
        self.mean = mean;
        self.n = n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn online_stats_small_case() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Sum of squared deviations is 32: 32 / 8 population, 32 / 7 sample.
        assert!((s.sample_variance() - 32.0 / 7.0).abs() < 1e-12);
        assert!((s.sample_stddev() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn empty_stats_are_benign() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        xs.iter().for_each(|&x| whole.push(x));
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        xs[..37].iter().for_each(|&x| left.push(x));
        xs[37..].iter().for_each(|&x| right.push(x));
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.sample_variance() - whole.sample_variance()).abs() < 1e-9);
    }

    proptest! {
        #[test]
        fn prop_merge_matches_sequential(
            a in proptest::collection::vec(-100.0f64..100.0, 0..50),
            b in proptest::collection::vec(-100.0f64..100.0, 0..50),
        ) {
            let mut whole = OnlineStats::new();
            a.iter().chain(b.iter()).for_each(|&x| whole.push(x));
            let mut left = OnlineStats::new();
            a.iter().for_each(|&x| left.push(x));
            let mut right = OnlineStats::new();
            b.iter().for_each(|&x| right.push(x));
            left.merge(&right);
            prop_assert_eq!(left.count(), whole.count());
            prop_assert!((left.mean() - whole.mean()).abs() < 1e-9);
            prop_assert!((left.sample_variance() - whole.sample_variance()).abs() < 1e-6);
        }

        #[test]
        fn prop_mean_within_min_max(xs in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
            let mut s = OnlineStats::new();
            xs.iter().for_each(|&x| s.push(x));
            prop_assert!(s.mean() >= s.min().unwrap() - 1e-9);
            prop_assert!(s.mean() <= s.max().unwrap() + 1e-9);
        }
    }
}
