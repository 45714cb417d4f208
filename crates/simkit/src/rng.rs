//! Seeded randomness.
//!
//! [`SimRng`] is the single entropy source of the whole benchmark. Everything
//! that needs randomness (workload mix, request sizes, think times, fault
//! ordering) derives from one seed, making entire campaigns reproducible —
//! the *repeatability* property the paper requires of a faultload.
//!
//! The generator is an embedded xoshiro256++ seeded through SplitMix64, so
//! the crate carries no external RNG dependency and the stream is identical
//! on every platform. [`SimRng::derive`] gives *splittable* seeding: any
//! `(seed, path)` pair maps to one fixed stream regardless of which thread
//! asks for it or in what order — the property the parallel campaign
//! executor relies on to be bit-identical to sequential runs.

/// One SplitMix64 step: advances `state` and returns the next output.
/// Also used as the mixing function for [`SimRng::derive`].
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic random-number generator with convenience samplers.
///
/// # Example
///
/// ```
/// use simkit::SimRng;
///
/// let mut a = SimRng::seed_from_u64(7);
/// let mut b = SimRng::seed_from_u64(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    /// xoshiro256++ state; never all-zero (SplitMix64 seeding guarantees it).
    s: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        SimRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Derives the fixed stream for a *path* under `seed` — e.g.
    /// `(campaign seed, [iteration, slot_index])` for one campaign slot.
    ///
    /// The result depends only on the values (and order) of `seed` and
    /// `path`, never on execution order or thread, so sequential and
    /// parallel executors that seed slots this way draw identical streams.
    ///
    /// # Example
    ///
    /// ```
    /// use simkit::SimRng;
    ///
    /// let mut a = SimRng::derive(42, &[1, 7]);
    /// let mut b = SimRng::derive(42, &[1, 7]);
    /// assert_eq!(a.next_u64(), b.next_u64());
    /// let mut c = SimRng::derive(42, &[7, 1]);
    /// assert_ne!(a.next_u64(), c.next_u64());
    /// ```
    pub fn derive(seed: u64, path: &[u64]) -> Self {
        let mut acc = seed;
        for (depth, &component) in path.iter().enumerate() {
            // Mix the component with its position so [1, 7] and [7, 1]
            // land on different streams, then scramble through SplitMix64.
            let mut sm = acc
                ^ component.wrapping_mul(0xA24B_AED4_963E_E407)
                ^ (depth as u64 + 1).wrapping_mul(0x9FB2_1C65_1E98_DF25);
            acc = splitmix64(&mut sm);
        }
        SimRng::seed_from_u64(acc)
    }

    /// Derives an independent child generator; `salt` distinguishes children
    /// of the same parent deterministically.
    pub fn fork(&mut self, salt: u64) -> SimRng {
        let base = self.next_u64();
        SimRng::seed_from_u64(base ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next raw 64-bit value (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let out = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }

    /// A uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        let span = hi - lo;
        // Debiased multiply-shift (Lemire); the rejection loop runs at most
        // a handful of times even for pathological spans.
        let threshold = span.wrapping_neg() % span;
        loop {
            let x = self.next_u64();
            let wide = u128::from(x) * u128::from(span);
            if (wide as u64) >= threshold {
                return lo + (wide >> 64) as u64;
            }
        }
    }

    /// A uniform index in `[0, len)`.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn index(&mut self, len: usize) -> usize {
        assert!(len > 0, "index() on empty collection");
        self.range(0, len as u64) as usize
    }

    /// A uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Samples an index according to non-negative `weights`.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(
            !weights.is_empty() && total > 0.0,
            "weighted() needs a positive-mass distribution"
        );
        let mut x = self.unit() * total;
        for (i, &w) in weights.iter().enumerate() {
            if x < w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }

    /// A Zipf-like sample over `[0, n)` with exponent `s` — used by the
    /// SPECWeb-like file-set popularity model.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn zipf(&mut self, n: usize, s: f64) -> usize {
        assert!(n > 0, "zipf() over empty support");
        // Inverse-CDF over the finite harmonic mass. n is small (file classes),
        // so the linear scan is fine and keeps the sampler allocation-free.
        let h: f64 = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).sum();
        let mut x = self.unit() * h;
        for k in 1..=n {
            let w = 1.0 / (k as f64).powf(s);
            if x < w {
                return k - 1;
            }
            x -= w;
        }
        n - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(123);
        let mut b = SimRng::seed_from_u64(123);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn fork_is_deterministic_and_independent() {
        let mut p1 = SimRng::seed_from_u64(9);
        let mut p2 = SimRng::seed_from_u64(9);
        let mut c1 = p1.fork(1);
        let mut c2 = p2.fork(1);
        assert_eq!(c1.next_u64(), c2.next_u64());
        let mut d = p1.fork(2);
        assert_ne!(c1.next_u64(), d.next_u64());
    }

    #[test]
    fn derive_depends_on_path_order_and_values() {
        let mut base = SimRng::derive(20040628, &[0, 3]);
        let mut same = SimRng::derive(20040628, &[0, 3]);
        assert_eq!(base.next_u64(), same.next_u64());
        for other in [
            SimRng::derive(20040628, &[3, 0]),
            SimRng::derive(20040628, &[0, 4]),
            SimRng::derive(20040628, &[1, 3]),
            SimRng::derive(20040629, &[0, 3]),
            SimRng::derive(20040628, &[0]),
            SimRng::derive(20040628, &[0, 3, 0]),
        ] {
            let mut other = other;
            let matches = (0..8)
                .filter(|_| base.next_u64() == other.next_u64())
                .count();
            assert!(matches < 2, "streams should be independent");
        }
    }

    #[test]
    fn derive_is_thread_independent() {
        let sequential: Vec<u64> = (0..8)
            .map(|slot| SimRng::derive(7, &[0, slot]).next_u64())
            .collect();
        let threaded: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|slot| scope.spawn(move || SimRng::derive(7, &[0, slot]).next_u64()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(sequential, threaded);
    }

    #[test]
    fn weighted_respects_mass() {
        let mut r = SimRng::seed_from_u64(5);
        let mut counts = [0u32; 3];
        for _ in 0..30_000 {
            counts[r.weighted(&[0.7, 0.2, 0.1])] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[2]);
        let p0 = counts[0] as f64 / 30_000.0;
        assert!((p0 - 0.7).abs() < 0.02, "p0 = {p0}");
    }

    #[test]
    fn zipf_prefers_small_indices() {
        let mut r = SimRng::seed_from_u64(6);
        let mut counts = [0u32; 8];
        for _ in 0..20_000 {
            counts[r.zipf(8, 1.0)] += 1;
        }
        assert!(counts[0] > counts[3]);
        assert!(counts[0] > counts[7] * 3);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn range_rejects_empty() {
        SimRng::seed_from_u64(0).range(3, 3);
    }

    proptest! {
        #[test]
        fn prop_range_within_bounds(seed: u64, lo in 0u64..100, width in 1u64..100) {
            let mut r = SimRng::seed_from_u64(seed);
            let v = r.range(lo, lo + width);
            prop_assert!(v >= lo && v < lo + width);
        }

        #[test]
        fn prop_unit_in_unit_interval(seed: u64) {
            let mut r = SimRng::seed_from_u64(seed);
            for _ in 0..32 {
                let u = r.unit();
                prop_assert!((0.0..1.0).contains(&u));
            }
        }

        #[test]
        fn prop_zipf_in_support(seed: u64, n in 1usize..64) {
            let mut r = SimRng::seed_from_u64(seed);
            let k = r.zipf(n, 1.0);
            prop_assert!(k < n);
        }

        #[test]
        fn prop_derive_matches_itself(seed: u64, a in 0u64..32, b in 0u64..512) {
            let mut x = SimRng::derive(seed, &[a, b]);
            let mut y = SimRng::derive(seed, &[a, b]);
            for _ in 0..4 {
                prop_assert_eq!(x.next_u64(), y.next_u64());
            }
        }
    }
}
