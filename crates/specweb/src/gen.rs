//! The operation generator: SPECWeb99's mix over the file set.

use simkit::SimRng;
use webserver::{Method, Request};

use crate::fileset::{FileSet, CLASSES, CLASS_WEIGHTS};

/// SPECWeb99 operation mix: ~70 % static GET, ~25.5 % dynamic GET,
/// ~4.5 % POST.
pub const MIX_STATIC: f64 = 0.70;
/// Dynamic GET share.
pub const MIX_DYNAMIC: f64 = 0.255;
/// POST share.
pub const MIX_POST: f64 = 0.045;

/// Zipf exponent for intra-class file popularity.
const FILE_ZIPF_S: f64 = 1.0;

/// POST body size in cells.
const POST_LEN: u64 = 96;

/// Draws SPECWeb99-like operations against a [`FileSet`].
#[derive(Clone, Debug)]
pub struct RequestGenerator {
    fileset: FileSet,
    /// Entry indices per class, in [`FileSet::entries`] order —
    /// precomputed so a draw is an index, not a per-request scan.
    by_class: [Vec<usize>; CLASSES],
    post_counter: u64,
}

impl RequestGenerator {
    /// A generator over `fileset`.
    pub fn new(fileset: FileSet) -> RequestGenerator {
        let mut by_class: [Vec<usize>; CLASSES] = Default::default();
        for (i, e) in fileset.entries().iter().enumerate() {
            by_class[e.class].push(i);
        }
        RequestGenerator {
            fileset,
            by_class,
            post_counter: 0,
        }
    }

    /// The underlying file set.
    pub fn fileset(&self) -> &FileSet {
        &self.fileset
    }

    /// Draws the next operation.
    pub fn next_request(&mut self, rng: &mut SimRng) -> Request {
        let roll = rng.unit();
        if roll < MIX_POST {
            self.post_counter += 1;
            // POSTs land in per-client log files (the "on-line registration"
            // of SPECWeb99); a handful of target files are reused.
            let slot = self.post_counter % 8;
            return Request {
                method: Method::Post,
                path: format!("C:\\web\\post\\log{slot}.dat"),
                expected_len: 0,
                expected_sum: 0,
                post_len: POST_LEN,
            };
        }
        let method = if roll < MIX_POST + MIX_DYNAMIC {
            Method::GetDynamic
        } else {
            Method::GetStatic
        };
        let class = rng.weighted(&CLASS_WEIGHTS);
        debug_assert!(class < CLASSES);
        let in_class = &self.by_class[class];
        let idx = rng.zipf(in_class.len(), FILE_ZIPF_S);
        let entry = &self.fileset.entries()[in_class[idx]];
        Request {
            method,
            path: entry.dos_path.clone(),
            expected_len: entry.len,
            expected_sum: entry.sum,
            post_len: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fileset::{FileSetConfig, CLASS_WEIGHTS};
    use simos::DeviceStore;

    fn generator() -> RequestGenerator {
        let mut dev = DeviceStore::new();
        let fs = FileSet::populate(FileSetConfig::default(), &mut dev);
        RequestGenerator::new(fs)
    }

    #[test]
    fn mix_matches_specweb99() {
        let mut g = generator();
        let mut rng = SimRng::seed_from_u64(1);
        let (mut stat, mut dynamic, mut post) = (0u32, 0u32, 0u32);
        let n = 20_000;
        for _ in 0..n {
            match g.next_request(&mut rng).method {
                Method::GetStatic => stat += 1,
                Method::GetDynamic => dynamic += 1,
                Method::Post => post += 1,
            }
        }
        let p = |x: u32| f64::from(x) / f64::from(n);
        assert!((p(stat) - MIX_STATIC).abs() < 0.02, "{}", p(stat));
        assert!((p(dynamic) - MIX_DYNAMIC).abs() < 0.02, "{}", p(dynamic));
        assert!((p(post) - MIX_POST).abs() < 0.01, "{}", p(post));
    }

    #[test]
    fn class_popularity_follows_weights() {
        let mut g = generator();
        let mut rng = SimRng::seed_from_u64(2);
        let mut by_class = [0u32; 4];
        let mut gets = 0u32;
        for _ in 0..20_000 {
            let r = g.next_request(&mut rng);
            if r.method == Method::Post {
                continue;
            }
            gets += 1;
            let class = g
                .fileset()
                .entries()
                .iter()
                .find(|e| e.dos_path == r.path)
                .unwrap()
                .class;
            by_class[class] += 1;
        }
        for (c, &w) in CLASS_WEIGHTS.iter().enumerate() {
            let p = f64::from(by_class[c]) / f64::from(gets);
            assert!((p - w).abs() < 0.02, "class {c}: {p} vs {w}");
        }
    }

    #[test]
    fn get_requests_carry_client_knowledge() {
        let mut g = generator();
        let mut rng = SimRng::seed_from_u64(3);
        for _ in 0..100 {
            let r = g.next_request(&mut rng);
            if r.method != Method::Post {
                assert!(r.expected_len > 0);
                assert!(r.path.starts_with("C:\\web\\dir"));
            } else {
                assert!(r.post_len > 0);
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let mut g1 = generator();
        let mut g2 = generator();
        let mut r1 = SimRng::seed_from_u64(9);
        let mut r2 = SimRng::seed_from_u64(9);
        for _ in 0..200 {
            assert_eq!(g1.next_request(&mut r1), g2.next_request(&mut r2));
        }
    }
}
