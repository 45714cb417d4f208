//! The content-addressed fault-map cache: step-1 scanner output persisted
//! to disk, so an unchanged OS edition is never scanned twice.
//!
//! The cache key is everything the scan result is a pure function of:
//!
//! * **image fingerprint** — which build of the target the map describes
//!   ([`mvm::CodeImage::fingerprint`]);
//! * **operator-set hash** — which mutation operators ran, in which order
//!   ([`Scanner::operator_set_hash`]);
//! * **pack-set hash** — the provenance (name, version, *content hash*) of
//!   every fault-model pack in the library
//!   ([`Scanner::pack_set_hash`]). Editing one mutation inside a pack file
//!   changes this component even though the operator ids are unchanged, so
//!   a stale map can never be served for edited pack content;
//! * **function-filter hash** — which function subset was scanned (`None`
//!   for a whole-image scan; the §2.4 fine-tuned FIT subset otherwise).
//!   The filter is hashed as a sorted set because the scan walks the image
//!   in image order, so filter order cannot affect the result.
//!
//! A stored map whose embedded fingerprint does not match the key being
//! looked up is treated as a miss and rewritten — corruption or hand-edits
//! can degrade performance but never inject a wrong map.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mvm::CodeImage;
use swfit_core::{Faultload, Scanner};

use crate::resilience::StoreCtx;
use crate::{io_err, StoreError};

/// The content-address of one fault map.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheKey {
    /// Fingerprint of the scanned code image.
    pub image_fingerprint: u64,
    /// Hash of the scanner's operator library (content and order).
    pub operator_set: u64,
    /// Hash of the pack provenance set (name, version, content hash of
    /// every pack); `pack_set_hash(&[])` for a pack-free scanner.
    pub pack_set: u64,
    /// Hash of the sorted function filter; `0` for a whole-image scan.
    pub function_filter: u64,
}

impl CacheKey {
    /// Computes the key for scanning `image` with `scanner`, restricted to
    /// `funcs` (or the whole image when `None`).
    pub fn new(image: &CodeImage, scanner: &Scanner, funcs: Option<&[String]>) -> CacheKey {
        CacheKey {
            image_fingerprint: image.fingerprint(),
            operator_set: scanner.operator_set_hash(),
            pack_set: scanner.pack_set_hash(),
            function_filter: funcs.map_or(0, |fs| {
                let mut sorted: Vec<&str> = fs.iter().map(String::as_str).collect();
                sorted.sort_unstable();
                sorted.dedup();
                simkit::hash::fnv1a_strs(&sorted)
            }),
        }
    }

    /// The file name this key addresses.
    pub fn file_name(&self) -> String {
        format!(
            "map-{:016x}-{:016x}-{:016x}-{:016x}.json",
            self.image_fingerprint, self.operator_set, self.pack_set, self.function_filter
        )
    }
}

/// An on-disk fault-map cache rooted at one directory.
#[derive(Clone, Debug)]
pub struct FaultMapCache {
    dir: PathBuf,
    ctx: Arc<StoreCtx>,
    /// Lookups that fell through to a real scan (shared by clones).
    scans: Arc<AtomicU64>,
}

impl FaultMapCache {
    /// Opens (creating if needed) a cache directory.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<FaultMapCache, StoreError> {
        FaultMapCache::open_with(dir, StoreCtx::default_arc())
    }

    /// Opens a cache sharing a store's resilience context (chaos layer,
    /// retry policy, tracer, degradation latch).
    pub(crate) fn open_with(
        dir: impl Into<PathBuf>,
        ctx: Arc<StoreCtx>,
    ) -> Result<FaultMapCache, StoreError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        Ok(FaultMapCache {
            dir,
            ctx,
            scans: Arc::default(),
        })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// How many lookups through this cache (or its clones) fell through to
    /// a real scan — cache hits do not count. Lets tests assert that a
    /// second scan of an unchanged edition was served from the cache.
    pub fn scan_count(&self) -> u64 {
        self.scans.load(Ordering::Relaxed)
    }

    /// [`Scanner::scan_image`] through the cache.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] / [`StoreError::Json`] on unreadable cache state.
    pub fn scan_image(
        &self,
        scanner: &Scanner,
        image: &CodeImage,
    ) -> Result<Faultload, StoreError> {
        self.scan(scanner, image, None)
    }

    /// [`Scanner::scan_functions`] through the cache.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] / [`StoreError::Json`] on unreadable cache state.
    pub fn scan_functions(
        &self,
        scanner: &Scanner,
        image: &CodeImage,
        funcs: &[String],
    ) -> Result<Faultload, StoreError> {
        self.scan(scanner, image, Some(funcs))
    }

    fn scan(
        &self,
        scanner: &Scanner,
        image: &CodeImage,
        funcs: Option<&[String]>,
    ) -> Result<Faultload, StoreError> {
        let key = CacheKey::new(image, scanner, funcs);
        let path = self.dir.join(key.file_name());
        if let Some(hit) = self.load_valid(&path, &key) {
            return Ok(hit);
        }
        self.scans.fetch_add(1, Ordering::Relaxed);
        let faultload = match funcs {
            Some(fs) => scanner.scan_functions(image, fs),
            None => scanner.scan_image(image),
        };
        if !faultload.is_fingerprinted() {
            // The scanner always stamps; reaching this means a scanner bug.
            // Refuse to cache rather than store an unvalidatable artifact.
            return Err(StoreError::MissingFingerprint {
                target: faultload.target.clone(),
            });
        }
        if let Err(e) = self.write_atomic(&path, &faultload) {
            // The scan itself succeeded; the cache write is an optimization
            // for the *next* process, so a persistently failing disk costs
            // a rescan later, not this campaign. Degrade rather than abort.
            eprintln!("warning: fault-map cache write failed ({e}); returning the scan uncached");
            self.ctx.degrade("fault-map cache write failed");
        }
        Ok(faultload)
    }

    /// Loads a cached map if it exists, parses and carries the fingerprint
    /// the key demands. Any failure is a miss, never an error: the cache
    /// self-heals by rescanning and rewriting.
    fn load_valid(&self, path: &Path, key: &CacheKey) -> Option<Faultload> {
        let json = self
            .ctx
            .retrying("faultmap read", || self.ctx.chaos.read_to_string(path))
            .ok()?;
        let faultload = Faultload::from_json(&json).ok()?;
        (faultload.fingerprint == Some(key.image_fingerprint)).then_some(faultload)
    }

    /// Write-to-temp-then-rename, with the temp file fsynced *before* the
    /// rename — rename-atomicity only covers the directory entry, so
    /// without the fsync a crash shortly after could surface a renamed but
    /// empty (or partial) map. Transient failures are retried; the caller
    /// degrades on persistent ones.
    fn write_atomic(&self, path: &Path, faultload: &Faultload) -> Result<(), StoreError> {
        let json = faultload
            .to_json()
            .map_err(|e| StoreError::Json(e.to_string()))?;
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        self.ctx
            .retrying("faultmap write", || {
                self.ctx.chaos.write_sync(&tmp, json.as_bytes())
            })
            .map_err(|e| io_err(&tmp, e))?;
        self.ctx
            .retrying("faultmap rename", || self.ctx.chaos.rename(&tmp, path))
            .map_err(|e| io_err(path, e))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minic::compile;

    const SRC: &str = r#"
        fn helper(x) { return x * 2; }
        fn alpha(a, b) {
            var r = 0;
            if (a > 0 && b > 0) { r = a + b; }
            helper(r);
            return r;
        }
    "#;

    const OTHER_SRC: &str = r#"
        fn gamma(a) {
            var x = 1;
            if (a > 3) { x = a; }
            return x;
        }
    "#;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("faultstore-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn second_scan_is_a_cache_hit() {
        let dir = tmpdir("hit");
        let cache = FaultMapCache::open(&dir).unwrap();
        let p = compile("os", SRC).unwrap();
        let a = cache.scan_image(&Scanner::standard(), p.image()).unwrap();
        assert_eq!(cache.scan_count(), 1, "first scan is a miss");
        let b = cache.scan_image(&Scanner::standard(), p.image()).unwrap();
        assert_eq!(cache.scan_count(), 1, "second scan served from cache");
        assert_eq!(a, b);
        assert_eq!(a, Scanner::standard().scan_image(p.image()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn operator_set_change_is_a_miss() {
        use swfit_core::{pack, MutationOperator};
        let dir = tmpdir("ops");
        let cache = FaultMapCache::open(&dir).unwrap();
        let p = compile("os", SRC).unwrap();
        cache.scan_image(&Scanner::standard(), p.image()).unwrap();
        let mifs = pack::classic()
            .compile()
            .unwrap()
            .into_iter()
            .find(|op| op.id() == "MIFS")
            .unwrap();
        let single = Scanner::builder().operator(Box::new(mifs)).build().unwrap();
        let narrowed = cache.scan_image(&single, p.image()).unwrap();
        assert_eq!(
            cache.scan_count(),
            2,
            "different operator library must rescan"
        );
        assert!(narrowed.len() < Scanner::standard().scan_image(p.image()).len());
        // And each library now hits its own entry.
        cache.scan_image(&Scanner::standard(), p.image()).unwrap();
        cache.scan_image(&single, p.image()).unwrap();
        assert_eq!(cache.scan_count(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn image_change_and_filter_change_are_misses() {
        let dir = tmpdir("img");
        let cache = FaultMapCache::open(&dir).unwrap();
        let p1 = compile("os", SRC).unwrap();
        let p2 = compile("os", OTHER_SRC).unwrap();
        cache.scan_image(&Scanner::standard(), p1.image()).unwrap();
        cache.scan_image(&Scanner::standard(), p2.image()).unwrap();
        assert_eq!(cache.scan_count(), 2, "different image must rescan");
        let filter = vec!["alpha".to_string()];
        let restricted = cache
            .scan_functions(&Scanner::standard(), p1.image(), &filter)
            .unwrap();
        assert_eq!(cache.scan_count(), 3, "filtered scan is its own entry");
        assert!(restricted.faults.iter().all(|f| f.func == "alpha"));
        // Filter order does not matter: sorted-set hashing.
        let shuffled = vec!["alpha".to_string(), "alpha".to_string()];
        cache
            .scan_functions(&Scanner::standard(), p1.image(), &shuffled)
            .unwrap();
        assert_eq!(cache.scan_count(), 3, "same filter set hits");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pack_content_edit_is_a_miss() {
        // Same operator ids, same image, same filter — only the pack
        // *content* differs (a note tweak, as if the pack file was edited
        // on disk). The cache must rescan, not serve the stale map.
        let dir = tmpdir("packedit");
        let cache = FaultMapCache::open(&dir).unwrap();
        let p = compile("os", SRC).unwrap();
        cache.scan_image(&Scanner::standard(), p.image()).unwrap();
        let mut edited = swfit_core::pack::classic().clone();
        edited.operators[0].note.push('!');
        let edited_scanner = Scanner::builder().pack(edited).build().unwrap();
        let key_a = CacheKey::new(p.image(), &Scanner::standard(), None);
        let key_b = CacheKey::new(p.image(), &edited_scanner, None);
        assert_ne!(key_a.pack_set, key_b.pack_set);
        assert_ne!(key_a.file_name(), key_b.file_name());
        cache.scan_image(&edited_scanner, p.image()).unwrap();
        assert_eq!(cache.scan_count(), 2, "edited pack content must rescan");
        // Both entries now hit independently.
        cache.scan_image(&Scanner::standard(), p.image()).unwrap();
        cache.scan_image(&edited_scanner, p.image()).unwrap();
        assert_eq!(cache.scan_count(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_cache_entry_self_heals() {
        let dir = tmpdir("corrupt");
        let cache = FaultMapCache::open(&dir).unwrap();
        let p = compile("os", SRC).unwrap();
        let key = CacheKey::new(p.image(), &Scanner::standard(), None);
        let clean = cache.scan_image(&Scanner::standard(), p.image()).unwrap();
        std::fs::write(dir.join(key.file_name()), b"{ not json").unwrap();
        let healed = cache.scan_image(&Scanner::standard(), p.image()).unwrap();
        assert_eq!(cache.scan_count(), 2, "corrupt entry forces a rescan");
        assert_eq!(clean, healed);
        // The rewrite is valid again.
        cache.scan_image(&Scanner::standard(), p.image()).unwrap();
        assert_eq!(cache.scan_count(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
