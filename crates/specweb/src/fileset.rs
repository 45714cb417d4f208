//! The served document tree.
//!
//! SPECWeb99 organizes the file set into directories, each holding four
//! *classes* of files by size, nine files per class, with fixed access
//! probabilities per class (class 1 — around 10 kB in the original — gets
//! half the traffic). We reproduce the structure at a scaled-down size; the
//! contents are deterministic from a seed so every client knows the expected
//! checksum of every file.

use std::sync::{Arc, Mutex, OnceLock};

use serde::{Deserialize, Serialize};
use simkit::SimRng;
use simos::DeviceStore;
use webserver::checksum_of;

/// Number of size classes (fixed by SPECWeb99).
pub const CLASSES: usize = 4;

/// SPECWeb99 class access weights (class 0..3).
pub const CLASS_WEIGHTS: [f64; CLASSES] = [0.35, 0.50, 0.14, 0.01];

/// File-set shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FileSetConfig {
    /// Number of directories.
    pub dirs: usize,
    /// Files per (directory, class).
    pub files_per_class: usize,
    /// Cells per file for each class (scaled-down SPECWeb99 sizes).
    pub class_sizes: [usize; CLASSES],
    /// Seed for the deterministic contents.
    pub seed: u64,
}

impl Default for FileSetConfig {
    fn default() -> Self {
        FileSetConfig {
            dirs: 6,
            files_per_class: 4,
            class_sizes: [512, 4096, 12288, 24576],
            seed: 0x5EC_F11E,
        }
    }
}

/// One servable file, with the client-side knowledge needed for checking.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FileEntry {
    /// DOS-style path the client requests.
    pub dos_path: String,
    /// Native path stored on the device.
    pub native_path: String,
    /// Size class (0..4).
    pub class: usize,
    /// Length in cells.
    pub len: u64,
    /// Content checksum.
    pub sum: i64,
}

/// The populated file set.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FileSet {
    config: FileSetConfig,
    entries: Vec<FileEntry>,
}

/// A generated corpus: the file-set description plus the device files in
/// creation order, shared through the process-wide cache below.
struct GeneratedSet {
    fileset: FileSet,
    /// `(native_path, content)` in the exact order `populate` creates files,
    /// so installing them reproduces the device ids of a direct generation.
    files: Vec<(String, Arc<Vec<u8>>)>,
}

/// Process-wide corpus cache. Content generation is deterministic from the
/// config alone but costs ~1M RNG draws for the default shape; campaigns
/// re-populate per run (and per worker), so the corpus is generated once
/// and installed by `Arc` handle afterwards — copy-on-write in the device
/// store keeps sharing invisible to writers.
fn generated_set(config: FileSetConfig) -> Arc<GeneratedSet> {
    type Cache = Mutex<Vec<(FileSetConfig, Arc<GeneratedSet>)>>;
    static CACHE: OnceLock<Cache> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(Vec::new()));
    let mut guard = cache.lock().expect("corpus cache lock");
    if let Some((_, set)) = guard.iter().find(|(c, _)| *c == config) {
        return Arc::clone(set);
    }
    let mut rng = SimRng::seed_from_u64(config.seed);
    let mut entries = Vec::new();
    let mut files = Vec::new();
    for d in 0..config.dirs {
        for class in 0..CLASSES {
            for f in 0..config.files_per_class {
                let native_path = format!("/web/dir{d}/class{class}_{f}");
                let dos_path = format!("C:\\web\\dir{d}\\class{class}_{f}");
                let len = config.class_sizes[class];
                let content: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 0xFF) as u8).collect();
                let sum = checksum_of(&content.iter().map(|&b| i64::from(b)).collect::<Vec<_>>());
                files.push((native_path.clone(), Arc::new(content)));
                entries.push(FileEntry {
                    dos_path,
                    native_path,
                    class,
                    len: len as u64,
                    sum,
                });
            }
        }
    }
    let set = Arc::new(GeneratedSet {
        fileset: FileSet { config, entries },
        files,
    });
    guard.push((config, Arc::clone(&set)));
    set
}

impl FileSet {
    /// Generates the tree and writes every file into `devices`. Contents are
    /// deterministic from `config` alone; repeated populations (fresh
    /// campaign runs, parallel workers) share one generated corpus and only
    /// pay to install the `Arc` handles.
    pub fn populate(config: FileSetConfig, devices: &mut DeviceStore) -> FileSet {
        let set = generated_set(config);
        for (path, content) in &set.files {
            devices.adopt_file(path, Arc::clone(content));
        }
        set.fileset.clone()
    }

    /// The shape used to build this set.
    pub fn config(&self) -> &FileSetConfig {
        &self.config
    }

    /// All files.
    pub fn entries(&self) -> &[FileEntry] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn populates_every_directory_and_class() {
        let mut dev = DeviceStore::new();
        let fs = FileSet::populate(FileSetConfig::default(), &mut dev);
        let cfg = FileSetConfig::default();
        assert_eq!(fs.entries().len(), cfg.dirs * CLASSES * cfg.files_per_class);
        assert_eq!(dev.file_count(), fs.entries().len());
        for e in fs.entries() {
            assert_eq!(dev.file_size(&e.native_path), Some(e.len as usize));
        }
    }

    #[test]
    fn checksums_match_device_content() {
        let mut dev = DeviceStore::new();
        let fs = FileSet::populate(FileSetConfig::default(), &mut dev);
        for e in fs.entries().iter().take(10) {
            let content = dev.file(&e.native_path).unwrap();
            assert_eq!(checksum_of(&content), e.sum, "{}", e.native_path);
        }
    }

    #[test]
    fn deterministic_under_same_seed() {
        let mut d1 = DeviceStore::new();
        let mut d2 = DeviceStore::new();
        let a = FileSet::populate(FileSetConfig::default(), &mut d1);
        let b = FileSet::populate(FileSetConfig::default(), &mut d2);
        assert_eq!(a.entries(), b.entries());
    }

    #[test]
    fn class_sizes_grow() {
        let cfg = FileSetConfig::default();
        for w in cfg.class_sizes.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn weights_sum_to_one() {
        assert!((CLASS_WEIGHTS.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }
}
