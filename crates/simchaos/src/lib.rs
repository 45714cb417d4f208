//! `simchaos` — the faultload, turned on the harness itself.
//!
//! The paper's credibility argument cuts both ways: a dependability
//! benchmark is only trustworthy if the *benchmark tool* rides through the
//! environment faults it will inevitably meet during a multi-hour campaign
//! (a transient `EINTR` on a journal append, a torn rename on a cache
//! write, a full disk halfway through iteration 40). This crate provides
//! the injection half of that story:
//!
//! * [`ChaosFs`] — a virtual-filesystem shim the store routes its I/O
//!   through. Disabled it is a single branch per call (pass-through);
//!   enabled it injects short writes, torn renames, failed `fsync`,
//!   transient `EINTR`/`EAGAIN`, and `ENOSPC` on a **seeded, deterministic
//!   schedule**: decision *n* is drawn from `SimRng::derive(seed, [n])`,
//!   so two runs with the same seed and the same operation sequence see
//!   the same faults — which is what lets the chaos test suite assert
//!   byte-identical campaign results with and without injection.
//! * [`retry`] — the survival half: a bounded-retry policy with
//!   exponential backoff and deterministic jitter (same `derive`
//!   discipline) that callers wrap around transient-fallible operations.
//!
//! The crate deliberately knows nothing about `faultstore` or `simtrace`;
//! callers observe retries through a callback and adapt it to their own
//! telemetry.

pub mod retry;

pub use retry::{RetryEvent, RetryPolicy};

use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use simkit::SimRng;

/// Which family of environment faults a [`ChaosFs`] injects.
///
/// Profiles are ordered by severity: `Transient` only injects faults a
/// bounded retry is guaranteed to absorb, `Torn` adds crash-shaped
/// artifacts (torn renames, failed fsync) that exercise the journal's
/// resume path, and `Enospc` is a persistently full disk that exercises
/// graceful degradation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosProfile {
    /// Transient-only: `EINTR`, `EAGAIN` and short writes. Every injected
    /// fault succeeds on retry, so campaign results must be byte-identical
    /// to a fault-free run.
    Transient,
    /// Everything in `Transient` plus torn renames (destination left with
    /// a truncated prefix of the source) and failed `fsync`.
    Torn,
    /// Persistent `ENOSPC`: every write-path operation fails with
    /// [`io::ErrorKind::StorageFull`], and retries cannot help. Exercises
    /// the store's degraded mode.
    Enospc,
}

impl ChaosProfile {
    /// The profile names accepted by [`ChaosProfile::from_str`], for CLI
    /// help text.
    pub const NAMES: &'static [&'static str] = &["transient", "torn", "enospc"];
}

impl FromStr for ChaosProfile {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "transient" => Ok(ChaosProfile::Transient),
            "torn" => Ok(ChaosProfile::Torn),
            "enospc" => Ok(ChaosProfile::Enospc),
            other => Err(format!(
                "unknown chaos profile `{other}` (expected one of: {})",
                Self::NAMES.join(", ")
            )),
        }
    }
}

/// Seed + profile: everything a [`ChaosFs`] needs to replay a schedule.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Root seed for the fault schedule. Same seed + same operation
    /// sequence = same injected faults.
    pub seed: u64,
    /// Which fault family to draw from.
    pub profile: ChaosProfile,
}

/// The I/O stage an operation is in when the schedule is consulted;
/// different stages draw from different fault tables (a read cannot
/// suffer a short write, a rename cannot suffer a failed fsync).
#[derive(Debug, Clone, Copy)]
enum Stage {
    Write,
    Fsync,
    Rename,
    Read,
}

/// A concrete fault the schedule decided to inject.
#[derive(Debug, Clone, Copy)]
enum Injected {
    /// `EINTR`: the call was interrupted; retry succeeds.
    Eintr,
    /// `EAGAIN`: the resource was briefly unavailable; retry succeeds.
    Eagain,
    /// Only a prefix of the payload reaches the file before the error.
    ShortWrite,
    /// The data was written but `fsync` reports failure.
    FsyncFail,
    /// The rename half-happens: the destination is left holding a
    /// truncated prefix of the source, and the call errors.
    TornRename,
    /// The disk is full; retrying cannot help.
    Enospc,
}

struct Inner {
    cfg: ChaosConfig,
    /// Global operation counter; each injection decision consumes one
    /// index into the seeded schedule.
    ops: AtomicU64,
}

/// A virtual-filesystem layer that injects environment faults on a seeded
/// schedule.
///
/// Cloning is cheap (an `Arc`); all clones share one operation counter so
/// a process-wide schedule stays coherent across the cache, journal and
/// store. The disabled instance ([`ChaosFs::off`]) carries no allocation
/// and each call is a single `Option` branch before the real syscall.
#[derive(Clone)]
pub struct ChaosFs {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for ChaosFs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "ChaosFs(off)"),
            Some(i) => write!(
                f,
                "ChaosFs(seed={}, profile={:?})",
                i.cfg.seed, i.cfg.profile
            ),
        }
    }
}

impl ChaosFs {
    /// The pass-through instance: no faults, near-zero cost.
    pub fn off() -> ChaosFs {
        ChaosFs { inner: None }
    }

    /// A fault-injecting instance driven by `cfg`'s seeded schedule.
    pub fn seeded(cfg: ChaosConfig) -> ChaosFs {
        ChaosFs {
            inner: Some(Arc::new(Inner {
                cfg,
                ops: AtomicU64::new(0),
            })),
        }
    }

    /// Whether this instance injects faults at all.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Consults the seeded schedule for the next operation at `stage`.
    fn decide(&self, stage: Stage) -> Option<Injected> {
        let inner = self.inner.as_ref()?;
        let n = inner.ops.fetch_add(1, Ordering::Relaxed);
        // Per-mille roll from the n-th derived stream: deterministic in
        // (seed, n), independent of wall clock and thread timing as long
        // as the operation *sequence* is deterministic (which the store
        // guarantees by serialising journal appends in slot order).
        let roll = SimRng::derive(inner.cfg.seed, &[n]).next_u64() % 1000;
        match (inner.cfg.profile, stage) {
            (ChaosProfile::Enospc, Stage::Read) => None,
            (ChaosProfile::Enospc, _) => Some(Injected::Enospc),
            (ChaosProfile::Transient, Stage::Write) => match roll {
                0..=79 => Some(Injected::Eintr),
                80..=159 => Some(Injected::Eagain),
                160..=219 => Some(Injected::ShortWrite),
                _ => None,
            },
            (ChaosProfile::Transient, _) => match roll {
                0..=79 => Some(Injected::Eintr),
                _ => None,
            },
            (ChaosProfile::Torn, Stage::Write) => match roll {
                0..=59 => Some(Injected::Eintr),
                60..=139 => Some(Injected::ShortWrite),
                _ => None,
            },
            (ChaosProfile::Torn, Stage::Fsync) => match roll {
                0..=99 => Some(Injected::FsyncFail),
                _ => None,
            },
            (ChaosProfile::Torn, Stage::Rename) => match roll {
                0..=119 => Some(Injected::TornRename),
                _ => None,
            },
            (ChaosProfile::Torn, Stage::Read) => match roll {
                0..=59 => Some(Injected::Eintr),
                _ => None,
            },
        }
    }

    /// Creates (truncating) `path`, writes `bytes`, and syncs the file to
    /// disk — the durable half of a write-then-rename. Injection points:
    /// before the write (EINTR/EAGAIN/ENOSPC), mid-write (short write:
    /// a prefix lands in the file before the error), and at the fsync.
    pub fn write_sync(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        match self.decide(Stage::Write) {
            Some(Injected::Eintr) => return Err(eintr("write")),
            Some(Injected::Eagain) => return Err(eagain("write")),
            Some(Injected::Enospc) => return Err(enospc("write")),
            Some(Injected::ShortWrite) => {
                // A prefix reaches the disk, then the call errors. The
                // retry re-creates (truncates) the file, so no torn bytes
                // survive a successful retry.
                let mut f = File::create(path)?;
                f.write_all(&bytes[..bytes.len() / 2])?;
                return Err(eintr("short write"));
            }
            Some(Injected::FsyncFail) | Some(Injected::TornRename) | None => {}
        }
        let mut f = File::create(path)?;
        f.write_all(bytes)?;
        self.sync_all(&f)
    }

    /// Renames `from` onto `to`. The torn variant models a crash between
    /// the data write and the metadata update: the destination is left
    /// holding a truncated prefix of the source and the call errors
    /// transiently (a retry performs the real rename and heals it).
    pub fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        match self.decide(Stage::Rename) {
            Some(Injected::Eintr) => return Err(eintr("rename")),
            Some(Injected::Eagain) => return Err(eagain("rename")),
            Some(Injected::Enospc) => return Err(enospc("rename")),
            Some(Injected::TornRename) => {
                let bytes = std::fs::read(from)?;
                std::fs::write(to, &bytes[..bytes.len() / 2])?;
                return Err(eintr("torn rename"));
            }
            Some(Injected::ShortWrite) | Some(Injected::FsyncFail) | None => {}
        }
        std::fs::rename(from, to)
    }

    /// Reads `path` to a string, with transient faults on the read path.
    pub fn read_to_string(&self, path: &Path) -> io::Result<String> {
        match self.decide(Stage::Read) {
            Some(Injected::Eintr) => return Err(eintr("read")),
            Some(Injected::Eagain) => return Err(eagain("read")),
            _ => {}
        }
        std::fs::read_to_string(path)
    }

    /// Appends `line` plus a newline to an open file positioned at its
    /// end. A short write leaves a prefix of the line in the file before
    /// erroring — the journal's rewind-on-retry discipline (`set_len` back
    /// to the pre-append length) is what makes this safe to retry.
    pub fn append_line(&self, file: &mut File, line: &str) -> io::Result<()> {
        match self.decide(Stage::Write) {
            Some(Injected::Eintr) => return Err(eintr("append")),
            Some(Injected::Eagain) => return Err(eagain("append")),
            Some(Injected::Enospc) => return Err(enospc("append")),
            Some(Injected::ShortWrite) => {
                file.write_all(&line.as_bytes()[..line.len() / 2])?;
                return Err(eintr("short append"));
            }
            Some(Injected::FsyncFail) | Some(Injected::TornRename) | None => {}
        }
        file.write_all(line.as_bytes())?;
        file.write_all(b"\n")
    }

    /// `File::sync_data` with injected fsync failures.
    pub fn sync_data(&self, file: &File) -> io::Result<()> {
        match self.decide(Stage::Fsync) {
            Some(Injected::Eintr) => return Err(eintr("fsync")),
            Some(Injected::Enospc) => return Err(enospc("fsync")),
            Some(Injected::FsyncFail) => return Err(fsync_fail()),
            _ => {}
        }
        file.sync_data()
    }

    /// `File::sync_all` with injected fsync failures.
    pub fn sync_all(&self, file: &File) -> io::Result<()> {
        match self.decide(Stage::Fsync) {
            Some(Injected::Eintr) => return Err(eintr("fsync")),
            Some(Injected::Enospc) => return Err(enospc("fsync")),
            Some(Injected::FsyncFail) => return Err(fsync_fail()),
            _ => {}
        }
        file.sync_all()
    }

    /// Truncates an open file to `len` and seeks to its end — the
    /// journal's rewind primitive between append retries. Deliberately
    /// *not* subject to injection: the rewind is the recovery action, and
    /// a recovery that can itself fail transiently is retried by the same
    /// outer policy anyway.
    pub fn rewind(&self, file: &mut File, len: u64) -> io::Result<()> {
        file.set_len(len)?;
        file.seek(SeekFrom::End(0)).map(|_| ())
    }

    /// Opens `path` read-only and reads it fully, with transient faults on
    /// the read path.
    pub fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        match self.decide(Stage::Read) {
            Some(Injected::Eintr) => return Err(eintr("read")),
            Some(Injected::Eagain) => return Err(eagain("read")),
            _ => {}
        }
        let mut buf = Vec::new();
        File::open(path)?.read_to_end(&mut buf)?;
        Ok(buf)
    }
}

/// Whether an I/O error is transient — i.e. a bounded retry is the right
/// response. `EINTR` (`Interrupted`) and `EAGAIN` (`WouldBlock`) qualify;
/// `ENOSPC` (`StorageFull`) and everything else do not.
pub fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// A short, stable name for an error kind, for telemetry labels.
pub fn error_kind_name(e: &io::Error) -> &'static str {
    match e.kind() {
        io::ErrorKind::Interrupted => "EINTR",
        io::ErrorKind::WouldBlock => "EAGAIN",
        io::ErrorKind::TimedOut => "ETIMEDOUT",
        io::ErrorKind::StorageFull => "ENOSPC",
        io::ErrorKind::NotFound => "ENOENT",
        io::ErrorKind::PermissionDenied => "EACCES",
        _ => "EIO",
    }
}

fn eintr(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::Interrupted,
        format!("injected EINTR during {what}"),
    )
}

fn eagain(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::WouldBlock,
        format!("injected EAGAIN during {what}"),
    )
}

fn enospc(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::StorageFull,
        format!("injected ENOSPC during {what}"),
    )
}

fn fsync_fail() -> io::Error {
    io::Error::new(io::ErrorKind::Interrupted, "injected fsync failure")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("simchaos-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn off_is_pass_through() {
        let fs = ChaosFs::off();
        assert!(!fs.is_enabled());
        let dir = tmp_dir("off");
        let p = dir.join("a.txt");
        fs.write_sync(&p, b"hello").unwrap();
        assert_eq!(fs.read_to_string(&p).unwrap(), "hello");
        let q = dir.join("b.txt");
        fs.rename(&p, &q).unwrap();
        assert_eq!(fs.read_to_string(&q).unwrap(), "hello");
    }

    #[test]
    fn schedule_is_deterministic_in_seed_and_op_index() {
        let cfg = ChaosConfig {
            seed: 42,
            profile: ChaosProfile::Transient,
        };
        let dir = tmp_dir("det");
        let p = dir.join("a.txt");
        let record = |fs: &ChaosFs| -> Vec<String> {
            (0..200)
                .map(|_| match fs.write_sync(&p, b"payload-payload") {
                    Ok(()) => "ok".to_string(),
                    Err(e) => error_kind_name(&e).to_string(),
                })
                .collect()
        };
        let a = record(&ChaosFs::seeded(cfg));
        let b = record(&ChaosFs::seeded(cfg));
        assert_eq!(
            a, b,
            "same seed + same op sequence must inject the same faults"
        );
        assert!(
            a.iter().any(|s| s != "ok"),
            "a 200-op transient schedule should inject at least one fault"
        );
    }

    #[test]
    fn transient_profile_injects_only_transient_kinds() {
        let cfg = ChaosConfig {
            seed: 7,
            profile: ChaosProfile::Transient,
        };
        let fs = ChaosFs::seeded(cfg);
        let dir = tmp_dir("transient");
        let p = dir.join("a.txt");
        for _ in 0..500 {
            if let Err(e) = fs.write_sync(&p, b"0123456789") {
                assert!(is_transient(&e), "unexpected non-transient fault: {e}");
            }
        }
    }

    #[test]
    fn enospc_profile_fails_all_writes_persistently() {
        let cfg = ChaosConfig {
            seed: 1,
            profile: ChaosProfile::Enospc,
        };
        let fs = ChaosFs::seeded(cfg);
        let dir = tmp_dir("enospc");
        let p = dir.join("a.txt");
        for _ in 0..20 {
            let e = fs.write_sync(&p, b"x").unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::StorageFull);
            assert!(!is_transient(&e));
        }
        // Reads still work: a full disk does not prevent loading artifacts.
        std::fs::write(&p, b"seed-data").unwrap();
        assert_eq!(fs.read_to_string(&p).unwrap(), "seed-data");
    }

    #[test]
    fn torn_rename_leaves_truncated_destination_then_retry_heals() {
        let cfg = ChaosConfig {
            seed: 0,
            profile: ChaosProfile::Torn,
        };
        let fs = ChaosFs::seeded(cfg);
        let dir = tmp_dir("torn");
        let src = dir.join("src.txt");
        std::fs::write(&src, b"0123456789abcdef").unwrap();
        let dst = dir.join("dst.txt");
        // Drive the schedule until a torn rename fires, then confirm the
        // destination holds a strict prefix and that retrying heals it.
        let mut torn_seen = false;
        for _ in 0..300 {
            std::fs::write(&src, b"0123456789abcdef").unwrap();
            match fs.rename(&src, &dst) {
                Ok(()) => {
                    assert_eq!(std::fs::read(&dst).unwrap(), b"0123456789abcdef");
                }
                Err(_) if dst.exists() => {
                    let got = std::fs::read(&dst).unwrap();
                    if got != b"0123456789abcdef" {
                        assert!(b"0123456789abcdef".starts_with(&got[..]));
                        torn_seen = true;
                    }
                }
                Err(_) => {}
            }
        }
        assert!(
            torn_seen,
            "a 300-op torn schedule should tear at least one rename"
        );
    }

    #[test]
    fn profile_parses_from_cli_names() {
        assert_eq!(
            "transient".parse::<ChaosProfile>().unwrap(),
            ChaosProfile::Transient
        );
        assert_eq!("torn".parse::<ChaosProfile>().unwrap(), ChaosProfile::Torn);
        assert_eq!(
            "enospc".parse::<ChaosProfile>().unwrap(),
            ChaosProfile::Enospc
        );
        assert!("full-disk".parse::<ChaosProfile>().is_err());
    }
}
