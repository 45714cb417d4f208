//! `simchaos` — the faultload, turned on the harness itself.
//!
//! The paper's credibility argument cuts both ways: a dependability
//! benchmark is only trustworthy if the *benchmark tool* rides through the
//! environment faults it will inevitably meet during a multi-hour campaign
//! (a transient `EINTR` on a journal append, a torn rename on a run
//! save, a full disk halfway through iteration 40). This crate provides
//! the injection half of that story:
//!
//! * [`ChaosFs`] — a virtual-filesystem shim the store routes its I/O
//!   through. Disabled it is a single branch per call (pass-through);
//!   enabled it injects short writes, torn renames, failed `fsync`,
//!   transient `EINTR`/`EAGAIN`, and `ENOSPC` on a **seeded, deterministic
//!   schedule**: decision *n* is drawn from `SimRng::derive(seed, [n])`,
//!   so two runs with the same seed and the same operation sequence see
//!   the same faults — which is what lets the chaos test suite assert
//!   byte-identical campaign results with and without injection. Tests can
//!   also fill the disk at a chosen append ([`ChaosFs::full_after_appends`]).
//! * [`retry`] — the survival half: one bounded-retry schedule with
//!   exponential backoff and deterministic jitter (same `derive`
//!   discipline) that callers wrap around transient-fallible operations.
//!
//! The crate knows nothing about `faultstore`. It reports no events: an
//! enabled [`ChaosFs`] counts the faults it injected
//! ([`ChaosFs::injected`]), which is what a test reads to show that a
//! chaos run exercised anything.

pub mod retry;

use std::fs::File;
use std::io::{self, Seek, SeekFrom, Write};
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

/// What decides each operation's fault.
#[derive(Debug, Clone, Copy)]
enum Schedule {
    Seeded(ChaosConfig),
    /// Appends from the `n`-th on fail with `ENOSPC`; nothing else fails.
    FullAfterAppends(u64),
}

/// The I/O stage an operation is in when the schedule is consulted;
/// different stages draw from different fault tables (a read cannot
/// suffer a short write, a rename cannot suffer a failed fsync).
#[derive(Debug, Clone, Copy)]
enum Stage {
    Write,
    Append,
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

#[derive(Debug)]
struct Inner {
    schedule: Schedule,
    /// Global operation counter; each injection decision consumes one
    /// index into the schedule.
    ops: AtomicU64,
    /// How many of those decisions injected a fault.
    injected: AtomicU64,
}

/// A virtual-filesystem layer that injects environment faults on a seeded
/// schedule.
///
/// Cloning is cheap (an `Arc`); all clones share one operation counter so
/// a process-wide schedule stays coherent across the journal and the
/// store. The disabled instance ([`ChaosFs::off`]) carries no allocation
/// and each call is a single `Option` branch before the real syscall.
#[derive(Clone, Debug)]
pub struct ChaosFs {
    inner: Option<Arc<Inner>>,
}

impl ChaosFs {
    /// The pass-through instance: no faults, near-zero cost.
    pub fn off() -> ChaosFs {
        ChaosFs { inner: None }
    }

    /// A fault-injecting instance driven by `cfg`'s seeded schedule.
    pub fn seeded(cfg: ChaosConfig) -> ChaosFs {
        ChaosFs::with_schedule(Schedule::Seeded(cfg))
    }

    /// A disk that fills after `appends` appends: every later
    /// [`ChaosFs::append`] fails with [`io::ErrorKind::StorageFull`], and
    /// nothing else fails. Lets a test fail one chosen journal record.
    pub fn full_after_appends(appends: u64) -> ChaosFs {
        ChaosFs::with_schedule(Schedule::FullAfterAppends(appends))
    }

    fn with_schedule(schedule: Schedule) -> ChaosFs {
        ChaosFs {
            inner: Some(Arc::new(Inner {
                schedule,
                ops: AtomicU64::new(0),
                injected: AtomicU64::new(0),
            })),
        }
    }

    /// Whether this instance injects faults at all.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// How many faults this instance (and every clone of it) has injected
    /// so far; always 0 when disabled.
    pub fn injected(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.injected.load(Ordering::Relaxed))
    }

    /// Consults the schedule for the next operation at `stage`.
    fn decide(&self, stage: Stage) -> Option<Injected> {
        let inner = self.inner.as_ref()?;
        let cfg = match (inner.schedule, stage) {
            (Schedule::Seeded(cfg), _) => cfg,
            (Schedule::FullAfterAppends(n), Stage::Append) => {
                let full = inner.ops.fetch_add(1, Ordering::Relaxed) >= n;
                inner.injected.fetch_add(u64::from(full), Ordering::Relaxed);
                return full.then_some(Injected::Enospc);
            }
            (Schedule::FullAfterAppends(_), _) => return None,
        };
        let n = inner.ops.fetch_add(1, Ordering::Relaxed);
        // Per-mille roll from the n-th derived stream: deterministic in
        // (seed, n), independent of wall clock and thread timing as long
        // as the operation *sequence* is deterministic (which the store
        // guarantees by serialising journal appends in slot order).
        let roll = SimRng::derive(cfg.seed, &[n]).next_u64() % 1000;
        let injected = match (cfg.profile, stage) {
            (ChaosProfile::Enospc, Stage::Read) => None,
            (ChaosProfile::Enospc, _) => Some(Injected::Enospc),
            (ChaosProfile::Transient, Stage::Write | Stage::Append) => match roll {
                0..=79 => Some(Injected::Eintr),
                80..=159 => Some(Injected::Eagain),
                160..=219 => Some(Injected::ShortWrite),
                _ => None,
            },
            (ChaosProfile::Transient, _) => match roll {
                0..=79 => Some(Injected::Eintr),
                _ => None,
            },
            (ChaosProfile::Torn, Stage::Write | Stage::Append) => match roll {
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
        };
        if injected.is_some() {
            inner.injected.fetch_add(1, Ordering::Relaxed);
        }
        injected
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

    /// Appends `bytes` to an open file positioned at its end, in one
    /// `write_all`. A short write leaves a prefix of the bytes in the file
    /// before erroring — the journal's rewind-on-retry discipline (`set_len`
    /// back to the durable length) is what makes this safe to retry.
    pub fn append(&self, file: &mut File, bytes: &[u8]) -> io::Result<()> {
        match self.decide(Stage::Append) {
            Some(Injected::Eintr) => return Err(eintr("append")),
            Some(Injected::Eagain) => return Err(eagain("append")),
            Some(Injected::Enospc) => return Err(enospc("append")),
            Some(Injected::ShortWrite) => {
                file.write_all(&bytes[..bytes.len() / 2])?;
                return Err(eintr("short append"));
            }
            Some(Injected::FsyncFail) | Some(Injected::TornRename) | None => {}
        }
        file.write_all(bytes)
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
        assert_eq!(fs.injected(), 0);
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
                    Err(e) => format!("{:?}", e.kind()),
                })
                .collect()
        };
        let fs = ChaosFs::seeded(cfg);
        let a = record(&fs);
        let b = record(&ChaosFs::seeded(cfg));
        assert_eq!(
            a, b,
            "same seed + same op sequence must inject the same faults"
        );
        let failed = a.iter().filter(|s| *s != "ok").count() as u64;
        assert!(
            failed > 0,
            "a 200-op transient schedule should inject at least one fault"
        );
        // Each failed write is one injected fault, counted on every clone.
        assert_eq!(fs.clone().injected(), failed);
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
    fn full_after_appends_fails_every_append_from_the_nth_on() {
        let fs = ChaosFs::full_after_appends(3);
        let dir = tmp_dir("full-after");
        let p = dir.join("a.txt");
        // Other operations neither fail nor count as appends.
        fs.write_sync(&p, b"").unwrap();
        let mut file = std::fs::OpenOptions::new().append(true).open(&p).unwrap();
        fs.sync_data(&file).unwrap();
        let kinds: Vec<Option<io::ErrorKind>> = (0..6)
            .map(|_| fs.append(&mut file, b"r\n").err().map(|e| e.kind()))
            .collect();
        let full = Some(io::ErrorKind::StorageFull);
        assert_eq!(kinds, [None, None, None, full, full, full]);
        assert_eq!(fs.injected(), 3);
        assert_eq!(std::fs::read(&p).unwrap(), b"r\nr\nr\n");
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
