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
//!   enabled it has one **enumerable schedule**: operation `n` fails with
//!   one [`Fault`] ([`ChaosFs::fail_at`]). Every consulted operation, each
//!   retry included, takes the next index, so a counting pass
//!   ([`ChaosFs::ops`]) tells a test how many failure points a workload
//!   has, and a sweep can fail each of them with each fault in turn.
//! * [`retry`] — the survival half: one bounded-retry schedule with
//!   exponential backoff and deterministic jitter (`SimRng::derive`)
//!   that callers wrap around transient-fallible operations.
//!
//! The crate knows nothing about `faultstore`. It reports no events: an
//! enabled [`ChaosFs`] counts the faults it injected
//! ([`ChaosFs::injected`]), which is what a test reads to show that a
//! point exercised anything.

pub mod retry;

use std::fs::File;
use std::io::{self, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A storage fault a [`ChaosFs`] can inject. Each one fires only at the
/// stages where it can occur: a read cannot suffer a short write, a
/// rename cannot suffer a failed fsync.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// `EINTR`: the call was interrupted; retry succeeds. Any stage.
    Eintr,
    /// `EAGAIN`: the resource was briefly unavailable; retry succeeds.
    /// Any stage but an fsync.
    Eagain,
    /// Only a prefix of the payload reaches the file before the error;
    /// retry succeeds. Writes and appends.
    ShortWrite,
    /// The data was written but `fsync` reports failure; retry succeeds.
    /// Fsyncs.
    FsyncFail,
    /// The rename half-happens: the destination is left holding a
    /// truncated prefix of the source, and the call errors transiently.
    /// Renames.
    TornRename,
    /// The disk is full, from this operation on; retrying cannot help.
    /// Every stage but a read.
    Enospc,
}

impl Fault {
    /// Every fault, in declaration order.
    pub const ALL: [Fault; 6] = [
        Fault::Eintr,
        Fault::Eagain,
        Fault::ShortWrite,
        Fault::FsyncFail,
        Fault::TornRename,
        Fault::Enospc,
    ];
}

/// The I/O stage an operation is in when the schedule is consulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    Write,
    Append,
    Fsync,
    Rename,
    Read,
}

impl Stage {
    /// Whether `fault` can occur at this stage.
    fn admits(self, fault: Fault) -> bool {
        match fault {
            Fault::Eintr => true,
            Fault::Eagain => self != Stage::Fsync,
            Fault::ShortWrite => matches!(self, Stage::Write | Stage::Append),
            Fault::FsyncFail => self == Stage::Fsync,
            Fault::TornRename => self == Stage::Rename,
            Fault::Enospc => self != Stage::Read,
        }
    }
}

#[derive(Debug)]
struct Inner {
    /// The operation index the fault fires at.
    at: u64,
    /// The fault injected there (and, for [`Fault::Enospc`], after).
    fault: Fault,
    /// Global operation counter; each consulted operation takes one index.
    ops: AtomicU64,
    /// How many of those operations injected a fault.
    injected: AtomicU64,
}

/// A virtual-filesystem layer that injects one environment fault at one
/// chosen operation.
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

    /// Operation `n` (0-based, counting every consulted operation and
    /// every retry) fails with `fault`, if its stage admits that fault;
    /// otherwise nothing fires. [`Fault::Enospc`] also fails every later
    /// operation but a read, as a full disk does. `fail_at(u64::MAX, _)`
    /// injects nothing and only counts ([`ChaosFs::ops`]).
    pub fn fail_at(n: u64, fault: Fault) -> ChaosFs {
        ChaosFs {
            inner: Some(Arc::new(Inner {
                at: n,
                fault,
                ops: AtomicU64::new(0),
                injected: AtomicU64::new(0),
            })),
        }
    }

    /// How many operations this instance (and every clone of it) has
    /// consulted the schedule for so far; always 0 when disabled.
    pub fn ops(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.ops.load(Ordering::Relaxed))
    }

    /// How many faults this instance (and every clone of it) has injected
    /// so far; always 0 when disabled.
    pub fn injected(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.injected.load(Ordering::Relaxed))
    }

    /// Consults the schedule for the next operation, at `stage`.
    fn decide(&self, stage: Stage) -> Option<Fault> {
        let inner = self.inner.as_ref()?;
        let op = inner.ops.fetch_add(1, Ordering::Relaxed);
        let due = match inner.fault {
            Fault::Enospc => op >= inner.at,
            _ => op == inner.at,
        };
        let fires = due && stage.admits(inner.fault);
        inner
            .injected
            .fetch_add(u64::from(fires), Ordering::Relaxed);
        fires.then_some(inner.fault)
    }

    /// Creates (truncating) `path`, writes `bytes`, and syncs the file to
    /// disk — the durable half of a write-then-rename. Two operations: the
    /// write (EINTR/EAGAIN/ENOSPC before it, or a short write: a prefix
    /// lands in the file before the error), then the fsync.
    pub fn write_sync(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        match self.decide(Stage::Write) {
            Some(Fault::Eintr) => return Err(eintr("write")),
            Some(Fault::Eagain) => return Err(eagain("write")),
            Some(Fault::Enospc) => return Err(enospc("write")),
            Some(Fault::ShortWrite) => {
                // A prefix reaches the disk, then the call errors. The
                // retry re-creates (truncates) the file, so no torn bytes
                // survive a successful retry.
                let mut f = File::create(path)?;
                f.write_all(&bytes[..bytes.len() / 2])?;
                return Err(eintr("short write"));
            }
            Some(Fault::FsyncFail | Fault::TornRename) | None => {}
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
            Some(Fault::Eintr) => return Err(eintr("rename")),
            Some(Fault::Eagain) => return Err(eagain("rename")),
            Some(Fault::Enospc) => return Err(enospc("rename")),
            Some(Fault::TornRename) => {
                let bytes = std::fs::read(from)?;
                std::fs::write(to, &bytes[..bytes.len() / 2])?;
                return Err(eintr("torn rename"));
            }
            Some(Fault::ShortWrite | Fault::FsyncFail) | None => {}
        }
        std::fs::rename(from, to)
    }

    /// Reads `path` to a string, with transient faults on the read path.
    pub fn read_to_string(&self, path: &Path) -> io::Result<String> {
        match self.decide(Stage::Read) {
            Some(Fault::Eintr) => return Err(eintr("read")),
            Some(Fault::Eagain) => return Err(eagain("read")),
            _ => {}
        }
        std::fs::read_to_string(path)
    }

    /// Appends `bytes` to an open file at its cursor, in one `write_all`.
    /// A short write leaves a prefix of the bytes in the file before
    /// erroring — the journal's rewind-on-retry discipline (`set_len` back
    /// to the whole records) is what makes this safe to retry.
    pub fn append(&self, file: &mut File, bytes: &[u8]) -> io::Result<()> {
        match self.decide(Stage::Append) {
            Some(Fault::Eintr) => return Err(eintr("append")),
            Some(Fault::Eagain) => return Err(eagain("append")),
            Some(Fault::Enospc) => return Err(enospc("append")),
            Some(Fault::ShortWrite) => {
                file.write_all(&bytes[..bytes.len() / 2])?;
                return Err(eintr("short append"));
            }
            Some(Fault::FsyncFail | Fault::TornRename) | None => {}
        }
        file.write_all(bytes)
    }

    /// `File::sync_data` with injected fsync failures.
    pub fn sync_data(&self, file: &File) -> io::Result<()> {
        self.fsync_fault()?;
        file.sync_data()
    }

    /// `File::sync_all` with injected fsync failures.
    pub fn sync_all(&self, file: &File) -> io::Result<()> {
        self.fsync_fault()?;
        file.sync_all()
    }

    /// Consults the schedule for an fsync.
    fn fsync_fault(&self) -> io::Result<()> {
        match self.decide(Stage::Fsync) {
            Some(Fault::Eintr) => Err(eintr("fsync")),
            Some(Fault::Enospc) => Err(enospc("fsync")),
            Some(Fault::FsyncFail) => Err(fsync_fail()),
            _ => Ok(()),
        }
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
/// response. `EINTR` (`Interrupted`), `EAGAIN` (`WouldBlock`) and
/// `TimedOut` qualify; `ENOSPC` (`StorageFull`) and everything else do
/// not.
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
        let dir = tmp_dir("off");
        let p = dir.join("a.txt");
        fs.write_sync(&p, b"hello").unwrap();
        assert_eq!(fs.read_to_string(&p).unwrap(), "hello");
        let q = dir.join("b.txt");
        fs.rename(&p, &q).unwrap();
        assert_eq!(fs.read_to_string(&q).unwrap(), "hello");
        assert_eq!((fs.ops(), fs.injected()), (0, 0));
    }

    /// Two writes (write + fsync each), then one append per result: the
    /// error kind of each call, and the injected count.
    fn drive(fs: &ChaosFs, dir: &Path) -> (Vec<Option<io::ErrorKind>>, u64) {
        let p = dir.join("a.txt");
        let mut kinds = vec![
            fs.write_sync(&p, b"0123").err().map(|e| e.kind()),
            fs.write_sync(&p, b"4567").err().map(|e| e.kind()),
        ];
        let mut file = std::fs::OpenOptions::new().append(true).open(&p).unwrap();
        for _ in 0..3 {
            kinds.push(fs.append(&mut file, b"r\n").err().map(|e| e.kind()));
        }
        (kinds, fs.injected())
    }

    #[test]
    fn a_transient_fault_fires_once_and_only_where_its_stage_admits_it() {
        let dir = tmp_dir("once");
        let counting = ChaosFs::fail_at(u64::MAX, Fault::Eintr);
        let (kinds, injected) = drive(&counting, &dir);
        assert_eq!((kinds, injected), (vec![None; 5], 0));
        // write, fsync, write, fsync, append, append, append.
        assert_eq!(counting.ops(), 7);

        let intr = Some(io::ErrorKind::Interrupted);
        let block = Some(io::ErrorKind::WouldBlock);
        for (n, fault, want) in [
            (0, Fault::Eintr, [intr, None, None, None, None]),
            (3, Fault::FsyncFail, [None, intr, None, None, None]),
            (5, Fault::Eagain, [None, None, None, block, None]),
            (6, Fault::ShortWrite, [None, None, None, None, intr]),
        ] {
            let fs = ChaosFs::fail_at(n, fault);
            let (kinds, injected) = drive(&fs, &dir);
            assert_eq!(kinds, want, "{fault:?} at {n}");
            assert_eq!(injected, 1, "{fault:?} at {n}");
        }
        // A fault its stage does not admit fires nowhere.
        for (n, fault) in [
            (1, Fault::Eagain),
            (0, Fault::FsyncFail),
            (4, Fault::TornRename),
        ] {
            let fs = ChaosFs::fail_at(n, fault);
            assert_eq!(drive(&fs, &dir), (vec![None; 5], 0), "{fault:?} at {n}");
        }
        // The last append's short write left half its bytes behind.
        let fs = ChaosFs::fail_at(6, Fault::ShortWrite);
        drive(&fs, &dir);
        assert_eq!(std::fs::read(dir.join("a.txt")).unwrap(), b"4567r\nr\nr");
    }

    /// Every transient fault, at every operation, is absorbed by one retry:
    /// the calls succeed and the file ends as a fault-free run leaves it.
    #[test]
    fn every_transient_fault_is_absorbed_by_a_retry() {
        let dir = tmp_dir("absorbed");
        let p = dir.join("a.txt");
        let q = dir.join("b.txt");
        for fault in Fault::ALL.into_iter().filter(|f| *f != Fault::Enospc) {
            let mut fired = 0;
            for n in 0..6 {
                let fs = ChaosFs::fail_at(n, fault);
                let retry = |op: &mut dyn FnMut() -> io::Result<()>| {
                    op().or_else(|e| {
                        assert!(is_transient(&e), "{fault:?} at {n}: {e}");
                        op()
                    })
                };
                retry(&mut || fs.write_sync(&p, b"0123")).unwrap();
                let mut file = std::fs::OpenOptions::new().write(true).open(&p).unwrap();
                let mut at_end = || {
                    file.seek(SeekFrom::Start(4))?;
                    fs.append(&mut file, b"r\n")
                };
                retry(&mut at_end).unwrap();
                retry(&mut || fs.rename(&p, &q)).unwrap();
                let mut text = String::new();
                retry(&mut || {
                    text = fs.read_to_string(&q)?;
                    Ok(())
                })
                .unwrap();
                assert_eq!(text, "0123r\n", "{fault:?} at {n}");
                assert!(fs.injected() <= 1, "{fault:?} at {n}");
                fired += fs.injected();
            }
            assert!(fired > 0, "{fault:?} never fired");
        }
    }

    #[test]
    fn enospc_fails_every_later_operation_but_reads() {
        let dir = tmp_dir("enospc");
        let fs = ChaosFs::fail_at(4, Fault::Enospc);
        let full = Some(io::ErrorKind::StorageFull);
        let (kinds, injected) = drive(&fs, &dir);
        assert_eq!(kinds, [None, None, full, full, full]);
        assert_eq!(injected, 3);
        assert!(!is_transient(&io::Error::from(io::ErrorKind::StorageFull)));
        // Reads still work: a full disk does not prevent loading artifacts.
        assert_eq!(fs.read_to_string(&dir.join("a.txt")).unwrap(), "4567");
        assert_eq!((fs.ops(), fs.injected()), (8, 3));
    }

    #[test]
    fn torn_rename_leaves_truncated_destination_then_retry_heals() {
        let fs = ChaosFs::fail_at(0, Fault::TornRename);
        let dir = tmp_dir("torn");
        let (src, dst) = (dir.join("src.txt"), dir.join("dst.txt"));
        std::fs::write(&src, b"0123456789abcdef").unwrap();
        let e = fs.rename(&src, &dst).unwrap_err();
        assert!(is_transient(&e), "{e}");
        assert_eq!(std::fs::read(&dst).unwrap(), b"01234567");
        fs.rename(&src, &dst).unwrap();
        assert_eq!(std::fs::read(&dst).unwrap(), b"0123456789abcdef");
        assert_eq!(fs.injected(), 1);
    }
}
