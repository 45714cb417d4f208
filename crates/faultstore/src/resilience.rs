//! The store's survival kit: one shared context carrying the chaos layer
//! and the degradation latch.
//!
//! Every store I/O path (journal appends, journal reads, run saves) goes
//! through [`StoreCtx::retrying`], which classifies errors with
//! [`simchaos::is_transient`] and retries with bounded exponential backoff
//! and deterministic jitter. Retries are not recorded anywhere: the
//! campaign's flight recorder holds only the simulated target and the slot
//! watchdog. When retries cannot help — a persistently failing disk — the
//! store *degrades* instead of aborting: the campaign keeps running without
//! persistence guarantees, one loud warning is printed, and the campaign
//! result is stamped `degraded: true` so downstream consumers know the
//! run's artifacts are incomplete.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use simchaos::{retry, ChaosFs};

use crate::{io_err, StoreError};

/// Shared resilience state for one [`crate::FaultStore`] (and the journals
/// it opens). Cheap to share via `Arc`; the default context is
/// chaos-off.
#[derive(Debug)]
pub(crate) struct StoreCtx {
    /// The (possibly disabled) environment-fault injection layer all store
    /// I/O is routed through.
    pub chaos: ChaosFs,
    /// Latched once the store has given up on some persistence duty.
    degraded: AtomicBool,
    /// Ensures the degradation warning prints once per store, not once per
    /// failed operation.
    warned: AtomicBool,
    /// Per-operation counter pinning each operation to its own
    /// deterministic jitter stream.
    ops: AtomicU64,
}

impl StoreCtx {
    /// A context routing I/O through `chaos`.
    pub fn new(chaos: ChaosFs) -> Arc<StoreCtx> {
        Arc::new(StoreCtx {
            chaos,
            degraded: AtomicBool::new(false),
            warned: AtomicBool::new(false),
            ops: AtomicU64::new(0),
        })
    }

    /// The chaos-off default.
    pub fn default_arc() -> Arc<StoreCtx> {
        StoreCtx::new(ChaosFs::off())
    }

    /// Runs `f` under [`simchaos::retry::run`], each operation on its own
    /// jitter stream.
    pub fn retrying<T>(&self, f: impl FnMut() -> io::Result<T>) -> io::Result<T> {
        retry::run(self.ops.fetch_add(1, Ordering::Relaxed), f)
    }

    /// Latches degraded mode, and prints the once-per-store warning on the
    /// first call.
    pub fn degrade(&self, reason: &'static str) {
        self.degraded.store(true, Ordering::SeqCst);
        if !self.warned.swap(true, Ordering::SeqCst) {
            eprintln!(
                "warning: fault store degraded: {reason}; the campaign continues without \
                 persistence guarantees and its result will be stamped `degraded: true`"
            );
        }
    }

    /// Writes `bytes` to `path` atomically: temp file, fsync, rename, each
    /// step through the chaos/retry layer. The fsync *before* the rename is
    /// what matters — rename-atomicity only covers the directory entry, so
    /// without it a crash could surface a renamed but empty (or partial)
    /// file. A crash at any point leaves either the old artifact or the
    /// complete new one; callers decide whether a persistent failure is an
    /// error or a degradation. A failure past the retries removes the temp
    /// file, so a failed save leaves nothing behind.
    pub(crate) fn write_atomic(&self, path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        let written = self
            .retrying(|| self.chaos.write_sync(&tmp, bytes))
            .map_err(|e| io_err(&tmp, e))
            .and_then(|()| {
                self.retrying(|| self.chaos.rename(&tmp, path))
                    .map_err(|e| io_err(path, e))
            });
        if written.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        written
    }

    /// Whether any persistence duty has been abandoned since this store
    /// opened.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::SeqCst)
    }
}
