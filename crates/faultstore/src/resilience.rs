//! The store's survival kit: one shared context carrying the chaos layer,
//! the retry policy, the harness tracer, and the degradation latch.
//!
//! Every store I/O path (cache writes, journal appends, run saves) goes
//! through [`StoreCtx::retrying`], which classifies errors with
//! [`simchaos::is_transient`], retries with bounded exponential backoff and
//! deterministic jitter, and emits `HarnessFault` / `Retry` events into the
//! same flight recorder that records target-level faults. When retries
//! cannot help — a persistently failing disk — the store *degrades* instead
//! of aborting: the campaign keeps running without persistence guarantees,
//! one loud warning is printed, and the campaign result is stamped
//! `degraded: true` so downstream consumers know the run's artifacts are
//! incomplete.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use simchaos::{error_kind_name, ChaosFs, RetryPolicy};
use simtrace::{EventKind, Tracer};

use crate::{io_err, StoreError};

/// Shared resilience state for one [`crate::FaultStore`] (and the cache and
/// journals it opens). Cheap to share via `Arc`; the default context is
/// chaos-off, default retry policy, disabled tracer.
#[derive(Debug)]
pub(crate) struct StoreCtx {
    /// The (possibly disabled) environment-fault injection layer all store
    /// I/O is routed through.
    pub chaos: ChaosFs,
    /// Retry policy for transient I/O faults.
    pub retry: RetryPolicy,
    /// Flight recorder for harness-level fault events.
    pub tracer: Tracer,
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
    /// A context with explicit chaos and tracer choices and the default
    /// retry policy.
    pub fn new(chaos: ChaosFs, tracer: Tracer) -> Arc<StoreCtx> {
        Arc::new(StoreCtx {
            chaos,
            retry: RetryPolicy::default(),
            tracer,
            degraded: AtomicBool::new(false),
            warned: AtomicBool::new(false),
            ops: AtomicU64::new(0),
        })
    }

    /// The chaos-off, tracer-off default.
    pub fn default_arc() -> Arc<StoreCtx> {
        StoreCtx::new(ChaosFs::off(), Tracer::disabled())
    }

    /// Runs `f` under the retry policy, emitting `HarnessFault` + `Retry`
    /// events for every transient failure and a final `HarnessFault` if the
    /// operation ultimately fails.
    pub fn retrying<T>(&self, op: &'static str, f: impl FnMut() -> io::Result<T>) -> io::Result<T> {
        let op_index = self.ops.fetch_add(1, Ordering::Relaxed);
        let out = self.retry.run(
            op,
            op_index,
            |ev| {
                self.tracer.emit(EventKind::HarnessFault {
                    op: ev.op,
                    kind: ev.kind,
                });
                self.tracer.emit(EventKind::Retry {
                    op: ev.op,
                    attempt: ev.attempt,
                    backoff_us: ev.backoff.as_micros() as u64,
                });
            },
            f,
        );
        if let Err(e) = &out {
            self.tracer.emit(EventKind::HarnessFault {
                op,
                kind: error_kind_name(e),
            });
        }
        out
    }

    /// Latches degraded mode: emits a `Degraded` event, and prints the
    /// once-per-store warning on the first call.
    pub fn degrade(&self, reason: &'static str) {
        self.tracer.emit(EventKind::Degraded { reason });
        self.degraded.store(true, Ordering::SeqCst);
        if !self.warned.swap(true, Ordering::SeqCst) {
            eprintln!(
                "warning: fault store degraded: {reason}; the campaign continues without \
                 persistence guarantees and its result will be stamped `degraded: true`"
            );
        }
    }

    /// Writes `bytes` to `path` atomically: temp file, fsync, rename, each
    /// step through the chaos/retry layer (`write_op` and `rename_op` name
    /// the two steps in harness events). The fsync *before* the rename is
    /// what matters — rename-atomicity only covers the directory entry, so
    /// without it a crash could surface a renamed but empty (or partial)
    /// file. A crash at any point leaves either the old artifact or the
    /// complete new one; callers decide whether a persistent failure is an
    /// error or a degradation.
    pub(crate) fn write_atomic(
        &self,
        write_op: &'static str,
        rename_op: &'static str,
        path: &Path,
        bytes: &[u8],
    ) -> Result<(), StoreError> {
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        self.retrying(write_op, || self.chaos.write_sync(&tmp, bytes))
            .map_err(|e| io_err(&tmp, e))?;
        self.retrying(rename_op, || self.chaos.rename(&tmp, path))
            .map_err(|e| io_err(path, e))?;
        Ok(())
    }

    /// Whether any persistence duty has been abandoned since this store
    /// opened.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::SeqCst)
    }
}
