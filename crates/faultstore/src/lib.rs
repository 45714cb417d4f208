//! `faultstore` — the persistence layer that turns the injector into a
//! benchmark *platform*: durable faultloads, crash-safe campaigns,
//! comparable runs.
//!
//! G-SWFIT's defining engineering split is step 1 (the expensive scan that
//! builds the mutation map) versus step 2 (the cheap apply/undo of a
//! pre-computed mutation). This crate makes the split durable across
//! processes, the way the paper's tooling shipped faultload files between
//! testbeds:
//!
//! * [`cache`] — a **content-addressed fault-map cache**: step-1
//!   [`swfit_core::Scanner`] output persisted to disk keyed by
//!   `(image fingerprint, operator-set hash, function-filter hash)`, so a
//!   rescan of an unchanged OS edition is a file read, not a code walk.
//!   [`FaultMapCache::scan_count`] counts the lookups that fell through to
//!   a real scan, proving cache hits.
//! * [`journal`] — a **crash-safe, append-only campaign journal** (JSONL,
//!   write-then-fsync, one record per completed slot, written in slot order
//!   via the executor's ordered observer). Re-running an interrupted
//!   campaign replays the journaled prefix and executes only the remainder;
//!   because every slot's randomness derives from `(seed, iteration, slot)`,
//!   the resumed [`depbench::CampaignResult`] is byte-identical to an
//!   uninterrupted run. Header validation (schema, edition, server, config
//!   hash, faultload fingerprint) refuses stale journals.
//! * [`store`] — the on-disk layout gluing both together plus named,
//!   reloadable campaign results ([`FaultStore::save_run`] /
//!   [`FaultStore::load_run`]).
//! * [`diff`] — **cross-run diffing**: load two stored results and render a
//!   delta table over the paper's metrics (SPC/THR/RTM/ER%, MIS/KNS/KCP,
//!   ADMf).
//!
//! # Example
//!
//! ```no_run
//! use depbench::{Campaign, CampaignConfig};
//! use faultstore::FaultStore;
//! use simos::{Edition, Os};
//! use swfit_core::Scanner;
//! use webserver::ServerKind;
//!
//! let store = FaultStore::open("bench-store")?;
//! let os = Os::boot(Edition::Nimbus2000)?;
//! // Second process to run this line gets a cache hit instead of a scan.
//! let faultload = store.scan_image(&Scanner::standard(), os.program().image())?;
//! let campaign = Campaign::new(Edition::Nimbus2000, ServerKind::Wren, CampaignConfig::default());
//! // Survives SIGKILL: re-running with `resume = true` picks up mid-campaign.
//! let result = store.run_resumable(&campaign, &faultload, 0, true)?;
//! store.save_run("baseline-run", &result)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod cache;
pub mod diff;
pub mod journal;
pub(crate) mod resilience;
pub mod store;

use std::fmt;

pub use cache::{CacheKey, FaultMapCache};
pub use diff::{diff_runs, diff_table};
pub use journal::{Journal, JournalHeader, StopRecord, JOURNAL_SCHEMA};
// Re-exported so store users can configure resilience without naming the
// simchaos / simtrace crates themselves.
pub use simchaos::{ChaosConfig, ChaosFs, ChaosProfile};
pub use simtrace::Tracer as HarnessTracer;
pub use store::FaultStore;

/// Why a store operation could not complete.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure (path included in the message).
    Io(String),
    /// An artifact on disk does not parse.
    Json(String),
    /// The faultload carries no fingerprint, so the store cannot key or
    /// validate it (see `Faultload::is_fingerprinted`).
    MissingFingerprint {
        /// The faultload's declared target.
        target: String,
    },
    /// A journal exists but was written by a different campaign (schema,
    /// edition, server, config or faultload mismatch) — resuming it would
    /// splice foreign slot results into this run.
    StaleJournal {
        /// Which header field disagreed, with both values.
        reason: String,
    },
    /// No stored run with this name.
    MissingRun {
        /// The requested run name.
        name: String,
    },
    /// A run name contains characters unsafe for a file name.
    BadRunName {
        /// The offending name.
        name: String,
    },
    /// The underlying campaign failed.
    Campaign(depbench::CampaignError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(m) => write!(f, "store I/O error: {m}"),
            StoreError::Json(m) => write!(f, "store artifact does not parse: {m}"),
            StoreError::MissingFingerprint { target } => write!(
                f,
                "faultload `{target}` carries no fingerprint; the store refuses to \
                 cache artifacts it cannot validate — re-generate with `faultbench scan`"
            ),
            StoreError::StaleJournal { reason } => {
                write!(f, "stale campaign journal refused: {reason}")
            }
            StoreError::MissingRun { name } => write!(f, "no stored run named `{name}`"),
            StoreError::BadRunName { name } => write!(
                f,
                "run name `{name}` is not storable; use letters, digits, `.`, `_`, `-`"
            ),
            StoreError::Campaign(e) => write!(f, "campaign failed: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Campaign(e) => Some(e),
            _ => None,
        }
    }
}

impl From<depbench::CampaignError> for StoreError {
    fn from(e: depbench::CampaignError) -> StoreError {
        StoreError::Campaign(e)
    }
}

/// Annotates an I/O error with the path it happened on.
pub(crate) fn io_err(path: &std::path::Path, e: std::io::Error) -> StoreError {
    StoreError::Io(format!("{}: {e}", path.display()))
}
