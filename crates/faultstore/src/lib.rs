//! `faultstore` — the persistence layer that turns the injector into a
//! benchmark *platform*: crash-safe campaigns and comparable runs.
//!
//! G-SWFIT's defining engineering split is step 1 (the scan that builds
//! the mutation map) versus step 2 (the cheap apply/undo of a pre-computed
//! mutation). Step 1 is a direct [`swfit_core::Scanner`] call: it takes
//! about a millisecond here, and a scan cache would still boot the edition
//! for the image fingerprint it keys on, so nothing caches it. This
//! crate makes *campaigns* durable across processes, the way the paper's
//! tooling shipped faultload files between testbeds:
//!
//! * [`journal`] — a **crash-safe, append-only campaign journal** (JSONL,
//!   one record per completed slot, written in slot order via the
//!   executor's ordered observer before the campaign moves on, and fsynced
//!   once per 32 records: a SIGKILL loses no written record, a power loss
//!   at most the last 31). Re-running an interrupted
//!   campaign replays the journaled prefix and executes only the remainder;
//!   because every slot's randomness derives from `(seed, iteration, slot)`,
//!   the resumed [`depbench::CampaignResult`] is byte-identical to an
//!   uninterrupted run. Header validation (schema, edition, server, config
//!   hash, faultload fingerprint) refuses stale journals.
//! * [`store`] — the on-disk layout holding the journals plus named,
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
//! let faultload = Scanner::standard().scan_image(os.program().image());
//! let campaign = Campaign::new(Edition::Nimbus2000, ServerKind::Wren, CampaignConfig::default());
//! // Survives SIGKILL: re-running with `resume = true` picks up mid-campaign.
//! let result = store.run_resumable(&campaign, &faultload, 0, true)?;
//! store.save_run("baseline-run", &result)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod diff;
pub mod journal;
pub(crate) mod resilience;
pub mod store;

use std::fmt;

pub use diff::{diff_runs, diff_table};
pub use journal::{Journal, JournalHeader, JOURNAL_SCHEMA};
// Re-exported so store users can inject storage faults without naming the
// simchaos crate themselves.
pub use simchaos::{ChaosFs, Fault};
pub use store::FaultStore;

/// Why a store operation could not complete.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure (path included in the message).
    Io(String),
    /// An artifact on disk does not parse.
    Json(String),
    /// A value could not be written as JSON (e.g. a non-finite float).
    Encode(String),
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
            StoreError::Encode(m) => write!(f, "store artifact cannot be written as JSON: {m}"),
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
