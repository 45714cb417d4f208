//! The crash-safe campaign journal: append-only JSONL, one record per
//! completed slot, written before the campaign moves on and fsynced in
//! groups of [`GROUP`].
//!
//! # Format
//!
//! Line 1 is the [`JournalHeader`] — everything needed to recognize "the
//! same campaign": schema version, edition, server, iteration, a stable
//! hash of the result-affecting config
//! ([`depbench::CampaignConfig::stable_hash`]), the faultload's image
//! fingerprint and its fault count. Every following line is one
//! `SlotRecord` — `{"slot": i, "result": {…}}` for a completed slot, or
//! `{"slot": i, "quarantined": {…}}` for one whose harness panicked — written
//! strictly in slot order (the executor's ordered observer guarantees a
//! gap-free prefix even under parallel work-stealing). One exception to
//! append-only ordering: a *resumed* campaign re-attempts quarantined slots,
//! and the re-attempt's record is appended out of order, superseding the
//! quarantine line it replaces (last record for a slot wins on replay).
//!
//! # Crash safety
//!
//! [`Journal::record`] writes its record to the file, in one `write`, before
//! it returns. The bytes are then in the kernel's page cache, which outlives
//! the process, so a SIGKILL loses no record that `record` returned; a kill
//! mid-write leaves at most one torn trailing line.
//!
//! The `fsync` (`File::sync_data`) is group-committed: it runs when the
//! [`GROUP`]th unsynced record is written, and [`Journal::sync`] syncs the
//! rest (`FaultStore::run_resumable` calls it before it returns; `Drop`
//! calls it as a best effort). A power loss therefore loses at most the
//! last `GROUP - 1` = 31 records, and may leave a torn tail in their place:
//! whole records, a partial one, zeroed bytes. [`Journal::open_resume`]
//! stops at the first unparsable or non-contiguous record, truncates the
//! file back to the last whole record, and resumes from there — the lost
//! slots are re-executed, never trusted.
//!
//! # Staleness
//!
//! Resume validates every header field against the campaign about to run.
//! Any disagreement is a [`StoreError::StaleJournal`] naming the field:
//! silently splicing slot results measured under a different config or OS
//! build into a campaign would fabricate benchmark numbers.

use std::fs::{File, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use depbench::{Campaign, ConvergenceConfig, SlotError, SlotOutcome, SlotResult};
use serde::{Deserialize, Serialize};
use simchaos::ChaosFs;
use swfit_core::Faultload;

use crate::resilience::StoreCtx;
use crate::{io_err, StoreError};

/// Journal schema version; bumped on any incompatible format change.
pub const JOURNAL_SCHEMA: u32 = 1;

/// Records per group commit: [`Journal::record`] fsyncs when it writes the
/// `GROUP`th record since the last sync. A power loss loses at most
/// `GROUP - 1` records; the unsynced bytes it keeps for retries stay under
/// `GROUP` records (about 56 KB).
pub const GROUP: usize = 32;

/// First line of a journal: identifies the campaign the slot records belong
/// to.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct JournalHeader {
    /// Format version ([`JOURNAL_SCHEMA`]).
    pub schema: u32,
    /// OS edition name (string form, stable across enum refactors).
    pub edition: String,
    /// Server name.
    pub server: String,
    /// Campaign iteration the journal covers.
    pub iteration: u64,
    /// [`depbench::CampaignConfig::stable_hash`] of the campaign config.
    pub config_hash: u64,
    /// The faultload's image fingerprint (`None` only for legacy artifacts,
    /// which the store refuses to journal).
    pub faultload_fingerprint: Option<u64>,
    /// Hash of the fault ids, in slot order — distinguishes different
    /// same-size subsets of the same image (e.g. two ablation faultloads).
    pub faultload_hash: u64,
    /// [`swfit_core::pack::pack_set_hash`] of the faultload's pack
    /// provenance stamps. `None` for pre-pack journals and faultloads with
    /// no pack provenance — the field is additive within schema 1, so
    /// legacy journals resume unchanged; it is validated only when both
    /// sides carry a value.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub pack_hash: Option<u64>,
    /// Number of faults (= slots) in the campaign.
    pub fault_count: usize,
}

impl JournalHeader {
    /// The header describing `campaign` running `faultload` at `iteration`.
    pub fn describe(campaign: &Campaign, faultload: &Faultload, iteration: u64) -> JournalHeader {
        JournalHeader {
            schema: JOURNAL_SCHEMA,
            edition: campaign.edition().name().to_string(),
            server: campaign.server().name().to_string(),
            iteration,
            config_hash: campaign.config().stable_hash(),
            faultload_fingerprint: faultload.fingerprint,
            faultload_hash: {
                let ids: Vec<&str> = faultload.faults.iter().map(|f| f.id.as_str()).collect();
                simkit::hash::fnv1a_strs(&ids)
            },
            pack_hash: (!faultload.packs.is_empty())
                .then(|| swfit_core::pack::pack_set_hash(&faultload.packs)),
            fault_count: faultload.len(),
        }
    }

    /// Field-by-field comparison with a precise mismatch description,
    /// whose reason starts with `prefix`.
    fn validate_against(&self, expected: &JournalHeader, prefix: &str) -> Result<(), StoreError> {
        let mismatch = |field: &str, found: &dyn std::fmt::Debug, want: &dyn std::fmt::Debug| {
            Err(StoreError::StaleJournal {
                reason: format!("{prefix}{field} is {found:?}, campaign expects {want:?}"),
            })
        };
        if self.schema != expected.schema {
            return mismatch("schema", &self.schema, &expected.schema);
        }
        if self.edition != expected.edition {
            return mismatch("edition", &self.edition, &expected.edition);
        }
        if self.server != expected.server {
            return mismatch("server", &self.server, &expected.server);
        }
        if self.iteration != expected.iteration {
            return mismatch("iteration", &self.iteration, &expected.iteration);
        }
        // Pack provenance is additive: a pre-pack journal (None) resumes
        // under any pack set, but two *recorded* pack sets must agree —
        // splicing slot results measured under different operator content
        // would fabricate benchmark numbers. Checked before the config hash
        // so a changed pack set (which also moves the config hash, via the
        // config's pack refs) is reported as what it is, not as an opaque
        // hash mismatch.
        if let (Some(stored), Some(current)) = (self.pack_hash, expected.pack_hash) {
            if stored != current {
                return Err(StoreError::StaleJournal {
                    reason: format!(
                        "fault-model pack set changed: journal was recorded with pack-set \
                         hash {stored:#018x}, the campaign about to resume uses \
                         {current:#018x}; re-scan with the original pack files (or start \
                         a fresh campaign under the new packs)"
                    ),
                });
            }
        }
        if self.config_hash != expected.config_hash {
            return mismatch("config hash", &self.config_hash, &expected.config_hash);
        }
        if self.faultload_fingerprint != expected.faultload_fingerprint {
            return mismatch(
                "faultload fingerprint",
                &self.faultload_fingerprint,
                &expected.faultload_fingerprint,
            );
        }
        if self.faultload_hash != expected.faultload_hash {
            return mismatch(
                "faultload content",
                &self.faultload_hash,
                &expected.faultload_hash,
            );
        }
        if self.fault_count != expected.fault_count {
            return mismatch("fault count", &self.fault_count, &expected.fault_count);
        }
        Ok(())
    }
}

/// The durable record of a campaign's early-stop decision: which iteration
/// the convergence rule (or the iteration cap) stopped the campaign at.
///
/// Written once, atomically (tmp + fsync + rename), the moment the decision
/// is taken — *before* the final summary is printed or saved. A resumed
/// campaign replays the decision instead of re-deriving it, so a crash
/// between "decided to stop" and "finished reporting" cannot change how
/// many iterations the campaign claims to have run: the stop file is the
/// decision, byte for byte.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StopRecord {
    /// Format version ([`JOURNAL_SCHEMA`]).
    pub schema: u32,
    /// OS edition name.
    pub edition: String,
    /// Server name.
    pub server: String,
    /// [`depbench::CampaignConfig::stable_hash`] of the campaign config.
    pub config_hash: u64,
    /// The faultload's image fingerprint.
    pub faultload_fingerprint: Option<u64>,
    /// Hash of the fault ids, in slot order.
    pub faultload_hash: u64,
    /// The convergence rule in force when the decision was taken.
    pub convergence: ConvergenceConfig,
    /// Iterations the campaign ran (the stop decision: iterations
    /// `0..stopped_at` are final).
    pub stopped_at: u64,
    /// `true` when the CI half-width targets were met; `false` when the
    /// campaign stopped because it hit `convergence.max_iters` instead.
    pub converged: bool,
}

impl StopRecord {
    /// The record describing `campaign` under `conv` stopping after
    /// `stopped_at` iterations.
    pub fn describe(
        campaign: &Campaign,
        faultload: &Faultload,
        conv: &ConvergenceConfig,
        stopped_at: u64,
        converged: bool,
    ) -> StopRecord {
        let header = JournalHeader::describe(campaign, faultload, 0);
        StopRecord {
            schema: JOURNAL_SCHEMA,
            edition: header.edition,
            server: header.server,
            config_hash: header.config_hash,
            faultload_fingerprint: header.faultload_fingerprint,
            faultload_hash: header.faultload_hash,
            convergence: *conv,
            stopped_at,
            converged,
        }
    }

    /// Validates that this record belongs to the campaign and convergence
    /// rule about to resume — everything except the decision itself
    /// (`stopped_at` / `converged`) must agree.
    ///
    /// # Errors
    ///
    /// [`StoreError::StaleJournal`] naming the mismatched field: replaying a
    /// stop decision taken under a different config or target would freeze
    /// the wrong iteration count into the results.
    pub fn validate_against(&self, expected: &StopRecord) -> Result<(), StoreError> {
        self.header()
            .validate_against(&expected.header(), "stop record ")?;
        if self.convergence != expected.convergence {
            return Err(StoreError::StaleJournal {
                reason: format!(
                    "stop record convergence rule is {:?}, campaign expects {:?}",
                    self.convergence, expected.convergence
                ),
            });
        }
        Ok(())
    }

    /// The campaign identity this record shares with a journal header, as
    /// a header: the fields a stop record lacks are fixed (iteration 0, no
    /// pack hash, no fault count), so they compare equal and one comparison
    /// serves both.
    fn header(&self) -> JournalHeader {
        JournalHeader {
            schema: self.schema,
            edition: self.edition.clone(),
            server: self.server.clone(),
            iteration: 0,
            config_hash: self.config_hash,
            faultload_fingerprint: self.faultload_fingerprint,
            faultload_hash: self.faultload_hash,
            pack_hash: None,
            fault_count: 0,
        }
    }
}

/// One journal line after the header, as read back. Exactly one of
/// `result` and `quarantined` is set; completed-slot records read
/// byte-identically to the pre-quarantine format (`{"slot": i, "result":
/// {…}}`), so journals written before quarantine existed replay unchanged.
#[derive(Debug, Deserialize)]
struct SlotRecord {
    /// Slot index (= fault index in the faultload).
    slot: usize,
    /// The completed slot's result.
    #[serde(default)]
    result: Option<SlotResult>,
    /// Why the slot was quarantined instead.
    #[serde(default)]
    quarantined: Option<SlotError>,
}

impl SlotRecord {
    fn outcome(self) -> Option<SlotOutcome> {
        match (self.result, self.quarantined) {
            (Some(r), None) => Some(SlotOutcome::Done(r)),
            (None, Some(e)) => Some(SlotOutcome::Quarantined(e)),
            // Neither or both: a record this journal never writes.
            _ => None,
        }
    }
}

/// One journal line after the header, as written: the [`SlotRecord`]
/// shape, serialized straight from the borrowed outcome.
struct RecordLine<'a> {
    slot: usize,
    outcome: &'a SlotOutcome,
}

impl Serialize for RecordLine<'_> {
    fn serialize<W: serde::Write>(&self, w: &mut W) -> Result<(), serde::SerError> {
        w.value(serde::Token::Object)?;
        w.key("slot");
        self.slot.serialize(w)?;
        match self.outcome {
            SlotOutcome::Done(r) => {
                w.key("result");
                r.serialize(w)?;
            }
            SlotOutcome::Quarantined(e) => {
                w.key("quarantined");
                e.serialize(w)?;
            }
        }
        w.close();
        Ok(())
    }
}

/// What the journal durably knows about one slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SlotState {
    /// No record yet.
    Missing,
    /// A completed result is on disk — final, never overwritten.
    Done,
    /// A quarantine record is on disk; a re-attempt may supersede it.
    Quarantined,
}

struct JournalInner {
    file: File,
    /// Per-slot record state, sized to the campaign's fault count. A record
    /// is accepted only for the first [`SlotState::Missing`] slot (the
    /// gap-free prefix rule) or to supersede a [`SlotState::Quarantined`]
    /// slot on resume. Anything else is refused: an error after a failed
    /// append (see `lost`), and dropped otherwise — it could then only
    /// follow a failed slot, and the campaign aborts on failure anyway.
    state: Vec<SlotState>,
    /// Byte length of the fsynced prefix (header + group-committed records).
    synced: u64,
    /// The records written after `synced` and not yet fsynced, as bytes:
    /// what a retry rewrites after rewinding to `synced`.
    unsynced: Vec<u8>,
    /// How many records `unsynced` holds.
    unsynced_records: usize,
    /// Set when an attempt failed part-way, so the file past `synced` may
    /// hold anything: the next attempt first rewinds to `synced` and
    /// rewrites all of `unsynced`, so no partial bytes ever sit in front of
    /// a record.
    rewind: bool,
    /// The first slot whose in-order record could not be appended. Every
    /// later in-order record would leave a gap, so it is refused with an
    /// error, and the store counts it towards degrading.
    lost: Option<usize>,
    /// Completed fsyncs, the header's included.
    syncs: u64,
}

impl JournalInner {
    fn new(file: File, state: Vec<SlotState>, synced: u64) -> JournalInner {
        JournalInner {
            file,
            state,
            synced,
            unsynced: Vec::new(),
            unsynced_records: 0,
            rewind: false,
            lost: None,
            syncs: 0,
        }
    }

    /// One attempt to write the unsynced bytes from offset `from` on — all
    /// of them after a failed attempt — and, when `sync`, to fsync them.
    fn write(&mut self, chaos: &ChaosFs, from: usize, sync: bool) -> io::Result<()> {
        let from = if self.rewind {
            chaos.rewind(&mut self.file, self.synced)?;
            0
        } else {
            from
        };
        self.rewind = true;
        if from < self.unsynced.len() {
            chaos.append(&mut self.file, &self.unsynced[from..])?;
        }
        if sync {
            chaos.sync_data(&self.file)?;
        }
        self.rewind = false;
        Ok(())
    }

    /// Marks every unsynced byte durable after a successful fsync.
    fn synced_all(&mut self) {
        self.synced += self.unsynced.len() as u64;
        self.unsynced.clear();
        self.unsynced_records = 0;
        self.syncs += 1;
    }
}

/// An open campaign journal, safe to record into from the executor's
/// observer (which serializes calls, but the journal takes its own lock so
/// misuse cannot corrupt the file).
pub struct Journal {
    path: PathBuf,
    ctx: Arc<StoreCtx>,
    inner: Mutex<JournalInner>,
}

impl Journal {
    /// Creates (truncating any previous file) a journal for a fresh
    /// campaign and durably writes its header.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] / [`StoreError::Encode`] on write failure.
    pub fn create(path: impl Into<PathBuf>, header: &JournalHeader) -> Result<Journal, StoreError> {
        Journal::create_with(path, header, StoreCtx::default_arc())
    }

    /// [`Journal::create`] under a store's resilience context: the header
    /// write is routed through the chaos layer and retried on transient
    /// faults (each attempt re-creates, i.e. truncates, the file, so no
    /// partial header survives a retry).
    pub(crate) fn create_with(
        path: impl Into<PathBuf>,
        header: &JournalHeader,
        ctx: Arc<StoreCtx>,
    ) -> Result<Journal, StoreError> {
        let path = path.into();
        let mut line =
            serde_json::to_string(header).map_err(|e| StoreError::Encode(e.to_string()))?;
        line.push('\n');
        let file = ctx
            .retrying(|| {
                let mut file = File::create(&path)?;
                ctx.chaos.append(&mut file, line.as_bytes())?;
                ctx.chaos.sync_data(&file)?;
                Ok(file)
            })
            .map_err(|e| io_err(&path, e))?;
        let mut inner = JournalInner::new(
            file,
            vec![SlotState::Missing; header.fault_count],
            line.len() as u64,
        );
        inner.syncs = 1;
        Ok(Journal {
            path,
            ctx,
            inner: Mutex::new(inner),
        })
    }

    /// Opens an existing journal for resumption: validates its header
    /// against `expected`, replays the durable prefix of slot records
    /// (later records supersede the quarantine lines they re-attempt),
    /// truncates any torn tail, and returns the journal positioned to
    /// append after the last durable record.
    ///
    /// # Errors
    ///
    /// * [`StoreError::StaleJournal`] — header disagrees with `expected`;
    /// * [`StoreError::Json`] — the header line itself does not parse (a
    ///   journal torn *at the header* cannot identify its campaign);
    /// * [`StoreError::Io`] — filesystem failure.
    pub fn open_resume(
        path: impl Into<PathBuf>,
        expected: &JournalHeader,
    ) -> Result<(Journal, Vec<SlotOutcome>), StoreError> {
        Journal::open_resume_with(path, expected, StoreCtx::default_arc())
    }

    /// [`Journal::open_resume`] under a store's resilience context (the
    /// initial read retries transient faults; the truncate-and-seek
    /// recovery actions are not themselves subject to injection).
    pub(crate) fn open_resume_with(
        path: impl Into<PathBuf>,
        expected: &JournalHeader,
        ctx: Arc<StoreCtx>,
    ) -> Result<(Journal, Vec<SlotOutcome>), StoreError> {
        let path = path.into();
        let raw = ctx
            .retrying(|| ctx.chaos.read_to_string(&path))
            .map_err(|e| io_err(&path, e))?;
        let header_end = raw.find('\n').ok_or_else(|| {
            StoreError::Json(format!(
                "{}: journal has no complete header line",
                path.display()
            ))
        })?;
        let header: JournalHeader = serde_json::from_str(&raw[..header_end])
            .map_err(|e| StoreError::Json(format!("{}: bad header: {e}", path.display())))?;
        header.validate_against(expected, "")?;

        let mut outcomes: Vec<SlotOutcome> = Vec::new();
        // Byte offset of the end of the last durable, acceptable record.
        let mut durable_end = header_end + 1;
        let mut cursor = durable_end;
        while cursor < raw.len() {
            let line_end = match raw[cursor..].find('\n') {
                Some(n) => cursor + n,
                None => break, // torn trailing line: no newline made it to disk
            };
            let Ok(record) = serde_json::from_str::<SlotRecord>(&raw[cursor..line_end]) else {
                break; // torn or corrupt: everything after is untrusted
            };
            if record.slot >= header.fault_count {
                break; // out of range: cannot belong to this campaign
            }
            let slot = record.slot;
            let Some(outcome) = record.outcome() else {
                break; // malformed record (neither result nor quarantine)
            };
            if slot == outcomes.len() {
                outcomes.push(outcome);
            } else if slot < outcomes.len() && matches!(outcomes[slot], SlotOutcome::Quarantined(_))
            {
                // A resumed run's re-attempt of a quarantined slot.
                outcomes[slot] = outcome;
            } else {
                break; // gap: the remainder cannot be a replayable prefix
            }
            durable_end = line_end + 1;
            cursor = durable_end;
        }

        let file = OpenOptions::new()
            .write(true)
            .open(&path)
            .map_err(|e| io_err(&path, e))?;
        file.set_len(durable_end as u64)
            .map_err(|e| io_err(&path, e))?;
        let mut state = vec![SlotState::Missing; header.fault_count];
        for (slot, outcome) in outcomes.iter().enumerate() {
            state[slot] = match outcome {
                SlotOutcome::Done(_) => SlotState::Done,
                SlotOutcome::Quarantined(_) => SlotState::Quarantined,
            };
        }
        let mut inner = JournalInner::new(file, state, durable_end as u64);
        use std::io::Seek as _;
        inner
            .file
            .seek(std::io::SeekFrom::End(0))
            .map_err(|e| io_err(&path, e))?;
        Ok((
            Journal {
                path,
                ctx,
                inner: Mutex::new(inner),
            },
            outcomes,
        ))
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Locks the journal state, recovering from a poisoned lock.
    ///
    /// A poisoned lock means a harness thread panicked while holding it
    /// (e.g. a quarantined slot's panic unwound through an observer). The
    /// guarded state is a write-ahead file whose every attempt either
    /// completes or leaves the rewind flag set: whatever a panicking writer
    /// left behind is truncated by the next append's rewind (or by
    /// `open_resume` after a crash), so continuing is safe — abandoning the
    /// whole journal over one quarantined slot would be the real data loss.
    fn lock_inner(&self) -> MutexGuard<'_, JournalInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Poisons the journal's lock the way a panicking holder would
    /// (test hook for the poison-recovery regression test).
    #[doc(hidden)]
    pub fn poison_for_test(&self) {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // keep the test log clean
        let _ = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = self.inner.lock().expect("not yet poisoned");
                panic!("poisoning journal lock for test");
            })
            .join()
        });
        std::panic::set_hook(prev);
    }

    /// Appends one slot outcome: the record is written to the file before
    /// this returns, and fsynced with its group (every [`GROUP`]th record
    /// syncs; [`Journal::sync`] syncs the rest). A record is accepted for
    /// the first unrecorded slot (the gap-free prefix rule) or as the
    /// re-attempt of a quarantined slot.
    ///
    /// Transient I/O faults are retried on the one retry schedule. A retry
    /// first rewinds the file to the fsynced length and rewrites every
    /// unsynced record, so a short write can never duplicate or interleave
    /// partial bytes.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] / [`StoreError::Encode`] on write or fsync
    /// failure. The record is then not journaled and the slot re-runs on
    /// resume. Every later in-order record would leave a gap behind it, so
    /// it is refused with [`StoreError::Io`] too; only a quarantine
    /// re-attempt can still be journaled.
    pub fn record(&self, slot: usize, outcome: &SlotOutcome) -> Result<(), StoreError> {
        let mut guard = self.lock_inner();
        let inner = &mut *guard;
        let next_missing = inner
            .state
            .iter()
            .position(|s| *s == SlotState::Missing)
            .unwrap_or(inner.state.len());
        let accept = slot < inner.state.len()
            && (slot == next_missing || inner.state[slot] == SlotState::Quarantined);
        if !accept {
            return match inner.lost {
                Some(lost) if slot > lost => Err(StoreError::Io(format!(
                    "{}: slot {slot} not journaled: the record of slot {lost} was lost \
                     to a failed append",
                    self.path.display()
                ))),
                _ => Ok(()),
            };
        }
        let line = serde_json::to_string(&RecordLine { slot, outcome })
            .map_err(|e| StoreError::Encode(e.to_string()))?;
        let from = inner.unsynced.len();
        inner.unsynced.extend_from_slice(line.as_bytes());
        inner.unsynced.push(b'\n');
        let sync = inner.unsynced_records + 1 == GROUP;
        if let Err(e) = self
            .ctx
            .retrying(|| inner.write(&self.ctx.chaos, from, sync))
        {
            inner.unsynced.truncate(from);
            if inner.state[slot] == SlotState::Missing {
                inner.lost = Some(slot);
            }
            return Err(io_err(&self.path, e));
        }
        if sync {
            inner.synced_all();
        } else {
            inner.unsynced_records += 1;
        }
        inner.state[slot] = match outcome {
            SlotOutcome::Done(_) => SlotState::Done,
            SlotOutcome::Quarantined(_) => SlotState::Quarantined,
        };
        Ok(())
    }

    /// Fsyncs every record written since the last group commit, so all of
    /// them survive a power loss. A no-op when nothing is unsynced.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the fsync (or, after a failed append, the
    /// rewrite before it) fails past its retries; the unsynced records then
    /// re-run on resume if a power loss takes them.
    pub fn sync(&self) -> Result<(), StoreError> {
        let mut guard = self.lock_inner();
        let inner = &mut *guard;
        if inner.unsynced.is_empty() && !inner.rewind {
            return Ok(());
        }
        let from = inner.unsynced.len();
        self.ctx
            .retrying(|| inner.write(&self.ctx.chaos, from, true))
            .map_err(|e| io_err(&self.path, e))?;
        inner.synced_all();
        Ok(())
    }

    /// Number of fsyncs this journal has completed: the header's, one per
    /// group of [`GROUP`] records, and one per [`Journal::sync`] that had
    /// records to sync. An `n`-record journal, synced at the end, counts
    /// `1 + ⌈n / GROUP⌉`. A resumed journal starts at 0.
    pub fn syncs(&self) -> u64 {
        self.lock_inner().syncs
    }

    /// Number of slots with a durable record (completed or quarantined).
    pub fn recorded(&self) -> usize {
        self.lock_inner()
            .state
            .iter()
            .filter(|s| **s != SlotState::Missing)
            .count()
    }
}

impl Drop for Journal {
    /// Syncs what is left unsynced, as a best effort: a caller that needs
    /// to know the outcome calls [`Journal::sync`] first.
    fn drop(&mut self) {
        let _ = self.sync();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use depbench::{Campaign, CampaignConfig};
    use simos::Edition;
    use swfit_core::Scanner;
    use webserver::ServerKind;

    fn small_faultload(n: usize) -> Faultload {
        let os = simos::Os::boot(Edition::Nimbus2000).unwrap();
        Scanner::standard()
            .scan_functions(os.program().image(), &simos::OsApi::symbols())
            .sample(n)
    }

    fn tmp_journal(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("faultstore-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("it0.jsonl")
    }

    /// Regression test for the poisoned-lock bug: a panicking slot that
    /// held the journal lock used to poison it, making every later
    /// `record` / `recorded` call panic and silently ending journaling for
    /// the rest of the campaign. The journal now recovers the guard — the
    /// write-ahead file's rewind-then-append protocol makes the state safe
    /// to keep using.
    #[test]
    fn poisoned_lock_recovers_and_keeps_journaling() {
        let path = tmp_journal("poison");
        let campaign = Campaign::new(
            Edition::Nimbus2000,
            ServerKind::Wren,
            CampaignConfig::default(),
        );
        let fl = small_faultload(3);
        let header = JournalHeader::describe(&campaign, &fl, 0);
        let journal = Journal::create(&path, &header).unwrap();

        journal.poison_for_test();

        // Both lock users must survive the poisoned guard.
        let outcome = SlotOutcome::Quarantined(SlotError::Panicked {
            message: "synthetic".to_string(),
        });
        journal.record(0, &outcome).unwrap();
        assert_eq!(journal.recorded(), 1);

        // And the record written through the recovered lock is durable:
        // a resume replays it.
        drop(journal);
        let (_journal, outcomes) = Journal::open_resume(&path, &header).unwrap();
        assert_eq!(outcomes.len(), 1);
        assert!(matches!(outcomes[0], SlotOutcome::Quarantined(_)));
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    /// A header for an `n`-slot campaign, with no campaign behind it.
    fn header(n: usize) -> JournalHeader {
        JournalHeader {
            schema: JOURNAL_SCHEMA,
            edition: "nimbus-2000".to_string(),
            server: "wren".to_string(),
            iteration: 0,
            config_hash: 7,
            faultload_fingerprint: Some(11),
            faultload_hash: 13,
            pack_hash: None,
            fault_count: n,
        }
    }

    /// Slot `i`'s outcome: every fifth slot quarantined, the rest completed
    /// with a few slot-specific measures.
    fn outcome(i: usize) -> SlotOutcome {
        if i % 5 == 4 {
            return SlotOutcome::Quarantined(SlotError::Panicked {
                message: format!("synthetic {i}"),
            });
        }
        let mut measures = specweb::IntervalMeasures::new(2);
        for op in 0..=i % 3 {
            let rt = simkit::SimDuration::from_millis(3 + op as u64);
            measures.record_op(op % 2, 64 + i as u64, i.is_multiple_of(2), rt);
        }
        SlotOutcome::Done(SlotResult {
            fault_id: format!("MIFS@f+{i}"),
            measures,
            watchdog: Default::default(),
            ended_dead: false,
            availability: Default::default(),
            activation: None,
        })
    }

    /// The fsync count is exact: an `n`-record journal, synced at the end,
    /// issues `1 + ⌈n / 32⌉` fsyncs (the header, one per full group, one
    /// for the rest), where one per record used to be synced: 19 for a
    /// 553-slot whole-image iteration, against 554. Its bytes equal a
    /// reference written the per-record-synced way.
    #[test]
    fn fsyncs_are_group_committed_and_bytes_match_per_record_sync() {
        use std::io::Write as _;
        for n in [32, 33, 70, 553] {
            let path = tmp_journal(&format!("group-{n}"));
            let journal = Journal::create(&path, &header(n)).unwrap();
            for i in 0..n {
                journal.record(i, &outcome(i)).unwrap();
            }
            assert_eq!(journal.syncs(), 1 + (n / GROUP) as u64, "n = {n}");
            journal.sync().unwrap();
            assert_eq!(journal.syncs(), 1 + n.div_ceil(GROUP) as u64, "n = {n}");
            if n == 553 {
                assert_eq!(journal.syncs(), 19);
            }
            journal.sync().unwrap();
            assert_eq!(journal.syncs(), 1 + n.div_ceil(GROUP) as u64, "n = {n}");
            assert_eq!(journal.recorded(), n);

            let reference = path.with_extension("reference");
            let mut file = File::create(&reference).unwrap();
            let line = serde_json::to_string(&header(n)).unwrap();
            file.write_all(line.as_bytes()).unwrap();
            file.write_all(b"\n").unwrap();
            file.sync_data().unwrap();
            for i in 0..n {
                let outcome = outcome(i);
                let line = serde_json::to_string(&RecordLine {
                    slot: i,
                    outcome: &outcome,
                })
                .unwrap();
                file.write_all(line.as_bytes()).unwrap();
                file.write_all(b"\n").unwrap();
                file.sync_data().unwrap();
            }
            assert_eq!(
                std::fs::read(&path).unwrap(),
                std::fs::read(&reference).unwrap(),
                "n = {n}"
            );
            drop(journal);
            std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
        }
    }

    /// Regression test: after one failed append, every later in-order
    /// record was dropped with `Ok(())`, so the store saw no further
    /// failure, never degraded, and stamped `degraded: false` on a campaign
    /// whose journal had stopped. Each refused record is now an error.
    #[test]
    fn records_after_a_failed_append_are_errors() {
        let path = tmp_journal("failed");
        let journal = Journal::create(&path, &header(3)).unwrap();
        let header_bytes = std::fs::read(&path).unwrap();
        // A read-only handle: every write fails, and not transiently.
        journal.lock_inner().file = File::open(&path).unwrap();
        for slot in 0..3 {
            let err = journal.record(slot, &outcome(slot)).unwrap_err();
            assert!(matches!(err, StoreError::Io(_)), "slot {slot}: {err}");
            if slot > 0 {
                assert!(err.to_string().contains("slot 0"), "{err}");
            }
        }
        assert_eq!(journal.recorded(), 0);
        assert_eq!(std::fs::read(&path).unwrap(), header_bytes);
        drop(journal);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn records_are_written_as_slot_and_result_or_quarantine() {
        let path = tmp_journal("lines");
        let campaign = Campaign::new(
            Edition::Nimbus2000,
            ServerKind::Wren,
            CampaignConfig::default(),
        );
        let header = JournalHeader::describe(&campaign, &small_faultload(2), 0);
        let journal = Journal::create(&path, &header).unwrap();
        let mut measures = specweb::IntervalMeasures::new(1);
        measures.record_op(0, 64, false, simkit::SimDuration::from_millis(3));
        let result = SlotResult {
            fault_id: "MIFS@f+1".to_string(),
            measures,
            watchdog: Default::default(),
            ended_dead: false,
            availability: Default::default(),
            activation: None,
        };
        let quarantined = SlotOutcome::Quarantined(SlotError::Panicked {
            message: "synthetic".to_string(),
        });
        journal.record(0, &quarantined).unwrap();
        journal
            .record(1, &SlotOutcome::Done(result.clone()))
            .unwrap();
        // Both records are in the file before their group is synced.
        assert_eq!(journal.syncs(), 1);

        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[1..],
            [
                r#"{"slot":0,"quarantined":{"Panicked":{"message":"synthetic"}}}"#.to_string(),
                format!(
                    r#"{{"slot":1,"result":{}}}"#,
                    serde_json::to_string(&result).unwrap()
                ),
            ]
        );
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }
}
