//! The crash-safe campaign journal: append-only JSONL, one record per
//! completed slot, fsynced before the campaign moves on.
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
//! Each record is written and `fsync`ed (`File::sync_data`) before
//! [`Journal::record`] returns, so a record is either durably complete or
//! absent. A SIGKILL mid-write leaves at most one torn trailing line;
//! [`Journal::open_resume`] stops at the first unparsable or non-contiguous
//! record, truncates the file back to the last durable record, and resumes
//! from there — the torn tail is re-executed, never trusted.
//!
//! # Staleness
//!
//! Resume validates every header field against the campaign about to run.
//! Any disagreement is a [`StoreError::StaleJournal`] naming the field:
//! silently splicing slot results measured under a different config or OS
//! build into a campaign would fabricate benchmark numbers.

use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use depbench::{Campaign, ConvergenceConfig, SlotError, SlotOutcome, SlotResult};
use serde::{Deserialize, Serialize};
use swfit_core::Faultload;

use crate::resilience::StoreCtx;
use crate::{io_err, StoreError};

/// Journal schema version; bumped on any incompatible format change.
pub const JOURNAL_SCHEMA: u32 = 1;

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

    /// Field-by-field comparison with a precise mismatch description.
    fn validate_against(&self, expected: &JournalHeader) -> Result<(), StoreError> {
        let mismatch = |field: &str, found: &dyn std::fmt::Debug, want: &dyn std::fmt::Debug| {
            Err(StoreError::StaleJournal {
                reason: format!("{field} is {found:?}, campaign expects {want:?}"),
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
        let mismatch = |field: &str, found: &dyn std::fmt::Debug, want: &dyn std::fmt::Debug| {
            Err(StoreError::StaleJournal {
                reason: format!("stop record {field} is {found:?}, campaign expects {want:?}"),
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
        if self.convergence != expected.convergence {
            return mismatch("convergence rule", &self.convergence, &expected.convergence);
        }
        Ok(())
    }
}

/// One journal line after the header. Exactly one of `result` and
/// `quarantined` is set; completed-slot records serialize byte-identically
/// to the pre-quarantine format (`{"slot": i, "result": {…}}`), so journals
/// written before quarantine existed replay unchanged.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct SlotRecord {
    /// Slot index (= fault index in the faultload).
    slot: usize,
    /// The completed slot's result.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    result: Option<SlotResult>,
    /// Why the slot was quarantined instead.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    quarantined: Option<SlotError>,
}

impl SlotRecord {
    fn describe(slot: usize, outcome: &SlotOutcome) -> SlotRecord {
        match outcome {
            SlotOutcome::Done(r) => SlotRecord {
                slot,
                result: Some(r.clone()),
                quarantined: None,
            },
            SlotOutcome::Quarantined(e) => SlotRecord {
                slot,
                result: None,
                quarantined: Some(e.clone()),
            },
        }
    }

    fn outcome(self) -> Option<SlotOutcome> {
        match (self.result, self.quarantined) {
            (Some(r), None) => Some(SlotOutcome::Done(r)),
            (None, Some(e)) => Some(SlotOutcome::Quarantined(e)),
            // Neither or both: a record this journal never writes.
            _ => None,
        }
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
    /// slot on resume; anything else is dropped — it could only follow a
    /// failed slot, and the campaign aborts on failure anyway.
    state: Vec<SlotState>,
    /// Byte length of the durable prefix (header + accepted records). Every
    /// append attempt first rewinds the file to this length, so a short
    /// write from a previous failed attempt can never leave partial bytes
    /// in front of a retried record.
    len: u64,
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
    /// [`StoreError::Io`] / [`StoreError::Json`] on write failure.
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
        let line = serde_json::to_string(header).map_err(|e| StoreError::Json(e.to_string()))?;
        let file = ctx
            .retrying("journal create", || {
                let mut file = File::create(&path)?;
                ctx.chaos.append_line(&mut file, &line)?;
                ctx.chaos.sync_data(&file)?;
                Ok(file)
            })
            .map_err(|e| io_err(&path, e))?;
        let len = (line.len() + 1) as u64;
        Ok(Journal {
            path,
            ctx,
            inner: Mutex::new(JournalInner {
                file,
                state: vec![SlotState::Missing; header.fault_count],
                len,
            }),
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
            .retrying("journal read", || ctx.chaos.read_to_string(&path))
            .map_err(|e| io_err(&path, e))?;
        let header_end = raw.find('\n').ok_or_else(|| {
            StoreError::Json(format!(
                "{}: journal has no complete header line",
                path.display()
            ))
        })?;
        let header: JournalHeader = serde_json::from_str(&raw[..header_end])
            .map_err(|e| StoreError::Json(format!("{}: bad header: {e}", path.display())))?;
        header.validate_against(expected)?;

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
        let mut inner = JournalInner {
            file,
            state,
            len: durable_end as u64,
        };
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
    /// guarded state is a write-ahead file whose mutation protocol is
    /// rewind-then-append: whatever a panicking writer left behind is
    /// truncated by the next append's rewind (or by `open_resume` after a
    /// crash), so continuing is safe — abandoning the whole journal over
    /// one quarantined slot would be the real data loss.
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

    /// Durably appends one slot outcome (write + fsync before returning).
    /// A record is accepted for the first unrecorded slot (the gap-free
    /// prefix rule) or as the re-attempt of a quarantined slot; anything
    /// else is ignored — see the per-slot state kept by the journal.
    ///
    /// Transient I/O faults are retried under the store's retry policy;
    /// every attempt first rewinds the file to the durable length, so a
    /// short write can never duplicate or interleave partial bytes.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] / [`StoreError::Json`] on write failure. A
    /// failed append leaves the journal usable: the record simply is not
    /// durable and the slot re-runs on resume.
    pub fn record(&self, slot: usize, outcome: &SlotOutcome) -> Result<(), StoreError> {
        let mut inner = self.lock_inner();
        let next_missing = inner
            .state
            .iter()
            .position(|s| *s == SlotState::Missing)
            .unwrap_or(inner.state.len());
        let accept = slot < inner.state.len()
            && (slot == next_missing || inner.state[slot] == SlotState::Quarantined);
        if !accept {
            return Ok(());
        }
        let line = serde_json::to_string(&SlotRecord::describe(slot, outcome))
            .map_err(|e| StoreError::Json(e.to_string()))?;
        let pos = inner.len;
        let ctx = &self.ctx;
        let file = &mut inner.file;
        ctx.retrying("journal append", || {
            ctx.chaos.rewind(file, pos)?;
            ctx.chaos.append_line(file, &line)?;
            ctx.chaos.sync_data(file)
        })
        .map_err(|e| io_err(&self.path, e))?;
        inner.len = pos + line.len() as u64 + 1;
        inner.state[slot] = match outcome {
            SlotOutcome::Done(_) => SlotState::Done,
            SlotOutcome::Quarantined(_) => SlotState::Quarantined,
        };
        Ok(())
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
}
