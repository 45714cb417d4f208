//! The on-disk store: one root directory holding the fault-map cache, the
//! campaign journals, and named campaign results.
//!
//! Layout under the root:
//!
//! ```text
//! <root>/
//!   faultmaps/   content-addressed scanner output   (cache module)
//!   journals/    per-campaign crash-safe journals   (journal module)
//!   runs/        named CampaignResult JSON files    (save_run / load_run)
//! ```
//!
//! Everything in the store is plain JSON(L) so artifacts can be inspected,
//! diffed and shipped between machines — the paper's faultload files were
//! exactly this kind of portable artifact.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

use depbench::{Campaign, CampaignResult, ConvergenceConfig};
use mvm::CodeImage;
use simchaos::ChaosFs;
use simtrace::Tracer;
use swfit_core::{Faultload, Scanner};

use crate::cache::FaultMapCache;
use crate::journal::{Journal, JournalHeader, StopRecord};
use crate::resilience::StoreCtx;
use crate::{io_err, StoreError};

/// How many *consecutive* journal-append failures the store tolerates
/// before it stops journaling for the rest of the campaign and degrades.
/// Isolated failures (even post-retry) just cost a re-run of that slot on
/// resume; a streak this long means the disk is not coming back and every
/// further attempt only burns retry backoff time.
const MAX_CONSECUTIVE_APPEND_FAILURES: u32 = 3;

/// A store rooted at one directory. Cheap to clone; all state is on disk
/// except the shared resilience context (chaos layer, retry policy, tracer
/// and degradation latch), which clones share.
#[derive(Clone, Debug)]
pub struct FaultStore {
    root: PathBuf,
    cache: FaultMapCache,
    ctx: Arc<StoreCtx>,
}

impl FaultStore {
    /// Opens (creating if needed) a store at `root`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the directory tree cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> Result<FaultStore, StoreError> {
        FaultStore::open_ctx(root.into(), StoreCtx::default_arc())
    }

    fn open_ctx(root: PathBuf, ctx: Arc<StoreCtx>) -> Result<FaultStore, StoreError> {
        for sub in ["journals", "runs"] {
            let dir = root.join(sub);
            std::fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        }
        let cache = FaultMapCache::open_with(root.join("faultmaps"), Arc::clone(&ctx))?;
        Ok(FaultStore { root, cache, ctx })
    }

    /// Rebuilds this store around an updated resilience context. Builder
    /// methods call this at setup time, before any campaign I/O.
    fn with_ctx(self, chaos: ChaosFs, tracer: Tracer) -> FaultStore {
        FaultStore::open_ctx(self.root, StoreCtx::new(chaos, tracer))
            .expect("store root already existed when this store was first opened")
    }

    /// Routes all store I/O through `chaos` — the environment-fault
    /// injection layer (`--chaos-seed` / `--chaos-profile` on the CLI).
    #[must_use]
    pub fn with_chaos(self, chaos: ChaosFs) -> FaultStore {
        let tracer = self.ctx.tracer.clone();
        self.with_ctx(chaos, tracer)
    }

    /// Records harness-level fault events (`HarnessFault`, `Retry`,
    /// `Degraded`) into `tracer`, alongside whatever target-level tracing
    /// the campaign does.
    #[must_use]
    pub fn with_tracer(self, tracer: Tracer) -> FaultStore {
        let chaos = self.ctx.chaos.clone();
        self.with_ctx(chaos, tracer)
    }

    /// The harness tracer (disabled unless set via
    /// [`with_tracer`](FaultStore::with_tracer)); snapshot it after a
    /// campaign to export harness-fault events.
    pub fn tracer(&self) -> &Tracer {
        &self.ctx.tracer
    }

    /// Whether this store has abandoned any persistence duty (journal or
    /// cache writes) since it was opened. Campaign results produced by a
    /// degraded store are stamped `degraded: true`.
    pub fn is_degraded(&self) -> bool {
        self.ctx.is_degraded()
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The fault-map cache (for direct use).
    pub fn cache(&self) -> &FaultMapCache {
        &self.cache
    }

    /// Whole-image scan through the fault-map cache.
    ///
    /// # Errors
    ///
    /// See [`FaultMapCache::scan_image`].
    pub fn scan_image(
        &self,
        scanner: &Scanner,
        image: &CodeImage,
    ) -> Result<Faultload, StoreError> {
        self.cache.scan_image(scanner, image)
    }

    /// Function-filtered scan through the fault-map cache.
    ///
    /// # Errors
    ///
    /// See [`FaultMapCache::scan_functions`].
    pub fn scan_functions(
        &self,
        scanner: &Scanner,
        image: &CodeImage,
        funcs: &[String],
    ) -> Result<Faultload, StoreError> {
        self.cache.scan_functions(scanner, image, funcs)
    }

    /// Runs `campaign` over `faultload` with a crash-safe journal.
    ///
    /// With `resume = false` any previous journal for this campaign is
    /// discarded and the campaign starts from slot 0. With `resume = true`
    /// an existing journal is validated and its completed slots are
    /// replayed: only the remaining slots execute, and because every slot's
    /// randomness derives from `(seed, iteration, slot)`, the assembled
    /// [`CampaignResult`] is byte-identical to an uninterrupted run. A
    /// journal left by a *completed* campaign resumes to an immediate
    /// replay of the full result, executing nothing.
    ///
    /// Every completed slot is fsynced to the journal before the campaign
    /// proceeds, so a crash (including SIGKILL) at any point loses at most
    /// the in-flight slots. A journal *write* failure mid-campaign does not
    /// abort the run; the slot is simply not durable and re-executes on
    /// resume (a warning is printed).
    ///
    /// # Errors
    ///
    /// * [`StoreError::MissingFingerprint`] — the faultload is
    ///   unfingerprinted, so a journal could never be validated against it;
    /// * [`StoreError::StaleJournal`] — `resume = true` but the existing
    ///   journal belongs to a different campaign/config/faultload;
    /// * [`StoreError::Campaign`] — the campaign itself failed;
    /// * [`StoreError::Io`] / [`StoreError::Json`] — journal I/O failure.
    pub fn run_resumable(
        &self,
        campaign: &Campaign,
        faultload: &Faultload,
        iteration: u64,
        resume: bool,
    ) -> Result<CampaignResult, StoreError> {
        if !faultload.is_fingerprinted() {
            return Err(StoreError::MissingFingerprint {
                target: faultload.target.clone(),
            });
        }
        let header = JournalHeader::describe(campaign, faultload, iteration);
        let path = self.journal_path(campaign, iteration);
        let opened = if resume && path.exists() {
            Journal::open_resume_with(&path, &header, Arc::clone(&self.ctx))
        } else {
            Journal::create_with(&path, &header, Arc::clone(&self.ctx)).map(|j| (j, Vec::new()))
        };
        let (journal, completed) = match opened {
            Ok((j, completed)) => (Some(j), completed),
            // A persistently unavailable journal (disk full, unwritable
            // directory) must not abort a multi-hour campaign: run it
            // un-journaled and stamp the result degraded. Staleness and
            // parse refusals still propagate — they are correctness
            // conditions, not environment faults.
            Err(StoreError::Io(m)) => {
                eprintln!("warning: campaign journal unavailable ({m}); running un-journaled");
                self.ctx.degrade("campaign journal unavailable");
                (None, Vec::new())
            }
            Err(other) => return Err(other),
        };
        // Journal appends that keep failing past their retries indicate a
        // disk that is not coming back: after a few consecutive failures,
        // stop journaling (sticky for the rest of this campaign) instead of
        // burning retry backoff on every remaining slot.
        let consecutive_failures = AtomicU32::new(0);
        let journaling_stopped = AtomicBool::new(false);
        let mut result = campaign.run_injection_observed(
            faultload,
            iteration,
            completed,
            &|slot, slot_result| {
                let Some(journal) = &journal else { return };
                if journaling_stopped.load(Ordering::Relaxed) {
                    return;
                }
                match journal.record(slot, slot_result) {
                    Ok(()) => {
                        consecutive_failures.store(0, Ordering::Relaxed);
                    }
                    Err(e) => {
                        eprintln!(
                            "warning: journal append for slot {slot} failed ({e}); \
                             the slot will re-run on resume"
                        );
                        let failures = consecutive_failures.fetch_add(1, Ordering::Relaxed) + 1;
                        if failures >= MAX_CONSECUTIVE_APPEND_FAILURES {
                            journaling_stopped.store(true, Ordering::Relaxed);
                            self.ctx
                                .degrade("journal disabled after repeated append failures");
                        }
                    }
                }
            },
        )?;
        result.degraded = self.ctx.is_degraded();
        Ok(result)
    }

    /// The journal path for one `(edition, server, iteration)` campaign.
    pub fn journal_path(&self, campaign: &Campaign, iteration: u64) -> PathBuf {
        self.root.join("journals").join(format!(
            "{}-{}-it{}.jsonl",
            campaign.edition().name(),
            campaign.server().name(),
            iteration
        ))
    }

    /// The stop-record path for a campaign (one per `(edition, server)`
    /// pair — the stop decision spans all iterations).
    pub fn stop_path(&self, campaign: &Campaign) -> PathBuf {
        self.root.join("journals").join(format!(
            "{}-{}-stop.json",
            campaign.edition().name(),
            campaign.server().name()
        ))
    }

    /// Durably records a campaign's early-stop decision (tmp + fsync +
    /// rename): once this returns, the decision survives any crash and
    /// [`load_stop`](FaultStore::load_stop) will replay it on resume.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] / [`StoreError::Json`] on write failure.
    pub fn record_stop(
        &self,
        campaign: &Campaign,
        faultload: &Faultload,
        conv: &ConvergenceConfig,
        stopped_at: u64,
        converged: bool,
    ) -> Result<StopRecord, StoreError> {
        let record = StopRecord::describe(campaign, faultload, conv, stopped_at, converged);
        let path = self.stop_path(campaign);
        let json =
            serde_json::to_string_pretty(&record).map_err(|e| StoreError::Json(e.to_string()))?;
        self.write_atomic("stop record", &path, json.as_bytes())?;
        Ok(record)
    }

    /// Loads a durable stop decision for this campaign, if one exists,
    /// validating it against the campaign and convergence rule about to
    /// resume. `Ok(None)` when no decision was recorded (the campaign never
    /// got far enough to stop).
    ///
    /// # Errors
    ///
    /// * [`StoreError::StaleJournal`] — the record belongs to a different
    ///   campaign/config/faultload/rule, or claims an iteration count
    ///   outside `[1, max_iters]`;
    /// * [`StoreError::Json`] — the file does not parse;
    /// * [`StoreError::Io`] — filesystem failure other than absence.
    pub fn load_stop(
        &self,
        campaign: &Campaign,
        faultload: &Faultload,
        conv: &ConvergenceConfig,
    ) -> Result<Option<StopRecord>, StoreError> {
        let path = self.stop_path(campaign);
        let json = match std::fs::read_to_string(&path) {
            Ok(json) => json,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(io_err(&path, e)),
        };
        let record: StopRecord = serde_json::from_str(&json)
            .map_err(|e| StoreError::Json(format!("{}: {e}", path.display())))?;
        let expected = StopRecord::describe(campaign, faultload, conv, 0, false);
        record.validate_against(&expected)?;
        if record.stopped_at == 0 || record.stopped_at > conv.max_iters {
            return Err(StoreError::StaleJournal {
                reason: format!(
                    "stop record claims {} iteration(s), outside 1..={}",
                    record.stopped_at, conv.max_iters
                ),
            });
        }
        Ok(Some(record))
    }

    /// Removes any stop decision for this campaign — a fresh (non-resumed)
    /// run must not inherit a stale one. Absence is not an error.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on a removal failure other than absence.
    pub fn clear_stop(&self, campaign: &Campaign) -> Result<(), StoreError> {
        let path = self.stop_path(campaign);
        match std::fs::remove_file(&path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(io_err(&path, e)),
        }
    }

    /// Saves a campaign result under `name` (atomically: temp + fsync +
    /// rename — the fsync *before* the rename is what guarantees a crash
    /// cannot surface a renamed-but-empty result file).
    ///
    /// # Errors
    ///
    /// [`StoreError::BadRunName`] for unstorable names, otherwise
    /// [`StoreError::Io`] / [`StoreError::Json`]. Unlike journal appends,
    /// a persistent save failure is an error, not a degradation: the
    /// caller explicitly asked for this artifact.
    pub fn save_run(&self, name: &str, result: &CampaignResult) -> Result<PathBuf, StoreError> {
        let path = self.run_path(name)?;
        let json =
            serde_json::to_string_pretty(result).map_err(|e| StoreError::Json(e.to_string()))?;
        self.write_atomic("run save", &path, json.as_bytes())?;
        Ok(path)
    }

    /// Temp + fsync + rename through the chaos/retry layer: the payload is
    /// durable on disk before the rename publishes it, so a crash at any
    /// point leaves either the old artifact or the complete new one.
    fn write_atomic(&self, op: &'static str, path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        self.ctx
            .retrying(op, || self.ctx.chaos.write_sync(&tmp, bytes))
            .map_err(|e| io_err(&tmp, e))?;
        self.ctx
            .retrying(op, || self.ctx.chaos.rename(&tmp, path))
            .map_err(|e| io_err(path, e))?;
        Ok(())
    }

    /// Loads a previously saved campaign result.
    ///
    /// # Errors
    ///
    /// [`StoreError::MissingRun`] when no run with this name exists,
    /// [`StoreError::Json`] when the stored file does not parse.
    pub fn load_run(&self, name: &str) -> Result<CampaignResult, StoreError> {
        let path = self.run_path(name)?;
        let json = std::fs::read_to_string(&path).map_err(|_| StoreError::MissingRun {
            name: name.to_string(),
        })?;
        serde_json::from_str(&json)
            .map_err(|e| StoreError::Json(format!("{}: {e}", path.display())))
    }

    /// Names of all stored runs, sorted.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the runs directory is unreadable.
    pub fn list_runs(&self) -> Result<Vec<String>, StoreError> {
        let dir = self.root.join("runs");
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&dir).map_err(|e| io_err(&dir, e))? {
            let entry = entry.map_err(|e| io_err(&dir, e))?;
            let file = entry.file_name();
            if let Some(name) = file.to_str().and_then(|f| f.strip_suffix(".json")) {
                names.push(name.to_string());
            }
        }
        names.sort_unstable();
        Ok(names)
    }

    /// The file path a run name maps to, after validating the name.
    ///
    /// # Errors
    ///
    /// [`StoreError::BadRunName`] unless the name is non-empty and uses
    /// only `[A-Za-z0-9._-]` (no path separators, no traversal).
    pub fn run_path(&self, name: &str) -> Result<PathBuf, StoreError> {
        let ok = !name.is_empty()
            && !name.starts_with('.')
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'));
        if !ok {
            return Err(StoreError::BadRunName {
                name: name.to_string(),
            });
        }
        Ok(self.root.join("runs").join(format!("{name}.json")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use depbench::{CampaignConfig, IntervalConfig};
    use simkit::SimDuration;
    use simos::{Edition, Os};
    use webserver::ServerKind;

    fn quick_config() -> CampaignConfig {
        CampaignConfig::builder()
            .interval(IntervalConfig {
                duration: SimDuration::from_millis(300),
                ..IntervalConfig::default()
            })
            .os_budget(150_000)
            .build()
    }

    fn small_faultload(n: usize) -> Faultload {
        let os = Os::boot(Edition::Nimbus2000).unwrap();
        let api: Vec<String> = simos::OsApi::ALL
            .iter()
            .map(|f| f.symbol().to_string())
            .collect();
        let mut fl = Scanner::standard().scan_functions(os.program().image(), &api);
        let stride = (fl.len() / n).max(1);
        fl.faults = fl.faults.into_iter().step_by(stride).take(n).collect();
        fl
    }

    fn tmp_store(tag: &str) -> (PathBuf, FaultStore) {
        let dir =
            std::env::temp_dir().join(format!("faultstore-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = FaultStore::open(&dir).unwrap();
        (dir, store)
    }

    #[test]
    fn save_load_roundtrip_and_listing() {
        let (dir, store) = tmp_store("roundtrip");
        let campaign = Campaign::new(Edition::Nimbus2000, ServerKind::Wren, quick_config());
        let fl = small_faultload(3);
        let result = store.run_resumable(&campaign, &fl, 0, false).unwrap();
        store.save_run("baseline", &result).unwrap();
        let loaded = store.load_run("baseline").unwrap();
        assert_eq!(
            serde_json::to_string(&result).unwrap(),
            serde_json::to_string(&loaded).unwrap()
        );
        assert_eq!(store.list_runs().unwrap(), vec!["baseline".to_string()]);
        assert!(matches!(
            store.load_run("never-stored"),
            Err(StoreError::MissingRun { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn hostile_run_names_are_rejected() {
        let (dir, store) = tmp_store("names");
        for bad in ["", "../escape", "a/b", ".hidden", "nul\0byte", "sp ace"] {
            assert!(
                matches!(store.run_path(bad), Err(StoreError::BadRunName { .. })),
                "name {bad:?} must be rejected"
            );
        }
        assert!(store.run_path("ok-1.2_x").is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_from_truncated_journal_is_byte_identical() {
        let (dir, store) = tmp_store("resume");
        let campaign = Campaign::new(Edition::Nimbus2000, ServerKind::Wren, quick_config());
        let fl = small_faultload(6);
        let full = store.run_resumable(&campaign, &fl, 0, false).unwrap();
        let full_json = serde_json::to_string(&full).unwrap();

        let path = store.journal_path(&campaign, 0);
        let raw = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = raw.lines().collect();
        assert_eq!(lines.len(), 1 + 6, "header plus one record per slot");

        // Simulate a crash after 2 slots, with a torn third record.
        let torn = format!(
            "{}\n{}\n{}\n{{\"slot\":2,\"resu",
            lines[0], lines[1], lines[2]
        );
        std::fs::write(&path, torn).unwrap();
        let resumed = store.run_resumable(&campaign, &fl, 0, true).unwrap();
        assert_eq!(full_json, serde_json::to_string(&resumed).unwrap());

        // A journal of a completed campaign replays without executing.
        let replayed = store.run_resumable(&campaign, &fl, 0, true).unwrap();
        assert_eq!(full_json, serde_json::to_string(&replayed).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quarantined_slot_is_journaled_and_resume_reruns_only_it() {
        let (dir, store) = tmp_store("quarantine");
        let campaign = Campaign::new(Edition::Nimbus2000, ServerKind::Wren, quick_config());
        let fl = small_faultload(5);
        let clean = store.run_resumable(&campaign, &fl, 0, false).unwrap();
        let clean_json = serde_json::to_string(&clean).unwrap();

        // Re-run with a harness that panics on slot 2's fault: the campaign
        // must complete, with the slot quarantined (in the result and in the
        // journal).
        let mut poisoned = Campaign::new(Edition::Nimbus2000, ServerKind::Wren, quick_config());
        poisoned.panic_on_fault(&fl.faults[2].id);
        let partial = store.run_resumable(&poisoned, &fl, 0, false).unwrap();
        assert_eq!(partial.slots.len(), 4);
        assert_eq!(partial.quarantined.len(), 1);
        assert_eq!(partial.quarantined[0].slot, 2);
        let journal_raw = std::fs::read_to_string(store.journal_path(&campaign, 0)).unwrap();
        assert!(
            journal_raw.contains("\"quarantined\""),
            "journal records the quarantine:\n{journal_raw}"
        );

        // Resume with a healthy harness: only the quarantined slot re-runs,
        // and the assembled result is byte-identical to the clean run.
        let resumed = store.run_resumable(&campaign, &fl, 0, true).unwrap();
        assert_eq!(clean_json, serde_json::to_string(&resumed).unwrap());
        // The journal now replays completely: a further resume executes
        // nothing and still matches.
        let replayed = store.run_resumable(&campaign, &fl, 0, true).unwrap();
        assert_eq!(clean_json, serde_json::to_string(&replayed).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_journals_are_refused() {
        let (dir, store) = tmp_store("stale");
        let campaign = Campaign::new(Edition::Nimbus2000, ServerKind::Wren, quick_config());
        let fl = small_faultload(3);
        store.run_resumable(&campaign, &fl, 0, false).unwrap();

        // Same campaign identity, different seed: the journal's slot results
        // were measured under other randomness and must not be spliced in.
        let reseeded = Campaign::new(
            Edition::Nimbus2000,
            ServerKind::Wren,
            CampaignConfig::builder()
                .interval(IntervalConfig {
                    duration: SimDuration::from_millis(300),
                    ..IntervalConfig::default()
                })
                .os_budget(150_000)
                .seed(999)
                .build(),
        );
        let err = store.run_resumable(&reseeded, &fl, 0, true).unwrap_err();
        assert!(
            matches!(&err, StoreError::StaleJournal { reason } if reason.contains("config hash")),
            "got {err}"
        );

        // A different faultload (other fault count) is also stale.
        let other_fl = small_faultload(2);
        let err = store
            .run_resumable(&campaign, &other_fl, 0, true)
            .unwrap_err();
        assert!(matches!(err, StoreError::StaleJournal { .. }), "got {err}");

        // But parallelism is excluded from the config hash: a campaign
        // journaled at -j1 resumes fine at -j4.
        let wide = Campaign::new(
            Edition::Nimbus2000,
            ServerKind::Wren,
            CampaignConfig::builder()
                .interval(IntervalConfig {
                    duration: SimDuration::from_millis(300),
                    ..IntervalConfig::default()
                })
                .os_budget(150_000)
                .parallelism(4)
                .build(),
        );
        assert!(store.run_resumable(&wide, &fl, 0, true).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stop_record_roundtrips_and_validates() {
        let (dir, store) = tmp_store("stop");
        let campaign = Campaign::new(Edition::Nimbus2000, ServerKind::Wren, quick_config());
        let fl = small_faultload(3);
        let conv = ConvergenceConfig {
            target_halfwidth_pct: 5.0,
            min_iters: 2,
            max_iters: 8,
        };

        // Nothing recorded yet.
        assert!(store.load_stop(&campaign, &fl, &conv).unwrap().is_none());

        let recorded = store.record_stop(&campaign, &fl, &conv, 3, true).unwrap();
        let loaded = store.load_stop(&campaign, &fl, &conv).unwrap().unwrap();
        assert_eq!(recorded, loaded);
        assert_eq!(loaded.stopped_at, 3);
        assert!(loaded.converged);

        // A different convergence rule must refuse to replay the decision.
        let tighter = ConvergenceConfig {
            target_halfwidth_pct: 1.0,
            ..conv
        };
        let err = store.load_stop(&campaign, &fl, &tighter).unwrap_err();
        assert!(
            matches!(&err, StoreError::StaleJournal { reason } if reason.contains("convergence")),
            "got {err}"
        );

        // So must a reconfigured campaign.
        let reseeded = Campaign::new(
            Edition::Nimbus2000,
            ServerKind::Wren,
            CampaignConfig::builder()
                .interval(IntervalConfig {
                    duration: SimDuration::from_millis(300),
                    ..IntervalConfig::default()
                })
                .os_budget(150_000)
                .seed(999)
                .build(),
        );
        let err = store.load_stop(&reseeded, &fl, &conv).unwrap_err();
        assert!(matches!(err, StoreError::StaleJournal { .. }), "got {err}");

        // A decision claiming more iterations than the rule allows is
        // stale too (e.g. a file tampered with or written by a buggy
        // build).
        store.record_stop(&campaign, &fl, &conv, 9, false).unwrap();
        let err = store.load_stop(&campaign, &fl, &conv).unwrap_err();
        assert!(
            matches!(&err, StoreError::StaleJournal { reason } if reason.contains("iteration")),
            "got {err}"
        );

        // clear_stop removes it; clearing again is not an error.
        store.clear_stop(&campaign).unwrap();
        assert!(store.load_stop(&campaign, &fl, &conv).unwrap().is_none());
        store.clear_stop(&campaign).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn changed_pack_set_is_refused_with_both_hashes() {
        let (dir, store) = tmp_store("packset");
        let campaign = Campaign::new(Edition::Nimbus2000, ServerKind::Wren, quick_config());
        let fl = small_faultload(3);
        assert!(!fl.packs.is_empty(), "scanner stamps pack provenance");
        store.run_resumable(&campaign, &fl, 0, false).unwrap();

        // Same fault ids, same image — but the faultload now claims it came
        // from different pack content (as if the pack file was edited and
        // happened to produce the same map). The journaled slot results were
        // measured under the original operator content; refuse loudly.
        let mut edited = fl.clone();
        edited.packs[0].content_hash ^= 1;
        let err = store
            .run_resumable(&campaign, &edited, 0, true)
            .unwrap_err();
        match &err {
            StoreError::StaleJournal { reason } => {
                assert!(reason.contains("pack"), "got {reason}");
                let stored = swfit_core::pack::pack_set_hash(&fl.packs);
                let current = swfit_core::pack::pack_set_hash(&edited.packs);
                assert!(
                    reason.contains(&format!("{stored:#018x}"))
                        && reason.contains(&format!("{current:#018x}")),
                    "error must list both hashes: {reason}"
                );
            }
            other => panic!("got {other}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pre_pack_journals_resume_under_pack_aware_builds() {
        let (dir, store) = tmp_store("prepack");
        let campaign = Campaign::new(Edition::Nimbus2000, ServerKind::Wren, quick_config());
        // A faultload with no pack provenance journals with no pack hash —
        // exactly what a pre-pack binary wrote.
        let mut legacy = small_faultload(3);
        legacy.packs.clear();
        let legacy_run = store.run_resumable(&campaign, &legacy, 0, false).unwrap();
        let raw = std::fs::read_to_string(store.journal_path(&campaign, 0)).unwrap();
        assert!(
            !raw.lines().next().unwrap().contains("pack_hash"),
            "pack-free header must omit the key (legacy byte-compat): {raw}"
        );

        // The same campaign resumed with a pack-stamped faultload (same
        // faults, rescanned by a pack-aware build) replays the journal.
        let mut stamped = legacy.clone();
        stamped.packs = small_faultload(3).packs;
        let resumed = store.run_resumable(&campaign, &stamped, 0, true).unwrap();
        assert_eq!(
            serde_json::to_string(&legacy_run).unwrap(),
            serde_json::to_string(&resumed).unwrap()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unfingerprinted_faultloads_cannot_be_journaled() {
        let (dir, store) = tmp_store("nofp");
        let campaign = Campaign::new(Edition::Nimbus2000, ServerKind::Wren, quick_config());
        let mut fl = small_faultload(2);
        fl.fingerprint = None;
        let err = store.run_resumable(&campaign, &fl, 0, false).unwrap_err();
        assert!(
            matches!(err, StoreError::MissingFingerprint { .. }),
            "got {err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
