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
use std::sync::Arc;

use depbench::{Campaign, CampaignResult};
use mvm::CodeImage;
use simchaos::ChaosFs;
use swfit_core::{Faultload, Scanner};

use crate::cache::FaultMapCache;
use crate::journal::{Journal, JournalHeader};
use crate::resilience::StoreCtx;
use crate::{io_err, StoreError};

/// A store rooted at one directory. Cheap to clone; all state is on disk
/// except the shared resilience context (chaos layer and degradation
/// latch), which clones share.
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

    /// Routes all store I/O through `chaos` — the environment-fault
    /// injection layer (`--chaos-seed` / `--chaos-profile` on the CLI).
    /// Called at setup time, before any campaign I/O.
    #[must_use]
    pub fn with_chaos(self, chaos: ChaosFs) -> FaultStore {
        FaultStore::open_ctx(self.root, StoreCtx::new(chaos))
            .expect("store root already existed when this store was first opened")
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
    /// Every completed slot is written to the journal before the campaign
    /// proceeds, so a SIGKILL at any point loses at most the in-flight
    /// slots. Records are fsynced once per [`GROUP`](crate::journal::GROUP)
    /// records, and the rest before this returns, so a power loss
    /// mid-campaign loses at most the last 31 records (they re-run on
    /// resume) and a returned iteration is durable. A journal *write* or fsync failure mid-campaign does not
    /// abort the run: the first record that fails past its retries prints
    /// one warning, degrades the store and ends journaling, so that slot
    /// and every later one re-execute on resume. A failed final sync
    /// degrades the same way.
    ///
    /// # Errors
    ///
    /// * [`StoreError::StaleJournal`] — `resume = true` but the existing
    ///   journal belongs to a different campaign/config/faultload;
    /// * [`StoreError::Campaign`] — the campaign itself failed;
    /// * [`StoreError::Io`] / [`StoreError::Json`] — journal I/O failure or
    ///   an unparsable journal header.
    pub fn run_resumable(
        &self,
        campaign: &Campaign,
        faultload: &Faultload,
        iteration: u64,
        resume: bool,
    ) -> Result<CampaignResult, StoreError> {
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
        let mut result = campaign.run_injection_observed(
            faultload,
            iteration,
            completed,
            &|slot, slot_result| {
                let Some(journal) = &journal else { return };
                // A lost record ends journaling: the journal refuses every
                // later in-order record without I/O, as it would leave a
                // gap, so only the lost slot itself warns.
                if let Err(e) = journal.record(slot, slot_result) {
                    if journal.lost().is_none_or(|lost| lost == slot) {
                        eprintln!(
                            "warning: journal append for slot {slot} failed ({e}); \
                             the slot will re-run on resume"
                        );
                        self.ctx.degrade("journal append failed");
                    }
                }
            },
        )?;
        if let Some(journal) = &journal {
            if let Err(e) = journal.sync() {
                eprintln!(
                    "warning: journal sync failed ({e}); its unsynced slots re-run on \
                     resume if a power loss takes them"
                );
                self.ctx.degrade("journal sync failed");
            }
        }
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

    /// Saves a campaign result under `name` (atomically: temp + fsync +
    /// rename — the fsync *before* the rename is what guarantees a crash
    /// cannot surface a renamed-but-empty result file).
    ///
    /// # Errors
    ///
    /// [`StoreError::BadRunName`] for unstorable names, otherwise
    /// [`StoreError::Io`] / [`StoreError::Encode`]. Unlike journal appends,
    /// a persistent save failure is an error, not a degradation: the
    /// caller explicitly asked for this artifact.
    pub fn save_run(&self, name: &str, result: &CampaignResult) -> Result<PathBuf, StoreError> {
        let path = self.run_path(name)?;
        let json =
            serde_json::to_string_pretty(result).map_err(|e| StoreError::Encode(e.to_string()))?;
        self.ctx.write_atomic(&path, json.as_bytes())?;
        Ok(path)
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
        Scanner::standard()
            .scan_functions(os.program().image(), &simos::OsApi::symbols())
            .sample(n)
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

    /// A power loss keeps the fsynced prefix and leaves anything in place
    /// of the unsynced group: here one whole record, a torn one and a run
    /// of NUL bytes after the last group commit. A fresh store's resume
    /// truncates that tail, re-runs the lost slots and reproduces the
    /// uninterrupted journal and result byte for byte.
    #[test]
    fn power_loss_tail_after_last_group_commit_resumes_byte_identical() {
        let (dir, store) = tmp_store("powerloss");
        let campaign = Campaign::new(Edition::Nimbus2000, ServerKind::Wren, quick_config());
        let n = crate::journal::GROUP + 4;
        let fl = small_faultload(n);
        assert_eq!(fl.len(), n);
        let full = store.run_resumable(&campaign, &fl, 0, false).unwrap();
        let full_json = serde_json::to_string(&full).unwrap();
        let path = store.journal_path(&campaign, 0);
        let reference = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = reference.lines().collect();
        assert_eq!(lines.len(), 1 + n);

        // Header plus the first group is what the group commit synced.
        let synced = 1 + crate::journal::GROUP;
        let mut torn = lines[..synced].join("\n") + "\n";
        torn += lines[synced];
        torn += "\n";
        torn += &lines[synced + 1][..lines[synced + 1].len() / 2];
        torn += &"\0".repeat(4096);
        std::fs::write(&path, torn).unwrap();

        let resumed = FaultStore::open(&dir)
            .unwrap()
            .run_resumable(&campaign, &fl, 0, true)
            .unwrap();
        assert_eq!(full_json, serde_json::to_string(&resumed).unwrap());
        assert_eq!(reference, std::fs::read_to_string(&path).unwrap());
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

        // A journal of another schema is one actionable line naming both
        // schemas.
        let (path, found) = (store.journal_path(&campaign, 0), r#"{"schema":2,"#);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains(found), "{text}");
        std::fs::write(&path, text.replacen(found, r#"{"schema":1,"#, 1)).unwrap();
        let err = store.run_resumable(&campaign, &fl, 0, true).unwrap_err();
        assert_eq!(
            err.to_string(),
            "stale campaign journal refused: journal written with schema 1; this build \
             reads schema 2 — re-run without `--resume`"
        );
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
}
