//! Property tests over the chaos layer's fault schedules.
//!
//! Two properties from the issue, checked over *arbitrary* inputs rather
//! than the hand-picked seeds of the scenario suite:
//!
//! * **No torn record ever escapes recovery**: for any byte-truncation
//!   point of a journal file, `open_resume` returns a prefix of the
//!   originally recorded outcomes — never a partial or corrupt record —
//!   and recovery is idempotent (a second open replays the same prefix).
//! * **Transient-only schedules are invisible**: for any chaos seed, a
//!   journaled campaign run through a transient-fault store produces a
//!   byte-identical `CampaignResult` to the fault-free run.

use std::path::PathBuf;
use std::sync::OnceLock;

use depbench::{Campaign, CampaignConfig, IntervalConfig, SlotError, SlotOutcome};
use faultstore::{ChaosConfig, ChaosFs, ChaosProfile, FaultStore, Journal, JournalHeader};
use proptest::prelude::*;
use simkit::SimDuration;
use simos::{Edition, Os};
use swfit_core::{Faultload, Scanner};
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

fn tmp_path(tag: &str, case: u64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "faultstore-props-{tag}-{}-{case}",
        std::process::id()
    ))
}

/// A pristine journal's full byte image plus what was recorded into it,
/// built once: booting the OS and scanning dominate the cost, and the
/// bytes are the same for every truncation case.
fn journal_fixture() -> &'static (Vec<u8>, Vec<SlotOutcome>) {
    static FIXTURE: OnceLock<(Vec<u8>, Vec<SlotOutcome>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let fl = small_faultload(6);
        let campaign = Campaign::new(Edition::Nimbus2000, ServerKind::Wren, quick_config());
        let header = JournalHeader::describe(&campaign, &fl, 0);
        let path = tmp_path("fixture", 0);
        let journal = Journal::create(&path, &header).unwrap();
        let mut outcomes = Vec::new();
        for slot in 0..fl.len() {
            let outcome = SlotOutcome::Quarantined(SlotError::Panicked {
                message: format!("synthetic quarantine for slot {slot}"),
            });
            journal.record(slot, &outcome).unwrap();
            outcomes.push(outcome);
        }
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        (bytes, outcomes)
    })
}

/// Expected campaign JSON and the faultload that produced it, built once.
fn campaign_fixture() -> &'static (Faultload, String) {
    static FIXTURE: OnceLock<(Faultload, String)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let fl = small_faultload(2);
        let campaign = Campaign::new(Edition::Nimbus2000, ServerKind::Wren, quick_config());
        let dir = tmp_path("campaign-clean", 0);
        let _ = std::fs::remove_dir_all(&dir);
        let clean = FaultStore::open(&dir)
            .unwrap()
            .run_resumable(&campaign, &fl, 0, false)
            .unwrap();
        let json = serde_json::to_string(&clean).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        (fl, json)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Chopping the journal at any byte leaves a replayable prefix:
    /// `open_resume` never surfaces a torn or invented record.
    #[test]
    fn truncated_journals_replay_a_clean_prefix(cut in 0usize..4096) {
        let (bytes, recorded) = journal_fixture();
        let cut = cut.min(bytes.len());
        let path = tmp_path("trunc", cut as u64);
        std::fs::write(&path, &bytes[..cut]).unwrap();

        let fl = small_faultload(6);
        let campaign = Campaign::new(Edition::Nimbus2000, ServerKind::Wren, quick_config());
        let header = JournalHeader::describe(&campaign, &fl, 0);
        match Journal::open_resume(&path, &header) {
            Ok((journal, outcomes)) => {
                prop_assert!(outcomes.len() <= recorded.len());
                for (got, want) in outcomes.iter().zip(recorded) {
                    prop_assert_eq!(
                        serde_json::to_string(got).unwrap(),
                        serde_json::to_string(want).unwrap(),
                        "a replayed record must be exactly what was recorded"
                    );
                }
                let replayed = outcomes.len();
                drop(journal);
                // Recovery truncated the torn tail durably: a second open
                // replays the identical prefix.
                let (_, again) = Journal::open_resume(&path, &header).unwrap();
                prop_assert_eq!(again.len(), replayed);
            }
            // A cut inside the header line leaves no identifiable
            // campaign; refusing is the only safe answer.
            Err(faultstore::StoreError::Json(_)) => {}
            Err(e) => return Err(TestCaseError::fail(format!("unexpected error: {e}"))),
        }
        std::fs::remove_file(&path).unwrap();
    }
}

proptest! {
    // Each case runs a real (if tiny) campaign; keep the count low enough
    // for CI while still sweeping several seeded schedules.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Any transient-only fault schedule is invisible in the results.
    #[test]
    fn any_transient_schedule_leaves_results_byte_identical(seed in any::<u64>()) {
        let (fl, clean_json) = campaign_fixture();
        let campaign = Campaign::new(Edition::Nimbus2000, ServerKind::Wren, quick_config());
        let dir = tmp_path("transient", seed);
        let _ = std::fs::remove_dir_all(&dir);
        let store = FaultStore::open(&dir).unwrap().with_chaos(ChaosFs::seeded(ChaosConfig {
            seed,
            profile: ChaosProfile::Transient,
        }));
        let chaotic = store.run_resumable(&campaign, fl, 0, false).unwrap();
        prop_assert_eq!(clean_json, &serde_json::to_string(&chaotic).unwrap());
        prop_assert!(!chaotic.degraded);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
