//! Property test over journal recovery: for any byte-truncation point of
//! a journal file, `open_resume` returns a prefix of the originally
//! recorded outcomes — never a partial or corrupt record — and recovery
//! is idempotent (a second open replays the same prefix). The store's
//! I/O failure points are swept one by one in `failure_points.rs`.

use std::path::PathBuf;
use std::sync::OnceLock;

use depbench::{Campaign, CampaignConfig, IntervalConfig, SlotError, SlotOutcome};
use faultstore::{Journal, JournalHeader};
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
