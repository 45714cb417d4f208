//! The chaos suite: campaigns whose store fails at one chosen operation,
//! and a hung slot.
//!
//! Every failure point of the store's I/O is swept in `failure_points.rs`;
//! these scenarios pin what the campaigns look like:
//!
//! * transient faults (EINTR/EAGAIN/short writes/failed fsyncs) are
//!   absorbed by retry — campaign results are **byte-identical** to a
//!   fault-free run, and a crash mid-record after them resumes to the seed
//!   run exactly;
//! * a hung slot is killed by the watchdog, journaled as `TimedOut`, and
//!   re-attempted by `--resume`;
//! * a store that fails from its first operation on (ENOSPC) degrades
//!   gracefully: the campaign completes, loudly, with `degraded: true`
//!   stamped on it;
//! * a disk that fills at one slot's journal append keeps every record
//!   before it.

use depbench::{Campaign, CampaignConfig, IntervalConfig, SlotError};
use faultstore::{ChaosFs, Fault, FaultStore, StoreError};
use simkit::SimDuration;
use simos::{Edition, Os};
use std::path::PathBuf;
use std::time::Duration;
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

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("faultstore-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A 4-slot campaign's store operations: the header's append (0) and
/// fsync (1), slot k's append (k + 2), the closing fsync (6).
#[test]
fn transient_faults_leave_campaign_results_byte_identical() {
    let campaign = Campaign::new(Edition::Nimbus2000, ServerKind::Wren, quick_config());
    let fl = small_faultload(4);

    let clean_dir = tmp_dir("transient-clean");
    let clean = FaultStore::open(&clean_dir)
        .unwrap()
        .run_resumable(&campaign, &fl, 0, false)
        .unwrap();
    let clean_json = serde_json::to_string(&clean).unwrap();

    // Transient faults at the header, a record and the closing fsync,
    // which retry absorbs.
    for (n, fault) in [
        (0, Fault::Eintr),
        (1, Fault::FsyncFail),
        (3, Fault::Eagain),
        (6, Fault::FsyncFail),
    ] {
        let chaos_dir = tmp_dir(&format!("transient-{n}"));
        let chaos = ChaosFs::fail_at(n, fault);
        let store = FaultStore::open(&chaos_dir)
            .unwrap()
            .with_chaos(chaos.clone());
        let chaotic = store.run_resumable(&campaign, &fl, 0, false).unwrap();
        assert_eq!(
            clean_json,
            serde_json::to_string(&chaotic).unwrap(),
            "transient harness faults must not change campaign results"
        );
        assert!(
            !chaotic.degraded,
            "transient faults never degrade the store"
        );
        assert!(!store.is_degraded());
        // The scenario only proves something if the fault fired.
        assert_eq!(chaos.injected(), 1, "{fault:?} at {n} fired nothing");

        // The journal survived the fault too: a resume replays, executes
        // nothing, and still matches.
        let replayed = store.run_resumable(&campaign, &fl, 0, true).unwrap();
        assert_eq!(clean_json, serde_json::to_string(&replayed).unwrap());
        std::fs::remove_dir_all(&chaos_dir).unwrap();
    }
    std::fs::remove_dir_all(&clean_dir).unwrap();
}

#[test]
fn torn_writes_then_resume_reproduce_the_seed_run_exactly() {
    let campaign = Campaign::new(Edition::Nimbus2000, ServerKind::Wren, quick_config());
    let fl = small_faultload(4);

    let clean_dir = tmp_dir("torn-clean");
    let clean = FaultStore::open(&clean_dir)
        .unwrap()
        .run_resumable(&campaign, &fl, 0, false)
        .unwrap();
    let clean_json = serde_json::to_string(&clean).unwrap();

    // A short write of slot 1's record, and a failed closing fsync.
    // Appends rewind to the last whole record before every retry, so no
    // partial record is ever visible to a reader.
    for (n, fault) in [(3, Fault::ShortWrite), (6, Fault::FsyncFail)] {
        let chaos_dir = tmp_dir(&format!("torn-{n}"));
        let store = FaultStore::open(&chaos_dir)
            .unwrap()
            .with_chaos(ChaosFs::fail_at(n, fault));
        let chaotic = store.run_resumable(&campaign, &fl, 0, false).unwrap();
        assert_eq!(clean_json, serde_json::to_string(&chaotic).unwrap());

        // Then crash mid-record: chop the journal and resume through a
        // fresh, chaos-free store — the journal on disk must be clean
        // enough that recovery is routine.
        let journal = store.journal_path(&campaign, 0);
        let raw = std::fs::read_to_string(&journal).unwrap();
        let lines: Vec<&str> = raw.lines().collect();
        assert_eq!(lines.len(), 1 + 4, "header plus one record per slot");
        let torn = format!("{}\n{}\n{{\"slot\":1,\"resu", lines[0], lines[1]);
        std::fs::write(&journal, torn).unwrap();
        let resumed = FaultStore::open(&chaos_dir)
            .unwrap()
            .run_resumable(&campaign, &fl, 0, true)
            .unwrap();
        assert_eq!(
            clean_json,
            serde_json::to_string(&resumed).unwrap(),
            "resume after torn writes must reproduce the seed run"
        );
        std::fs::remove_dir_all(&chaos_dir).unwrap();
    }
    std::fs::remove_dir_all(&clean_dir).unwrap();
}

#[test]
fn hung_slot_is_watchdog_killed_journaled_and_resumed() {
    let fl = small_faultload(4);
    let dir = tmp_dir("hang");
    let store = FaultStore::open(&dir).unwrap();

    let clean_campaign = Campaign::new(Edition::Nimbus2000, ServerKind::Wren, quick_config());
    let clean_dir = tmp_dir("hang-clean");
    let clean = FaultStore::open(&clean_dir)
        .unwrap()
        .run_resumable(&clean_campaign, &fl, 0, false)
        .unwrap();
    let clean_json = serde_json::to_string(&clean).unwrap();

    // Slot 2 wedges (spins until cancelled). The fixed budget sits well
    // above a debug-build slot, so only slot 2 overruns it: the watchdog
    // kills it and the campaign carries on.
    let mut hung = Campaign::new(Edition::Nimbus2000, ServerKind::Wren, quick_config())
        .with_slot_budget(Duration::from_secs(2));
    hung.hang_on_fault(&fl.faults[2].id);
    let partial = store.run_resumable(&hung, &fl, 0, false).unwrap();
    assert_eq!(partial.slots.len(), 3);
    assert_eq!(partial.quarantined.len(), 1);
    assert_eq!(partial.quarantined[0].slot, 2);
    assert!(
        matches!(partial.quarantined[0].error, SlotError::TimedOut { .. }),
        "got {:?}",
        partial.quarantined[0].error
    );
    let journal_raw = std::fs::read_to_string(store.journal_path(&clean_campaign, 0)).unwrap();
    assert!(
        journal_raw.contains("TimedOut"),
        "journal records the typed timeout:\n{journal_raw}"
    );

    // Resume with a healthy (hang-free) campaign: only the timed-out slot
    // re-runs, and the assembled result matches the clean run exactly.
    let resumed = store.run_resumable(&clean_campaign, &fl, 0, true).unwrap();
    assert_eq!(clean_json, serde_json::to_string(&resumed).unwrap());

    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&clean_dir).unwrap();
}

#[test]
fn persistent_store_failure_degrades_gracefully() {
    let campaign = Campaign::new(Edition::Nimbus2000, ServerKind::Wren, quick_config());
    let fl = small_faultload(3);

    let clean_dir = tmp_dir("enospc-clean");
    let mut clean = FaultStore::open(&clean_dir)
        .unwrap()
        .run_resumable(&campaign, &fl, 0, false)
        .unwrap();

    // ENOSPC on every write, persistently: the journal cannot even be
    // created. The campaign must still complete — un-journaled, stamped.
    let chaos_dir = tmp_dir("enospc-chaos");
    let store = FaultStore::open(&chaos_dir)
        .unwrap()
        .with_chaos(ChaosFs::fail_at(0, Fault::Enospc));
    let degraded = store.run_resumable(&campaign, &fl, 0, false).unwrap();
    assert!(degraded.degraded, "the result carries the degraded stamp");
    assert!(store.is_degraded());

    // Aside from the stamp, the measures are untouched: persistence is
    // observation, never part of the benchmark's randomness.
    clean.degraded = true;
    assert_eq!(
        serde_json::to_string(&clean).unwrap(),
        serde_json::to_string(&degraded).unwrap(),
        "degradation must not perturb the measures"
    );

    // Durable artifacts the user asked for by name still fail loudly —
    // silently dropping a `--save` would be worse than degrading.
    assert!(matches!(
        store.save_run("doomed", &degraded),
        Err(StoreError::Io(_))
    ));

    std::fs::remove_dir_all(&clean_dir).unwrap();
    std::fs::remove_dir_all(&chaos_dir).unwrap();
}

#[test]
fn first_failed_append_degrades_and_keeps_the_records_before_it() {
    let campaign = Campaign::new(Edition::Nimbus2000, ServerKind::Wren, quick_config());
    let fl = small_faultload(5);
    let clean_dir = tmp_dir("full-clean");
    let clean = FaultStore::open(&clean_dir)
        .unwrap()
        .run_resumable(&campaign, &fl, 0, false)
        .unwrap();
    let clean_json = serde_json::to_string(&clean).unwrap();

    // The journal header's append and fsync are operations 0 and 1, and
    // slot k's record is appended at operation k + 2: a disk that fills
    // there loses slot k's record, and fails every later write and fsync.
    for lost in [0, 2, 4] {
        let dir = tmp_dir(&format!("full-at-{lost}"));
        let store = FaultStore::open(&dir)
            .unwrap()
            .with_chaos(ChaosFs::fail_at(lost as u64 + 2, Fault::Enospc));
        let mut result = store.run_resumable(&campaign, &fl, 0, false).unwrap();
        assert!(result.degraded, "slot {lost}: the result carries the stamp");
        assert!(store.is_degraded());

        let journal = std::fs::read_to_string(store.journal_path(&campaign, 0)).unwrap();
        let records: Vec<&str> = journal.lines().skip(1).collect();
        assert_eq!(records.len(), lost, "slot {lost}:\n{journal}");
        for (slot, record) in records.iter().enumerate() {
            assert!(
                record.starts_with(&format!("{{\"slot\":{slot},")),
                "{record}"
            );
        }

        // The measures are untouched, and the kept records are whole: a
        // chaos-free resume replays them, runs the rest and reproduces the
        // clean result.
        result.degraded = false;
        assert_eq!(clean_json, serde_json::to_string(&result).unwrap());
        let resumed = FaultStore::open(&dir)
            .unwrap()
            .run_resumable(&campaign, &fl, 0, true)
            .unwrap();
        assert_eq!(clean_json, serde_json::to_string(&resumed).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::remove_dir_all(&clean_dir).unwrap();
}
